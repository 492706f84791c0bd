"""Index/coverage scaling benchmark (columnar coverage store PR).

Measures, at 1k / 10k / 50k synthetic sentences:

* corpus-index build time (sketch merge + seal/interning),
* ``top_by_overlap`` — the new inverted-map implementation against a faithful
  re-implementation of the pre-refactor full-index scan over per-node Python
  sets,
* hierarchy refresh — Darwin's incremental re-expansion against full
  candidate regeneration,
* per-question loop latency — a Darwin run on the columnar fast paths
  against a run with the pre-refactor hot paths *emulated* (Python-set
  overlap counts, per-id benefit loops, set-difference cleanup, full
  hierarchy regeneration per accept), holding everything else (classifier,
  oracle, corpus, seeds) identical.

Results are written to ``BENCH_index_scale.json`` next to the repo root so
the performance trajectory is tracked from this PR onward.

Run with::

    PYTHONPATH=src python benchmarks/bench_index_scale.py [--sizes 1000 10000]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import numpy as np

from bench_utils import bench_registry, metrics_block, timed_phase
from repro import obs
from repro.config import ClassifierConfig, DarwinConfig
from repro.core.benefit import BenefitScorer
from repro.core.candidates import CandidateOptions, generate_candidates
from repro.core.darwin import Darwin
from repro.core.hierarchy_builder import build_hierarchy
from repro.core.oracle import GroundTruthOracle
from repro.datasets import load_dataset
from repro.grammars.tokensregex import TokensRegexGrammar
from repro.index.hierarchy import RuleHierarchy
from repro.index.trie_index import CorpusIndex

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_index_scale.json"


def _time(fn, repeats: int = 5) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# --------------------------------------------------------------------- legacy
def legacy_top_by_overlap(index: CorpusIndex, legacy_sets, sentence_ids, limit):
    """The pre-refactor implementation: one set intersection per index node."""
    query = set(sentence_ids)
    scored = []
    for key in index.keys():
        overlap = len(legacy_sets[key] & query)
        if overlap > 0:
            scored.append((key, overlap))
    scored.sort(key=lambda item: (-item[1], -index.nodes[item[0]].count, repr(item[0])))
    return scored[:limit]


@contextmanager
def legacy_hot_paths(index: CorpusIndex):
    """Emulate the pre-refactor hot paths on the current code base.

    Patches (restored on exit) reproduce what every layer did before the
    columnar coverage store:

    * ``CorpusIndex.heuristic`` / ``coverage_of_expression`` — materialize a
      fresh ``frozenset`` / ``set`` copy per call, so every downstream rule
      carries Python-set coverage (which routes benefit, cleanup and rule-set
      maintenance down their per-id Python paths automatically),
    * ``CorpusIndex.overlap_count`` — Python-set membership loop per node,
    * ``BenefitScorer.new_count`` — uncached per-id loop per candidate per
      propose (the old gain filter materialized ``new_ids`` lists each time),
    * ``RuleHierarchy.cleanup`` — per-rule ``set(coverage) - covered`` copies,
    * ``Darwin._refresh_hierarchy_incremental`` — full candidate regeneration
      (``Darwin._build_hierarchy``) after every accept.
    """
    legacy_sets = {key: set(index.nodes[key].sentence_ids) for key in index.keys()}

    original_heuristic = CorpusIndex.heuristic
    original_cov_expr = CorpusIndex.coverage_of_expression
    original_overlap = CorpusIndex.overlap_count
    original_new_count = BenefitScorer.new_count
    original_new_ids = BenefitScorer._new_ids_array
    original_cleanup = RuleHierarchy.cleanup
    original_refresh = Darwin._refresh_hierarchy_incremental

    def heuristic(self, key):
        rule = original_heuristic(self, key)
        return rule.with_coverage(frozenset(legacy_sets.get(key, rule.coverage)))

    def coverage_of_expression(self, grammar_name, expression, corpus=None):
        result = original_cov_expr(self, grammar_name, expression, corpus)
        return set(result)

    def overlap_count(self, key, mask):
        covered = legacy_sets.get(key)
        if covered is None:
            covered = set(self.nodes[key].sentence_ids)
        return sum(1 for sid in covered if sid < mask.size and mask[sid])

    def new_count(self, rule):
        return sum(1 for sid in rule.coverage if sid not in self._covered)

    def new_ids_array(self, rule):
        return np.array(
            [sid for sid in rule.coverage if sid not in self._covered],
            dtype=np.int64,
        )

    def cleanup(self, covered_ids):
        if isinstance(covered_ids, np.ndarray):
            covered_ids = set(np.flatnonzero(covered_ids).tolist())
        covered = set(covered_ids)
        removable = [
            rule for rule in self._nodes if not (set(rule.coverage) - covered)
        ]
        for rule in removable:
            self.remove(rule)
        return len(removable)

    def refresh_hierarchy(self, new_positive_ids):
        return self._build_hierarchy()

    CorpusIndex.heuristic = heuristic
    CorpusIndex.coverage_of_expression = coverage_of_expression
    CorpusIndex.overlap_count = overlap_count
    BenefitScorer.new_count = new_count
    BenefitScorer._new_ids_array = new_ids_array
    RuleHierarchy.cleanup = cleanup
    Darwin._refresh_hierarchy_incremental = refresh_hierarchy
    try:
        yield
    finally:
        CorpusIndex.heuristic = original_heuristic
        CorpusIndex.coverage_of_expression = original_cov_expr
        CorpusIndex.overlap_count = original_overlap
        BenefitScorer.new_count = original_new_count
        BenefitScorer._new_ids_array = original_new_ids
        RuleHierarchy.cleanup = original_cleanup
        Darwin._refresh_hierarchy_incremental = original_refresh


# ------------------------------------------------------------------ measures
def measure_scale(num_sentences: int, budget: int) -> Dict[str, object]:
    corpus = load_dataset("directions", num_sentences=num_sentences, seed=7)
    grammar = TokensRegexGrammar(max_phrase_len=4)

    start = time.perf_counter()
    index = CorpusIndex.build(corpus, [grammar], max_depth=10, min_coverage=2)
    build_seconds = time.perf_counter() - start

    positives = sorted(corpus.positive_ids())
    query = set(positives[: max(10, len(positives) // 5)])

    # --- top_by_overlap: inverted map vs full-index set scan ----------------
    new_overlap_s = _time(lambda: index.top_by_overlap(query, limit=50))
    legacy_sets = {key: set(index.nodes[key].sentence_ids) for key in index.keys()}
    legacy_overlap_s = _time(
        lambda: legacy_top_by_overlap(index, legacy_sets, query, limit=50)
    )
    assert index.top_by_overlap(query, limit=50) == legacy_top_by_overlap(
        index, legacy_sets, query, limit=50
    )

    # --- hierarchy refresh: incremental attach vs full regeneration --------
    options = CandidateOptions(num_candidates=2000, min_coverage=2)
    seed_positives = set(positives[: max(5, len(positives) // 10)])
    candidates = generate_candidates(index, seed_positives, options)
    new_batch = [
        sid for sid in positives if sid not in seed_positives
    ][: max(5, len(positives) // 20)]

    from repro.core.hierarchy_builder import attach_candidates

    def full_refresh():
        grown = seed_positives | set(new_batch)
        cands = generate_candidates(index, grown, options)
        build_hierarchy(cands, index=index, covered_ids=set())

    full_refresh_s = _time(full_refresh, repeats=3)

    # The incremental path mutates the hierarchy, so each timed repeat gets a
    # fresh (untimed) base hierarchy and we time only the refresh work itself
    # — exactly what Darwin._refresh_hierarchy_incremental does per accept.
    incremental_samples = []
    for _ in range(3):
        hierarchy = build_hierarchy(candidates, index=index, covered_ids=set())
        start_inc = time.perf_counter()
        affected = set()
        for sid in new_batch:
            affected.update(index.keys_covering(sid))
        fresh = []
        for key in sorted(affected, key=repr):
            if index.count(key) < 2:
                continue
            rule = index.heuristic(key)
            if rule not in hierarchy:
                fresh.append(rule)
        attach_candidates(hierarchy, fresh)
        incremental_samples.append(time.perf_counter() - start_inc)
    incremental_refresh_s = statistics.median(incremental_samples)

    # --- per-question loop latency ------------------------------------------
    config = DarwinConfig(
        budget=budget,
        num_candidates=2000,
        min_coverage=2,
        retrain_every=5,
        classifier=ClassifierConfig(model="logistic", epochs=10, embedding_dim=30),
    )
    oracle = GroundTruthOracle(corpus)

    featurizer_holder = {}

    def run_loop(run_config: DarwinConfig) -> Dict[str, float]:
        """Time only the interactive question loop.

        Index construction, embedding fitting and initial training are
        deliberately outside the timed region: the paper's interactivity
        requirement (Figs. 11-12) is about the latency *between* oracle
        questions, and the setup cost is identical in both arms.
        """
        from repro.core.oracle import BudgetedOracle

        darwin = Darwin(
            corpus, grammars=[grammar], config=run_config, index=index,
            featurizer=featurizer_holder.get("featurizer"),
        )
        featurizer_holder["featurizer"] = darwin.featurizer
        darwin.start(seed_rule_texts=["best way to get to"])
        budgeted = BudgetedOracle(base=oracle, budget=run_config.budget)
        start = time.perf_counter()
        while budgeted.queries_used < run_config.budget:
            rule = darwin.propose_next()
            if rule is None:
                break
            answer = budgeted.ask(rule, darwin.sample_for_query(rule))
            darwin.record_answer(rule, answer.is_useful)
        elapsed = time.perf_counter() - start
        totals = {phase: block["total"] for phase, block in darwin.timings().items()}
        questions = max(budgeted.queries_used, 1)
        truth = corpus.positive_ids()
        return {
            "total_s": elapsed,
            "questions": float(budgeted.queries_used),
            "per_question_ms": 1000.0 * elapsed / questions,
            "hierarchy_generation_s": totals.get("hierarchy_generation", 0.0)
            + totals.get("hierarchy_refresh", 0.0),
            "score_update_s": totals.get("apply", 0.0),
            "final_recall": darwin.rule_set.recall(truth),
        }

    with timed_phase("loop_new"):
        new_loop = run_loop(config)
    with legacy_hot_paths(index), timed_phase("loop_legacy"):
        legacy_loop = run_loop(config)

    entry: Dict[str, object] = {
        "num_sentences": num_sentences,
        "index": {
            "build_seconds": round(build_seconds, 4),
            "num_nodes": len(index) - 1,
            "interned_coverages": index.store.num_interned,
            "interned_bytes": index.store.bytes_interned,
        },
        "top_by_overlap": {
            "new_ms": round(1000 * new_overlap_s, 4),
            "legacy_ms": round(1000 * legacy_overlap_s, 4),
            "speedup": round(legacy_overlap_s / max(new_overlap_s, 1e-9), 2),
        },
        "hierarchy_refresh": {
            "incremental_ms": round(1000 * incremental_refresh_s, 4),
            "full_ms": round(1000 * full_refresh_s, 4),
            "speedup": round(full_refresh_s / max(incremental_refresh_s, 1e-9), 2),
        },
        "per_question_loop": {
            "new_ms": round(new_loop["per_question_ms"], 3),
            "legacy_ms": round(legacy_loop["per_question_ms"], 3),
            "speedup": round(
                legacy_loop["per_question_ms"]
                / max(new_loop["per_question_ms"], 1e-9),
                2,
            ),
            "new": {k: round(v, 4) for k, v in new_loop.items()},
            "legacy": {k: round(v, 4) for k, v in legacy_loop.items()},
        },
    }
    if obs.get_registry().enabled:
        # p50/p95 per phase (darwin_phase_seconds + bench_phase_seconds) —
        # informational in check_regression.py, never gated.
        entry["metrics"] = metrics_block()
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1000, 10000, 50000],
        help="corpus sizes (sentences) to measure",
    )
    parser.add_argument("--budget", type=int, default=40,
                        help="oracle budget for the per-question loop runs")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH)
    parser.add_argument(
        "--obs", action="store_true",
        help="enable repro.obs during the runs and embed a per-size "
             "'metrics' block (p50/p95 per phase) in the output JSON; "
             "leave off for perf-gate runs so the timed arms stay "
             "telemetry-free",
    )
    args = parser.parse_args()

    results: List[Dict[str, object]] = []
    for size in args.sizes:
        print(f"== {size} sentences ==")
        if args.obs:
            bench_registry()  # fresh registry per size: no series bleed-over
        entry = measure_scale(size, budget=args.budget)
        if args.obs:
            obs.disable()
        results.append(entry)
        overlap = entry["top_by_overlap"]
        refresh = entry["hierarchy_refresh"]
        loop = entry["per_question_loop"]
        print(f"  index build        : {entry['index']['build_seconds']:.2f}s "
              f"({entry['index']['num_nodes']} nodes, "
              f"{entry['index']['interned_coverages']} interned coverages)")
        print(f"  top_by_overlap     : {overlap['new_ms']:.3f}ms vs "
              f"{overlap['legacy_ms']:.3f}ms legacy  ({overlap['speedup']}x)")
        print(f"  hierarchy refresh  : {refresh['incremental_ms']:.2f}ms vs "
              f"{refresh['full_ms']:.2f}ms full  ({refresh['speedup']}x)")
        print(f"  per-question loop  : {loop['new_ms']:.2f}ms vs "
              f"{loop['legacy_ms']:.2f}ms legacy  ({loop['speedup']}x)")

    payload = {
        "benchmark": "bench_index_scale",
        "dataset": "directions",
        "budget": args.budget,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
