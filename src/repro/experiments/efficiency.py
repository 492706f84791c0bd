"""Section 4.5 "Efficiency in Label Collection": wall-clock breakdown.

The paper reports index construction under 5 minutes, hierarchy generation
under 15 minutes for 100K sentences, and traversal dominated by classifier
scoring. The reproduction cannot match those absolute numbers (different
hardware, pure Python), so this experiment records the same *breakdown*
(index build / hierarchy generation and refresh / traversal ``propose`` /
score update ``apply``, keyed by their ``darwin_phase_seconds`` labels)
across corpus sizes and checks that index construction grows roughly
linearly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import DarwinConfig
from ..evaluation.runner import ExperimentResult
from .common import prepare_dataset


def efficiency_experiment(
    dataset: str = "directions",
    scales: Sequence[float] = (0.05, 0.1, 0.2),
    budget: int = 30,
    seed: int = 0,
    config: Optional[DarwinConfig] = None,
) -> ExperimentResult:
    """Measure Darwin's wall-clock breakdown at several corpus sizes.

    Returns:
        An :class:`ExperimentResult` whose series are per-phase timings (in
        seconds) indexed by the corpus sizes listed in the metadata.
    """
    sizes: List[int] = []
    phases = ("index_build", "embeddings", "initial_training",
              "hierarchy_generation", "hierarchy_refresh", "propose", "apply")
    timings: Dict[str, List[float]] = {phase: [] for phase in phases}

    for scale in scales:
        setting = prepare_dataset(dataset, scale=scale, seed=seed, config=config)
        sizes.append(len(setting.corpus))
        # At very small scales the dataset's default seed rule may not match
        # anything; fall back to a couple of ground-truth positives as seeds.
        seed_phrase = tuple(setting.seed_rule_texts[0].lower().split())
        has_seed_coverage = any(
            s.contains_phrase(seed_phrase) for s in setting.corpus
        )
        if has_seed_coverage:
            run = setting.run_darwin(traversal="hybrid", budget=budget)
        else:
            seed_positives = sorted(setting.corpus.positive_ids())[:3]
            run = setting.run_darwin(
                traversal="hybrid", budget=budget, seed_positive_ids=seed_positives
            )
        for phase in phases:
            timings[phase].append(run.timings.get(phase, {}).get("total", 0.0))
        # Index/embedding time is recorded by the Darwin constructor only when
        # it builds them itself; prepare_dataset pre-builds them, so measure
        # separately through a fresh Darwin without the shared artifacts.
        if run.timings.get("index_build", {}).get("total", 0.0) == 0.0:
            from ..core.darwin import Darwin

            fresh = Darwin(setting.corpus, grammars=setting.grammars,
                           config=setting.config)
            for phase in ("index_build", "embeddings"):
                timings[phase][-1] = fresh.timings()[phase]["total"]

    result = ExperimentResult(
        name=f"efficiency-{dataset}",
        metadata={"dataset": dataset, "corpus_sizes": sizes, "budget": budget},
    )
    for phase in phases:
        result.add_series(phase, timings[phase])
    return result
