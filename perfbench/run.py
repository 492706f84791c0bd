"""Annotator-turn benchmark: HTTP request to next proposal, end to end.

Run from the repository root (see perfbench/README.md)::

    python3 perfbench/run.py --workload tenants-5k --seed 1 --seconds 5 --trace 0

A run builds the workload's labels and inputs from ``--seed``, then makes
``ROUNDS`` *rounds* — launch the server (``server.py``), drive every
annotator session to its budget over HTTP (``loadgen.py``), scrape
``/metrics``, read PSS, SIGTERM and time the drain — and more rounds while
the drives add up to less than ``--seconds``; then launches and drains the
server without a drive until it has ``SETUPS`` set-up times.
``--trace 1`` runs one untraced round and one traced round with the same
inputs and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed correctness gate still
prints it, with ``correct`` false, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import loadgen
import spans as span_analysis
from measure import (
    TooFewSamples,
    history_digest,
    is_running,
    median,
    percentile,
    process_tree,
    tree_cpu_seconds,
    tree_pss_mb,
)
from workloads import (
    DATASET,
    WORKLOADS,
    Workload,
    connection_plan,
    dataset_seed,
    server_spec,
    tenant_id,
)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0

#: BLAS threads per server process. The generator, the gateway and the fleet
#: workers already fill ``nproc`` cores; OpenBLAS threads that spin on top of
#: them made turn times measure the scheduler.
SERVER_BLAS_THREADS = "1"

#: Full rounds per untraced run: two drives 15-30 s apart keep one burst of
#: host noise from setting a run's turn percentiles, and together outlast
#: ``--seconds``, so the round count does not follow the host's speed.
ROUNDS = 2

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END = {
    "answers_per_s": "1/s",
    "turn_p50_ms": "ms",
    "turn_p90_ms": "ms",
    "setup_s": "s",
    "drain_s": "s",
    "pss_mb": "MB",
    "final_recall": "ratio",
    "recall_auc": "ratio",
}

#: Per-layer metric -> (unit, better, end-to-end metric it should move, on).
#: Unit ``count-exact`` marks the program's own counters, which repeat
#: exactly for a given seed: across a run's rounds, across runs, and between
#: tenants-5k and fleet-5k.
LAYERS = {
    "gateway.http_ms": ("ms", "lower", "turn_p50_ms", "tenants-5k"),
    "gateway.self_ms": ("ms", "lower", "turn_p50_ms", "tenants-5k"),
    "gateway.queue_wait_ms": ("ms", "lower", "turn_p90_ms", "fleet-5k"),
    "fleet.rpc_ms": ("ms", "lower", "turn_p50_ms, answers_per_s", "fleet-5k"),
    "fleet.autosave_ms": ("ms", "lower", "turn_p90_ms, answers_per_s",
                          "fleet-5k"),
    "fleet.autosaves": ("count", "lower", "turn_p90_ms, answers_per_s",
                        "fleet-5k"),
    "fleet.start_s": ("s", "lower", "setup_s", "fleet-5k"),
    "crowd.self_ms": ("ms", "lower", "turn_p50_ms", "tenants-5k"),
    "crowd.flushes": ("count", "lower", "turn_p90_ms", "tenants-5k"),
    "crowd.flush_ms": ("ms", "lower", "turn_p90_ms", "tenants-5k"),
    "core.traversal_ms": ("ms", "lower", "turn_p50_ms", "all (NO turns)"),
    "core.refresh_ms": ("ms", "lower", "turn_p90_ms; turn_p50_ms",
                        "interactive-50k; tenants-5k"),
    "core.refreshes": ("count", "lower", "turn_p90_ms; turn_p50_ms",
                       "interactive-50k; tenants-5k"),
    "core.log_answer_ms": ("ms", "lower", "turn_p50_ms", "interactive-50k"),
    "classifier.retrains": ("count", "lower", "turn_p90_ms, answers_per_s",
                            "interactive-50k"),
    "classifier.retrain_ms": ("ms", "lower", "turn_p90_ms, answers_per_s",
                              "interactive-50k"),
    "classifier.fit_ms": ("ms", "lower", "turn_p90_ms",
                          "interactive-50k, tenants-5k"),
    "classifier.featurize_ms": ("ms", "lower", "turn_p90_ms",
                                "interactive-50k"),
    "classifier.rows_featurized": ("count", "lower", "turn_p90_ms",
                                   "interactive-50k"),
    "classifier.predict_ms": ("ms", "lower", "turn_p90_ms", "interactive-50k"),
    "classifier.feature_cache_hit_ratio": ("ratio", "higher",
                                           "setup_s, turn_p90_ms",
                                           "tenants-5k"),
    "index.build_s": ("s", "lower", "setup_s", "interactive-50k"),
    "index.cleanup_ms": ("ms", "lower", "turn_p90_ms", "interactive-50k"),
    "index.bitset_cache_hits": ("count-exact", "higher", "none", "fleet-5k"),
    "index.bitset_cache_misses": ("count-exact", "lower", "none", "fleet-5k"),
    "serving.pool_build_s": ("s", "lower", "setup_s", "interactive-50k"),
    "serving.tenant_start_ms": ("ms", "lower", "setup_s", "tenants-5k"),
    "serving.tenant_resident_bytes": ("bytes", "lower", "pss_mb",
                                      "tenants-5k"),
    "engine.save_ms": ("ms", "lower", "drain_s; turn_p90_ms",
                       "all; fleet-5k"),
    "engine.checkpoint_bytes": ("bytes", "lower", "drain_s; turn_p90_ms",
                                "all; fleet-5k"),
    "text.embeddings_fit_s": ("s", "lower", "setup_s", "interactive-50k"),
    "datasets.load_s": ("s", "lower", "setup_s", "interactive-50k"),
    "process.cpu_ms_per_answer": ("ms", "lower", "answers_per_s", "fleet-5k"),
    "counters.darwin_retrains_total": ("count-exact", "lower", "turn_p90_ms",
                                       "all"),
    "counters.crowd_flush_count": ("count-exact", "lower", "turn_p90_ms",
                                   "all"),
    "counters.feature_cache_hits": ("count-exact", "higher", "turn_p90_ms",
                                    "all"),
    "counters.feature_cache_misses": ("count-exact", "lower", "setup_s",
                                      "all"),
    "counters.gateway_rejected_total": ("count-exact", "lower",
                                        "answers_per_s", "all"),
    "counters.fleet_respawns_total": ("count-exact", "lower",
                                      "answers_per_s", "fleet-5k"),
    "trace.unattributed_pct": ("%", "lower", "none (trace coverage)", "all"),
    "trace.overhead_pct": ("%", "lower", "none (tracing cost)", "all"),
    "trace.unlinked_spans": ("count", "lower", "none (trace coverage)", "all"),
}


class GateFailure(Exception):
    """A correctness gate failed; the run reports ``correct: false``."""


# ------------------------------------------------------------------ inputs
def build_inputs(workload: Workload, seed: int):
    from repro.datasets import load_dataset
    from repro.datasets.registry import load_bank

    corpus = load_dataset(DATASET, num_sentences=workload.num_sentences,
                          seed=dataset_seed(seed), parse_trees=False)
    positives = corpus.positive_ids()
    default_rule = load_bank(DATASET).default_seed_rules[0]
    return positives, server_spec(workload, seed, positives, default_rule)


# --------------------------------------------------------------- environment
def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a drift marker, never a
    normaliser."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def git_commit() -> Optional[str]:
    """The checkout's commit, if it is a git repository (git is not asked to
    look above the checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the program's source, which names the code under test when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "cpu_probe_ms": cpu_probe_ms(),
    }


# -------------------------------------------------------------------- rounds
def scrape_counters(port: int) -> Dict[str, float]:
    """Program counters from ``GET /metrics``, summed over series."""
    from repro.obs.prometheus import parse_prometheus_text

    status, body = loadgen.http_request(port, "GET", "/metrics",
                                        request_id="metrics")
    if status != 200:
        raise GateFailure(f"GET /metrics returned {status}")
    families = parse_prometheus_text(body.decode("utf-8"))

    def total(family: str, sample: Optional[str] = None) -> float:
        samples = families.get(family, {}).get("samples", {})
        return float(sum(v for (name, _), v in samples.items()
                         if sample is None or name == sample))

    return {
        "darwin_retrains_total": total("darwin_retrains_total"),
        "crowd_flush_count": total("crowd_flush_seconds",
                                   "crowd_flush_seconds_count"),
        # One pool-wide cache per process; the per-tenant feature_cache_*
        # gauges repeat the same shared numbers once per tenant.
        "feature_cache_hits": total("pool_feature_cache_hits"),
        "feature_cache_misses": total("pool_feature_cache_misses"),
        "coverage_bitset_hits": total("coverage_bitset_hits"),
        "coverage_bitset_misses": total("coverage_bitset_misses"),
        "gateway_rejected_total": total("gateway_rejected_total"),
        "fleet_respawns_total": total("fleet_respawns_total"),
        "tenant_resident_bytes": total("pool_tenant_resident_bytes"),
    }


class Server:
    """One launch of ``server.py``; ``setup_s`` runs from ``Popen`` to the
    server's own ready timestamp (same monotonic clock)."""

    def __init__(self, spec: Dict[str, Any], round_dir: Path,
                 trace: bool) -> None:
        round_dir.mkdir(parents=True)
        spec_path = round_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        ready = round_dir / "ready.json"
        command = [sys.executable, str(HERE / "server.py"), "--spec",
                   str(spec_path), "--ready-file", str(ready)]
        self.spans_dir = round_dir / "spans" if trace else None
        if trace:
            command += ["--trace-dir", str(self.spans_dir)]
        tmp = round_dir / "tmp"
        tmp.mkdir()
        env = dict(
            os.environ, TMPDIR=str(tmp),
            OPENBLAS_NUM_THREADS=SERVER_BLAS_THREADS,
            OMP_NUM_THREADS=SERVER_BLAS_THREADS,
            PYTHONPATH=os.pathsep.join(filter(
                None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        )
        self.log_path = round_dir / "server.log"
        with open(self.log_path, "wb") as log:
            launched = time.perf_counter()
            self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                         stdout=log, stderr=subprocess.STDOUT)
        try:
            self.info = self._wait_ready(ready)
        except GateFailure:
            self.kill()
            raise
        self.setup_s = self.info["ready_at"] - launched

    def _wait_ready(self, ready: Path) -> Dict[str, Any]:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not ready.exists():
            if self.proc.poll() is not None:
                raise self.failure(f"server exited with "
                                   f"{self.proc.returncode} before it was ready")
            if time.perf_counter() > deadline:
                raise self.failure(f"server not ready within "
                                   f"{READY_TIMEOUT_S:.0f}s")
            time.sleep(0.005)
        return json.loads(ready.read_text())

    def drain(self) -> float:
        """SIGTERM, wait for exit; returns the drain time in seconds."""
        family = process_tree(self.proc.pid)
        signalled = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise self.failure(f"server did not drain within "
                               f"{DRAIN_TIMEOUT_S:.0f}s")
        drain_s = time.perf_counter() - signalled
        self._reap(family)
        if self.proc.returncode != 0:
            raise self.failure(f"server drained with exit code "
                               f"{self.proc.returncode}")
        return drain_s

    def kill(self) -> None:
        if self.proc.poll() is None:
            family = process_tree(self.proc.pid)
            for pid in family:
                _signal(pid, signal.SIGKILL)
            self.proc.wait()
            self._reap(family)

    def _reap(self, family: Sequence[int]) -> None:
        """Wait until the server's descendants (fleet workers, the
        shared-memory tracker) have ended too; SIGKILL them after 10 s."""
        alive = [pid for pid in family if pid != self.proc.pid]
        for grace_s in (10.0, 5.0):
            deadline = time.perf_counter() + grace_s
            while alive and time.perf_counter() < deadline:
                time.sleep(0.01)
                alive = [pid for pid in alive if is_running(pid)]
            for pid in alive:
                _signal(pid, signal.SIGKILL)

    def failure(self, message: str) -> GateFailure:
        return GateFailure(f"{message}\n--- server log tail ---\n"
                           f"{_tail(self.log_path)}")


def run_round(workload: Workload, spec: Dict[str, Any], positives,
              round_dir: Path, trace: bool) -> Dict[str, Any]:
    """Launch, drive, scrape, drain; returns the round's raw observations."""
    server = Server(spec, round_dir, trace)
    try:
        pid, port = server.proc.pid, server.info["port"]
        cpu_before = tree_cpu_seconds(pid)
        own_before = time.process_time()
        driven = loadgen.drive(port, connection_plan(workload), positives)
        own_cpu = time.process_time() - own_before
        server_cpu = tree_cpu_seconds(pid) - cpu_before
        counters = scrape_counters(port)
        pss_mb = tree_pss_mb(pid)
        drain_s = server.drain()
    except OSError as exc:
        raise server.failure(repr(exc)) from exc
    finally:
        server.kill()
    return {
        "trace": trace,
        "pid": pid,
        "blas_threads": server.info["blas_threads"],
        "setup_s": server.setup_s,
        "drain_s": drain_s,
        "pss_mb": pss_mb,
        "drive": driven,
        "counters": counters,
        "server_cpu_s": server_cpu,
        "generator_cpu_share": own_cpu / driven.wall_s if driven.wall_s else 0.0,
        "spans_dir": server.spans_dir,
    }


def setup_round(spec: Dict[str, Any], round_dir: Path) -> float:
    """Launch and drain without a drive; returns one more ``setup_s``."""
    server = Server(spec, round_dir, trace=False)
    try:
        server.drain()
    except OSError as exc:
        raise server.failure(repr(exc)) from exc
    finally:
        server.kill()
    return server.setup_s


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _tail(path: Path, lines: int = 30) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no server log)"


# ------------------------------------------------------------------- gates
def check_round(workload: Workload, result: Dict[str, Any]) -> Dict[str, str]:
    """Per-round gate; returns the per-tenant history digests."""
    driven = result["drive"]
    if driven.errors:
        raise GateFailure("; ".join(driven.errors))
    if driven.failed:
        raise GateFailure(f"{driven.failed} of {driven.attempted} requests "
                          f"returned non-200")
    digests = {}
    for position in range(workload.tenants):
        tenant = tenant_id(position)
        records = driven.records.get(tenant, [])
        if len(records) != workload.budget or (
            driven.committed.get(tenant) != workload.budget
        ):
            raise GateFailure(f"tenant {tenant} stopped at {len(records)} of "
                              f"its {workload.budget}-answer budget")
        digests[tenant] = history_digest(records)
    return digests


def check_digests(workload: Workload, seed: int, source: str,
                  rounds: Sequence[Dict[str, str]]) -> None:
    """Digests repeat across this run's rounds and earlier runs of the same
    sessions, seed and program source in this checkout (tenants-5k and
    fleet-5k share them). Keying on the source lets a change that alters
    behaviour on purpose start a fresh record instead of failing."""
    for index, digests in enumerate(rounds[1:], start=2):
        if digests != rounds[0]:
            raise GateFailure(f"history digests of round {index} differ from "
                              f"round 1")
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload.sessions}/seed={seed}/src={source[:16]}"
    previous = known.get(key)
    if previous is not None and previous["digests"] != rounds[0]:
        differing = sorted(t for t in rounds[0]
                           if previous["digests"].get(t) != rounds[0][t])
        raise GateFailure(
            f"history digests of {', '.join(differing)} differ from the "
            f"{previous['workload']} run recorded for seed {seed}"
        )
    if previous is None:
        known[key] = {"workload": workload.name, "digests": rounds[0]}
        STATE.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)


# ----------------------------------------------------------------- metrics
def quality(driven: loadgen.Drive) -> Dict[str, float]:
    finals, aucs = [], []
    for _, records in sorted(driven.records.items()):
        recalls = [r["recall"] for r in records]
        finals.append(recalls[-1])
        aucs.append(sum(recalls) / len(recalls))
    return {"final_recall": sum(finals) / len(finals),
            "recall_auc": sum(aucs) / len(aucs)}


def end_to_end(rounds: Sequence[Dict[str, Any]],
               setups: Sequence[float]) -> Dict[str, float]:
    turns = [t["ms"] for r in rounds for t in r["drive"].turns]
    values = {
        "answers_per_s": median([answer_rate(r) for r in rounds]),
        "turn_p50_ms": percentile(turns, 50),
        "turn_p90_ms": percentile(turns, 90),
        "setup_s": median(setups),
        "drain_s": median([r["drain_s"] for r in rounds]),
        "pss_mb": median([r["pss_mb"] for r in rounds]),
    }
    values.update(quality(rounds[0]["drive"]))
    return values


def per_layer(untraced: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, float]:
    driven = traced["drive"]
    spans = span_analysis.load_spans(traced["spans_dir"])
    unlinked = span_analysis.link_cross_hops(spans)
    table = span_analysis.layer_metrics(
        spans, driven.requests, (driven.started, driven.ended), traced["pid"]
    )
    values = {name: entry["value"] for name, entry in table.items()}
    counters = untraced["counters"]
    answers = sum(untraced["drive"].committed.values())
    lookups = counters["feature_cache_hits"] + counters["feature_cache_misses"]
    values.update({
        "classifier.feature_cache_hit_ratio":
            counters["feature_cache_hits"] / lookups if lookups else 0.0,
        "index.bitset_cache_hits": counters["coverage_bitset_hits"],
        "index.bitset_cache_misses": counters["coverage_bitset_misses"],
        "serving.tenant_resident_bytes": counters["tenant_resident_bytes"],
        "process.cpu_ms_per_answer": untraced["server_cpu_s"] * 1e3 / answers,
        "trace.unlinked_spans": float(sum(
            driven.started <= s["start"] <= driven.ended for s in unlinked)),
    })
    for name in ("darwin_retrains_total", "crowd_flush_count",
                 "feature_cache_hits", "feature_cache_misses",
                 "gateway_rejected_total", "fleet_respawns_total"):
        values[f"counters.{name}"] = counters[name]
    shares = span_analysis.self_time_shares(spans, driven.turns)
    values["trace.unattributed_pct"] = shares.get("unattributed", 0.0) * 1e2
    plain, traced_rate = answer_rate(untraced), answer_rate(traced)
    values["trace.overhead_pct"] = (plain - traced_rate) / plain * 1e2
    _print_layer_table(table, shares)
    return values


def answer_rate(result: Dict[str, Any]) -> float:
    """Answers committed per second of one round's drive."""
    driven = result["drive"]
    return sum(driven.committed.values()) / driven.wall_s


def _print_layer_table(table: Dict[str, Dict[str, float]],
                       shares: Dict[str, float]) -> None:
    print("per-layer (traced round; value per call unless a count):")
    for name, entry in table.items():
        unit, _, moves, on = LAYERS[name]
        print(f"  {name:34s} {entry['value']:12.4f} {unit:5s} "
              f"calls={entry['calls']:<7.0f} moves {moves} on {on}")
    print("self-time share of the turn time the generator saw:")
    for name, share in shares.items():
        print(f"  {name:34s} {share * 100:6.2f}%")


# ---------------------------------------------------------------------- main
def run(workload: Workload, seed: int, seconds: float, trace: bool,
        run_dir: Path, tally: Dict[str, int]) -> Dict[str, Any]:
    """Every round of one run; ``tally`` counts requests as they complete,
    so a failed gate still reports what was attempted."""
    env = environment(seed)
    positives, spec = build_inputs(workload, seed)
    # A traced run is one untraced round, for the overhead baseline and the
    # counters, then one traced round. Otherwise ``ROUNDS`` rounds, and more
    # until the drives add up to ``seconds``.
    plan = [False, True] if trace else [False] * ROUNDS
    rounds: List[Dict[str, Any]] = []
    while plan or (not trace and sum(r["drive"].wall_s for r in rounds)
                   < seconds):
        traced = plan.pop(0) if plan else False
        result = run_round(workload, spec, positives,
                           run_dir / f"round-{len(rounds) + 1}", traced)
        tally["attempted"] += result["drive"].attempted
        tally["failed"] += result["drive"].failed
        result["digests"] = check_round(workload, result)
        rounds.append(result)
    check_digests(workload, seed, env["source_sha256"],
                  [r["digests"] for r in rounds])
    untraced = [r for r in rounds if not r["trace"]]
    setups = [r["setup_s"] for r in untraced]
    while not trace and len(setups) < SETUPS:
        setups.append(setup_round(spec, run_dir / f"setup-{len(setups) + 1}"))
    env["blas_threads"] = rounds[0]["blas_threads"]
    env["generator_cpu_share"] = median(
        [r["generator_cpu_share"] for r in rounds])
    if trace:
        metrics = per_layer(untraced[0], rounds[-1])
        units = {name: LAYERS[name][0] for name in LAYERS}
    else:
        metrics = end_to_end(untraced, setups)
        units = END_TO_END
    samples = {
        "rounds": len(rounds),
        "turns": sum(len(r["drive"].turns) for r in untraced),
        "answers": sum(sum(r["drive"].committed.values()) for r in untraced),
        "setups": len(setups),
    }
    return {
        "workload": workload.name,
        "environment": env,
        "samples": samples,
        "counters": untraced[0]["counters"],
        # Equal sessions must leave equal program counters: a count a later
        # change may rest a claim on is one that repeats exactly.
        "counters_repeat": all(r["counters"] == rounds[0]["counters"]
                               for r in rounds),
        "digests": rounds[0]["digests"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found "
              f"under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    run_dir = STATE / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0}
    try:
        report = run(workload, args.seed, args.seconds, bool(args.trace),
                     run_dir, tally)
    except (GateFailure, TooFewSamples) as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(tally["attempted"], 1),
                          "failed": tally["failed"], "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}"
               ".json").write_text(json.dumps(report, indent=1))
    print(f"perfbench {workload.name} seed={args.seed}: "
          f"{json.dumps(report['samples'])}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"counters: {json.dumps(report['counters'])}")
    if report["samples"]["rounds"] > 1:
        print("counters repeat exactly across rounds: "
              f"{'yes' if report['counters_repeat'] else 'NO'}")
    print(json.dumps({"correct": True, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
