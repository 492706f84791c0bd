"""Observability smoke test: telemetry must be complete, parseable, and off
by default.

Two modes, both exercised by CI's ``obs-smoke`` job:

* no arguments — run a short directions session with :mod:`repro.obs`
  enabled, then validate the whole surface end to end: the snapshot holds
  darwin-phase histograms, cache hit/miss counters and tenant gauges; the
  run's ``DarwinResult.timings`` keys are among the histogram's phase
  labels; the Prometheus exposition round-trips through the repo's own
  parser; the ``--metrics-out`` snapshot file reads back; and a second,
  telemetry-off run records nothing (the NullRegistry guarantee) yet still
  returns its timings;
* ``--snapshot PATH`` — validate a snapshot file some other process wrote
  (CI points this at the output of ``repro run --metrics-out``).

Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import DarwinEngine, obs

SPEC = {
    "dataset": {"name": "directions", "num_sentences": 1000, "seed": 7,
                "parse_trees": False},
    "config": {"budget": 8, "traversal": "hybrid", "num_candidates": 400,
               "grammars": ["tokensregex"], "oracle": "ground_truth",
               "classifier": {"model": "logistic", "epochs": 12}},
    "seeds": {"rule_texts": ["best way to get to"]},
}

REQUIRED_FAMILIES = (
    "darwin_phase_seconds",
    "darwin_questions_total",
    "darwin_retrains_total",
    "feature_cache_hits",
    "feature_cache_misses",
    "coverage_interned",
    "tenant_questions",
)

REQUIRED_PHASES = {"index_build", "propose", "oracle_answer", "retrain"}


def snapshot_phases(snapshot: dict) -> set:
    """The ``darwin_phase_seconds`` phase labels a snapshot holds."""
    phase_family = snapshot.get("metrics", {}).get("darwin_phase_seconds", {})
    return {
        entry.get("labels", {}).get("phase")
        for entry in phase_family.get("series", [])
    }


def check_snapshot(snapshot: dict, source: str) -> list:
    """Failures found in one metrics snapshot dict (the ``snapshot()`` shape)."""
    failures = []
    if not snapshot.get("enabled"):
        return [f"{source}: snapshot says metrics were disabled"]
    metrics = snapshot.get("metrics", {})
    for family in REQUIRED_FAMILIES:
        if family not in metrics:
            failures.append(f"{source}: metric family {family!r} missing")
    missing = REQUIRED_PHASES - snapshot_phases(snapshot)
    if missing:
        failures.append(f"{source}: darwin phases missing: {sorted(missing)}")
    summary = obs.summarize_snapshot(snapshot)
    if not summary.get("questions", {}).get("total"):
        failures.append(f"{source}: summary records zero questions")

    # The exposition must round-trip through the repo's own parser.
    text = obs.render_snapshot(snapshot)
    try:
        parsed = obs.parse_prometheus_text(text)
    except ValueError as exc:
        return failures + [f"{source}: exposition does not parse: {exc}"]
    for family in REQUIRED_FAMILIES:
        if family in metrics and family not in parsed:
            failures.append(f"{source}: {family!r} absent from exposition")
    return failures


def validate_file(path: str) -> list:
    payload = obs.read_snapshot(path)
    failures = check_snapshot(payload.get("metrics", {}), path)
    failures += check_stats_exposition(path)
    return failures


def check_stats_exposition(path: str) -> list:
    """``repro stats --format prometheus`` must emit parseable exposition.

    Drives the real CLI handler (captured stdout), then round-trips the text
    through :func:`repro.obs.parse_prometheus_text` — covering the
    snapshot→CLI→exposition→parser loop, not just the in-process renderer.
    """
    import contextlib
    import io

    from repro.cli import main as repro_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = repro_main(
            ["stats", "--metrics", path, "--format", "prometheus"]
        )
    if exit_code != 0:
        return [f"{path}: repro stats --format prometheus exited {exit_code}"]
    text = stdout.getvalue()
    try:
        parsed = obs.parse_prometheus_text(text)
    except ValueError as exc:
        return [f"{path}: repro stats exposition does not parse: {exc}"]
    if not parsed:
        return [f"{path}: repro stats exposition parsed to zero families"]
    print(f"repro stats exposition: {len(parsed)} families parse back")
    return []


def run_session() -> list:
    registry = obs.enable()
    try:
        engine = DarwinEngine.from_config(SPEC)
        result = engine.run()
        print(f"instrumented run: {result.queries_used} questions, "
              f"{len(result.rule_set)} rules")
        snapshot = registry.snapshot()
        failures = check_snapshot(snapshot, "live registry")
        # Result timings and the phase histogram share one vocabulary.
        unlabelled = set(result.timings) - snapshot_phases(snapshot)
        if unlabelled:
            failures.append(f"result timings without a darwin_phase_seconds "
                            f"label: {sorted(unlabelled)}")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "metrics.json"
            obs.write_snapshot(out)
            failures += validate_file(str(out))
    finally:
        obs.disable()

    # Telemetry off: the same session must record nothing, anywhere.
    disabled = DarwinEngine.from_config(SPEC).run()
    print(f"telemetry-off run: {disabled.queries_used} questions")
    if not disabled.timings:
        failures.append("result timings are empty with telemetry off")
    if obs.get_registry().snapshot() != {"enabled": False, "metrics": {}}:
        failures.append("NullRegistry recorded series with telemetry off")
    if obs.get_tracer().spans():
        failures.append("NullTracer retained spans with telemetry off")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="validate this --metrics-out file instead of "
                             "running a session")
    args = parser.parse_args()
    failures = (
        validate_file(args.snapshot) if args.snapshot else run_session()
    )
    if failures:
        print("obs smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("obs smoke passed: snapshot complete, exposition parses, "
          "disabled path records nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
