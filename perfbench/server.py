"""Benchmark server: one gateway process over a workload's tenants.

Built from the constructors and settings ``repro serve-http`` uses —
``TenantPool`` or ``FleetSupervisor``, then ``GatewayApp``, then
``build_server``; ``DarwinConfig(num_candidates=1000)``,
``ClassifierConfig(epochs=40)``, ``CrowdConfig(redundancy=1,
annotator_latency=0)``, default ``GatewayConfig``/``FleetConfig`` apart from
paths, obs enabled, and the same SIGTERM drain. It exists beside the CLI only
because every tenant here gets its own seeds, which ``--seed-rule`` cannot
express.

``run.py`` starts it; by hand (from the repository root)::

    PYTHONPATH=src python3 perfbench/server.py --spec SPEC.json \\
        --ready-file READY.json [--trace-dir DIR]

Once listening with every tenant started it writes ``READY.json`` with the
port and its own ``time.perf_counter()`` reading, so the generator measures
set-up without polling delay.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or None when it is not found."""
    try:
        with open("/proc/self/maps", encoding="ascii") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, type=Path)
    parser.add_argument("--ready-file", required=True, type=Path)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    workdir = args.spec.parent

    from repro import obs
    from repro.config import (
        ClassifierConfig,
        CrowdConfig,
        DarwinConfig,
        FleetConfig,
        GatewayConfig,
    )
    from repro.datasets import load_dataset
    from repro.gateway import FleetBackend, GatewayApp, build_server

    config = DarwinConfig(
        budget=spec["budget"],
        num_candidates=1000,
        classifier=ClassifierConfig(epochs=40),
    )
    recorder = None
    if args.trace_dir is not None:
        import tracing

        recorder = tracing.install(args.trace_dir, config.classifier)

    # As in serve-http: instrumented before any component exists.
    obs.enable()
    start = time.perf_counter()
    corpus = load_dataset(spec["dataset"], num_sentences=spec["num_sentences"],
                          seed=spec["dataset_seed"], parse_trees=False)
    if recorder is not None:
        recorder.record("datasets.load", start, time.perf_counter())
    crowd_config = CrowdConfig(
        num_annotators=spec["annotators"],
        redundancy=1,
        batch_size=spec["batch_size"],
        budget=spec["budget"],
        annotator_latency=0.0,
        seed=spec["dataset_seed"],
    )
    gateway_config = GatewayConfig(
        port=0, checkpoint_dir=str(workdir / "checkpoints")
    )
    dataset_spec = {"name": spec["dataset"],
                    "options": {"num_sentences": spec["num_sentences"],
                                "seed": spec["dataset_seed"],
                                "parse_trees": False}}

    def serve(app: GatewayApp) -> None:
        server = build_server(app)

        def drain(signum: int, frame: object) -> None:
            app.begin_drain()
            threading.Thread(target=server.stop, name="gateway-shutdown",
                             daemon=True).start()

        signal.signal(signal.SIGTERM, drain)
        _write_json(args.ready_file, {
            "port": server.port,
            "pid": os.getpid(),
            "ready_at": time.perf_counter(),
            "blas_threads": blas_threads(),
        })
        server.serve_forever()
        app.finish_drain()

    if spec["workers"] > 1:
        from repro.fleet import FleetSupervisor

        supervisor = FleetSupervisor(
            corpus, config,
            fleet=FleetConfig(workers=spec["workers"],
                              workdir=str(workdir / "fleet")),
            crowd_config=crowd_config,
            dataset_spec=dataset_spec,
        )
        with supervisor:
            for tenant in spec["tenants"]:
                supervisor.spawn_tenant(tenant["id"], seeds=tenant["seeds"],
                                        worker=tenant["worker"])
            serve(GatewayApp(
                config=gateway_config,
                crowd_config=crowd_config,
                backend=FleetBackend(supervisor,
                                     gateway_config.checkpoint_dir),
            ))
    else:
        from repro.serving import TenantPool

        with TenantPool(corpus, config, dataset_spec=dataset_spec) as pool:
            for tenant in spec["tenants"]:
                pool.spawn(tenant["id"], seeds=tenant["seeds"])
            serve(GatewayApp(pool, gateway_config, crowd_config))
    if recorder is not None:
        recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
