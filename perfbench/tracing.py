"""Span recording for the traced run, installed by the server launcher.

:func:`install` wraps public methods of the program's layers at class (or
module) level, before any component exists and before the fleet forks, so
fleet workers inherit the wrappers. Each call records one span: name, start,
end, the enclosing span on the same thread, and the tenant or request id
where the call names one. Spans stay in memory per process; a process
writes ``spans-<pid>.json`` when its ``TenantPool`` closes (fleet workers at
shutdown) and the launcher writes its own at exit.

The program carries no trace context across its queue hop (HTTP thread to
tenant worker thread) or its pipe RPC (gateway to fleet worker); those
spans start a new stack and are linked afterwards by tenant and order
(:mod:`spans`).
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

Attrs = Callable[..., Dict[str, Any]]

_TENANT_PATH = re.compile(r"^/tenants/(?P<tenant>[A-Za-z0-9._-]+)/")

#: Header the load generator sets on every request.
REQUEST_ID_HEADER = "x-request-id"


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # A forked worker starts with an empty store: the parent's spans
        # are the parent's to write.
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.spans = []
        self._local = threading.local()

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span timed by the caller (no parent)."""
        self.spans.append({"id": next(self._ids), "parent": None,
                           "name": name, "start": start, "end": end, **attrs})

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Optional[Attrs] = None,
        after: Optional[Attrs] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return extra span attributes, read before and after the call.
        """
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            attrs = before(*args, **kwargs) if before else {}
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if after:
                attrs.update(after(result, *args, **kwargs))
            recorder.spans.append({"id": span_id, "parent": parent,
                                   "name": name, "start": start, "end": end,
                                   **attrs})
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Attrs] = None,
        after: Optional[Attrs] = None,
    ) -> None:
        """Replace ``owner.attr`` with its traced version (keeps classmethods)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(raw.__func__, name, before, after)))
        else:
            setattr(owner, attr, self.wrap(raw, name, before, after))

    def dump(self) -> Path:
        """Write this process's spans (overwrites an earlier dump)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))
        tmp.replace(path)
        return path


def _handle_attrs(app, method, path, headers, body) -> Dict[str, Any]:
    request_id = next(
        (v for k, v in headers.items() if k.lower() == REQUEST_ID_HEADER), None
    )
    match = _TENANT_PATH.match(path)
    return {"request": request_id,
            "tenant": match.group("tenant") if match else None}


def _tenant_arg(owner, tenant_id, *args, **kwargs) -> Dict[str, Any]:
    return {"tenant": tenant_id}


def _tenant_of(tenant, *args, **kwargs) -> Dict[str, Any]:
    return {"tenant": tenant.tenant_id}


def _refresh_due(darwin, *args, **kwargs) -> Dict[str, Any]:
    return {"refresh": bool(darwin.updater.needs_hierarchy_refresh)}


def _rows(result, *args, **kwargs) -> Dict[str, Any]:
    return {"rows": int(len(result))}


def _file_bytes(result, *args, **kwargs) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(result)}


def install(out_dir: Path, classifier_config) -> Recorder:
    """Wrap every traced layer boundary; returns the process's recorder."""
    from repro.classifier.features import SentenceFeaturizer
    from repro.classifier.trainer import ClassifierTrainer, make_classifier
    from repro.core.darwin import Darwin
    from repro.core.traversal.hybrid import HybridSearch
    from repro.core.traversal.local import LocalSearch
    from repro.core.traversal.universal import UniversalSearch
    from repro.crowd.coordinator import CrowdCoordinator
    from repro.engine.engine import DarwinEngine
    from repro.fleet.supervisor import FleetSupervisor
    from repro.gateway import ops
    from repro.gateway.handlers import FleetBackend, GatewayApp, LocalPoolBackend
    from repro.index.hierarchy import RuleHierarchy
    from repro.index.trie_index import CorpusIndex
    from repro.serving.pool import Tenant, TenantPool

    recorder = Recorder(out_dir)
    patch = recorder.patch
    patch(GatewayApp, "handle", "gateway.handle", before=_handle_attrs)
    patch(LocalPoolBackend, "call", "gateway.backend_call", before=_tenant_arg)
    patch(FleetBackend, "call", "gateway.backend_call", before=_tenant_arg)
    patch(ops, "op_propose", "gateway.op_propose", before=_tenant_of)
    patch(ops, "op_answer", "gateway.op_answer", before=_tenant_of)
    patch(FleetSupervisor, "call_tenant", "fleet.call_tenant",
          before=_tenant_arg)
    patch(FleetSupervisor, "start", "fleet.start")
    patch(CrowdCoordinator, "request_question", "crowd.request_question")
    patch(CrowdCoordinator, "submit_vote", "crowd.submit_vote")
    patch(CrowdCoordinator, "flush", "crowd.flush")
    patch(Darwin, "propose_next", "core.propose_next", before=_refresh_due)
    patch(Darwin, "apply_answer", "core.apply_answer")
    patch(Darwin, "flush_updates", "core.flush_updates")
    patch(Darwin, "log_answer", "core.log_answer")
    for strategy in (HybridSearch, LocalSearch, UniversalSearch):
        patch(strategy, "propose", "core.traversal")
    patch(ClassifierTrainer, "retrain", "classifier.retrain")
    model = type(make_classifier(classifier_config))
    patch(model, "fit", "classifier.fit")
    patch(model, "predict_proba", "classifier.predict")
    patch(SentenceFeaturizer, "vectors", "classifier.featurize", after=_rows)
    patch(SentenceFeaturizer, "fit", "text.embeddings_fit")
    patch(CorpusIndex, "build", "index.build")
    patch(RuleHierarchy, "cleanup", "index.cleanup")
    patch(TenantPool, "__init__", "serving.pool_build")
    patch(Tenant, "start", "serving.tenant_start", before=_tenant_of)
    patch(Tenant, "save", "serving.tenant_save", before=_tenant_of)
    patch(DarwinEngine, "save", "engine.save", after=_file_bytes)

    close = TenantPool.close

    def close_and_dump(pool: TenantPool) -> None:
        close(pool)
        recorder.dump()

    TenantPool.close = close_and_dump
    return recorder
