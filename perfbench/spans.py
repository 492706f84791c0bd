"""Span analysis for the traced run: cross-hop links, self time, layer table.

Spans come from :mod:`tracing` (one file per server process). Parents on
the same thread are recorded at call time. A span that starts a new stack
on another thread or process (:data:`CROSS_LINKS`) is linked afterwards to
the latest span of its causing kind on the same tenant that started before
it, which is exact here because each tenant's work is serialized.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

Span = Dict[str, Any]

#: Orphan span name -> the span name (same tenant) that caused it.
CROSS_LINKS = {
    # handler thread -> tenant queue worker thread
    "gateway.backend_call": "gateway.handle",
    # gateway process -> fleet worker process (pipe RPC)
    "gateway.op_propose": "fleet.call_tenant",
    "gateway.op_answer": "fleet.call_tenant",
    # a worker's autosave runs after the answer, inside the same RPC
    "serving.tenant_save": "fleet.call_tenant",
}


def load_spans(trace_dir: Path) -> List[Span]:
    """Every span the server processes wrote, keyed ``pid:id``."""
    spans: List[Span] = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        pid = payload["pid"]
        for span in payload["spans"]:
            span = dict(span, pid=pid)
            span["key"] = f"{pid}:{span['id']}"
            span["parent"] = (
                f"{pid}:{span['parent']}" if span["parent"] is not None else None
            )
            spans.append(span)
    return spans


def link_cross_hops(spans: Sequence[Span]) -> List[Span]:
    """Give each cross-hop orphan its causing span as parent, in place.

    Returns the orphans of a linkable kind that found no cause (drain-time
    saves are expected among them: no request caused those).
    """
    causes: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
    wanted = set(CROSS_LINKS.values())
    for span in spans:
        if span["name"] in wanted and span.get("tenant") is not None:
            causes[(span["name"], span["tenant"])].append(span)
    for group in causes.values():
        group.sort(key=lambda s: s["start"])
    unlinked: List[Span] = []
    for span in spans:
        cause_name = CROSS_LINKS.get(span["name"])
        if cause_name is None or span["parent"] is not None:
            continue
        group = causes.get((cause_name, span.get("tenant")), [])
        cause = None
        for candidate in group:
            if candidate["start"] > span["start"]:
                break
            cause = candidate
        if cause is None or cause["end"] < span["start"]:
            unlinked.append(span)
            continue
        span["parent"] = cause["key"]
        span["linked"] = True
    return unlinked


def children_of(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return children


def covered(span: Span, others: Iterable[Span]) -> float:
    """Seconds of ``span``'s interval covered by the union of ``others``."""
    clipped = sorted(
        (max(o["start"], span["start"]), min(o["end"], span["end"]))
        for o in others
    )
    total, reach = 0.0, span["start"]
    for start, end in clipped:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children: Mapping[str, List[Span]]) -> float:
    """Duration minus the part of it covered by child spans (any thread)."""
    return (span["end"] - span["start"]) - covered(
        span, children.get(span["key"], ())
    )


def nearest_outside(
    span: Span, children: Mapping[str, List[Span]], prefix: str
) -> List[Span]:
    """Descendants whose name lacks ``prefix``, stopping at the first one."""
    found, frontier = [], list(children.get(span["key"], ()))
    while frontier:
        child = frontier.pop()
        if child["name"].startswith(prefix):
            frontier.extend(children.get(child["key"], ()))
        else:
            found.append(child)
    return found


def descendants(span: Span, children: Mapping[str, List[Span]]) -> List[Span]:
    found, frontier = [], list(children.get(span["key"], ()))
    while frontier:
        child = frontier.pop()
        found.append(child)
        frontier.extend(children.get(child["key"], ()))
    return found


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: Sequence[Span],
    requests: Sequence[Mapping[str, Any]],
    drive: Tuple[float, float],
    gateway_pid: int,
) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics: ``{name: {"value", "calls"}}``.

    ``requests`` are the generator's records (``id``, ``start``, ``end``)
    of one traced drive; ``drive`` is its first-request to last-response
    window, which separates drive spans from set-up and drain spans.
    """
    children = children_of(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def in_drive(name: str) -> List[Span]:
        return [s for s in by_name[name] if drive[0] <= s["start"] <= drive[1]]

    def duration(s: Span) -> float:
        return s["end"] - s["start"]

    def per_call_ms(values: Sequence[float]) -> Dict[str, float]:
        return {"value": _mean(values) * 1e3, "calls": float(len(values))}

    def mean_ms(found: Sequence[Span]) -> Dict[str, float]:
        return per_call_ms([duration(s) for s in found])

    def mean_s(found: Sequence[Span]) -> Dict[str, float]:
        return {"value": _mean([duration(s) for s in found]),
                "calls": float(len(found))}

    def count(found: Sequence[object]) -> Dict[str, float]:
        return {"value": float(len(found)), "calls": float(len(found))}

    out: Dict[str, Dict[str, float]] = {}
    handles = {s.get("request"): s for s in by_name["gateway.handle"]}
    served = [(r, handles[r["id"]]) for r in requests if r["id"] in handles]
    out["gateway.http_ms"] = per_call_ms(
        [(r["end"] - r["start"]) - duration(h) for r, h in served])
    gateway_self, queue_wait = [], []
    for _, handle in served:
        calls = [c for c in children.get(handle["key"], ())
                 if c["name"] == "gateway.backend_call"]
        gateway_self.append(duration(handle) - sum(map(duration, calls)))
        if calls:
            queue_wait.append(calls[0]["start"] - handle["start"])
    out["gateway.self_ms"] = per_call_ms(gateway_self)
    out["gateway.queue_wait_ms"] = per_call_ms(queue_wait)

    out["fleet.rpc_ms"] = per_call_ms(
        [self_time(s, children) for s in in_drive("fleet.call_tenant")])
    autosaves = [s for s in in_drive("serving.tenant_save")
                 if s["pid"] != gateway_pid]
    out["fleet.autosave_ms"] = mean_ms(autosaves)
    out["fleet.autosaves"] = count(autosaves)
    out["fleet.start_s"] = mean_s(by_name["fleet.start"])

    out["crowd.self_ms"] = per_call_ms([
        duration(s) - covered(s, nearest_outside(s, children, "crowd."))
        for name in ("crowd.request_question", "crowd.submit_vote")
        for s in in_drive(name)
    ])
    flushes = [s for s in in_drive("crowd.flush")
               if any(c["name"] == "core.flush_updates"
                      for c in children.get(s["key"], ()))]
    out["crowd.flushes"] = count(flushes)
    out["crowd.flush_ms"] = mean_ms(flushes)

    out["core.traversal_ms"] = mean_ms(in_drive("core.traversal"))
    refreshes = [
        duration(s) - covered(s, [c for c in children.get(s["key"], ())
                                  if c["name"] == "core.traversal"])
        for s in in_drive("core.propose_next") if s.get("refresh")
    ]
    out["core.refresh_ms"] = per_call_ms(refreshes)
    out["core.refreshes"] = count(refreshes)
    out["core.log_answer_ms"] = mean_ms(in_drive("core.log_answer"))

    retrains = in_drive("classifier.retrain")
    out["classifier.retrains"] = count(retrains)
    out["classifier.retrain_ms"] = mean_ms(retrains)
    out["classifier.fit_ms"] = mean_ms(in_drive("classifier.fit"))
    featurize = in_drive("classifier.featurize")
    out["classifier.featurize_ms"] = mean_ms(featurize)
    rows = sum(s.get("rows", 0) for s in featurize)
    out["classifier.rows_featurized"] = {
        "value": rows / len(retrains) if retrains else 0.0,
        "calls": float(len(featurize)),
    }
    out["classifier.predict_ms"] = mean_ms(in_drive("classifier.predict"))

    out["index.build_s"] = mean_s(by_name["index.build"])
    out["index.cleanup_ms"] = mean_ms(in_drive("index.cleanup"))
    # The fleet builds one pool per worker over the supervisor's index; the
    # longest construction is the one set-up waits for.
    pools = by_name["serving.pool_build"]
    out["serving.pool_build_s"] = {
        "value": max(map(duration, pools), default=0.0),
        "calls": float(len(pools)),
    }
    out["serving.tenant_start_ms"] = mean_ms(by_name["serving.tenant_start"])
    saves = by_name["engine.save"]
    out["engine.save_ms"] = mean_ms(saves)
    out["engine.checkpoint_bytes"] = {
        "value": _mean([s.get("bytes", 0) for s in saves]),
        "calls": float(len(saves)),
    }
    out["text.embeddings_fit_s"] = mean_s(by_name["text.embeddings_fit"])
    out["datasets.load_s"] = mean_s(by_name["datasets.load"])
    return out


def self_time_shares(
    spans: Sequence[Span],
    turns: Sequence[Mapping[str, Any]],
) -> Dict[str, float]:
    """Each span name's share of the summed turn time the generator saw.

    Sums self time over the span tree of each turn's two requests (their
    ``gateway.handle`` spans and everything linked under them).
    ``unattributed`` is the rest: time outside ``GatewayApp.handle`` —
    socket set-up, the thread per request, HTTP parsing, the generator.
    """
    children = children_of(spans)
    handles = {s.get("request"): s for s in spans if s["name"] == "gateway.handle"}
    totals: Dict[str, float] = defaultdict(float)
    turn_total = 0.0
    for turn in turns:
        turn_total += turn["ms"] / 1e3
        for request in turn["requests"]:
            handle = handles.get(request)
            if handle is None:
                continue
            for span in [handle] + descendants(handle, children):
                totals[span["name"]] += self_time(span, children)
    if turn_total <= 0:
        return {}
    shares = {name: value / turn_total for name, value in totals.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
