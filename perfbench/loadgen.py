"""Closed-loop annotators over HTTP.

Each connection is one thread that cycles through its (tenant, annotator)
pairs with no think time: an annotator holding a question answers it and
immediately asks for the next one; that answer-plus-propose pair is a
*turn*. Every request opens a fresh TCP connection, because the gateway
speaks HTTP/1.0 and closes after each response. Answers follow
:func:`measure.annotator_says_yes` over the labels the generator built.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from measure import annotator_says_yes

#: A drive that has not finished after this long has failed.
DRIVE_TIMEOUT_S = 120.0


def http_request(
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    request_id: str = "",
    timeout: float = 60.0,
) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection; returns (status, body)."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"X-Request-Id: {request_id}\r\n\r\n"
    ).encode("ascii")
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head + body)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, content = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), content


@dataclass
class Annotator:
    tenant: str
    annotator_id: int
    assignment: Optional[Dict[str, Any]] = None
    finished: bool = False


@dataclass
class Drive:
    """What one drive observed, across all connections."""

    requests: List[Dict[str, Any]] = field(default_factory=list)
    turns: List[Dict[str, Any]] = field(default_factory=list)
    records: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    committed: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if r["status"] != 200)

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class _Connection:
    """One client connection's closed loop (runs on its own thread)."""

    def __init__(self, port: int, name: str, pairs: Sequence[Tuple[str, int]],
                 positives: Set[int], drive: Drive, lock: threading.Lock,
                 deadline: float) -> None:
        self.port = port
        self.name = name
        self.annotators = [Annotator(t, a) for t, a in pairs]
        self.positives = positives
        self.drive = drive
        self.lock = lock
        self.deadline = deadline
        self._sequence = 0

    def _call(self, ann: Annotator, op: str, payload: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], str, float, float]:
        """POST one tenant op; returns (reply, request id, start, end)."""
        self._sequence += 1
        request_id = f"{self.name}-{self._sequence}"
        start = time.perf_counter()
        try:
            status, body = http_request(
                self.port, "POST", f"/tenants/{ann.tenant}/{op}", payload,
                request_id,
            )
        except OSError as exc:
            status, body = 0, json.dumps({"error": repr(exc)}).encode()
        end = time.perf_counter()
        with self.lock:
            self.drive.requests.append({
                "id": request_id, "tenant": ann.tenant, "op": op,
                "start": start, "end": end, "status": status,
            })
        if status != 200:
            raise RuntimeError(
                f"{op} for {ann.tenant}/{ann.annotator_id} returned {status}: "
                f"{body[:300]!r}"
            )
        return json.loads(body), request_id, start, end

    def _propose(self, ann: Annotator) -> Tuple[str, float]:
        reply, request_id, _, end = self._call(
            ann, "propose", {"annotator_id": ann.annotator_id})
        ann.assignment = reply["assignment"]
        ann.finished = ann.assignment is None and reply["done"]
        return request_id, end

    def _answer_turn(self, ann: Annotator) -> None:
        assignment = ann.assignment
        yes = annotator_says_yes(assignment["sample_ids"], self.positives)
        reply, answer_id, start, _ = self._call(ann, "answer", {
            "ticket_id": assignment["ticket_id"],
            "annotator_id": ann.annotator_id,
            "is_useful": yes,
        })
        if reply["committed"]:
            with self.lock:
                self.drive.records.setdefault(ann.tenant, []).append(
                    reply["record"])
                self.drive.committed[ann.tenant] = reply["questions_committed"]
        propose_id, end = self._propose(ann)
        with self.lock:
            self.drive.turns.append({
                "tenant": ann.tenant, "yes": yes, "ms": (end - start) * 1e3,
                "requests": [answer_id, propose_id],
            })

    def run(self) -> None:
        try:
            active = list(self.annotators)
            while active:
                if time.perf_counter() > self.deadline:
                    raise RuntimeError(f"{self.name}: drive timed out")
                for ann in active:
                    if ann.assignment is None:
                        self._propose(ann)
                    else:
                        self._answer_turn(ann)
                active = [a for a in active if not a.finished]
        except Exception as exc:  # noqa: BLE001 - reported as a failed drive
            with self.lock:
                self.drive.errors.append(f"{type(exc).__name__}: {exc}")


def drive(port: int, plan: Sequence[Sequence[Tuple[str, int]]],
          positives: Set[int]) -> Drive:
    """Run every connection of ``plan`` until each annotator is done."""
    result = Drive()
    lock = threading.Lock()
    result.started = time.perf_counter()
    deadline = result.started + DRIVE_TIMEOUT_S
    connections = [
        _Connection(port, f"c{i}", pairs, positives, result, lock, deadline)
        for i, pairs in enumerate(plan)
    ]
    threads = [threading.Thread(target=c.run, name=c.name) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.ended = max((r["end"] for r in result.requests),
                       default=result.started)
    result.started = min((r["start"] for r in result.requests),
                         default=result.started)
    return result
