"""Crowd session coordination: K concurrent annotators over one Darwin state.

The paper's crowd setting (Section 4.3) verifies each candidate rule with
several noisy annotators and aggregates their YES/NO votes by majority.
:class:`CrowdCoordinator` turns Darwin's propose-many / apply-batch API into a
question service for that workload:

* **redundant dispatch** — every open question (a *ticket*) is assigned to
  ``redundancy`` distinct annotators; an annotator is never handed the same
  ticket twice,
* **no duplicate proposals** — a rule dispatched to any annotator is marked
  in-flight in Darwin, so the traversal can never re-propose it to another
  session,
* **majority commit** — once the required votes arrive, the strict majority
  (ties count as NO) is applied to the rule set immediately,
* **batched apply/retrain** — accepted coverage grows ``P`` right away, but
  the classifier retrain and hierarchy refresh are deferred until
  ``batch_size`` answers accumulate (or :meth:`CrowdCoordinator.flush`).

The coordinator is a synchronous state machine and is *not* thread-safe: the
asyncio runner (:mod:`repro.crowd.runner`) drives it from a single event loop,
which is all the concurrency the simulated annotators need — their latency
overlaps while the coordinator's bookkeeping stays serial.

With ``batch_size=1`` at most one question is in flight, answers are flushed
as they commit, and the coordinator reproduces the serial ``Darwin.run`` loop
exactly (same proposals, same history) — batching trades that strict
sequential consistency for throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..config import CrowdConfig
from ..core.darwin import Darwin, DarwinResult, QueryRecord
from ..errors import ConfigurationError, OracleError
from ..obs import get_registry
from ..rules.heuristic import LabelingHeuristic


@dataclass(frozen=True)
class Assignment:
    """One (question, annotator) pairing handed out by the dispatcher.

    Attributes:
        ticket_id: Identifier of the open question this vote belongs to.
        annotator_id: The annotator the question was assigned to.
        rule: The candidate rule being verified.
        rendered: The rule as a human-readable string.
        sample_ids: Sentence ids shown as examples (Darwin's oracle sample).
        example_texts: Texts of the sample sentences (what Figure 2 shows).
    """

    ticket_id: int
    annotator_id: int
    rule: LabelingHeuristic
    rendered: str
    sample_ids: Tuple[int, ...]
    example_texts: Tuple[str, ...]


@dataclass
class _Ticket:
    """An open question: the rule, its sample, and the votes collected so far."""

    ticket_id: int
    rule: LabelingHeuristic
    sample_ids: Tuple[int, ...]
    assigned: Set[int] = field(default_factory=set)
    votes: Dict[int, bool] = field(default_factory=dict)


@dataclass
class CrowdResult:
    """Outcome of a crowd session.

    Attributes:
        darwin_result: The underlying run result (rules, history, timings).
        questions_committed: Questions answered and applied to the rule set.
        questions_dispatched: Tickets opened (committed + still open).
        votes_collected: Individual annotator votes received.
        votes_per_annotator: Vote counts keyed by annotator id.
    """

    darwin_result: DarwinResult
    questions_committed: int
    questions_dispatched: int
    votes_collected: int
    votes_per_annotator: Dict[int, int]


class CrowdCoordinator:
    """Multiplexes K annotator sessions over one shared :class:`Darwin`.

    Args:
        darwin: A *started* Darwin instance (call ``darwin.start(...)`` first;
            the coordinator never seeds it so several frontends can share one).
        config: Crowd parameters (:class:`~repro.config.CrowdConfig`).
        evaluation_positive_ids: Ground-truth positives for history records
            (defaults to the corpus labels when present).
        obs_tenant: Label for this coordinator's metric series (the serve
            loop passes the tenant id; defaults to the Darwin's obs label).
    """

    def __init__(
        self,
        darwin: Darwin,
        config: Optional[CrowdConfig] = None,
        evaluation_positive_ids: Optional[Set[int]] = None,
        obs_tenant: Optional[str] = None,
    ) -> None:
        self.darwin = darwin
        self.config = config or CrowdConfig()
        if not getattr(darwin, "_started", False):
            raise ConfigurationError(
                "CrowdCoordinator requires a started Darwin; call start() "
                "with seeds first"
            )
        self.budget = (
            self.config.budget
            if self.config.budget is not None
            else darwin.config.budget
        )
        self._evaluation_positive_ids = evaluation_positive_ids
        self._tickets: Dict[int, _Ticket] = {}
        self._next_ticket_id = 0
        self._committed = 0
        self._applied_since_flush = 0
        self._votes_collected = 0
        self._votes_per_annotator: Dict[int, int] = {
            annotator_id: 0 for annotator_id in range(self.config.num_annotators)
        }
        self._exhausted = False
        # Telemetry (repro.obs): children resolved once, no-ops by default.
        registry = get_registry()
        tenant = obs_tenant if obs_tenant is not None else getattr(
            darwin, "obs_label", darwin.corpus.name
        )
        commits = registry.counter(
            "crowd_commits_total",
            "Majority-committed tickets by outcome",
            labels=("tenant", "outcome"),
        )
        self._obs_commit_accept = commits.labels(tenant=tenant, outcome="accept")
        self._obs_commit_reject = commits.labels(tenant=tenant, outcome="reject")
        self._obs_ties = registry.counter(
            "crowd_ties_total",
            "Tied votes committed as NO (even redundancy only)",
            labels=("tenant",),
        ).labels(tenant=tenant)
        self._obs_votes = registry.counter(
            "crowd_votes_total", "Individual annotator votes", labels=("tenant",)
        ).labels(tenant=tenant)
        self._obs_open = registry.gauge(
            "crowd_open_tickets",
            "Questions currently in flight (dispatch depth)",
            labels=("tenant",),
        ).labels(tenant=tenant)
        self._obs_flush_seconds = registry.histogram(
            "crowd_flush_seconds",
            "Latency of batched retrain/refresh flushes",
            labels=("tenant",),
        ).labels(tenant=tenant)

    # -------------------------------------------------------------- inspection
    @property
    def questions_committed(self) -> int:
        """Questions whose majority answer has been applied."""
        return self._committed

    @property
    def questions_dispatched(self) -> int:
        """Tickets opened so far (committed plus still in flight)."""
        return self._next_ticket_id

    @property
    def open_tickets(self) -> int:
        """Questions currently in flight (dispatched, not yet committed)."""
        return len(self._tickets)

    @property
    def votes_collected(self) -> int:
        """Total individual votes received across all annotators."""
        return self._votes_collected

    @property
    def votes_per_annotator(self) -> Dict[int, int]:
        """Vote counts keyed by annotator id (a copy)."""
        return dict(self._votes_per_annotator)

    @property
    def is_done(self) -> bool:
        """True once no further question can be dispatched or committed."""
        if self._tickets:
            return False
        return self._committed >= self.budget or self._exhausted

    # ---------------------------------------------------------------- dispatch
    def _check_annotator(self, annotator_id: int) -> None:
        if not 0 <= annotator_id < self.config.num_annotators:
            raise ConfigurationError(
                f"annotator_id {annotator_id} out of range for "
                f"{self.config.num_annotators} annotators"
            )

    def _assignment(self, ticket: _Ticket, annotator_id: int) -> Assignment:
        ticket.assigned.add(annotator_id)
        examples = tuple(
            self.darwin.corpus[sid].text for sid in ticket.sample_ids
        )
        return Assignment(
            ticket_id=ticket.ticket_id,
            annotator_id=annotator_id,
            rule=ticket.rule,
            rendered=ticket.rule.render(),
            sample_ids=ticket.sample_ids,
            example_texts=examples,
        )

    def request_question(self, annotator_id: int) -> Optional[Assignment]:
        """A question for ``annotator_id`` to vote on, or None if none is free.

        Open tickets still short of their ``redundancy`` assignments are
        served first (oldest ticket first); only then is a fresh question
        proposed, bounded by the in-flight limit and the remaining budget.
        A ``None`` return is not terminal — votes by other annotators may free
        capacity — so callers should poll until :attr:`is_done`.
        """
        self._check_annotator(annotator_id)
        # Oldest open ticket this annotator can still vote on.
        for ticket in self._tickets.values():
            if (
                annotator_id not in ticket.assigned
                and len(ticket.assigned) < self.config.redundancy
            ):
                return self._assignment(ticket, annotator_id)
        if self._exhausted:
            return None
        if len(self._tickets) >= self.config.in_flight_limit:
            return None
        if self._committed + len(self._tickets) >= self.budget:
            return None
        rule = self.darwin.propose_next()
        if rule is None and self._applied_since_flush:
            # Fresh candidates may be gated behind the deferred hierarchy
            # refresh; flush the partial batch and retry before giving up.
            self.flush()
            rule = self.darwin.propose_next()
        if rule is None:
            # With questions still in flight this is transient — their
            # commits can unreserve rules and unlock new candidates — so only
            # an idle coordinator with nothing left to propose is exhausted.
            if not self._tickets:
                self._exhausted = True
            return None
        self.darwin.mark_in_flight(rule)
        ticket = _Ticket(
            ticket_id=self._next_ticket_id,
            rule=rule,
            sample_ids=tuple(self.darwin.sample_for_query(rule)),
        )
        self._next_ticket_id += 1
        self._tickets[ticket.ticket_id] = ticket
        self._obs_open.set(len(self._tickets))
        return self._assignment(ticket, annotator_id)

    # ------------------------------------------------------------------ voting
    def submit_vote(
        self, ticket_id: int, annotator_id: int, is_useful: bool
    ) -> Optional[QueryRecord]:
        """Record one annotator's vote; commit the majority when complete.

        Returns the committed :class:`QueryRecord` when this vote completed
        the ticket, else None. A strict majority of YES votes accepts the
        rule; ties (possible with even redundancy) count as NO, matching
        :class:`~repro.core.oracle.MajorityVoteOracle`.
        """
        self._check_annotator(annotator_id)
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise OracleError(f"ticket {ticket_id} is not open")
        if annotator_id not in ticket.assigned:
            raise OracleError(
                f"annotator {annotator_id} was never assigned ticket {ticket_id}"
            )
        if annotator_id in ticket.votes:
            raise OracleError(
                f"annotator {annotator_id} already voted on ticket {ticket_id}"
            )
        ticket.votes[annotator_id] = bool(is_useful)
        self._votes_collected += 1
        self._votes_per_annotator[annotator_id] += 1
        self._obs_votes.inc()
        if len(ticket.votes) < self.config.redundancy:
            return None
        return self._commit(ticket)

    def submit_answer(
        self, assignment: Assignment, is_useful: bool
    ) -> Optional[QueryRecord]:
        """Convenience wrapper over :meth:`submit_vote` for an assignment."""
        return self.submit_vote(
            assignment.ticket_id, assignment.annotator_id, is_useful
        )

    def _commit(self, ticket: _Ticket) -> QueryRecord:
        del self._tickets[ticket.ticket_id]
        self._obs_open.set(len(self._tickets))
        yes_votes = sum(1 for vote in ticket.votes.values() if vote)
        majority = yes_votes * 2 > len(ticket.votes)
        if yes_votes * 2 == len(ticket.votes):
            self._obs_ties.inc()
        (self._obs_commit_accept if majority else self._obs_commit_reject).inc()
        self.darwin.apply_answer(ticket.rule, majority, defer_update=True)
        self._committed += 1
        self._applied_since_flush += 1
        if self._applied_since_flush >= self.config.batch_size:
            self.flush()
        return self.darwin.log_answer(
            ticket.rule,
            majority,
            evaluation_positive_ids=self._evaluation_positive_ids,
        )

    # ----------------------------------------------------------------- results
    def flush(self) -> int:
        """Apply deferred retrain/refresh work now; returns answers flushed."""
        if not self._applied_since_flush:
            return 0
        self._applied_since_flush = 0
        start = time.perf_counter()
        try:
            return self.darwin.flush_updates()
        finally:
            self._obs_flush_seconds.observe(time.perf_counter() - start)

    def result(self) -> CrowdResult:
        """Snapshot the session (flushing any trailing partial batch)."""
        self.flush()
        return CrowdResult(
            darwin_result=self.darwin.result(queries_used=self._committed),
            questions_committed=self._committed,
            questions_dispatched=self._next_ticket_id,
            votes_collected=self._votes_collected,
            votes_per_annotator=self.votes_per_annotator,
        )
