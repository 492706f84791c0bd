"""Pure measurement helpers: percentiles, history digests, the annotator's
answer rule, and process-tree readings from ``/proc``.

Nothing here starts a process or touches the program under test, so the
helpers are unit-tested directly (``perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Set

#: A percentile is reported only when at least this many samples lie above
#: it, so p90 needs 100 samples and p50 needs 20.
MIN_SAMPLES_BEYOND = 10

#: The annotator answers YES when at least this share of the sentences shown
#: with a rule are positive (the rule of ``repro.core.oracle.SampleBasedOracle``).
YES_THRESHOLD = 0.8


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`TooFewSamples` unless at least ``min_beyond`` samples lie
    above the returned rank, the guard that keeps a p90 from resting on one
    or two slow samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if not ordered or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples leaves {max(beyond, 0)} beyond "
            f"it; at least {min_beyond} are required"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def history_digest(records: Iterable[Mapping[str, object]]) -> str:
    """SHA-256 of a tenant's committed records in commit order.

    Records are the ``record`` objects the gateway returns from ``answer``;
    keys are sorted, so the digest depends only on what was committed.
    """
    canonical = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def annotator_says_yes(
    sample_ids: Sequence[int],
    positive_ids: Set[int],
    threshold: float = YES_THRESHOLD,
) -> bool:
    """YES when at least ``threshold`` of the shown sentences are positive."""
    if not sample_ids:
        return False
    hits = sum(1 for sentence_id in sample_ids if sentence_id in positive_ids)
    return hits / len(sample_ids) >= threshold


# --------------------------------------------------------------- /proc readers
def _stat_fields(pid: int, proc_root: Path) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name.

    The command name sits in parentheses and may itself contain spaces or
    parentheses, so the split happens at the last ``)``.
    """
    text = (proc_root / str(pid) / "stat").read_text(encoding="ascii")
    return text[text.rindex(")") + 2:].split()


def process_tree(pid: int, proc_root: Path = Path("/proc")) -> List[int]:
    """``pid`` and every live descendant, found by scanning parent pids."""
    children: Dict[int, List[int]] = {}
    for entry in proc_root.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry.name), proc_root)[1])
        except (OSError, ValueError, IndexError):
            continue  # the process exited while we scanned
        children.setdefault(parent, []).append(int(entry.name))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, ()))
    return sorted(tree)


def is_running(pid: int, proc_root: Path = Path("/proc")) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        return _stat_fields(pid, proc_root)[0] != "Z"
    except (OSError, ValueError):
        return False


def pss_kib(pid: int, proc_root: Path = Path("/proc")) -> int:
    """Proportional set size of one process in KiB (``smaps_rollup``); 0 for
    a process that has exited or holds no memory (a zombie)."""
    try:
        text = (proc_root / str(pid) / "smaps_rollup").read_text(
            encoding="ascii")
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def tree_pss_mb(pid: int, proc_root: Path = Path("/proc")) -> float:
    """Summed PSS of ``pid`` and its descendants, in MB (10**6 bytes).

    PSS splits each shared page between the processes mapping it, so pages
    a forked worker shares with its parent count once in the sum.
    """
    total_kib = sum(pss_kib(p, proc_root) for p in process_tree(pid, proc_root))
    return total_kib * 1024 / 1e6


def tree_cpu_seconds(
    pid: int,
    proc_root: Path = Path("/proc"),
    ticks_per_second: float = 0.0,
) -> float:
    """User plus system CPU seconds of ``pid`` and its live descendants."""
    ticks = ticks_per_second or os.sysconf("SC_CLK_TCK")
    total = 0
    for member in process_tree(pid, proc_root):
        try:
            fields = _stat_fields(member, proc_root)
        except OSError:
            continue  # exited since the tree was read
        total += int(fields[11]) + int(fields[12])
    return total / ticks
