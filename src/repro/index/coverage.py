"""Columnar coverage store: interned, immutable coverage sets.

Motivation (multi-layer refactor)
---------------------------------

Every layer of the reproduction used to round-trip coverage through copied
Python sets: the index materialized a fresh ``set`` per :meth:`coverage` call,
``heuristic()`` built a new ``frozenset`` per node, the benefit scorer walked
``C_r \\ P`` id by id in Python, and ranking by overlap intersected Python
sets against every index node. Following the compact in-memory representation
argument of "Extracting and Analyzing Hidden Graphs from Relational
Databases" (Xirogiannopoulos & Deshpande), this module replaces all of that
with a single columnar layer:

* :class:`CoverageStore` interns each **distinct** coverage exactly once as an
  immutable, sorted ``numpy`` ``int32`` array. Nodes, heuristics, and rule
  sets hold cheap :class:`CoverageView` handles; two nodes with identical
  coverage share one array (and one hash).
* :class:`CoverageView` is a :class:`collections.abc.Set` — existing callers
  that treat coverage as a set (``len``, ``in``, ``&``, ``|``, ``-``, ``<=``,
  ``==`` against plain sets) keep working unchanged — while hot paths use the
  vectorized primitives ``intersect_count``, ``subtract``, ``union_into``,
  ``overlap_with`` and ``new_ids_given`` instead of per-id Python loops.

Storage
-------

The interned arrays of a :class:`CoverageStore` live in a memory-mapped
:class:`~repro.index.arena.CoverageArena` file, and ``view.ids`` is a
**zero-copy mmap slice**: the OS page cache decides which coverage bytes are
resident, so corpora larger than RAM stay queryable. The arena is either a
caller-named file, which outlives the process (a fleet maps one such file
from every worker), or an anonymous temporary file, unlinked once the arena
is dropped. A tenant's :class:`~repro.index.overlay.OverlayCoverageStore`
layers its own interns, on the heap, over a shared store.

Checkpoints follow the arena's durability. A store over a named arena
writes a **reference** (path + content digest) and reattaches the file on
restore. A store over a temporary arena writes its columns **inline** (one
values + offsets CSR pair), because the file is gone by the time the
checkpoint is loaded; inline states restore into a fresh temporary arena
with slot order kept.

Migration notes
---------------

``LabelingHeuristic.coverage_ids`` may now be a :class:`CoverageView` instead
of a ``frozenset``; both are immutable set-likes, and ``with_coverage``
accepts either (views are kept as-is, avoiding a copy). ``CorpusIndex``
seals node id-sets into interned views once construction finishes; code that
mutates ``IndexNode.sentence_ids`` after sealing must go through
``CorpusIndex.add_sketch`` (which transparently un-seals).

Checkpoints written by builds that still had the heap-only ``"memory"``
backend load unchanged: ``IndexConfig.from_dict`` drops its retired
settings, and a ``"memory"``-tagged state is read as an inline one.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Set as AbstractSet
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from .arena import CoverageArena

IdsLike = Union["CoverageView", Iterable[int], np.ndarray]


def _as_sorted_ids(ids: IdsLike) -> np.ndarray:
    """Normalize ``ids`` to a sorted, unique, read-only ``int32`` array."""
    if isinstance(ids, CoverageView):
        return ids.ids
    if not isinstance(ids, (np.ndarray, list, tuple)):
        # Sets, dict views, generators, other AbstractSets: np.asarray cannot
        # consume these directly.
        ids = list(ids)
    array = np.asarray(ids, dtype=np.int64)
    if array.ndim != 1:
        array = array.reshape(-1)
    if array.size:
        array = np.unique(array)  # sorts and dedups
    array = array.astype(np.int32, copy=False)
    array.setflags(write=False)
    return array


class CoverageView(AbstractSet):
    """Immutable handle over one interned coverage set.

    Behaves like a ``frozenset`` of sentence ids (it is a
    :class:`collections.abc.Set`, so comparisons and binary operators against
    plain sets work, and its hash equals ``frozenset``'s for the same ids)
    while exposing vectorized primitives for the hot paths. The backing id
    array is a zero-copy slice of a memory-mapped
    :class:`~repro.index.arena.CoverageArena` or, for a tenant overlay's own
    interns, a heap array — callers cannot tell the difference.
    """

    __slots__ = ("_ids", "_store", "_slot", "_hash")

    def __init__(
        self,
        ids: np.ndarray,
        store: Optional["_InternTable"] = None,
        slot: Optional[int] = None,
    ) -> None:
        self._ids = ids
        self._store = store
        self._slot = slot
        self._hash: Optional[int] = None

    # ------------------------------------------------------------- columnar
    @property
    def ids(self) -> np.ndarray:
        """The sorted, unique, read-only ``int32`` id array."""
        return self._ids

    @property
    def count(self) -> int:
        """``|C|`` — number of covered sentences."""
        return int(self._ids.size)

    @property
    def store(self) -> Optional["_InternTable"]:
        """The interning store this view belongs to (None for free views)."""
        return self._store

    @property
    def slot(self) -> Optional[int]:
        """This view's interning slot in its store (None for free views)."""
        return self._slot

    def intersect_count(self, other: IdsLike) -> int:
        """``|C ∩ other|`` without materializing the intersection."""
        if isinstance(other, np.ndarray) and other.dtype == np.bool_:
            return self.overlap_with(other)
        if other is self:
            return self.count
        a, b = self._ids, _as_sorted_ids(other)
        if not a.size or not b.size:
            return 0
        if a.size > b.size:
            a, b = b, a
        # Probe the smaller array into the larger via binary search.
        positions = np.searchsorted(b, a)
        positions[positions == b.size] = b.size - 1
        return int(np.count_nonzero(b[positions] == a))

    def subtract(self, other: IdsLike) -> np.ndarray:
        """Ids in ``C`` but not in ``other`` (sorted ``int32`` array)."""
        if isinstance(other, np.ndarray) and other.dtype == np.bool_:
            return self.new_ids_given(other)
        b = _as_sorted_ids(other)
        if not self._ids.size or not b.size:
            return self._ids
        keep = np.isin(self._ids, b, assume_unique=True, invert=True)
        return self._ids[keep]

    def union_into(self, mask: np.ndarray) -> np.ndarray:
        """Set ``mask[id] = True`` for every covered id; returns ``mask``."""
        if self._ids.size:
            mask[self._ids] = True
        return mask

    def overlap_with(self, mask: np.ndarray) -> int:
        """``|C ∩ mask|`` for a boolean membership mask."""
        if not self._ids.size:
            return 0
        ids = self._ids
        if ids[-1] >= mask.size:
            ids = ids[ids < mask.size]
            if not ids.size:
                return 0
        return int(np.count_nonzero(mask[ids]))

    def new_ids_given(self, mask: np.ndarray) -> np.ndarray:
        """Ids **not** flagged in ``mask`` (the ``C_r \\ P`` primitive)."""
        if not self._ids.size:
            return self._ids
        ids = self._ids
        if ids[-1] >= mask.size:
            inside = ids[ids < mask.size]
            outside = ids[ids >= mask.size]
            kept = inside[~mask[inside]] if inside.size else inside
            return np.concatenate([kept, outside]) if outside.size else kept
        return ids[~mask[ids]]

    def to_set(self) -> frozenset:
        """Materialize a plain ``frozenset`` (compatibility escape hatch)."""
        return frozenset(int(i) for i in self._ids)

    # ------------------------------------------------------- set protocol
    def __len__(self) -> int:
        return int(self._ids.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __contains__(self, item: object) -> bool:
        try:
            value = int(item)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        position = int(np.searchsorted(self._ids, value))
        return position < self._ids.size and int(self._ids[position]) == value

    @classmethod
    def _from_iterable(cls, iterable: Iterable[int]) -> frozenset:
        # Binary Set operators (& | - ^) produce plain frozensets: callers of
        # those operators expect generic set semantics, not interned views.
        return frozenset(iterable)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, CoverageView):
            return np.array_equal(self._ids, other._ids)
        if isinstance(other, (set, frozenset, AbstractSet)):
            return len(other) == len(self) and all(i in self for i in other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        # Matches frozenset's hash (collections.abc.Set._hash), so views and
        # frozensets with equal contents collide correctly in dicts/sets.
        if self._hash is None:
            self._hash = self._hash_ids()
        return self._hash

    def _hash_ids(self) -> int:
        return AbstractSet._hash(self)

    def __repr__(self) -> str:
        preview = ", ".join(str(int(i)) for i in self._ids[:6])
        suffix = ", ..." if self._ids.size > 6 else ""
        return f"CoverageView({{{preview}{suffix}}}, n={self._ids.size})"


class _InternTable:
    """View and dedup bookkeeping shared by every interning store.

    Holds the interned views in slot order and a dedup map keyed by a
    128-bit BLAKE2b digest of each sorted ``int32`` id array — hashed in
    place, so a store whose columns live in an arena never copies them onto
    the heap just to dedup. :class:`CoverageStore` owns an arena beneath
    this table; :class:`~repro.index.overlay.OverlayCoverageStore` keeps a
    tenant's interns on the heap over a shared store. Subclasses provide
    ``intern``, which the mask helpers below route through.
    """

    def __init__(self, universe_size: int = 0) -> None:
        self._universe = int(universe_size)
        self._views: List[CoverageView] = []
        self._by_key: Dict[bytes, int] = {}

    @staticmethod
    def _key_of(array: np.ndarray) -> bytes:
        """Dedup key for one normalized (sorted ``int32``) coverage array."""
        return hashlib.blake2b(
            np.ascontiguousarray(array, dtype=np.int32), digest_size=16
        ).digest()

    def _register(self, key: bytes, view: CoverageView) -> CoverageView:
        """Append ``view`` as the next local slot under dedup ``key``."""
        self._by_key[key] = len(self._views)
        self._views.append(view)
        return view

    def _lookup(self, key: bytes) -> Optional[CoverageView]:
        """The view interned under dedup ``key``, else None."""
        position = self._by_key.get(key)
        return self._views[position] if position is not None else None

    @property
    def universe_size(self) -> int:
        """Current sentence-id universe size."""
        return self._universe

    @property
    def num_interned(self) -> int:
        """Number of distinct coverage sets interned (including empty)."""
        return len(self._views)

    def ensure_universe(self, size: int) -> None:
        """Grow the universe to at least ``size`` sentences."""
        if size > self._universe:
            self._universe = int(size)

    def interned_views(self) -> list:
        """The interned views in insertion order (slot order for checkpoints)."""
        return list(self._views)

    def from_mask(self, mask: np.ndarray) -> CoverageView:
        """Intern the coverage flagged in a boolean ``mask``."""
        return self.intern(np.flatnonzero(mask))

    def union(self, coverages: Iterable[IdsLike]) -> CoverageView:
        """Intern the union of several coverages via one running mask."""
        mask = self.new_mask()
        for coverage in coverages:
            ids = _as_sorted_ids(coverage)
            if not ids.size:
                continue
            if int(ids[-1]) >= mask.size:
                grown = np.zeros(int(ids[-1]) + 1, dtype=bool)
                grown[: mask.size] = mask
                mask = grown
            mask[ids] = True
        return self.from_mask(mask)

    def new_mask(self) -> np.ndarray:
        """A fresh all-False membership mask over the universe."""
        return np.zeros(max(self._universe, 1), dtype=bool)

    def mask_of(self, ids: IdsLike) -> np.ndarray:
        """A boolean membership mask with ``ids`` flagged."""
        return membership_mask(ids, self._universe)


class CoverageStore(_InternTable):
    """Interning store for coverage sets, backed by a memory-mapped arena.

    Each distinct coverage is held exactly once; :meth:`intern` returns the
    shared :class:`CoverageView` for its contents, so identical coverages are
    identical objects (``a is b``) and caches may key by ``id(view)``.

    Args:
        universe_size: Number of sentences (ids are ``0 .. universe_size-1``).
            May be grown later with :meth:`ensure_universe`; it sizes the
            membership masks, interning never depends on it.
        path: Arena file location. An existing arena file is reattached; a
            missing one is created. ``None`` creates an anonymous temporary
            arena, unlinked once it is dropped.
        create: Force a **fresh** arena, truncating any existing file at the
            path instead of attaching to it. Index builds pass this: adopting
            a stale arena's slots into a new build would inflate the universe
            and grow the file without bound across reruns.
    """

    def __init__(
        self,
        universe_size: int = 0,
        path: Optional[str] = None,
        create: bool = False,
        _arena: Optional[CoverageArena] = None,
    ) -> None:
        super().__init__(universe_size)
        if _arena is None:
            if not create and path is not None and os.path.exists(path):
                _arena = CoverageArena.open(path)
            else:
                _arena = CoverageArena.create(path)
        self._arena = _arena
        self._adopt_arena_slots()
        self.empty = self.intern(())

    def _adopt_arena_slots(self) -> None:
        """Register views for every slot already present in the arena.

        Runs once at attach time: one sequential pass over the mapped values
        column computes each slot's dedup digest and the universe bound.
        The digests hash the mmap slices in place (no per-slot heap copy),
        so the pass streams through the page cache the digest verification
        in :meth:`CoverageArena.open` just warmed.
        """
        arena = self._arena
        max_id = -1
        for slot in range(arena.num_interned):
            view = self._slot_view(slot)
            self._views.append(view)
            self._by_key.setdefault(self._key_of(view.ids), slot)
            if view.count:
                max_id = max(max_id, int(view.ids[-1]))
        if max_id >= 0:
            self.ensure_universe(max_id + 1)

    def _slot_view(self, slot: int) -> CoverageView:
        """A view over arena ``slot`` (a zero-copy mmap slice)."""
        return CoverageView(self._arena.values_slice(slot), store=self, slot=slot)

    # ----------------------------------------------------------------- admin
    @property
    def bytes_interned(self) -> int:
        """On-disk bytes of the interned id arrays (the values column); the
        heap-resident footprint is :attr:`resident_coverage_bytes`."""
        return self._arena.values_bytes

    @property
    def arena(self) -> CoverageArena:
        """The backing arena."""
        return self._arena

    @property
    def resident_coverage_bytes(self) -> int:
        """Heap bytes pinned by coverage data: the offsets column only — the
        values column lives in the file and is resident at the OS page
        cache's discretion."""
        return (self.num_interned + 1) * 8

    # ------------------------------------------------------------- interning
    def intern(self, ids: IdsLike) -> CoverageView:
        """The unique view for ``ids`` (created on first sight)."""
        if isinstance(ids, CoverageView) and ids.store is self:
            return ids
        array = _as_sorted_ids(ids)
        key = self._key_of(array)
        known = self._lookup(key)
        if known is not None:
            return known
        if array.size:
            self.ensure_universe(int(array[-1]) + 1)
        return self._register(key, self._slot_view(self._arena.append(array)))

    def intern_many(self, ids_list: Sequence[IdsLike]) -> List[CoverageView]:
        """Intern several coverages with one arena write; returns views.

        All new coverages are appended as **one** contiguous values segment
        (column concatenation, offsets rebased onto the current extent) —
        this is what :meth:`CorpusIndex.seal` and the parallel shard-arena
        merge call, keeping the number of file writes O(batches) instead of
        O(coverages).
        """
        resolved: List[Tuple[Optional[CoverageView], Optional[bytes]]] = []
        pending: Dict[bytes, np.ndarray] = {}
        for ids in ids_list:
            if isinstance(ids, CoverageView) and ids.store is self:
                resolved.append((ids, None))
                continue
            array = _as_sorted_ids(ids)
            key = self._key_of(array)
            known = self._lookup(key)
            if known is None:
                pending.setdefault(key, array)
            resolved.append((known, key))
        if pending:
            arrays = list(pending.values())
            max_id = max((int(a[-1]) for a in arrays if a.size), default=-1)
            if max_id >= 0:
                self.ensure_universe(max_id + 1)
            for key, slot in zip(pending, self._arena.append_many(arrays)):
                self._register(key, self._slot_view(slot))
        return [
            view if view is not None else self._lookup(key)
            for view, key in resolved
        ]

    def find(self, ids: IdsLike) -> Optional[CoverageView]:
        """The interned view for ``ids`` if one exists, else None (no intern).

        The read-only half of :meth:`intern`: overlay stores probe their
        shared base with this before falling back to a tenant-local intern.
        """
        if isinstance(ids, CoverageView) and ids.store is self:
            return ids
        return self._lookup(self._key_of(_as_sorted_ids(ids)))

    # ------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        """Persist the backing arena."""
        self._arena.flush()

    def close(self) -> None:
        """Release the backing arena. Idempotent.

        Interned views stay readable (they hold their own reference to the
        arena's memory map), but the store stops pinning the mapping and the
        file handle — the half of the strict-unlink contract the store owns.
        """
        self._arena.close()

    def detach_arena(self) -> None:
        """Release the arena mapping for a cross-process handoff (pre-fork).

        Closes the arena's descriptor and mapping and rebinds every interned
        view to a dormant state, so nothing in this process — and nothing a
        forked child inherits — pins the parent's mmap. Coverage reads raise
        until :meth:`reattach_arena` runs (in the child, against a fresh
        mapping of the same file).
        """
        if self._arena.closed:
            return
        self._arena.detach()
        for view in self._views:
            # Dormant marker: any accidental read fails loudly (`None` has
            # no `.size`) instead of serving stale mapped bytes.
            view._ids = None

    def reattach_arena(self) -> None:
        """Re-map the arena by path and rebind every view (post-spawn half).

        Each view's id array becomes a zero-copy slice of the *fresh*
        mapping, digest-verified by :meth:`CoverageArena.reattach` — the
        worker-process counterpart of :meth:`detach_arena`. Idempotent.
        """
        self._arena.reattach()
        for slot, view in enumerate(self._views):
            if view._ids is None:
                view._ids = self._arena.values_slice(slot)

    # -------------------------------------------------------- state protocol
    def to_state(self, bundle, prefix: str = "coverage/") -> Dict[str, object]:
        """Serialize the interned coverages; the encoding follows the arena.

        Named arena: the columns already live in a durable file, so the
        state is a **reference** — the arena path plus a content digest —
        instead of a re-serialized copy; :meth:`from_state` reattaches the
        file and verifies the digest. The checkpoint stays O(manifest) no
        matter how large the coverage columns are.

        Temporary arena: the file dies with the process, so the distinct
        coverages are written **inline** as one ``int32`` values array plus
        an ``int64`` offsets array (CSR layout); slot ``i`` is
        ``values[offsets[i]:offsets[i+1]]``, in interning order, so other
        layers can reference coverages by slot index.

        Args:
            bundle: :class:`repro.engine.state.ArrayBundle` receiving arrays.
            prefix: Namespace for the bundle keys.
        """
        arena = self._arena
        if arena.temporary:
            return {
                "universe_size": int(self._universe),
                "num_interned": self.num_interned,
                "backend": "inline",
                **_columns_to_state(self._views, bundle, prefix),
            }
        arena.flush()
        return {
            "universe_size": int(self._universe),
            "num_interned": self.num_interned,
            "backend": "arena",
            "arena": {
                "path": os.path.abspath(arena.path),
                "digest": arena.digest,
                "num_interned": arena.num_interned,
                "num_values": arena.num_values,
                "read_only": arena.read_only,
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], bundle) -> "_InternTable":
        """Rebuild a store from :meth:`to_state` output.

        Arena references are reattached in place (the file is opened and its
        content digest verified — a missing, truncated, or modified arena
        raises :class:`~repro.errors.ConfigurationError`); inline states —
        including the ``"memory"``-tagged ones of the retired heap backend —
        are re-interned into a fresh temporary arena. Overlay states
        dispatch to :class:`~repro.index.overlay.OverlayCoverageStore`.
        Slot order is preserved either way, so
        ``store.interned_views()[i]`` is the view serialized at slot ``i``.
        """
        backend = state.get("backend", "inline")
        if backend == "overlay":
            from .overlay import OverlayCoverageStore

            return OverlayCoverageStore.from_state(state, bundle)
        recorded = state.get("num_interned")
        universe = int(state.get("universe_size", 0))
        if backend == "arena":
            reference = state.get("arena")
            if not isinstance(reference, dict) or not reference.get("path"):
                raise ConfigurationError(
                    "arena-backed coverage state records no arena reference"
                )
            arena = CoverageArena.open(
                str(reference["path"]),
                expected_digest=reference.get("digest"),
                read_only=bool(reference.get("read_only", False)),
            )
            store = cls(universe_size=universe, _arena=arena)
            if recorded is not None and int(recorded) != store.num_interned:
                raise ConfigurationError(
                    f"coverage state records num_interned={recorded} but the "
                    f"arena at {arena.path} holds {store.num_interned} slots"
                )
            return store
        if backend not in ("inline", "memory"):
            raise ConfigurationError(
                f"unknown coverage state backend {backend!r}"
            )
        slots = _columns_from_state(state, bundle, "coverage state")
        if recorded is not None and int(recorded) != len(slots):
            # The offsets column is the ground truth for how many coverages
            # were serialized; trusting a disagreeing num_interned used to
            # silently truncate (or overrun) the restored store.
            raise ConfigurationError(
                f"coverage state records num_interned={recorded} but its "
                f"offsets column holds {len(slots)} slots"
            )
        store = cls(universe_size=universe)
        store.intern_many(slots)
        if store.num_interned != len(slots):
            raise ConfigurationError(
                f"coverage state holds {len(slots)} slots but restores to "
                f"{store.num_interned} distinct coverages; slot order is lost"
            )
        return store

    def stats(self) -> Dict[str, float]:
        """Summary statistics for diagnostics and benchmarks."""
        return {
            "universe_size": float(self._universe),
            "num_interned": float(self.num_interned),
            "bytes_interned": float(self.bytes_interned),
            "resident_coverage_bytes": float(self.resident_coverage_bytes),
        }

    def __repr__(self) -> str:
        return (
            f"CoverageStore(universe={self._universe}, "
            f"interned={self.num_interned}, arena={self._arena.path!r})"
        )


def _columns_to_state(
    views: Sequence[CoverageView], bundle, prefix: str
) -> Dict[str, object]:
    """Inline CSR columns for ``views``: slot ``i`` is
    ``values[offsets[i]:offsets[i+1]]``."""
    offsets = np.zeros(len(views) + 1, dtype=np.int64)
    for position, view in enumerate(views):
        offsets[position + 1] = offsets[position] + view.count
    values = (
        np.concatenate([view.ids for view in views]).astype(np.int32, copy=False)
        if int(offsets[-1])
        else np.empty(0, dtype=np.int32)
    )
    return {
        "values": bundle.put(prefix + "values", values),
        "offsets": bundle.put(prefix + "offsets", offsets),
    }


def _columns_from_state(
    state: Dict[str, object], bundle, what: str
) -> List[np.ndarray]:
    """The per-slot id arrays of an inline CSR state, validated."""
    values = np.asarray(bundle.get(state["values"]), dtype=np.int32)
    offsets = np.asarray(bundle.get(state["offsets"]), dtype=np.int64)
    if (
        offsets.size == 0
        or int(offsets[0]) != 0
        or int(offsets[-1]) != values.size
        or (offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)))
    ):
        raise ConfigurationError(
            f"{what} offsets column is inconsistent with its values column"
        )
    return [
        values[offsets[position]:offsets[position + 1]]
        for position in range(offsets.size - 1)
    ]


def as_id_array(ids: IdsLike) -> np.ndarray:
    """Public helper: normalize any id collection to a sorted int32 array."""
    return _as_sorted_ids(ids)


def membership_mask(ids: IdsLike, size: int) -> np.ndarray:
    """Boolean membership mask of length >= ``size`` for ``ids``."""
    array = _as_sorted_ids(ids)
    length = max(int(size), int(array[-1]) + 1 if array.size else 1)
    mask = np.zeros(length, dtype=bool)
    if array.size:
        mask[array] = True
    return mask


def batched_overlap_counts(
    views: Sequence[CoverageView], mask: np.ndarray
) -> np.ndarray:
    """``|C_i ∩ mask|`` for every view, as one fused kernel.

    Equivalent to ``[v.overlap_with(mask) for v in views]`` — ids beyond the
    mask length count as uncovered, matching :meth:`CoverageView.overlap_with`
    — but the id arrays are concatenated once and probed with a single mask
    gather, and the per-view counts fall out of a segmented prefix sum, so
    there is no Python (and no per-view numpy dispatch) in the loop.
    """
    n = len(views)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.fromiter((view.count for view in views), dtype=np.int64, count=n)
    if not int(sizes.sum()):
        return np.zeros(n, dtype=np.int64)
    all_ids = np.concatenate([view.ids for view in views])
    if int(all_ids.max()) < mask.size:
        covered = mask[all_ids]
    else:
        inside = all_ids < mask.size
        covered = inside.copy()
        covered[inside] = mask[all_ids[inside]]
    # Segmented reduction: empty views contribute no boundary (reduceat would
    # misread a repeated index), so reduce over the non-empty segments only.
    ends = np.cumsum(sizes)
    nonempty = sizes > 0
    counts = np.zeros(n, dtype=np.int64)
    counts[nonempty] = np.add.reduceat(
        covered, (ends - sizes)[nonempty], dtype=np.int64
    )
    return counts


def batched_new_counts(
    views: Sequence[CoverageView], mask: np.ndarray
) -> np.ndarray:
    """``|C_i \\ mask|`` for every view (the batched ``new_count`` kernel).

    Equivalent to ``[v.new_ids_given(mask).size for v in views]`` without
    materializing any difference arrays.
    """
    n = len(views)
    sizes = np.fromiter((view.count for view in views), dtype=np.int64, count=n)
    return sizes - batched_overlap_counts(views, mask)
