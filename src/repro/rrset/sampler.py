"""Random reverse-reachable (RR) set sampling.

A random RR set for ad ``i`` is generated by (conceptually) sampling a
possible world — every arc ``(u, v)`` survives with probability
``p^i_{u,v}`` — picking a uniform target node ``w``, and collecting every
node that reaches ``w`` in the surviving graph.  The standard lazy
realization below flips each arc's coin only when the reverse BFS first
scans it, which is distribution-equivalent because each arc is scanned at
most once (its head is visited at most once).

For a sample ``R`` of RR sets, ``n · F_R(S)`` — ``F_R(S)`` being the
fraction of sets intersecting ``S`` — is an unbiased estimator of the
spread ``σ_i(S)`` (Section 4.2).

Batch sampling (:meth:`RRSampler.sample_batch_flat`) is the hot path of
the TI engine and returns one flat CSR pair, the only batch shape a
:class:`SamplerBackend` produces: all member ids concatenated in an
``int64`` array plus an ``indptr`` offset array (set ``k`` occupies
``members[indptr[k]:indptr[k+1]]``).
It runs a *level-synchronous* reverse BFS over all requested sets at
once: roots are drawn in one vectorized RNG call, and each BFS level
performs one ragged gather of every frontier node's in-arc slice, one
``rng.random(E)`` draw over all E candidate arcs of the level, and one
dedup that drops keys already in a per-(set, node) visited bitmap, then
sorts the rest and keeps the first of each run of equal keys — so the
Python interpreter executes O(graph depth) iterations instead of
O(total frontier nodes).  Sets are processed in chunks sized so the
visited bitmap stays within a fixed memory budget (the chunk size is a
pure function of ``n`` and ``count``, keeping seeded streams
reproducible).  Lazy arc evaluation is preserved — each (set, arc) coin
is flipped at most once, when the arc's head is first expanded in that
set — so the sampling distribution is unchanged.  Complexity is
O(total scanned arcs · log level-width).  The visited bitmap is kept
per thread for the thread's life, grown to the largest ``chunk · n``
it has sampled (so one chunk budget bounds it), and every call resets
exactly the keys it set, also when it raises: no call allocates or
zeroes a chunk-sized block.

One private BFS core (``_reverse_bfs``) yields every frontier, and two
assemblers consume it: :func:`sample_batch_flat_kernel` sorts the
members into the set-major CSR pair that stores hold, and
``_sample_batch_widths_kernel`` returns only each set's width for
KPT.  A set's width is the number of coins its BFS flipped (every
member's in-arcs are scanned once), so the widths are one weighted
``bincount`` over the frontiers' in-degrees; both assemblers draw the
same RNG stream.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from repro._rng import as_generator
from repro.errors import EstimationError
from repro.graph.digraph import DiGraph

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "RRSampler",
    "SamplerBackend",
    "batch_chunk_size",
    "batch_widths",
    "resolve_kernel",
    "sample_batch_flat_kernel",
    "validate_edge_probs",
]

#: Default visited-bitmap budget per chunk, in bytes (see
#: :func:`sample_batch_flat_kernel`).
DEFAULT_CHUNK_BYTES = 16 * 1024 * 1024


def validate_edge_probs(graph: DiGraph, probs) -> np.ndarray:
    """Check shape/range of per-arc probabilities; returns them as float64.

    Shared by both :class:`SamplerBackend` implementations so every
    entry point enforces the same contract (canonical edge order,
    ``float64[m]``, every value in [0, 1], so NaN is refused).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (graph.m,):
        raise EstimationError(
            f"edge probabilities must have shape ({graph.m},), got {probs.shape}"
        )
    # Elementwise, so NaN fails too (min()/max() let it pass).
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise EstimationError("edge probabilities must lie in [0, 1]")
    return probs


def resolve_kernel(kernel: str | None) -> str:
    """Name the batch kernel a spelling selects: always ``"numpy"``.

    :func:`sample_batch_flat_kernel` is the only kernel.  ``None``,
    ``"numpy"`` and ``"auto"`` are accepted because the repository
    benchmark (``perfbench/``) still records and passes the name; any
    other spelling raises :class:`~repro.errors.EstimationError`.
    """
    if kernel not in (None, "numpy", "auto"):
        raise EstimationError(f"unknown kernel {kernel!r}; the only kernel is 'numpy'")
    return "numpy"


def batch_widths(
    in_indptr: np.ndarray, members: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """Per-set widths ``w(R)`` (in-arc counts into members) of a flat batch.

    The single definition behind :meth:`SamplerBackend.sample_batch_widths`,
    so the KPT width statistic cannot diverge between samplers.
    """
    indeg = in_indptr[members + 1] - in_indptr[members]
    csum = np.concatenate(([0], np.cumsum(indeg)))
    return csum[indptr[1:]] - csum[indptr[:-1]]


def batch_chunk_size(n: int, count: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """Sets processed per level-synchronous pass (bitmap budget).

    A pure function of ``(n, count, chunk_bytes)`` so seeded streams stay
    reproducible across runs, machines and processes.  Known limitation:
    the budget bounds only the chunk · n visited bitmap; a BFS
    level's transient gather arrays scale with the frontier's total
    in-degree, up to O(chunk · m) on dense-probability graphs.  The
    bound cannot be tightened here without changing the chunk split and
    hence every documented seeded stream; revisit alongside the next
    intentional stream change.
    """
    return max(1, min(count, chunk_bytes // max(n, 1)))


_PER_THREAD = threading.local()


def _visited_bitmap(size: int) -> np.ndarray:
    """This thread's visited bitmap, grown to at least *size* entries.

    Kept for the thread's life and all False between kernel calls: each
    call resets exactly the keys it set (:func:`_reset`), so no call pays
    to allocate or zero a chunk-sized block.  Its length is the largest
    ``chunk * n`` the thread has sampled, so one chunk budget bounds it.
    """
    bitmap = getattr(_PER_THREAD, "visited", None)
    if bitmap is None or bitmap.size < size:
        bitmap = np.zeros(size, dtype=bool)
        _PER_THREAD.visited = bitmap
    return bitmap


def _reset(visited: np.ndarray, touched: list[np.ndarray]) -> None:
    """Clear the *touched* keys in *visited* and forget them."""
    for keys in touched:
        visited[keys] = False
    touched.clear()


def _reverse_bfs(
    n: int,
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    probs_in: np.ndarray,
    count: int,
    rng: np.random.Generator,
    chunk_bytes: int,
    roots: np.ndarray | None,
):
    """The level-synchronous reverse BFS that both assemblers consume.

    Yields ``(sets, nodes, degs)`` once per BFS frontier, before that
    frontier's coins are flipped: the global set id, node id and
    in-degree of every frontier entry (``int64``).  Every member of every
    set is yielded exactly once, in the frontier that discovered it
    (roots first), and each frontier is expanded in full, so a set's
    in-degrees summed over all frontiers are its coin flips — its width.
    The yielded arrays are read-only for the consumer; ``nodes`` may be
    a view of *roots*.  The visited bitmap is all False again when the
    generator finishes or raises.  Callers handle ``count == 0``.
    """
    if roots is None:
        roots = rng.integers(0, n, size=count).astype(np.int64)
    else:
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        if roots.shape != (count,):
            raise EstimationError(
                f"roots must have shape ({count},), got {roots.shape}"
            )
        if roots.size and (roots.min() < 0 or roots.max() >= n):
            raise EstimationError(f"roots must lie in [0, {n})")

    chunk = batch_chunk_size(n, count, chunk_bytes)
    indeg = np.diff(in_indptr)
    visited = _visited_bitmap(chunk * n)  # all False on entry and on exit
    touched: list[np.ndarray] = []  # keys set in visited since the last reset
    try:
        for c0 in range(0, count, chunk):
            c1 = min(c0 + chunk, count)
            # Per-(set, node) visited keys, flat-indexed set*n + node.
            fsets = np.arange(c1 - c0, dtype=np.int64)
            fnodes = roots[c0:c1]
            keys = fsets * n + fnodes
            touched.append(keys)
            visited[keys] = True
            while True:
                degs = indeg[fnodes]
                yield fsets + c0, fnodes, degs
                ends = np.cumsum(degs)
                total = int(ends[-1])
                if total == 0:
                    break
                # Ragged gather of every frontier node's in-arc slice.
                eidx = np.repeat(in_indptr[fnodes] - (ends - degs), degs)
                eidx += np.arange(total, dtype=np.int64)
                hit = np.flatnonzero(rng.random(total) < probs_in[eidx])
                # Set ids only for the arcs whose coin came up: arc j
                # belongs to the first frontier entry whose end exceeds j.
                cand = fsets[np.searchsorted(ends, hit, side="right")] * n
                cand += in_tails[eidx[hit]]
                keys = cand[~visited[cand]]  # drop already-visited pairs
                if not keys.size:
                    break
                # Dedup within the level: sort, keep the first of each run
                # of equal keys.  Same ascending unique keys as np.unique,
                # without its hashing cost.
                keys.sort()
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
                touched.append(keys)
                visited[keys] = True
                fsets, fnodes = np.divmod(keys, n)
            _reset(visited, touched)
    finally:
        _reset(visited, touched)


def sample_batch_flat_kernel(
    n: int,
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    probs_in: np.ndarray,
    count: int,
    rng: np.random.Generator,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    roots: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous reverse-BFS batch sampler over a raw in-CSR.

    This is the process-agnostic core of
    :meth:`RRSampler.sample_batch_flat`: it takes the reverse-adjacency
    CSR directly (``in_indptr``: ``int64[n + 1]``, ``in_tails``:
    ``int64[m]``, ``probs_in``: ``float64[m]`` in in-CSR slot order) so
    parallel workers can run it over ``multiprocessing.shared_memory``
    views without constructing a :class:`DiGraph`.  Inputs are assumed
    validated; ``rng`` must be a ready :class:`numpy.random.Generator`.

    *roots*, when given, pins the root node of each set (``int64``-like,
    length *count*) and **skips the uniform root draw** — the RNG stream
    then starts directly at the first level's coin flips.  This is the
    root-preserving resample path of incremental maintenance
    (docs/ARCHITECTURE.md §14); ordinary sampling leaves it ``None``.

    Returns a freshly allocated ``(members, indptr)`` CSR pair (both
    ``int64``, owned by the caller); set ``k`` is
    ``members[indptr[k]:indptr[k+1]]``.  The RNG stream consumed here is
    the documented contract of :meth:`RRSampler.sample_batch_flat`.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    member_sets: list[np.ndarray] = []  # global set id per member
    member_nodes: list[np.ndarray] = []
    for sets, nodes, _ in _reverse_bfs(
        n, in_indptr, in_tails, probs_in, count, rng, chunk_bytes, roots
    ):
        member_sets.append(sets)
        member_nodes.append(nodes)
    all_sets = np.concatenate(member_sets)
    all_nodes = np.concatenate(member_nodes)
    # Stable sort by set id: members stay in per-level discovery order.
    # A stable order is unique, so sorting the ids as uint16 (which NumPy
    # radix-sorts) gives the same permutation whenever they fit.
    order = np.argsort(
        all_sets.astype(np.uint16) if count <= 65_536 else all_sets, kind="stable"
    )
    members = np.ascontiguousarray(all_nodes[order])
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(all_sets, minlength=count)))
    ).astype(np.int64)
    return members, indptr


def _sample_batch_widths_kernel(
    n: int,
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    probs_in: np.ndarray,
    count: int,
    rng: np.random.Generator,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Per-set widths of *count* fresh RR sets, without assembling the sets.

    Draws exactly what :func:`sample_batch_flat_kernel` draws, leaving
    *rng* in the same state, and returns what :func:`batch_widths`
    computes from that batch (``int64[count]``): one weighted
    ``bincount`` of the frontiers' in-degrees by set id.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    level_sets: list[np.ndarray] = []
    level_degs: list[np.ndarray] = []
    for sets, _, degs in _reverse_bfs(
        n, in_indptr, in_tails, probs_in, count, rng, chunk_bytes, None
    ):
        level_sets.append(sets)
        level_degs.append(degs)
    widths = np.bincount(
        np.concatenate(level_sets),
        weights=np.concatenate(level_degs),
        minlength=count,
    )
    return widths.astype(np.int64)


class SamplerBackend(ABC):
    """Batch RR-set sampling seam shared by all consumers.

    Two implementations exist, and
    :meth:`~repro.core.ti_engine.EngineWarmState.make_sampler` picks one
    by worker count: :class:`RRSampler` (serial) and
    :class:`~repro.rrset.backend.ParallelBackend` (shard-parallel).
    Both draw flat ``(members, indptr)`` CSR batches only.  ``graph``
    and ``probs`` (canonical edge order, ``float64[m]``) are readable
    attributes of every sampler.
    """

    __slots__ = ()

    graph: DiGraph
    probs: np.ndarray

    @abstractmethod
    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* RR sets as one flat ``(members, indptr)`` CSR pair.

        Both arrays are ``int64``, freshly allocated and owned by the
        caller; set ``k`` is ``members[indptr[k]:indptr[k+1]]``.
        *roots*, when given (``int64[count]``), pins each set's root and
        skips the root draw — the incremental-maintenance resample path
        (docs/ARCHITECTURE.md §14); the RNG then starts directly at the
        first coin-flip vector.
        """

    def sample_batch_widths(self, count: int, rng=None) -> np.ndarray:
        """Widths of *count* fresh RR sets, computed in one flat batch.

        The width ``w(R)`` is the number of arcs pointing into members of
        ``R``; TIM's KPT estimation consumes it (Section 4.2 of [34]).
        The member ids themselves are discarded.  This is the reference
        definition (:func:`batch_widths` over :meth:`sample_batch_flat`),
        which :class:`~repro.rrset.backend.ParallelBackend` uses;
        :class:`RRSampler` returns the same widths without assembling
        the sets.
        """
        members, indptr = self.sample_batch_flat(count, rng)
        return batch_widths(self.graph.in_indptr, members, indptr)

    def close(self) -> None:
        """Release sampler resources (idempotent; no-op for serial)."""

    def __enter__(self) -> "SamplerBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RRSampler(SamplerBackend):
    """Per-ad serial RR-set sampler: the in-process :class:`SamplerBackend`.

    Parameters
    ----------
    graph:
        The social graph.
    probs:
        Ad-specific arc probabilities in canonical edge order (Eq. 1).
    kernel:
        Checked by :func:`resolve_kernel` and otherwise ignored; kept
        because ``perfbench/`` still passes it.

    Notes
    -----
    The constructor re-indexes the probabilities into in-CSR order once,
    so each node's in-arc coins are one contiguous slice.
    """

    __slots__ = ("graph", "probs", "probs_in", "_in_indptr", "_in_tails")

    def __init__(self, graph: DiGraph, probs, *, kernel: str | None = None) -> None:
        resolve_kernel(kernel)
        self.graph = graph
        self.probs = validate_edge_probs(graph, probs)
        self.probs_in = np.ascontiguousarray(self.probs[graph.in_edge_ids])
        self._in_indptr = graph.in_indptr
        self._in_tails = graph.in_tails

    # Visited-bitmap budget per chunk, in bytes.  The chunk size derived
    # from it is a pure function of (n, count) so seeded streams stay
    # reproducible across runs and machines.  Class-level so tests can
    # shrink it to force multi-chunk execution.
    _CHUNK_BYTES = DEFAULT_CHUNK_BYTES

    def _chunk_size(self, count: int) -> int:
        """Sets processed per level-synchronous pass (bitmap budget)."""
        return batch_chunk_size(self.graph.n, count, self._CHUNK_BYTES)

    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* independent RR sets into one flat CSR pair.

        Returns ``(members, indptr)``:

        * ``members`` — ``int64[total_members]``, all member node ids
          concatenated; set ``k`` is ``members[indptr[k]:indptr[k+1]]``,
          listing the root first, then each BFS level's fresh members in
          ascending node order;
        * ``indptr`` — ``int64[count + 1]``, non-decreasing offsets with
          ``indptr[0] == 0`` and ``indptr[-1] == members.size``.

        Both arrays are freshly allocated and owned by the caller —
        they alias no sampler state and may be mutated, resized, or
        handed to :meth:`RRCollection.add_sets_flat` /
        :meth:`SharedRRStore.extend_flat` (which copy on append).

        RNG stream: one ``rng.integers(0, n, count)`` draw for all
        roots, then per chunk and per BFS level a single
        ``rng.random(E)`` draw covering every candidate arc of the
        level (frontier order: sets ascending, each node's in-arc slice
        contiguous).  Seeded runs are fully deterministic.  The actual
        work happens in :func:`sample_batch_flat_kernel`, which parallel
        workers invoke directly over shared-memory CSR views.

        *roots*, when given, pins each set's root and skips the root
        draw entirely (the stream then starts at the first coin-flip
        vector) — the incremental-maintenance resample path.
        """
        return sample_batch_flat_kernel(
            *self._kernel_args(count, rng), self._CHUNK_BYTES, roots
        )

    def sample_batch_widths(self, count: int, rng=None) -> np.ndarray:
        """The base method's widths and RNG stream, via
        ``_sample_batch_widths_kernel`` (no member arrays)."""
        return _sample_batch_widths_kernel(
            *self._kernel_args(count, rng), self._CHUNK_BYTES
        )

    def _kernel_args(self, count: int, rng) -> tuple:
        """Check *count* and the graph; the kernels' leading arguments."""
        if count < 0:
            raise EstimationError(f"count must be non-negative, got {count}")
        rng = as_generator(rng)
        if self.graph.n == 0:
            raise EstimationError("cannot sample an RR set from an empty graph")
        return (
            self.graph.n, self._in_indptr, self._in_tails, self.probs_in, count, rng
        )
