"""Coverage-indexed collections of RR sets on a flat CSR backend.

:class:`RRCollection` is the reference implementation of the per-ad
RR collection behind TI-CARM / TI-CSRM (Algorithm 2); the engine runs
the same semantics split in two, a :class:`SharedRRStore` of sets and
one :class:`SharedRRCollection` overlay per ad.  It maintains, for one
ad:

* the sampled RR sets (``θ_i`` of them, growing as the latent seed-set
  size estimate grows),
* a *residual* coverage count per node — how many not-yet-covered sets
  the node belongs to, which is exactly the marginal-coverage quantity
  ``cov_i(v)`` the selection rules in Algorithms 4 and 5 maximize,
* the running number of covered sets, from which the revenue estimate
  ``π̂_i(S_i) = cpe(i) · n · covered / θ_i`` follows.

Storage layout (identical estimator semantics to the original
list-of-arrays implementation, but every hot operation is a numpy
kernel):

* ``members`` / ``indptr`` — one CSR pair over all sampled sets: set
  ``k`` occupies ``members[indptr[k]:indptr[k+1]]``.  O(total members)
  memory, appended in O(batch) per :meth:`RRCollection.add_sets_flat`.
* ``covered`` — one boolean flag per set; "covered" sets are removed
  lazily (flagged, member counts decremented), implementing line 14 of
  Algorithm 2.
* a node → set-ids inverted index, itself a CSR pair, built lazily with
  ``np.bincount`` + stable ``np.argsort`` over the uncovered sets'
  members (O(M) per rebuild, triggered once per growth batch — never
  per member).  Stale entries of later-covered sets are filtered by the
  ``covered`` flag at query time.

:meth:`RRCollection.mark_covered_by` is fully vectorized: the node's set
ids come from one inverted-index slice, and the residual-count
decrement gathers all member slices of the newly covered sets with one
ragged gather + ``np.bincount`` subtraction.  Newly sampled sets that
already contain a seed are absorbed directly into the covered count,
implementing the coverage refresh of ``UpdateEstimates`` (Algorithm 3).

The collection also reports its memory footprint analytically, backing
the Table 3 reproduction.

Memory bounding (ISSUE 7)
-------------------------
Stores are *memory-bounded* for real-crawl scale:

* ``members`` is kept in the smallest sufficient signed dtype for the
  graph (:func:`member_dtype_for`) — ``int16`` under 32k nodes,
  ``int32`` up to 2**31-1, ``int64`` beyond — cutting the dominant
  array 4x on every dataset in the paper.  Incoming ``int64`` sampler
  batches are range-validated first, then cast, so the narrowing is
  lossless by construction.
* ``indptr`` starts as ``int32`` and upcasts to ``int64`` the first
  time total membership would exceed :data:`INDPTR_NARROW_MAX`
  (module-level so tests can shrink it to force the upcast path).
* :class:`SharedRRStore` optionally takes a ``bytes_budget``: once the
  member array would exceed it, the store spills ``members`` to a
  temp-file-backed ``np.memmap`` (appends grow the file and re-map),
  keeping RAM usage bounded while every read path — CSR views,
  inverted index, adoption — keeps working unchanged.  Spill files are
  removed by :meth:`SharedRRStore.close` or a ``weakref.finalize``
  safety net.
* Measured accounting — ``member_bytes``, ``peak_bytes``,
  :meth:`~SharedRRStore.bytes_per_rr_set` — feeds the engine's
  ``memory`` extras block, session stats and grid manifest rows.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import Sequence

import numpy as np

from repro.errors import EstimationError

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Largest total-membership offset kept in an ``int32`` indptr; one
#: entry past it upcasts the whole offset array to ``int64``.  Module
#: level (not per-store) so tests can shrink it to exercise the upcast.
INDPTR_NARROW_MAX = 2**31 - 1


def member_dtype_for(n_nodes: int) -> np.dtype:
    """Smallest *signed* dtype holding node ids of an *n_nodes* graph.

    Signed, with the bound set at the dtype's own maximum, because
    consumers index ``in_indptr[members + 1]``
    (:func:`repro.rrset.sampler.batch_widths`): ids reach
    ``n_nodes - 1``, so ``members + 1`` reaches ``n_nodes``, which must
    still be representable without overflow.
    """
    if n_nodes <= 2**15 - 1:
        return np.dtype(np.int16)
    if n_nodes <= 2**31 - 1:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _append_indptr(indptr: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Append absolute offsets *tail* (int64) to *indptr*, upcasting past
    :data:`INDPTR_NARROW_MAX`; returns the new offset array."""
    if tail.size and int(tail[-1]) > INDPTR_NARROW_MAX and indptr.dtype != np.int64:
        indptr = indptr.astype(np.int64)
    return np.concatenate([indptr, tail.astype(indptr.dtype)])


def _remove_spill_file(path: str) -> None:
    """Best-effort unlink of a spill file (finalizer/close target)."""
    try:
        os.unlink(path)
    except OSError:
        pass


def _segment_counts(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-set sums of a per-member array (robust to empty sets)."""
    csum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return csum[indptr[1:]] - csum[indptr[:-1]]


def _segment_index(indptr: np.ndarray, sids: np.ndarray) -> np.ndarray:
    """Flat indices of ``indptr[s]:indptr[s+1]`` for each s in *sids*."""
    starts = indptr[sids]
    lens = indptr[sids + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return _EMPTY_I64
    ends = np.cumsum(lens)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)


def _gather_segments(
    members: np.ndarray, indptr: np.ndarray, sids: np.ndarray
) -> np.ndarray:
    """Concatenate ``members[indptr[s]:indptr[s+1]]`` for each s in *sids*."""
    idx = _segment_index(indptr, sids)
    if idx.size == 0:
        return _EMPTY_I64
    return members[idx]


def build_inverted_index(
    nodes: np.ndarray, sids: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (node → set ids) index: one stable argsort + one bincount.

    Set ids stay ascending within each node's slice because ``sids`` is
    non-decreasing and the sort is stable.
    """
    order = np.argsort(nodes, kind="stable")
    inv_sets = np.ascontiguousarray(sids[order])
    inv_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(nodes, minlength=n_nodes)))
    ).astype(np.int64)
    return inv_indptr, inv_sets


def _validate_flat(members: np.ndarray, indptr: np.ndarray, n_nodes: int) -> None:
    if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
        raise EstimationError("indptr must be 1-D and start at 0")
    if np.any(np.diff(indptr) < 0) or indptr[-1] != members.size:
        raise EstimationError("indptr must be non-decreasing and end at members.size")
    if members.size and (members.min() < 0 or members.max() >= n_nodes):
        raise EstimationError("RR set contains out-of-range node ids")


def _seed_mask(n_nodes: int, seeds: Sequence[int]) -> np.ndarray:
    mask = np.zeros(n_nodes, dtype=bool)
    for s in seeds:
        mask[int(s)] = True
    return mask


class RRCollection:
    """Mutable, coverage-indexed RR-set store for one ad (flat CSR)."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise EstimationError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.member_dtype = member_dtype_for(self.n_nodes)
        self.members = np.empty(0, dtype=self.member_dtype)
        self.indptr = np.zeros(1, dtype=np.int32)
        self.covered = np.zeros(0, dtype=bool)
        self.covered_total = 0
        self.counts = np.zeros(n_nodes, dtype=np.int64)
        self._inv_indptr: np.ndarray | None = None
        self._inv_sets: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def add_sets_flat(
        self, members: np.ndarray, indptr: np.ndarray, seeds: Sequence[int] = ()
    ) -> int:
        """Append a flat CSR batch of RR sets (the sampler's output form).

        Parameters
        ----------
        members, indptr:
            A CSR pair as produced by
            :meth:`RRSampler.sample_batch_flat` or
            :func:`repro.rrset.backend.merge_shards`: ``members`` is
            ``int64[total]`` with node ids in ``[0, n_nodes)``;
            ``indptr`` is ``int64[k + 1]``, non-decreasing, starting at
            0 and ending at ``members.size``.  Both are **copied** into
            the collection's own arrays — the caller keeps ownership of
            (and may freely reuse) the inputs, and no view into them is
            retained.
        seeds:
            Already-selected seed nodes; sets hit by any of them count
            as covered immediately — they are neither indexed nor
            counted (Algorithm 3's ``cov'`` refresh).

        Returns the number of newly absorbed covered sets.
        """
        members = np.ascontiguousarray(members, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        _validate_flat(members, indptr, self.n_nodes)
        k = indptr.size - 1
        if k == 0:
            return 0
        lens = np.diff(indptr)
        if seeds is not None and len(seeds):
            hits = _segment_counts(_seed_mask(self.n_nodes, seeds)[members], indptr)
            covered_new = hits > 0
        else:
            covered_new = np.zeros(k, dtype=bool)
        absorbed = int(covered_new.sum())
        live_members = members[np.repeat(~covered_new, lens)]
        if live_members.size:
            self.counts += np.bincount(live_members, minlength=self.n_nodes)
        # Range-validated above, so the narrowing cast is lossless; an
        # explicit astype keeps concatenate from promoting back to int64.
        self.members = np.concatenate(
            [self.members, members.astype(self.member_dtype)]
        )
        self.indptr = _append_indptr(self.indptr, self.indptr[-1] + indptr[1:])
        self.covered = np.concatenate([self.covered, covered_new])
        self.covered_total += absorbed
        self._inv_indptr = self._inv_sets = None  # rebuilt lazily
        return absorbed

    def _inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """The node → uncovered-set-ids index, rebuilt after growth."""
        if self._inv_indptr is None:
            lens = np.diff(self.indptr)
            live = np.repeat(~self.covered, lens)
            sids = np.repeat(np.arange(self.theta, dtype=np.int64), lens)[live]
            self._inv_indptr, self._inv_sets = build_inverted_index(
                self.members[live], sids, self.n_nodes
            )
        return self._inv_indptr, self._inv_sets

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def theta(self) -> int:
        """Total number of sampled RR sets (covered included)."""
        return self.indptr.size - 1

    def set_members(self, sid: int) -> np.ndarray:
        """Member ids of set *sid* (a CSR slice view)."""
        return self.members[self.indptr[sid] : self.indptr[sid + 1]]

    def residual_count(self, node: int) -> int:
        """Number of uncovered sets containing *node* (``cov_i(node)``)."""
        return int(self.counts[node])

    def best_node(self, allowed: np.ndarray) -> int | None:
        """Unassigned node with maximum residual coverage (Algorithm 4).

        *allowed* is a boolean mask over nodes; returns ``None`` when no
        allowed node covers anything... except that a zero-coverage node is
        still a legal (zero-marginal-revenue) candidate, so the argmax is
        returned whenever any node is allowed.
        """
        if not allowed.any():
            return None
        masked = np.where(allowed, self.counts, -1)
        node = int(masked.argmax())
        if masked[node] < 0:
            return None
        return node

    def best_node_by_ratio(
        self,
        costs: np.ndarray,
        allowed: np.ndarray,
        window: int | None = None,
    ) -> int | None:
        """Node maximizing coverage-to-incentive-cost ratio (Algorithm 5).

        With *window* = ``w`` the argmax is restricted to the ``w`` allowed
        nodes of highest residual coverage — the trade-off knob studied in
        Figure 4 (``w = 1`` reduces to the cost-agnostic choice, ``w = n``
        is the full cost-sensitive rule).  Zero costs are floored at a tiny
        epsilon for the division only, making free influencers maximally
        attractive without numeric warnings.
        """
        return _best_by_ratio(self.counts, costs, allowed, window)

    def max_residual_fraction(self, allowed: np.ndarray) -> float:
        """``F^max_{R_i}``: the largest residual coverage fraction (Eq. 10)."""
        if self.theta == 0 or not allowed.any():
            return 0.0
        return float(np.where(allowed, self.counts, 0).max()) / self.theta

    def spread_estimate(self, node_or_set, n_nodes: int | None = None) -> float:
        """Static spread estimate ``n · F_R(S)`` over *all* sampled sets.

        *node_or_set* is a scalar node id or an iterable of node ids
        (each in ``[0, n_nodes)``); *n_nodes* overrides the population
        size ``n`` in the estimator (defaults to the collection's own).
        Unlike the residual counts this intentionally includes covered
        sets, matching the unbiased-estimator definition.  One membership
        mask lookup over the flat member array plus a segmented
        reduction; read-only — no collection state is touched.
        """
        if self.theta == 0:
            raise EstimationError("cannot estimate spread from an empty collection")
        n = self.n_nodes if n_nodes is None else n_nodes
        mask = np.zeros(self.n_nodes, dtype=bool)
        if np.isscalar(node_or_set):
            mask[int(node_or_set)] = True
        else:
            for v in node_or_set:
                mask[int(v)] = True
        hit = int((_segment_counts(mask[self.members], self.indptr) > 0).sum())
        return n * hit / self.theta

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark_covered_by(self, node: int) -> int:
        """Cover every uncovered set containing *node* (Alg. 2, line 14).

        Member counts of the covered sets are decremented (one ragged
        gather + ``np.bincount`` over ``counts``, an ``int64[n_nodes]``
        vector mutated in place) so residual counts stay equal to
        marginal coverages.  Triggers a lazy inverted-index rebuild if
        sets were added since the last query.  Returns the number of
        sets newly covered (the selected seed's ``cov_i``).
        """
        inv_indptr, inv_sets = self._inverted()
        ids = inv_sets[inv_indptr[node] : inv_indptr[node + 1]]
        fresh = ids[~self.covered[ids]]
        if not fresh.size:
            return 0
        self.covered[fresh] = True
        self.covered_total += int(fresh.size)
        dead = _gather_segments(self.members, self.indptr, fresh)
        self.counts -= np.bincount(dead, minlength=self.n_nodes)
        return int(fresh.size)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Analytic footprint of the stored sets and indexes (Table 3).

        Members are counted at their actual (narrowed) width; the
        node → set-id inverted index is counted at one ``int64`` entry
        per member whether or not it is currently materialized, keeping
        the figure deterministic across lazy rebuilds.
        """
        set_bytes = int(self.members.nbytes)
        index_bytes = self.members.size * 8
        flags = self.theta
        counts_bytes = self.counts.nbytes
        return set_bytes + index_bytes + flags + counts_bytes

    def bytes_per_rr_set(self) -> float:
        """Measured storage bytes per sampled set (members + offsets)."""
        if self.theta == 0:
            return 0.0
        return (int(self.members.nbytes) + int(self.indptr.nbytes)) / self.theta


def _best_by_ratio(
    counts: np.ndarray,
    costs: np.ndarray,
    allowed: np.ndarray,
    window: int | None,
) -> int | None:
    """Shared Algorithm-5 argmax over residual counts / incentive costs."""
    if not allowed.any():
        return None
    if window is None:
        # Elementwise the same quotients as over the allowed subset, and
        # argmax takes the first maximum either way: the same node.
        ratios = counts / np.maximum(costs, 1e-12)
        return int(np.where(allowed, ratios, -np.inf).argmax())
    candidate_idx = np.flatnonzero(allowed)
    if window < candidate_idx.size:
        cand_counts = counts[candidate_idx]
        top = np.argpartition(-cand_counts, window - 1)[:window]
        candidate_idx = candidate_idx[top]
    safe_costs = np.maximum(costs[candidate_idx], 1e-12)
    ratios = counts[candidate_idx] / safe_costs
    return int(candidate_idx[int(np.argmax(ratios))])


class SharedRRStore:
    """Append-only flat RR-set storage shared by several advertisers.

    Addresses the paper's open question (i) — "whether TI-CSRM can be
    made more memory efficient".  In the fully competitive marketplaces
    of Section 5 every ad uses the *same* arc probabilities (L = 1 or
    pure-competition pairs), so their RR sets are i.i.d. from the same
    distribution; the sets themselves (one CSR pair) and the node → set
    inverted index (a second CSR pair, rebuilt lazily per extension
    batch) are stored once and shared, with each ad keeping only its
    private residual state (covered flags + counts) in
    :class:`SharedRRCollection`.  Storage drops from ``O(h · θ · |R|)``
    to ``O(θ · |R| + h · (θ + n))``.

    Memory bounding: ``members`` uses the narrowest sufficient dtype
    (:func:`member_dtype_for`), and an optional *bytes_budget* caps its
    RAM residency — past the budget the array spills to a temp-file
    ``np.memmap`` (in *spill_dir*, default the system temp directory)
    and appends grow the file in place.  Every read path returns the
    same values either way; only :meth:`memory_bytes` (RAM) and
    :attr:`spilled` change.  Call :meth:`close` (sessions do) to drop
    the mapping and unlink the file; a ``weakref.finalize`` net removes
    it at GC/interpreter exit otherwise.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        bytes_budget: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise EstimationError(f"n_nodes must be positive, got {n_nodes}")
        if bytes_budget is not None and bytes_budget < 0:
            raise EstimationError(
                f"bytes_budget must be non-negative, got {bytes_budget}"
            )
        self.n_nodes = int(n_nodes)
        self.member_dtype = member_dtype_for(self.n_nodes)
        self.bytes_budget = int(bytes_budget) if bytes_budget else None
        self.peak_bytes = 0
        self.members = np.empty(0, dtype=self.member_dtype)
        self.indptr = np.zeros(1, dtype=np.int32)
        self._spill_dir = spill_dir
        self._spill_path: str | None = None
        self._spill_finalizer = None
        self._closed = False
        self._inv_indptr: np.ndarray | None = None
        self._inv_sets: np.ndarray | None = None

    @property
    def spilled(self) -> bool:
        """True once ``members`` lives in a memmap-backed spill file."""
        return self._spill_path is not None

    def _spill_map(self, size: int) -> np.memmap:
        """(Re)size the spill file for *size* members and map it r+."""
        if self._spill_path is None:
            fd, path = tempfile.mkstemp(
                prefix="repro_rrspill_", suffix=".bin", dir=self._spill_dir
            )
            os.close(fd)
            self._spill_path = path
            self._spill_finalizer = weakref.finalize(
                self, _remove_spill_file, path
            )
        itemsize = self.member_dtype.itemsize
        with open(self._spill_path, "r+b") as f:
            f.truncate(max(size, 1) * itemsize)
        return np.memmap(
            self._spill_path, dtype=self.member_dtype, mode="r+", shape=(size,)
        )

    def extend_flat(self, members: np.ndarray, indptr: np.ndarray) -> None:
        """Append a flat CSR batch of sets (the sampler's output form).

        Range-validates first, then narrows to :attr:`member_dtype`.
        When a *bytes_budget* is configured and the grown member array
        would exceed it (or the store has already spilled), the batch
        lands in the memmap spill file instead of RAM.
        """
        if self._closed:
            raise EstimationError("store is closed")
        members = np.ascontiguousarray(members, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        _validate_flat(members, indptr, self.n_nodes)
        if indptr.size == 1:
            return
        batch = members.astype(self.member_dtype)
        old_size = int(self.members.size)
        new_size = old_size + int(batch.size)
        over_budget = (
            self.bytes_budget is not None
            and new_size * self.member_dtype.itemsize > self.bytes_budget
        )
        if self.spilled or over_budget:
            mapped = self._spill_map(new_size)
            if old_size and not isinstance(self.members, np.memmap):
                mapped[:old_size] = self.members  # first spill: move RAM out
            if batch.size:
                mapped[old_size:] = batch
            mapped.flush()
            self.members = mapped
        else:
            self.members = np.concatenate([self.members, batch])
        self.indptr = _append_indptr(self.indptr, self.indptr[-1] + indptr[1:])
        self._inv_indptr = self._inv_sets = None
        self.peak_bytes = max(self.peak_bytes, self.memory_bytes())

    def close(self) -> None:
        """Drop the memmap (if any) and unlink the spill file (idempotent).

        The store must not be extended afterwards; in-RAM stores are
        unaffected apart from refusing further growth.
        """
        if self._closed:
            return
        self._closed = True
        if self._spill_path is not None:
            self.members = np.empty(0, dtype=self.member_dtype)
            self.indptr = np.zeros(1, dtype=np.int32)
            self._inv_indptr = self._inv_sets = None
            if self._spill_finalizer is not None:
                self._spill_finalizer()  # unlinks; detaches the finalizer
            self._spill_path = None

    def _inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """The full-store node → set-ids index, rebuilt lazily.

        Reads the member array exactly once per (re)build — spilled
        stores pay one sequential pass over the memmap, and the index
        itself always lives in RAM — and is dropped by every mutation
        (:meth:`extend_flat`, :meth:`replace_sets`), so queries never
        see ids for members that were since rewritten.  Members are
        sorted at their stored width: NumPy's stable argsort radix-sorts
        16-bit ids, several times faster than sorting them as ``int64``,
        and a stable order is unique, so the index is the same.
        """
        if self._inv_indptr is None:
            lens = np.diff(self.indptr)
            sids = np.repeat(np.arange(self.size, dtype=np.int64), lens)
            members = np.array(self.members) if self.spilled else self.members
            self._inv_indptr, self._inv_sets = build_inverted_index(
                members, sids, self.n_nodes
            )
        return self._inv_indptr, self._inv_sets

    def sets_containing(self, node: int) -> np.ndarray:
        """Ids (ascending) of all stored sets that contain *node*."""
        inv_indptr, inv_sets = self._inverted()
        return inv_sets[inv_indptr[node] : inv_indptr[node + 1]]

    def roots(self) -> np.ndarray:
        """The recorded root of every stored set (``int64[size]``).

        A sampled RR set's first member is its root (the batch kernel
        emits the root first, then each level's fresh members;
        docs/ARCHITECTURE.md §14) and sets are never empty, so the roots
        are exactly ``members[indptr[:-1]]``.  This *is* the per-set
        traversal record: together with membership it reproduces the
        reverse BFS, because every member's full in-arc slice — and no
        other edge — had its coin flipped.
        """
        return np.asarray(self.members[self.indptr[:-1]], dtype=np.int64)

    def sets_touching(self, nodes) -> np.ndarray:
        """Ids (ascending, unique) of sets whose traversal flipped a coin
        on an in-arc of any node in *nodes*.

        The edge-level invalidation query: a stored set's reverse BFS
        flipped the coins of exactly the in-arcs of its members, so the
        sets that could have observed a change to edge ``u -> v`` are
        precisely the sets containing ``v`` — pass the *heads* of the
        changed edges (:meth:`repro.graph.updates.UpdatePlan.changed_heads`).
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0 or self.size == 0:
            return _EMPTY_I64
        if nodes[0] < 0 or nodes[-1] >= self.n_nodes:
            raise EstimationError(
                f"node ids must lie in [0, {self.n_nodes}), got range "
                f"[{nodes[0]}, {nodes[-1]}]"
            )
        inv_indptr, inv_sets = self._inverted()
        hits = _gather_segments(inv_sets, inv_indptr, nodes)
        return np.unique(hits)

    def replace_sets(
        self, sids: np.ndarray, members: np.ndarray, indptr: np.ndarray
    ) -> None:
        """Rewrite the member lists of the sets *sids* in place.

        *members*/*indptr* is a flat CSR batch with exactly
        ``len(sids)`` sets: batch set ``j`` becomes the new content of
        store set ``sids[j]``.  The store keeps its size; untouched sets
        keep their ids and content.  This is the invalidation-resample
        write path (docs/ARCHITECTURE.md §14): the session resamples the
        invalidated ids from their recorded roots and swaps the results
        in here.

        Spill safety: a spilled store's surviving members are gathered
        to RAM and the live memmap reference is dropped *before* the
        spill file is resized — resizing a file under a live ``mmap``
        risks ``SIGBUS`` on a later access — then the rewritten array is
        flushed back and remapped.  The inverted index is always
        invalidated, so :meth:`sets_containing` / :meth:`sets_touching`
        after a replace rebuild against the rewritten members.
        """
        if self._closed:
            raise EstimationError("store is closed")
        sids = np.asarray(sids, dtype=np.int64)
        members = np.ascontiguousarray(members, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        _validate_flat(members, indptr, self.n_nodes)
        if sids.ndim != 1 or indptr.size != sids.size + 1:
            raise EstimationError(
                f"got {sids.size} set ids but {indptr.size - 1} replacement sets"
            )
        if sids.size == 0:
            return
        if np.any(np.diff(sids) <= 0):
            raise EstimationError("set ids must be strictly increasing")
        if sids[0] < 0 or sids[-1] >= self.size:
            raise EstimationError(
                f"set ids must lie in [0, {self.size}), got range "
                f"[{sids[0]}, {sids[-1]}]"
            )
        if np.any(np.diff(indptr) < 1):
            raise EstimationError("replacement RR sets must be non-empty")

        old_indptr = self.indptr.astype(np.int64)
        # Gather to RAM up front: on a spilled store the source memmap
        # must not be read after (or truncated under) the rewrite below.
        old_members = (
            np.array(self.members) if self.spilled else self.members
        )
        new_lens = np.diff(old_indptr)
        new_lens[sids] = np.diff(indptr)
        new_indptr64 = np.concatenate(
            ([0], np.cumsum(new_lens, dtype=np.int64))
        )
        total = int(new_indptr64[-1])

        out = np.empty(total, dtype=self.member_dtype)
        replaced = np.zeros(self.size, dtype=bool)
        replaced[sids] = True
        kept_ids = np.flatnonzero(~replaced)
        if kept_ids.size:
            dest = _segment_index(new_indptr64, kept_ids)
            out[dest] = _gather_segments(old_members, old_indptr, kept_ids)
        dest = _segment_index(new_indptr64, sids)
        out[dest] = members.astype(self.member_dtype)

        indptr_dtype = (
            np.int64 if total > INDPTR_NARROW_MAX else self.indptr.dtype
        )
        if self.spilled:
            self.members = np.empty(0, dtype=self.member_dtype)
            mapped = self._spill_map(total)
            mapped[:] = out
            mapped.flush()
            self.members = mapped
        elif (
            self.bytes_budget is not None
            and total * self.member_dtype.itemsize > self.bytes_budget
        ):
            mapped = self._spill_map(total)
            mapped[:] = out
            mapped.flush()
            self.members = mapped
        else:
            self.members = out
        self.indptr = new_indptr64.astype(indptr_dtype)
        self._inv_indptr = self._inv_sets = None
        self.peak_bytes = max(self.peak_bytes, self.memory_bytes())

    def set_members(self, sid: int) -> np.ndarray:
        """Member ids of set *sid* (a CSR slice view)."""
        return self.members[self.indptr[sid] : self.indptr[sid + 1]]

    @property
    def size(self) -> int:
        """Number of stored sets."""
        return self.indptr.size - 1

    @property
    def member_total(self) -> int:
        """Total stored member entries across all sets."""
        return int(self.members.size)

    @property
    def member_bytes(self) -> int:
        """Bytes held by the member array (RAM or spill file)."""
        return int(self.members.nbytes)

    def bytes_per_rr_set(self) -> float:
        """Measured storage bytes per stored set (members + offsets)."""
        if self.size == 0:
            return 0.0
        return (self.member_bytes + int(self.indptr.nbytes)) / self.size

    def memory_bytes(self) -> int:
        """RAM footprint of the shared sets + inverted index.

        Members count at their narrowed width — or zero once spilled to
        disk — plus one ``int64`` inverted-index entry per member
        (deterministic across lazy rebuilds, as in
        :meth:`RRCollection.memory_bytes`).
        """
        set_bytes = 0 if self.spilled else self.member_bytes
        return set_bytes + self.member_total * 8


class SharedRRCollection:
    """One ad's residual view over a :class:`SharedRRStore`.

    Implements the same interface surface the TI engine uses on
    :class:`RRCollection` (residual counts, covering, Eq.-10 fractions,
    Alg.-3 absorption), but stores only ``covered`` flags and the count
    vector privately.  ``theta`` is the number of store sets this ad has
    *adopted*; adopting more sets (after an Eq.-10 growth step) counts
    the new suffix of the shared store with one ``np.bincount``.
    """

    def __init__(self, store: SharedRRStore) -> None:
        self.store = store
        self.n_nodes = store.n_nodes
        self.covered = np.zeros(0, dtype=bool)
        self.covered_total = 0
        self.counts = np.zeros(store.n_nodes, dtype=np.int64)
        self._adopted = 0

    @property
    def theta(self) -> int:
        """Number of store sets adopted by this ad."""
        return self._adopted

    def adopt(self, upto: int, seeds: Sequence[int] = ()) -> int:
        """Adopt store sets ``[adopted, upto)``; seed-hit sets absorb as covered.

        *upto* is an exclusive store index (``<= store.size``); adoption
        is monotone — calls with ``upto <= theta`` are no-ops returning
        0.  The adopted suffix is read as CSR *views* into the shared
        store (never copied); only this ad's private overlay — the
        ``covered`` ``bool[theta]`` flags and the ``int64[n_nodes]``
        residual ``counts`` — is (re)allocated here.  Mirrors
        :meth:`RRCollection.add_sets_flat` semantics (Algorithm 3's
        refresh); returns the number of newly absorbed covered sets.
        """
        if upto > self.store.size:
            raise EstimationError(
                f"cannot adopt {upto} sets; store only holds {self.store.size}"
            )
        if upto <= self._adopted:
            return 0
        store = self.store
        lo, hi = store.indptr[self._adopted], store.indptr[upto]
        members = store.members[lo:hi]
        indptr = store.indptr[self._adopted : upto + 1] - lo
        lens = np.diff(indptr)
        if seeds is not None and len(seeds):
            hits = _segment_counts(_seed_mask(self.n_nodes, seeds)[members], indptr)
            covered_new = hits > 0
        else:
            covered_new = np.zeros(upto - self._adopted, dtype=bool)
        absorbed = int(covered_new.sum())
        live_members = members[np.repeat(~covered_new, lens)]
        if live_members.size:
            self.counts += np.bincount(live_members, minlength=self.n_nodes)
        self.covered = np.concatenate([self.covered, covered_new])
        self.covered_total += absorbed
        self._adopted = upto
        return absorbed

    def residual_count(self, node: int) -> int:
        """``cov_i(node)`` over this ad's uncovered adopted sets."""
        return int(self.counts[node])

    def best_node(self, allowed: np.ndarray) -> int | None:
        """Same selection rule as :meth:`RRCollection.best_node`."""
        if not allowed.any():
            return None
        masked = np.where(allowed, self.counts, -1)
        node = int(masked.argmax())
        return None if masked[node] < 0 else node

    def best_node_by_ratio(
        self, costs: np.ndarray, allowed: np.ndarray, window: int | None = None
    ) -> int | None:
        """Same selection rule as :meth:`RRCollection.best_node_by_ratio`."""
        return _best_by_ratio(self.counts, costs, allowed, window)

    def max_residual_fraction(self, allowed: np.ndarray) -> float:
        """``F^max_{R_i}`` over this ad's residual view (Eq. 10)."""
        if self._adopted == 0 or not allowed.any():
            return 0.0
        return float(np.where(allowed, self.counts, 0).max()) / self._adopted

    def mark_covered_by(self, node: int) -> int:
        """Cover this ad's uncovered adopted sets containing *node*.

        The store's ids come ascending, so the adopted ones are a prefix
        (the whole slice once the ad has adopted the whole store), and
        the covered sets' members are decremented in place: O(members
        covered), not O(n).
        """
        ids = self.store.sets_containing(node)
        if self._adopted < self.store.size:
            ids = ids[: np.searchsorted(ids, self._adopted)]
        fresh = ids[~self.covered[ids]]
        if not fresh.size:
            return 0
        self.covered[fresh] = True
        self.covered_total += int(fresh.size)
        dead = _gather_segments(self.store.members, self.store.indptr, fresh)
        # ufunc.at takes its fast path only for intp indices.
        np.subtract.at(self.counts, dead.astype(np.intp), 1)
        return int(fresh.size)

    def memory_bytes(self) -> int:
        """Private overlay only; the shared store is accounted once."""
        return self.covered.size + self.counts.nbytes


def estimate_spread_flat(
    members: np.ndarray, indptr: np.ndarray, seed_set, n_nodes: int
) -> float:
    """Unbiased spread estimate ``n · F_R(S)`` from a flat CSR RR sample."""
    n_sets = indptr.size - 1
    if n_sets < 1:
        raise EstimationError("cannot estimate spread from an empty sample")
    seeds = np.asarray(sorted(set(int(v) for v in seed_set)), dtype=np.int64)
    hit_members = np.isin(members, seeds)
    hit = int((_segment_counts(hit_members, indptr) > 0).sum())
    return n_nodes * hit / n_sets
