"""The scalable RM engine (Algorithm 2) with pluggable selection rules.

TI-CARM, TI-CSRM and the two PageRank baselines of Section 5 differ only
in two lines of Algorithm 2: how the per-ad candidate node is chosen
(line 7) and how the winning (node, ad) pair is selected among the
candidates (line 9).  :class:`TIEngine` implements the shared skeleton —
per-ad RR collections, TIM sample sizes, the latent seed-size estimation
of Eq. 10, coverage-residual maintenance, ``UpdateEstimates`` — and takes
the two rules as parameters:

=================  ==================  =====================
algorithm          candidate_rule       selector
=================  ==================  =====================
TI-CARM            ``"ca"`` (Alg. 4)   ``"revenue"``
TI-CSRM            ``"cs"`` (Alg. 5)   ``"rate"``
PageRank-GR        ``"pagerank"``      ``"revenue"``
PageRank-RR        ``"pagerank"``      ``"round_robin"``
=================  ==================  =====================

Estimates: with residual coverage counts ``cov_j(v)`` the marginal
revenue is ``π̂_j(v|S_j) = cpe(j)·n·cov_j(v)/θ_j``; the running revenue is
``π̂_j(S_j) = cpe(j)·n·covered_j/θ_j``; payments add the modular seeding
cost.  When ``θ_j`` grows (Eq. 10 fired) new sets already covered by
``S_j`` are absorbed into ``covered_j`` — Algorithm 3's refresh.

Documented deviations from the pseudocode (docs/ARCHITECTURE.md §6):

* ``OPT_s`` may be lower-bounded by a precomputed max singleton spread
  instead of the KPT routine (both are valid lower bounds; the former is
  free when incentives already priced every singleton);
* for the ``ca``/``cs`` rules, an ad whose best candidate has *zero*
  residual coverage is retired — no node could increase its estimated
  revenue, and only the PageRank baselines are meant to pad zero-gain
  seeds;
* a hard ``theta_cap`` bounds sample sizes (pure-Python tractability),
  and θ sizing skips the KPT calls the cap makes moot
  (docs/ARCHITECTURE.md §5);
* ``share_samples=True`` enables the memory optimization the paper
  leaves open (Section 7, question i): ads with identical probability
  vectors draw their RR sets from one shared store and keep only
  private residual state — storage drops from ``O(h·θ·|R|)`` to
  ``O(θ·|R| + h·(θ + n))`` in fully competitive marketplaces, with
  the same estimator semantics (the shared sets are i.i.d. from each
  sharing ad's RR distribution).  Without it every ad samples into a
  store of its own; the knob only picks the store key.

Performance notes (flat data plane + lazy candidates):

* RR sets are drawn through a
  :class:`~repro.rrset.sampler.SamplerBackend` that the spec's
  ``workers`` alone selects (docs/ARCHITECTURE.md §3).  ``None``, 0 or
  1 is the serial :class:`~repro.rrset.sampler.RRSampler`.  ``k >= 2``
  fans each batch over a ``k``-worker shared-memory pool owned by the
  run's :class:`EngineWarmState` (one pool serves all ads); it is
  deterministic for a fixed ``(seed, workers)`` pair but draws a
  different — equally valid — sample than serial.  Sets are stored in
  flat CSR stores; all coverage maintenance is vectorized.
  **RNG stream:** each batch draws all its roots in one vectorized
  ``rng.integers`` call before any arc coin is flipped, whereas the
  legacy sampler interleaved one root draw with each set's coin flips.
  Seeded runs remain fully deterministic (same seed → same allocation)
  but produce a *different* — equally valid — sample than pre-flat
  versions of this engine; the KPT estimator batches its width samples
  the same way.  All estimator guarantees are distribution-level and
  unaffected.
* ``candidate_rule`` and ``selector`` also accept *callables* (see
  :mod:`repro.api.registry` for the signatures), which is how
  registry-defined algorithm variants plug in without subclassing.
  Every run samples through an :class:`EngineWarmState`; the one an
  :class:`~repro.api.session.AllocationSession` owns carries prob-keyed
  RR stores, pagerank orders and the worker pool *across* runs, so a
  warm re-solve over the same graph and probabilities adopts
  already-drawn RR sets instead of resampling (valid because the RR
  distribution depends only on (graph, probs)); warm mode implies the
  shared-store (``share_samples``) storage semantics.
* The greedy loop caches each ad's candidate ``(node, marg_rev)``
  between rounds (CELF-style laziness).  When ad ``a`` wins node ``v``,
  only ``a`` (its residual counts and possibly ``θ_a`` changed) and ads
  whose cached candidate *is* ``v`` (it just left the allowed set) are
  recomputed: for every untouched ad the residual counts are unchanged
  and its cached argmax is still the argmax over the shrunken allowed
  set, so the cached candidate is *exactly* what a fresh rescan would
  return — allocations are bit-identical to the eager rescan, which
  the parity tests select by setting ``lazy_candidates = False`` on a
  constructed engine.  The one exception is the windowed CS rule:
  removing ``v`` from the allowed set can promote a new node into the
  top-``w`` coverage window, so caching is disabled whenever ``window``
  is set.  This turns the per-round cost from O(h·n) into O(#invalidated·n).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro._rng import as_generator, spawn
from repro.errors import AllocationError, EstimationError, WorkerCrashError
from repro.graph.pagerank import pagerank_order
from repro.rrset.backend import (
    FAULT_COUNTER_KEYS,
    ParallelBackend,
    SharedGraphPool,
    new_fault_counters,
)
from repro.rrset.collection import SharedRRCollection, SharedRRStore
from repro.rrset.sampler import RRSampler, SamplerBackend
from repro.rrset.tim import KPTEstimator, sample_size
from repro.core.allocation import Allocation, AllocationResult
from repro.core.instance import RMInstance
from repro.core.seedsize import next_seed_size

if TYPE_CHECKING:
    # Annotation only: repro.api imports this module (validate_rules),
    # so a runtime import here would be circular.
    from repro.api.spec import EngineSpec

CANDIDATE_RULES = ("ca", "cs", "pagerank")
SELECTORS = ("revenue", "rate", "round_robin")
_BUDGET_SLACK = 1e-9


def validate_rules(candidate_rule, selector) -> None:
    """Reject unknown rule strings / non-callable rules.

    The one shared check behind both :class:`TIEngine` construction and
    :func:`repro.api.registry.register_algorithm`, so the accepted rule
    surface (and its error messages) cannot drift between the two.
    """
    if isinstance(candidate_rule, str):
        if candidate_rule not in CANDIDATE_RULES:
            raise AllocationError(
                f"unknown candidate_rule {candidate_rule!r}; options: "
                f"{CANDIDATE_RULES} or a callable (engine, ad) -> node | None"
            )
    elif not callable(candidate_rule):
        raise AllocationError("candidate_rule must be a rule name or a callable")
    if isinstance(selector, str):
        if selector not in SELECTORS:
            raise AllocationError(
                f"unknown selector {selector!r}; options: {SELECTORS} "
                "or a callable (engine, candidates) -> candidate | None"
            )
    elif not callable(selector):
        raise AllocationError("selector must be a selector name or a callable")


class _WarmGroup:
    """Sampling state for one store key (see :meth:`TIEngine._group_key`).

    ``kpt_params`` records the ``(ell, kpt_max_samples)`` the cached KPT
    estimator was built with; a later solve changing either gets a fresh
    estimator (same sampler and RNG stream) instead of silently reusing
    bounds computed under the old accuracy parameters.
    """

    __slots__ = ("sampler", "store", "rng", "kpt", "kpt_params")

    def __init__(self, sampler, store, rng, kpt, kpt_params=None) -> None:
        self.sampler = sampler
        self.store = store
        self.rng = rng
        self.kpt = kpt
        self.kpt_params = kpt_params


class EngineWarmState:
    """The sampling state of engine runs: RR stores, samplers and the pool.

    Every :class:`TIEngine` run samples through one.  A cold run gets a
    private state that :meth:`TIEngine.run` closes; an
    :class:`~repro.api.session.AllocationSession` keeps one across its
    runs over one (graph, ad-prob family).

    * ``stores`` — group key → :class:`_WarmGroup` (sampler backend,
      :class:`SharedRRStore`, RNG stream, KPT estimator).  The engine
      picks the key (:meth:`TIEngine._group_key`): the probability
      vector's bytes when ads share samples, the ad index otherwise.
      RR sets depend only on (graph, probs), so stored sets stay valid
      when budgets / CPEs / incentives change between solves; a warm
      run adopts the stored prefix and samples only past the store's
      end, continuing the group's persisted RNG stream.
    * ``pagerank_orders`` — prob-content key → node ordering, so the
      PageRank baselines rank once per probability vector.
    * ``pool`` — one :class:`SharedGraphPool` serving every parallel
      sampler made by :meth:`make_sampler`, the only place a pool is
      built; :meth:`close` (or :meth:`close_pool`, when the graph
      changes) tears it down.
    * ``wrap_sampler`` — optional hook applied to each newly created
      sampler backend (sessions install a counting proxy here so reuse
      is observable).
    * ``counters`` — cumulative reuse observability: each engine run
      counts, once per store key it touches, a ``store_hits`` (the
      state already held that store) or a ``store_misses`` (a new store
      was created).  Sessions expose these through
      :attr:`~repro.api.session.AllocationSession.stats`, and the grid
      runner's warm mode records per-cell deltas in its manifest rows —
      so RR reuse is auditable provenance, not silent behavior.  The
      same dict carries the fault-tolerance counters
      (``worker_respawns`` / ``shards_recovered`` / ``pool_degraded``,
      docs/ARCHITECTURE.md §11): it is handed to the pool, which the
      pool and the backends sampling through it increment in place as
      they recover from or degrade around worker failures.
    * ``pool_failed`` — set once a pool for this state could not be
      built, or when :meth:`close_pool` drops a pool that had failed;
      see :attr:`degraded`.
    """

    def __init__(self) -> None:
        self.stores: dict[bytes | int, _WarmGroup] = {}
        self.pagerank_orders: dict[bytes, np.ndarray] = {}
        self.pool: SharedGraphPool | None = None
        self.pool_failed = False
        self.wrap_sampler = None
        self.counters = {"store_hits": 0, "store_misses": 0}
        self.counters.update(new_fault_counters())

    @property
    def degraded(self) -> bool:
        """Whether this state samples without a pool.

        True once a pool could not be built (``pool_failed``) or the
        built pool has failed since.  Either way later parallel samplers
        run their shard plans in-process, and no pool is built again.
        """
        return self.pool_failed or (self.pool is not None and self.pool.failed)

    def make_sampler(self, graph, probs, workers: int | None) -> SamplerBackend:
        """The sampler over (*graph*, *probs*) that *workers* selects.

        The one sampler factory and the one place a pool is built:
        ``None``, 0 or 1 worker is a serial :class:`RRSampler`;
        ``k >= 2`` is a :class:`ParallelBackend` over this state's one
        ``k``-worker pool, built on first use.  A pool that cannot be
        built marks the state :attr:`degraded` and counts one
        ``pool_degraded``; a degraded state hands out pool-less parallel
        backends, which run the same shard plans in-process.  The
        sampler passes through :attr:`wrap_sampler`.
        """
        if workers is not None and workers < 0:
            raise EstimationError(f"workers must be non-negative, got {workers}")
        if (workers or 0) < 2:
            sampler = RRSampler(graph, probs)
        else:
            if self.pool is None and not self.pool_failed:
                try:
                    self.pool = SharedGraphPool(graph, workers, counters=self.counters)
                except WorkerCrashError:
                    self.pool_failed = True
                    self.counters["pool_degraded"] += 1
            sampler = ParallelBackend(
                graph, probs, workers=workers,
                pool=None if self.degraded else self.pool,
            )
        if self.wrap_sampler is not None:
            sampler = self.wrap_sampler(sampler)
        return sampler

    def pagerank_order(self, graph, probs: np.ndarray) -> np.ndarray:
        """*graph*'s PageRank ranking under *probs*, computed once per vector."""
        key = probs.tobytes()
        order = self.pagerank_orders.get(key)
        if order is None:
            order = pagerank_order(graph, weights=probs)
            self.pagerank_orders[key] = order
        return order

    def close_pool(self) -> None:
        """Shut the worker pool down; the next parallel sampler builds one.

        A pool that had failed leaves the state :attr:`degraded`, so no
        pool is built again.
        """
        if self.pool is not None:
            self.pool_failed = self.degraded
            self.pool.close()
            self.pool = None

    def close(self) -> None:
        """Close every sampler, store and the pool, and drop the caches.

        Idempotent.  Closing a store unlinks its spill file, if any.
        """
        for group in self.stores.values():
            group.sampler.close()
            group.store.close()
        self.close_pool()
        self.stores.clear()
        self.pagerank_orders.clear()


class _AdState:
    """Per-advertiser mutable state of one engine run."""

    __slots__ = (
        "group",
        "collection",
        "store",
        "s_est",
        "theta",
        "seeds",
        "seed_cost",
        "done",
        "pr_order",
        "pr_ptr",
        "cand_node",
        "cand_rev",
        "cand_fresh",
        "payment",
        "budget_cap",
    )

    def __init__(self) -> None:
        self.group: _WarmGroup | None = None
        self.collection: SharedRRCollection | None = None
        self.store: SharedRRStore | None = None
        self.s_est = 1
        self.theta = 0
        self.seeds: list[int] = []
        self.seed_cost = 0.0
        self.done = False
        self.pr_order: np.ndarray | None = None
        self.pr_ptr = 0
        # CELF-style candidate cache: (node, marginal revenue) of the last
        # computed candidate, plus a validity flag.
        self.cand_node: int | None = None
        self.cand_rev = 0.0
        self.cand_fresh = False
        # _payment(ad), refreshed after each of the ad's wins (the only
        # events that move it), and the budget plus slack it is held to.
        self.payment = 0.0
        self.budget_cap = 0.0


class TIEngine:
    """One configured run of the scalable greedy skeleton.

    Every engine knob is read from *spec*, an
    :class:`~repro.api.spec.EngineSpec` (which validated it); the two
    Algorithm-2 rules, the ``blocked`` mask, the result label and the
    warm state are per-run data.  :func:`repro.solve` builds and runs
    one engine per call.
    """

    def __init__(
        self,
        instance: RMInstance,
        spec: EngineSpec,
        *,
        candidate_rule: str | Callable,
        selector: str | Callable,
        blocked=None,
        algorithm_name: str | None = None,
        warm: EngineWarmState | None = None,
    ) -> None:
        validate_rules(candidate_rule, selector)
        if isinstance(spec.opt_lower, tuple) and len(spec.opt_lower) < instance.h:
            raise AllocationError(
                f"opt_lower has {len(spec.opt_lower)} per-ad bounds but the "
                f"instance has {instance.h} ads"
            )
        self.instance = instance
        self.spec = spec
        self.candidate_rule = candidate_rule
        self.selector = selector
        # Every run samples through an EngineWarmState: a session's, or
        # a private one that run() closes.  A session's stores are keyed
        # by probability content — that is what makes them reusable by
        # the next solve — so it implies share_samples semantics.
        self._owns_warm = warm is None
        self._warm = EngineWarmState() if warm is None else warm
        self.share_samples = bool(spec.share_samples) or warm is not None
        # Laziness is exact except under the windowed CS rule (see module
        # docstring) and is unproven for arbitrary callable rules, so both
        # disable it; the parity tests set it False to run the eager rescan.
        self.lazy_candidates = spec.window is None and isinstance(candidate_rule, str)
        # workers >= 2 fans batches over the warm state's one
        # SharedGraphPool; fewer is the serial sampler.
        self.workers = spec.workers if (spec.workers or 0) > 1 else None
        self.blocked = None if blocked is None else np.asarray(blocked, dtype=bool)
        self.rng = as_generator(spec.seed)
        rule_name = getattr(candidate_rule, "__name__", candidate_rule)
        selector_name = getattr(selector, "__name__", selector)
        self.algorithm_name = algorithm_name or f"TI[{rule_name}/{selector_name}]"
        self._states: list[_AdState] = []
        self._assigned: np.ndarray | None = None
        self._allowed: np.ndarray | None = None  # ~_assigned, kept per win
        self._rr_cursor = 0  # round-robin pointer

    # ------------------------------------------------------------------
    # Initialization (lines 1–4 of Algorithm 2)
    # ------------------------------------------------------------------
    def _theta_for(self, state: _AdState, ad: int, s: int) -> int:
        """θ for seed-size estimate *s*: Eq. 8 at the ad's ``OPT_s`` bound.

        Under ``opt_lower="kpt"`` the bound is the ad's estimator's
        ``estimate(s)``.  ``s = 1`` draws the widths, from the generator
        the ad's RR sets share; after it, ``estimate(s)`` never draws a
        width for any ``s > 1``: κ(R) = 1 − (1 − w/m)^s is
        non-decreasing in ``s`` elementwise, and so is each stage mean,
        so the stage loop stops no later than it did for ``s = 1``, on
        widths already drawn.  That is what lets :meth:`_grow` skip
        sizing an ad whose θ is at the cap without moving its RNG
        stream.  Invariant: every estimator's first call is
        ``estimate(1)``.  :meth:`_init_states` sizes each ad at ``s = 1``
        right after handing it its estimator, which is new at init,
        after a KPT-parameter change and after a mutation dropped the
        old one (docs/ARCHITECTURE.md §5).
        """
        spec = self.spec
        n = self.instance.n
        if spec.opt_lower == "kpt":
            opt_lower = state.group.kpt.estimate(s)
        elif isinstance(spec.opt_lower, tuple):
            opt_lower = spec.opt_lower[ad]
        else:
            opt_lower = spec.opt_lower
        return sample_size(
            n, s, spec.eps, spec.ell, max(opt_lower, 1.0), spec.theta_cap
        )

    def _new_kpt(self, sampler: SamplerBackend, rng) -> KPTEstimator:
        return KPTEstimator(
            sampler,
            ell=self.spec.ell,
            rng=rng,
            max_samples=self.spec.kpt_max_samples,
        )

    def _group_key(self, ad: int) -> bytes | int:
        """The key of the store *ad* samples into.

        With shared samples, ads share a store iff their probability
        vectors are identical: the key is the raw probability bytes —
        hashing them would let a hash collision silently share a store
        between ads with different probability vectors.  Otherwise every
        ad keys its own store by its index.
        """
        if self.share_samples:
            return self.instance.ad_probs[ad].tobytes()
        return ad

    def _init_states(self) -> None:
        inst = self.instance
        n, h = inst.n, inst.h
        if self.blocked is not None and self.blocked.shape != (n,):
            raise AllocationError(
                f"blocked mask must have shape ({n},), got {self.blocked.shape}"
            )
        # Blocked nodes (e.g. users frozen by earlier campaign windows)
        # are treated as pre-assigned: never candidates for any ad.
        self._assigned = (
            self.blocked.copy() if self.blocked is not None else np.zeros(n, dtype=bool)
        )
        self._allowed = ~self._assigned
        rngs = spawn(self.rng, h)
        self._states = []
        # Ads with one group key share one sampler, RNG stream, KPT
        # estimator and RR store.  A session's warm state keeps its
        # groups across runs, so groups created by an earlier solve —
        # including their already-sampled stores — are found and reused.
        warm = self._warm
        uses_kpt = self.spec.opt_lower == "kpt"
        kpt_params = (self.spec.ell, self.spec.kpt_max_samples)
        counted: set[bytes | int] = set()
        for ad in range(h):
            state = _AdState()
            key = self._group_key(ad)
            group = warm.stores.get(key)
            if key not in counted:
                # Reuse observability: one hit/miss per store key per
                # run, not per ad sharing it.
                counted.add(key)
                hit = "store_hits" if group is not None else "store_misses"
                warm.counters[hit] += 1
            if group is None:
                sampler = warm.make_sampler(inst.graph, inst.ad_probs[ad], self.workers)
                kpt = self._new_kpt(sampler, rngs[ad]) if uses_kpt else None
                group = _WarmGroup(
                    sampler,
                    SharedRRStore(n, bytes_budget=self.spec.rr_bytes_budget),
                    rngs[ad],
                    kpt,
                    kpt_params if kpt is not None else None,
                )
                warm.stores[key] = group
            elif uses_kpt and (
                group.kpt is None or group.kpt_params != kpt_params
            ):
                # Either the session's earlier solves priced OPT_s
                # differently, or they ran KPT under different
                # accuracy parameters — the cached bounds would be
                # wrong for this solve, so rebuild (same sampler and
                # RNG stream; identical re-solves still hit the cache).
                group.kpt = self._new_kpt(group.sampler, group.rng)
                group.kpt_params = kpt_params
            state.group = group
            state.store = group.store
            state.collection = SharedRRCollection(group.store)
            state.s_est = 1
            state.theta = self._theta_for(state, ad, 1)
            self._adopt(state, state.theta)
            if self.candidate_rule == "pagerank":
                state.pr_order = warm.pagerank_order(inst.graph, inst.ad_probs[ad])
            self._states.append(state)
            state.payment = self._payment(ad)
            state.budget_cap = inst.budget(ad) + _BUDGET_SLACK

    def _adopt(self, state: _AdState, theta: int) -> None:
        """Grow the ad's view to *theta* sets, sampling only past the store's end.

        New sets hit by the ad's seeds are absorbed straight into its
        covered count (``UpdateEstimates``, Algorithm 3).
        """
        store, group = state.store, state.group
        if store.size < theta:
            store.extend_flat(
                *group.sampler.sample_batch_flat(theta - store.size, group.rng)
            )
        state.collection.adopt(theta, seeds=state.seeds)

    # ------------------------------------------------------------------
    # Candidate rules (line 7 / Algorithms 4 and 5 / PageRank ordering)
    # ------------------------------------------------------------------
    def _candidate(self, ad: int) -> int | None:
        state = self._states[ad]
        if callable(self.candidate_rule):
            # Registry-plugged rule: (engine, ad) -> node | None.  The
            # rule may retire the ad by setting its state's ``done``.
            node = self.candidate_rule(self, ad)
            return None if node is None else int(node)
        if self.candidate_rule == "pagerank":
            # Next unassigned node in the ad-specific ranking.
            order = state.pr_order
            assert order is not None
            while state.pr_ptr < order.size and self._assigned[order[state.pr_ptr]]:
                state.pr_ptr += 1
            if state.pr_ptr >= order.size:
                return None
            return int(order[state.pr_ptr])
        allowed = self._allowed
        if self.candidate_rule == "ca":
            node = state.collection.best_node(allowed)
            if node is not None and state.collection.residual_count(node) == 0:
                # No unassigned node covers any uncovered set: this ad's
                # estimated revenue can no longer grow.
                state.done = True
                return None
            return node
        # "cs": Algorithm 5's coverage-to-incentive ratio argmax.
        node = state.collection.best_node_by_ratio(
            self.instance.incentives[ad], allowed, self.spec.window
        )
        if node is not None and state.collection.residual_count(node) == 0:
            # Max ratio can only be achieved at zero coverage if every
            # allowed node has zero coverage — retire the ad.
            best_cov = state.collection.best_node(allowed)
            if best_cov is None or state.collection.residual_count(best_cov) == 0:
                state.done = True
                return None
            node = best_cov
        return node

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def _revenue(self, ad: int) -> float:
        state = self._states[ad]
        return (
            self.instance.cpe(ad)
            * self.instance.n
            * state.collection.covered_total
            / state.theta
        )

    def _payment(self, ad: int) -> float:
        return self._revenue(ad) + self._states[ad].seed_cost

    def _marginal_revenue(self, ad: int, node: int) -> float:
        state = self._states[ad]
        return (
            self.instance.cpe(ad)
            * self.instance.n
            * state.collection.residual_count(node)
            / state.theta
        )

    # ------------------------------------------------------------------
    # Seed-size growth (lines 17–22 / Eq. 10 / Algorithm 3)
    # ------------------------------------------------------------------
    def _grow(self, ad: int) -> None:
        state = self._states[ad]
        inst = self.instance
        f_max = state.collection.max_residual_fraction(self._allowed)
        s_new = next_seed_size(
            state.s_est,
            inst.budget(ad),
            self._payment(ad),
            inst.max_incentive(ad),
            inst.cpe(ad),
            inst.n,
            f_max,
        )
        if s_new <= state.s_est:
            state.done = True
            return
        state.s_est = s_new
        if state.theta == self.spec.theta_cap:
            # θ = min(⌈L⌉, cap) cannot grow past the cap, and after
            # estimate(1) no KPT call draws a width: sizing is moot.
            return
        theta_new = self._theta_for(state, ad, s_new)
        if theta_new > state.theta:
            self._adopt(state, theta_new)
            state.theta = theta_new

    # ------------------------------------------------------------------
    # Main loop (lines 5–22 of Algorithm 2)
    # ------------------------------------------------------------------
    def run(self) -> AllocationResult:
        """Execute the configured algorithm; returns the allocation result.

        A cold run's private :class:`EngineWarmState` — its samplers,
        stores and worker pool — is closed before this method returns,
        success or not.  A session's warm state survives for the next
        solve; the session closes it.
        """
        try:
            return self._run()
        finally:
            if self._owns_warm:
                self._warm.close()

    def _run(self) -> AllocationResult:
        start = time.perf_counter()
        counters = self._warm.counters
        fault_before = {key: counters.get(key, 0) for key in FAULT_COUNTER_KEYS}
        inst = self.instance
        h = inst.h
        self._init_states()
        allocation = Allocation(h)
        rounds = 0

        lazy = self.lazy_candidates
        while True:
            rounds += 1
            candidates: list[tuple[int, int, float, float]] = []
            for ad in range(h):
                state = self._states[ad]
                if state.done:
                    continue
                if lazy and state.cand_fresh:
                    # Untouched since the cache was filled: residual counts
                    # and θ are unchanged and the cached node is still
                    # allowed, so the cached argmax is exact.
                    node = state.cand_node
                else:
                    node = self._candidate(ad)
                    state.cand_node = node
                    state.cand_rev = (
                        self._marginal_revenue(ad, node) if node is not None else 0.0
                    )
                    state.cand_fresh = True
                if node is None or state.done:
                    continue
                marg_rev = state.cand_rev
                marg_pay = marg_rev + inst.incentive(ad, node)
                if state.payment + marg_pay > state.budget_cap:
                    continue  # infeasible this round; the ad stalls
                candidates.append((ad, node, marg_rev, marg_pay))

            winner = self._select(candidates)
            if winner is None:
                break
            ad, node, _, _ = winner
            state = self._states[ad]
            allocation.add(node, ad)
            self._assigned[node] = True
            self._allowed[node] = False
            state.seeds.append(node)
            state.seed_cost += inst.incentive(ad, node)
            state.collection.mark_covered_by(node)
            if len(state.seeds) == state.s_est and not state.done:
                self._grow(ad)
            state.payment = self._payment(ad)
            # Invalidate exactly the caches the win could have changed:
            # the winner's (counts/θ moved) and any ad whose cached
            # candidate node was just assigned.
            state.cand_fresh = False
            for st in self._states:
                if st.cand_node == node:
                    st.cand_fresh = False

        revenue = [
            self._revenue(ad) if self._states[ad].seeds else 0.0 for ad in range(h)
        ]
        seed_cost = [self._states[ad].seed_cost for ad in range(h)]
        stores = list({id(s.store): s.store for s in self._states}.values())
        memory = sum(store.memory_bytes() for store in stores)
        memory += sum(s.collection.memory_bytes() for s in self._states)
        store_bytes = sum(st.member_bytes + int(st.indptr.nbytes) for st in stores)
        total_sets = sum(st.size for st in stores)
        memory_block = {
            "store_bytes": store_bytes,
            "peak_store_bytes": sum(st.peak_bytes for st in stores),
            "bytes_per_rr_set": (
                store_bytes / total_sets if total_sets else 0.0
            ),
            "spilled_stores": sum(1 for st in stores if st.spilled),
            "rr_bytes_budget": self.spec.rr_bytes_budget,
        }
        return AllocationResult(
            allocation=allocation,
            revenue_per_ad=revenue,
            seeding_cost_per_ad=seed_cost,
            algorithm=self.algorithm_name,
            runtime_seconds=time.perf_counter() - start,
            extras={
                "rounds": rounds,
                "theta_per_ad": [s.theta for s in self._states],
                "seed_size_estimate_per_ad": [s.s_est for s in self._states],
                "memory_bytes": memory,
                "eps": self.spec.eps,
                "window": self.spec.window,
                "candidate_rule": getattr(
                    self.candidate_rule, "__name__", self.candidate_rule
                ),
                "share_samples": self.share_samples,
                "lazy_candidates": self.lazy_candidates,
                "selector": getattr(self.selector, "__name__", self.selector),
                "workers": self.workers,
                # Measured storage accounting (docs/ARCHITECTURE.md §2):
                # narrowed-dtype member bytes, spill state and the
                # per-set cost the manifest rows surface.
                "memory": memory_block,
                # Recovery/degradation this run actually saw (deltas, so
                # warm sessions don't bleed earlier solves' events in).
                "fault_counters": {
                    key: counters.get(key, 0) - fault_before[key]
                    for key in FAULT_COUNTER_KEYS
                },
                # Whether this parallel run ended sampling without a
                # pool (docs/ARCHITECTURE.md §11).
                "degraded": self.workers is not None and self._warm.degraded,
            },
        )

    # ------------------------------------------------------------------
    # Winner selection (line 9 and the baselines' replacements)
    # ------------------------------------------------------------------
    def _select(
        self, candidates: list[tuple[int, int, float, float]]
    ) -> tuple[int, int, float, float] | None:
        if not candidates:
            return None
        if callable(self.selector):
            # Registry-plugged selector: (engine, candidates) -> winner.
            winner = self.selector(self, candidates)
            if winner is not None and winner not in candidates:
                raise AllocationError(
                    "custom selector must return one of the candidate tuples or None"
                )
            return winner
        if self.selector == "revenue":
            return max(candidates, key=lambda c: (c[2], -c[0]))
        if self.selector == "rate":
            def rate(c: tuple[int, int, float, float]) -> float:
                _, _, rev, pay = c
                if pay <= 0:
                    return float("inf") if rev > 0 else 0.0
                return rev / pay
            return max(candidates, key=lambda c: (rate(c), -c[0]))
        # round_robin: first ad at-or-after the cursor with a candidate.
        by_ad = {c[0]: c for c in candidates}
        h = self.instance.h
        for offset in range(h):
            ad = (self._rr_cursor + offset) % h
            if ad in by_ad:
                self._rr_cursor = (ad + 1) % h
                return by_ad[ad]
        return None
