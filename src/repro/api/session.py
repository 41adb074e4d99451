"""`AllocationSession`: warm repeated solves over one graph + prob family.

The ROADMAP's production framing — and the follow-up literature (Han et
al. 2021; Tang & Yuan 2021) — is about *re-solving* the same social
graph under varying budgets, CPEs and incentive schedules.  A bare
``repro.solve`` restarts everything per call: RR sampling from set 0,
KPT estimation from scratch, pagerank rankings, and (for the parallel
backend) a fresh shared-memory worker pool.  An
:class:`AllocationSession` is bound to one graph and keeps all of that
warm across solves:

* **Prob-keyed RR stores.**  RR sets depend only on ``(graph, probs)``
  — never on budgets, CPEs or incentives — so sets drawn for one solve
  are a valid i.i.d. sample for every later solve over the same
  probability vector.  The session stores them in
  :class:`~repro.rrset.collection.SharedRRStore` objects keyed by
  probability content; a warm solve *adopts* the stored prefix and
  samples only if it needs more sets than any previous solve did
  (continuing the store's persisted RNG stream).
* **KPT estimators** (cached width samples and per-``s`` bounds) and
  **pagerank orders** are cached per probability vector the same way.
* **One `SharedGraphPool`.**  With ``workers >= 2`` the first solve
  creates the worker pool; every later solve reuses it.  The engine
  never tears a session's pool down — :meth:`close` (or the context
  manager) does.

Reuse and invalidation rules (docs/ARCHITECTURE.md §9): a new
probability vector simply creates a new store (the "family" grows);
nothing a solve can change — budgets, CPEs, incentives, ``blocked``
masks, algorithm, ``eps``/``theta_cap`` — ever invalidates a store.
The worker count (which picks the sampler backend) and the RR byte
budget are pinned at session construction (stores hold live backends),
so per-solve specs cannot flip them mid-session.  Sessions are not
thread-safe (one solve at a time), matching the engine.

Observability: :attr:`stats` counts solves, sampler batch calls and
sets drawn, so tests (and benchmarks) can assert that a warm re-solve
really skipped sampling.

Dynamic graphs (docs/ARCHITECTURE.md §14):
:meth:`AllocationSession.apply_edge_updates` repairs a session's
stores after an edge-update batch, and :func:`apply_edge_batch` is the
one edge-batch step grid dynamic cells and adaptive campaigns share,
with or without a session.
"""

from __future__ import annotations

import time

import numpy as np

from repro import faults as _faults
from repro.errors import AllocationError
from repro.api.spec import EngineSpec
from repro.api.registry import AlgorithmDef
from repro.core.allocation import AllocationResult
from repro.core.instance import RMInstance
from repro.core.ti_engine import EngineWarmState
from repro.graph.digraph import DiGraph
from repro.graph.updates import UpdatePlan, compile_updates
from repro.rrset.collection import SharedRRStore
from repro.rrset.sampler import SamplerBackend


class _CountingBackend(SamplerBackend):
    """Delegating proxy that counts batch draws for session stats."""

    def __init__(self, inner: SamplerBackend, stats: dict) -> None:
        self._inner = inner
        self._stats = stats
        self.graph = inner.graph
        self.probs = inner.probs

    def sample_batch_flat(self, count: int, rng=None, *, roots=None):
        self._stats["sample_batches"] += 1
        self._stats["sets_sampled"] += int(count)
        return self._inner.sample_batch_flat(count, rng, roots=roots)

    def sample_batch_widths(self, count: int, rng=None):
        self._stats["sample_batches"] += 1
        self._stats["sets_sampled"] += int(count)
        return self._inner.sample_batch_widths(count, rng)

    def close(self) -> None:
        self._inner.close()


class AllocationSession:
    """Reusable solving context bound to one graph (see module docstring).

    Parameters
    ----------
    graph:
        The :class:`DiGraph` every solve's instance must be built on
        (identity is checked — sessions never silently mix graphs).
    spec:
        The session's base :class:`EngineSpec`.  Per-solve specs /
        overrides are applied on top of it, except ``workers`` and
        ``rr_bytes_budget``, which the session pins (live sampler
        backends and stores persist inside the warm state).
    """

    def __init__(self, graph: DiGraph, *, spec: EngineSpec | None = None) -> None:
        if not isinstance(graph, DiGraph):
            raise AllocationError(
                f"AllocationSession binds to a DiGraph, got {type(graph).__name__}"
            )
        self.graph = graph
        self.spec = spec or EngineSpec()
        self._warm = EngineWarmState()
        self._closed = False
        #: Monotone mutation counter: 0 for a session still on the graph
        #: it was opened with, +1 per :meth:`apply_edge_updates` batch.
        #: Pool owners (``repro serve``) use it to detect stale sessions.
        self.graph_epoch = 0
        self._stats = {
            "solves": 0,
            "sample_batches": 0,
            "sets_sampled": 0,
            "mutations": 0,
            "invalidated_sets": 0,
            "mutation_checked_sets": 0,
            "resample_batches": 0,
        }
        self._warm.wrap_sampler = lambda sampler: _CountingBackend(
            sampler, self._stats
        )

    @classmethod
    def for_instance(
        cls, instance: RMInstance, *, spec: EngineSpec | None = None
    ) -> "AllocationSession":
        """A session bound to *instance*'s graph."""
        return cls(instance.graph, spec=spec)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: RMInstance,
        algorithm: str | AlgorithmDef = "TI-CSRM",
        spec: EngineSpec | None = None,
        *,
        blocked=None,
        **overrides,
    ) -> AllocationResult:
        """Run one algorithm on *instance*, reusing this session's caches.

        *instance* must be built on the session's graph; its budgets,
        CPEs, incentives and probability vectors are free to differ
        between calls.  *spec* defaults to the session's base spec;
        keyword *overrides* apply on top (``workers`` and
        ``rr_bytes_budget`` stay pinned).
        Identical queries re-solve bit-identically to their first run —
        without re-sampling, which :attr:`stats` makes observable.
        """
        from repro.api.solve import solve as _solve

        return _solve(
            instance,
            algorithm,
            spec or self.spec,
            blocked=blocked,
            session=self,
            **overrides,
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (docs/ARCHITECTURE.md §14)
    # ------------------------------------------------------------------
    def apply_edge_updates(self, updates) -> dict:
        """Mutate the session's graph in place of a cold restart.

        *updates* is one timestamped batch of edge insertions, deletions
        and probability changes (anything
        :func:`repro.graph.updates.normalize_updates` accepts).  The
        session compiles them into a new immutable
        :class:`~repro.graph.digraph.DiGraph`, then repairs every warm
        RR store *incrementally*:

        * **Invalidation is edge-precise.**  The level-synchronous
          reverse BFS flips coins on exactly the in-arcs of a set's
          members, so the sets whose recorded traversal could have
          touched a changed edge ``u → v`` are exactly
          ``sets_containing(v)`` — the store's membership CSR *is* the
          per-set touched-edge record, and
          :meth:`~repro.rrset.collection.SharedRRStore.sets_touching`
          over the changed heads recovers the invalid ids without any
          extra bookkeeping.  For a ``set_prob`` whose family value did
          not actually move, nothing is invalidated.
        * **Resampling is root-preserving.**  Each invalidated slot is
          redrawn on the new graph from its recorded root (the pinned
          ``roots`` path through the batch sampler), continuing the
          store's persisted RNG stream; surviving slots are untouched.
          The root marginal therefore stays exactly uniform, and each
          survivor's traversal flipped no changed coin.  For pure
          probability-*decrease* batches the surviving slots are
          bit-identical in membership to a same-seed cold store on the
          pre-update graph — the differential tests pin both claims.
        * **The repair is biased.**  Survivors are draws conditioned on
          missing every changed head, while redrawn slots are not, so
          the repaired store is not a sample of the new RR
          distribution: a changed head ``v`` keeps about
          ``Σ_r P(v ∈ RR(r))²`` of its expected coverage instead of
          ``Σ_r P(v ∈ RR(r))`` (docs/ARCHITECTURE.md §14, G1; ROADMAP
          item 10).
        * **Everything graph-shaped rolls over.**  The worker pool
          (whose shared-memory CSR describes the old graph) is closed
          and rebuilt, per-family samplers are rebuilt on the new
          graph, KPT estimators and pagerank orders are dropped, and
          stores are re-keyed by their updated probability vectors.

        Returns a JSON-able report (update counts, per-batch
        invalidation, resample provenance); cumulative counters appear
        in :attr:`stats` and :attr:`graph_epoch` increments by one.
        Instances built on the pre-mutation graph are rejected by later
        :meth:`solve` calls — rebuild them on :attr:`graph`.
        """
        return self._apply_plan(compile_updates(self.graph, updates))

    def _apply_plan(self, plan: UpdatePlan) -> dict:
        """Repair the warm state for *plan*, compiled against :attr:`graph`."""
        if self._closed:
            raise AllocationError("session is closed")
        if plan.old_graph is not self.graph:
            raise AllocationError(
                "update plan was compiled against another graph than this "
                "session's"
            )
        warm = self._warm
        # The old pool's shared-memory CSR blocks describe the old
        # graph; the first sampler made below builds one on the new.
        warm.close_pool()

        checked = 0
        invalidated = 0
        resample_batches = 0
        new_stores: dict[bytes, object] = {}
        for key, group in warm.stores.items():
            old_probs = np.frombuffer(key, dtype=np.float64)
            new_probs = plan.apply_probs(old_probs)
            heads = plan.changed_heads(old_probs)
            invalid = group.store.sets_touching(heads)
            roots = group.store.roots()[invalid] if invalid.size else None
            checked += int(group.store.size)
            invalidated += int(invalid.size)
            group.sampler.close()
            sampler = warm.make_sampler(plan.new_graph, new_probs, self.spec.workers)
            group.sampler = sampler
            # Cached KPT bounds and widths were measured on the old
            # graph; the next solve rebuilds them (same RNG stream).
            group.kpt = None
            group.kpt_params = None
            if invalid.size:
                rule = _faults.fire("mutate.delay")
                if rule is not None:
                    time.sleep(float(rule.delay_s))
                members, indptr = sampler.sample_batch_flat(
                    int(invalid.size), group.rng, roots=roots
                )
                group.store.replace_sets(invalid, members, indptr)
                resample_batches += 1
            new_key = new_probs.tobytes()
            if new_key in new_stores:
                # Two probability families collapsed onto one vector
                # (a set_prob made them identical): keep the first —
                # iteration order is insertion order, so this is
                # deterministic — and drop the duplicate.
                sampler.close()
                group.store.close()
            else:
                new_stores[new_key] = group
        warm.stores.clear()
        warm.stores.update(new_stores)
        warm.pagerank_orders.clear()
        self.graph = plan.new_graph
        self.graph_epoch += 1
        self._stats["mutations"] += 1
        self._stats["invalidated_sets"] += invalidated
        self._stats["mutation_checked_sets"] += checked
        self._stats["resample_batches"] += resample_batches
        return {
            "graph_epoch": int(self.graph_epoch),
            **plan.summary(),
            "checked_sets": checked,
            "invalidated_sets": invalidated,
            "invalidation_rate": (
                invalidated / checked if checked else 0.0
            ),
            "resample_batches": resample_batches,
            "stores": len(warm.stores),
        }

    # -- hooks used by repro.api.solve ---------------------------------
    def _warm_state_for(self, instance: RMInstance) -> EngineWarmState:
        if self._closed:
            raise AllocationError("session is closed")
        if instance.graph is not self.graph:
            raise AllocationError(
                "instance is built on a different graph than this session; "
                "sessions are bound to one graph (open a new session)"
            )
        return self._warm

    def _pin_spec(self, spec: EngineSpec) -> EngineSpec:
        # Live backends (workers) and live stores (rr_bytes_budget)
        # persist inside the warm state, so a per-solve spec cannot flip
        # them mid-session.
        return spec.override(
            workers=self.spec.workers, rr_bytes_budget=self.spec.rr_bytes_budget
        )

    def _record_solve(self, result: AllocationResult) -> None:
        self._stats["solves"] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has run (a closed session refuses solves).

        Pool owners (:class:`~repro.serve.pool.SessionPool`, behind
        ``repro serve`` and warm grid runs) key eviction and teardown
        decisions on this flag instead of poking at private state.
        """
        return self._closed

    def store_for(self, probs) -> SharedRRStore:
        """The RR store this session holds for the probability vector *probs*.

        Keyed exactly as solves key their stores: by the raw ``float64``
        bytes of the vector.  The store is for reading (benchmarks aim
        edge updates at its sets, tests compare its contents); only
        :meth:`solve` and :meth:`apply_edge_updates` change it.  Raises
        :class:`~repro.errors.AllocationError` when the session holds
        no store for *probs*: before the first solve over it, or for a
        pre-mutation vector once :meth:`apply_edge_updates` has re-keyed
        the store under ``plan.apply_probs(probs)``.
        """
        key = np.asarray(probs, dtype=np.float64).tobytes()
        group = self._warm.stores.get(key)
        if group is None:
            raise AllocationError(
                "session holds no RR store for this probability vector"
            )
        return group.store

    @property
    def stats(self) -> dict:
        """Counters + store sizes: what the session has drawn and kept.

        ``sample_batches`` / ``sets_sampled`` count actual sampler
        draws across all solves — a warm re-solve that fully reuses the
        stores leaves them unchanged.  ``store_hits`` / ``store_misses``
        count, per solve and per *distinct* probability vector, whether
        the solve found an existing RR store or had to create one (see
        :class:`~repro.core.ti_engine.EngineWarmState`); the grid
        runner's warm mode snapshots these around each cell to record
        reuse provenance in its manifest rows.

        The warm counters also carry the fault-tolerance provenance
        (docs/ARCHITECTURE.md §11): ``worker_respawns`` and
        ``shards_recovered`` count supervised recoveries inside this
        session's :class:`~repro.rrset.backend.SharedGraphPool`,
        ``pool_degraded`` counts each time the pool could not be built
        or a backend lost it to a failure, and ``pool_degraded_state``
        reports whether the session now samples without a pool
        (:attr:`~repro.core.ti_engine.EngineWarmState.degraded`).
        """
        stores = list(self._warm.stores.values())
        stored_sets = int(sum(int(g.store.size) for g in stores))
        store_bytes = int(
            sum(
                int(g.store.member_bytes) + int(g.store.indptr.nbytes)
                for g in stores
            )
        )
        # Every value is a plain int/float/bool: the serve layer's
        # /stats endpoint and the grid manifest serialize this dict with
        # json.dumps, which rejects numpy scalars (store sizes arrive as
        # np.int64 from array bookkeeping).
        checked = self._stats["mutation_checked_sets"]
        return {
            **{key: int(value) for key, value in self._stats.items()},
            **{key: int(value) for key, value in self._warm.counters.items()},
            # Incremental-maintenance provenance (§14): cumulative
            # fraction of checked sets that mutations invalidated.
            "invalidation_rate": float(
                self._stats["invalidated_sets"] / checked if checked else 0.0
            ),
            "graph_epoch": int(self.graph_epoch),
            "stores": len(stores),
            "stored_sets": stored_sets,
            "stored_members": int(sum(int(g.store.member_total) for g in stores)),
            # Measured memory accounting (docs/ARCHITECTURE.md §2):
            # narrowed/spilled member storage across all warm stores.
            "store_bytes": store_bytes,
            "peak_store_bytes": int(sum(int(g.store.peak_bytes) for g in stores)),
            "bytes_per_rr_set": float(
                store_bytes / stored_sets if stored_sets else 0.0
            ),
            "spilled_stores": sum(1 for g in stores if g.store.spilled),
            "pagerank_orders": len(self._warm.pagerank_orders),
            "pool_active": self._warm.pool is not None and not self._warm.degraded,
            "pool_degraded_state": self._warm.degraded,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool and drop all cached stores (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._warm.close()

    def __enter__(self) -> "AllocationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"AllocationSession(n={self.graph.n}, solves={s['solves']}, "
            f"stores={s['stores']}, stored_sets={s['stored_sets']})"
        )


def apply_edge_batch(
    graph: DiGraph,
    probs,
    batch,
    session: AllocationSession | None = None,
) -> tuple[DiGraph, list[np.ndarray], dict]:
    """Apply one edge-update batch to a market: ``(graph, probs, report)``.

    The edge-batch step that grid dynamic cells and adaptive campaigns
    share (docs/ARCHITECTURE.md §14).  *batch* is compiled once against
    *graph*.  With a *session* bound to *graph*, the session repairs its
    warm RR stores incrementally and its
    :meth:`~AllocationSession.apply_edge_updates` report is returned.
    Without one, the plan's new graph is taken and the report is the
    plan's summary with ``"mode": "cold"``.  Either way every vector in
    *probs* is remapped through the same plan, so warm and cold callers
    continue on identical markets.
    """
    plan = compile_updates(graph, batch)
    if session is None:
        report = {**plan.summary(), "mode": "cold"}
    else:
        report = session._apply_plan(plan)
    return plan.new_graph, [plan.apply_probs(p) for p in probs], report
