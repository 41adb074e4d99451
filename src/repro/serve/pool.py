"""The warm :class:`~repro.api.session.AllocationSession` pool behind
``repro serve`` and warm grid runs.

A :class:`SessionPool` maps a cell's
:attr:`~repro.experiments.grid.GridCell.pool_key` — the ``(dataset,
probability family)`` identity of a serve query or a grid cell — to one
live session, so every solve over the same graph + probs rides the same
RR stores, KPT estimators, pagerank orders and worker pool.  ``repro
serve`` leases a session per query; ``run_grid``'s
``warm_per_dataset`` mode leases one per cell and drops each group's
session once its last cell finishes (or fails).  The pool makes three
decisions:

* **Warm routing.**  :meth:`lease` returns the key's existing session
  (a *warm hit* — the solve adopts already-drawn RR sets) or builds the
  dataset and opens a fresh session (a *cold miss*), counting both.  A
  session whose graph was mutated no longer answers for its key: it is
  closed and reopened on the same dataset.
* **LRU eviction under a global byte budget.**  Sessions report their
  *measured* store footprint (``session.stats["store_bytes"]`` — the
  narrowed/spilled member accounting from the memory-bounded stores,
  docs/ARCHITECTURE.md §4.1).  When the pool's total exceeds
  ``bytes_budget`` (or ``max_sessions`` is exceeded), whole
  least-recently-used sessions are closed and dropped — never the one
  that just served, so the active family always stays warm.
* **Lifecycle.**  :meth:`close` closes every session (idempotent, and
  what the server's drain path calls), so a clean shutdown leaves no
  ``SharedGraphPool`` shared-memory segments behind.  A session leaving
  the pool (evicted, dropped, discarded or closed) takes its dataset out
  of the build cache, unless a live session still uses it.  A failed
  solve's session is :meth:`discard`-ed rather than reused (a poisoned
  session's state is unknown — tear it down, the next lease reopens
  cold).

The pool is *not* thread-safe by itself: the server's single solver
loop is the only mutator, and the server serializes :meth:`stats`
snapshots against it (sessions are one-solve-at-a-time objects, so a
concurrent pool would need a session-level queue anyway — that queue is
the server's).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.api.session import AllocationSession
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import Dataset, forget_dataset
from repro.experiments.grid import GridCell, _cell_dataset


@dataclass
class PoolEntry:
    """One pooled session plus the bookkeeping eviction needs."""

    key: str
    dataset: Dataset
    session: AllocationSession
    queries: int = 0
    store_bytes: int = 0
    peak_store_bytes: int = 0
    dataset_entry: dict = field(default_factory=dict)


class SessionPool:
    """LRU pool of warm sessions keyed by ``(dataset, probs family)``.

    Parameters
    ----------
    config:
        The daemon's :class:`ExperimentConfig`; its compiled
        :class:`~repro.api.spec.EngineSpec` becomes every session's base
        spec, pinning ``workers`` and ``rr_bytes_budget`` for the
        pool's lifetime.
    bytes_budget:
        Global cap on the summed measured ``store_bytes`` across all
        pooled sessions (``None`` = unbounded).  Enforced by
        :meth:`evict_over_budget` after every solve: least-recently-used
        sessions are closed whole until the total fits (the
        just-used session is only evicted if it alone exceeds the
        budget and ``evict_active=True``).
    max_sessions:
        Cap on the number of pooled sessions (``None`` = unbounded).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        bytes_budget: int | None = None,
        max_sessions: int | None = None,
    ) -> None:
        if bytes_budget is not None and bytes_budget < 1:
            raise ServeError(f"bytes_budget must be >= 1, got {bytes_budget}")
        if max_sessions is not None and max_sessions < 1:
            raise ServeError(f"max_sessions must be >= 1, got {max_sessions}")
        self.config = config or ExperimentConfig()
        self.bytes_budget = bytes_budget
        self.max_sessions = max_sessions
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self._closed = False
        self.counters = {
            "warm_hits": 0,
            "cold_misses": 0,
            "evictions": 0,
            "evicted_bytes": 0,
            "discards": 0,
            "stale_discards": 0,
        }

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease(self, request: GridCell) -> tuple[PoolEntry, bool]:
        """The entry serving *request*, a cell or query; ``(entry, warm)``.

        Marks the entry most-recently-used.  A cold miss builds the
        dataset (synthetic analog or ingested edge list — the grid
        runner's :func:`~repro.experiments.grid._cell_dataset`) and opens
        one :class:`AllocationSession` on its graph.  An entry that
        cannot be built raises a :mod:`repro.errors` type before any
        session opens; the server answers it 400.
        """
        if self._closed:
            raise ServeError("session pool is closed")
        key = request.pool_key
        entry = self._entries.get(key)
        dataset = None
        if entry is not None and entry.session.graph_epoch != 0:
            # The session's graph was mutated since the pool opened it
            # (apply_edge_updates bumped graph_epoch), so it no longer
            # answers for the dataset entry the pool key names — a warm
            # hit here would serve results for a graph the client never
            # asked about.  Discard it and reopen cold below
            # (docs/ARCHITECTURE.md §14), on the same dataset.
            self._entries.pop(key)
            entry.session.close()
            self.counters["stale_discards"] += 1
            dataset, entry = entry.dataset, None
        if entry is not None:
            self._entries.move_to_end(key)
            self.counters["warm_hits"] += 1
            warm = True
        else:
            if dataset is None:
                dataset = _cell_dataset(request.dataset, memo={})
            session = AllocationSession(
                dataset.graph, spec=self.config.engine_spec(opt_lower="kpt")
            )
            entry = PoolEntry(
                key=key,
                dataset=dataset,
                session=session,
                dataset_entry=dict(request.dataset),
            )
            self._entries[key] = entry
            self.counters["cold_misses"] += 1
            warm = False
        entry.queries += 1
        return entry, warm

    def release(self, key: str) -> list[str]:
        """Refresh *key*'s measured footprint, then enforce the budgets.

        Called by the server after every successful solve; returns the
        keys evicted (possibly empty).
        """
        entry = self._entries.get(key)
        if entry is not None:
            stats = entry.session.stats
            entry.store_bytes = int(stats["store_bytes"])
            entry.peak_store_bytes = int(stats["peak_store_bytes"])
        return self.evict_over_budget(protect=key)

    def drop(self, key: str) -> bool:
        """Close and drop *key*'s session; whether one was pooled.

        ``run_grid`` drops each warm group once its last cell finishes,
        so a grid holds one dataset's stores at a time.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._drop(entry)
        return entry is not None

    def discard(self, key: str) -> None:
        """:meth:`drop` a failed or timed-out solve's session, counted.

        A solve interrupted anywhere leaves the session's warm state
        unknown, so it is never reused; the next lease on this key opens
        a fresh one.
        """
        if self.drop(key):
            self.counters["discards"] += 1

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def total_store_bytes(self) -> int:
        """Summed measured footprint of all pooled sessions (as of each
        session's last :meth:`release`)."""
        return sum(entry.store_bytes for entry in self._entries.values())

    def evict_over_budget(self, protect: str | None = None) -> list[str]:
        """Evict LRU sessions until both budgets hold; returns evicted keys.

        *protect* (the just-served key) is evicted only if it is the
        sole remaining session and still exceeds ``bytes_budget`` —
        a single family bigger than the budget must not pin memory
        forever, and its next query simply reopens cold.
        """
        evicted: list[str] = []
        while (
            self.max_sessions is not None
            and len(self._entries) > self.max_sessions
        ):
            victim = self._lru_key(exclude=protect)
            if victim is None:
                victim = next(iter(self._entries))
            evicted.append(self._evict(victim))
        if self.bytes_budget is None:
            return evicted
        while self._entries and self.total_store_bytes() > self.bytes_budget:
            victim = self._lru_key(exclude=protect)
            if victim is None:
                # Only the protected session remains and it alone busts
                # the budget: evict it too — it stays correct (next
                # query reopens cold), and total bytes stay bounded.
                victim = next(iter(self._entries))
            evicted.append(self._evict(victim))
        return evicted

    def _lru_key(self, exclude: str | None) -> str | None:
        for key in self._entries:
            if key != exclude:
                return key
        return None

    def _evict(self, key: str) -> str:
        entry = self._entries.pop(key)
        self.counters["evictions"] += 1
        self.counters["evicted_bytes"] += entry.store_bytes
        self._drop(entry)
        return key

    def _drop(self, entry: PoolEntry) -> None:
        """Close a popped entry's session and uncache its dataset.

        The dataset stays cached while any live entry still uses it, so
        a pooled session's dataset is always the cached object.
        """
        entry.session.close()
        if all(other.dataset is not entry.dataset for other in self._entries.values()):
            forget_dataset(entry.dataset)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def entries(self) -> list[PoolEntry]:
        """Pooled entries, least-recently-used first."""
        return list(self._entries.values())

    def stats(self) -> dict:
        """JSON-able pool observability (fed into the ``/stats`` endpoint).

        Per-session rows are LRU-ordered (first row = next eviction
        candidate) and embed each session's own
        :attr:`~repro.api.session.AllocationSession.stats`, so the
        endpoint exposes warm-store, memory and fault counters
        end to end.
        """
        sessions = []
        for entry in self._entries.values():
            sessions.append(
                {
                    "key": entry.key,
                    "dataset": dict(entry.dataset_entry),
                    "queries": entry.queries,
                    "store_bytes": entry.store_bytes,
                    "peak_store_bytes": entry.peak_store_bytes,
                    "session": entry.session.stats,
                }
            )
        return {
            **self.counters,
            "sessions": sessions,
            "session_count": len(self._entries),
            "total_store_bytes": self.total_store_bytes(),
            "bytes_budget": self.bytes_budget,
            "max_sessions": self.max_sessions,
        }

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Close every pooled session and refuse further leases (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for key in list(self._entries):
            self._drop(self._entries.pop(key))

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionPool(sessions={len(self._entries)}, "
            f"bytes={self.total_store_bytes()}, budget={self.bytes_budget})"
        )
