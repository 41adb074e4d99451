"""Pluggable RR sampling backends: serial and shared-memory parallel.

Every consumer of RR sets — :class:`~repro.core.ti_engine.TIEngine`,
TIM's KPT estimator, the static RR oracle, the singleton-spread pricer,
the benchmark harness — draws batches through one seam, a
:class:`SamplerBackend`, instead of touching :class:`RRSampler`
directly.  Two implementations exist:

* :class:`SerialBackend` — a thin delegate around :class:`RRSampler`.
  Bit-identical to calling the sampler yourself: same RNG stream, same
  arrays.
* :class:`ParallelBackend` — fans :func:`sample_batch_flat_kernel` out
  over a persistent pool of worker processes.  The graph's reverse CSR
  (``in_indptr``, ``in_tails``) and each registered probability vector
  (already permuted to in-CSR slot order) live in
  :mod:`multiprocessing.shared_memory` blocks created once per pool;
  workers attach by name and never copy them.  A batch of ``count``
  sets is split into one shard per worker (balanced, a pure function of
  ``(count, workers)``); each shard samples under its own
  :class:`numpy.random.SeedSequence`-spawned generator, and the shards
  are merged back into a single CSR pair in shard order.

RNG-stream contract (docs/ARCHITECTURE.md §RNG):

* ``workers == 1`` executes in-process with the caller's generator —
  **bit-identical** to :class:`SerialBackend` (and hence to
  :meth:`RRSampler.sample_batch_flat`).
* ``workers >= 2`` consumes exactly **one** ``rng.integers`` draw from
  the caller's generator per batch, to derive a root
  :class:`~numpy.random.SeedSequence`; shard ``k`` samples with
  ``default_rng(root.spawn(shards)[k])``.  The output is a valid
  i.i.d. RR sample from the same distribution, deterministic for a
  fixed ``(seed, workers)`` pair, but *different* from the serial
  stream — the same trade the flat batch sampler already made against
  the legacy per-set sampler.

One pool (one set of worker processes + shared-memory segments) can
serve many ads: probability vectors are registered with
:meth:`SharedGraphPool.register_probs`, which dedups by content, so a
fully competitive marketplace shares one block.  Pools must be
:meth:`closed <SharedGraphPool.close>` (or used as context managers) to
release the shared memory; backends that own their pool close it with
themselves, and a single module-level :mod:`atexit` guard closes any
pool still alive at interpreter exit.

Fault tolerance (docs/ARCHITECTURE.md §11):

* :meth:`SharedGraphPool.sample_shards` *supervises* the batch — it
  polls worker liveness while collecting results, respawns crashed
  workers and terminate-respawns hung ones (no result within
  ``heartbeat_s``), and re-dispatches exactly the missing shards.
  Because every shard carries its own :class:`~numpy.random.SeedSequence`,
  a re-executed shard reproduces the lost result bit for bit, so
  recovery never changes the ``(seed, workers)`` output contract.
* Respawns are bounded (``max_respawns``); past the budget the pool
  closes itself and raises :class:`~repro.errors.PoolDegradedError`.
  :class:`ParallelBackend` catches that — and pool/shared-memory
  construction failures (:class:`~repro.errors.WorkerCrashError`) —
  and **degrades** to in-process serial execution of the *same shard
  plan*: still bit-identical per ``(seed, workers)``, just without
  process parallelism.  Degradation is recorded in the backend's
  ``fault_counters`` (``pool_degraded``) and its ``degraded`` flag, so
  provenance survives into session stats and manifests.
* Shared-memory segments are named ``repro_<pid>_...``; the first pool
  a process creates runs :func:`reap_orphan_shm`, unlinking segments
  left behind by dead processes (a crashed run cannot permanently leak
  ``/dev/shm``).
* Faults for chaos tests are injected deterministically via
  :mod:`repro.faults` (seams ``worker.kill``, ``shard.delay``,
  ``shm.attach``); with no plan installed the seams are no-ops.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing as mp
import os
import queue as _queue
import re
import secrets
import sys
import time
import weakref
from abc import ABC, abstractmethod
from multiprocessing import shared_memory

import numpy as np

from repro import faults as _faults
from repro._rng import as_generator
from repro.errors import EstimationError, PoolDegradedError, WorkerCrashError
from repro.graph.digraph import DiGraph
from repro.rrset.sampler import (
    DEFAULT_CHUNK_BYTES,
    RRSampler,
    batch_widths,
    sample_batch_flat_kernel,
    validate_edge_probs,
)

BACKENDS = ("serial", "parallel")

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Counter keys every pool/backend fault-counters dict carries.
FAULT_COUNTER_KEYS = ("worker_respawns", "shards_recovered", "pool_degraded")


def new_fault_counters() -> dict:
    """A zeroed recovery/degradation counter dict (see FAULT_COUNTER_KEYS)."""
    return {key: 0 for key in FAULT_COUNTER_KEYS}


def default_workers() -> int:
    """Worker count used when a parallel backend is requested without one."""
    return max(os.cpu_count() or 1, 1)


def resolve_backend(backend: str, workers: int | None) -> tuple[str, int | None]:
    """Normalize a ``(backend, workers)`` spec to its effective form.

    The one place the selection rule lives (engine, oracle, factory and
    CLI all call it): ``workers`` > 1 upgrades ``"serial"`` to
    ``"parallel"``; a parallel spec with ``workers`` of ``None``/0
    resolves to :func:`default_workers`.  Returns the effective
    ``(backend, workers)`` — ``workers`` is a positive ``int`` for
    parallel, ``None`` for serial.
    """
    if backend not in BACKENDS:
        raise EstimationError(f"unknown backend {backend!r}; options: {BACKENDS}")
    if workers is not None and workers < 0:
        raise EstimationError(f"workers must be non-negative, got {workers}")
    if backend == "serial" and (workers or 0) > 1:
        backend = "parallel"
    if backend == "parallel":
        return backend, int(workers) if workers else default_workers()
    return "serial", None


def shard_counts(count: int, shards: int) -> list[int]:
    """Balanced shard sizes for a *count*-set batch: a pure function of
    ``(count, shards)`` so parallel streams are reproducible.

    The first ``count % shards`` shards get one extra set; zero-size
    shards are dropped, so fewer than *shards* entries may be returned.
    """
    if shards < 1:
        raise EstimationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(count, shards)
    sizes = [base + (1 if k < extra else 0) for k in range(shards)]
    return [s for s in sizes if s > 0]


def merge_shards(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(members, indptr)`` CSR pairs in order.

    Pure offset arithmetic — the set contents are never re-split, so the
    result can be handed to :meth:`RRCollection.add_sets_flat` /
    :meth:`SharedRRStore.extend_flat` as one batch.
    """
    if not parts:
        return _EMPTY_I64.copy(), np.zeros(1, dtype=np.int64)
    members = np.concatenate([m for m, _ in parts])
    offsets = np.cumsum([0] + [int(m.size) for m, _ in parts])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [p[1:] + off for (_, p), off in zip(parts, offsets)]
    ).astype(np.int64)
    return members, indptr


class SamplerBackend(ABC):
    """Batch RR-set sampling seam shared by all consumers.

    Implementations expose the same surface as the flat half of
    :class:`RRSampler` — :meth:`sample_batch_flat`,
    :meth:`sample_batch`, :meth:`sample_batch_widths` — plus a
    :meth:`close` for backends holding OS resources.  ``graph`` and
    ``probs`` (canonical edge order, ``float64[m]``) are readable
    attributes on every backend.
    """

    graph: DiGraph
    probs: np.ndarray

    @abstractmethod
    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* RR sets as one flat ``(members, indptr)`` CSR pair.

        Same output contract as :meth:`RRSampler.sample_batch_flat`:
        both arrays ``int64``, freshly allocated, owned by the caller.
        *roots*, when given (``int64[count]``), pins each set's root and
        skips the root draw — the incremental-maintenance resample path
        (docs/ARCHITECTURE.md §14); the RNG then starts directly at the
        first coin-flip vector.
        """

    def sample_batch(self, count: int, rng=None) -> list[np.ndarray]:
        """Draw *count* RR sets as a list of member arrays (convenience)."""
        members, indptr = self.sample_batch_flat(count, rng)
        return [members[indptr[k] : indptr[k + 1]].copy() for k in range(count)]

    def sample_batch_widths(self, count: int, rng=None) -> np.ndarray:
        """Widths (in-arc counts into members) of *count* fresh RR sets."""
        members, indptr = self.sample_batch_flat(count, rng)
        return batch_widths(self.graph.in_indptr, members, indptr)

    def close(self) -> None:
        """Release backend resources (idempotent; no-op for serial)."""

    def __enter__(self) -> "SamplerBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(SamplerBackend):
    """In-process backend delegating to one :class:`RRSampler`.

    Bit-identical to the bare sampler for every method and RNG stream
    (the width computation is the shared :func:`batch_widths` on both
    sides); exists so code written against the seam pays nothing for it.
    """

    def __init__(self, graph: DiGraph, probs) -> None:
        self._sampler = RRSampler(graph, probs)
        self.graph = graph
        self.probs = np.asarray(probs, dtype=np.float64)

    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._sampler.sample_batch_flat(count, rng, roots=roots)


# ----------------------------------------------------------------------
# Shared-memory worker pool
# ----------------------------------------------------------------------
def _preferred_start_method() -> str:
    """``fork`` on Linux (cheap, tracker-safe), else ``spawn``.

    Fork is restricted to Linux deliberately: on macOS a forked child
    touching the Objective-C runtime (numpy/Accelerate) can abort —
    CPython itself switched the macOS default to spawn in 3.8.
    """
    if sys.platform.startswith("linux") and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without re-registering it for cleanup.

    Python 3.13+ supports ``track=False``; older versions fall back to
    plain attach, which is safe under the ``fork`` start method (one
    resource tracker, the creator unregisters on unlink).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _worker_main(
    task_queue,
    result_queue,
    topo: tuple[str, str, int, int],
    chunk_bytes: int,
) -> None:  # pragma: no cover - runs in child processes
    """Worker loop: attach shared CSR views, sample shards until told to stop.

    Tasks are ``(task_id, prob_shm_name, count, seed_seq, roots, fault)``;
    results are ``(task_id, members, indptr)`` (or ``(task_id, exc)`` on
    failure).  A ``None`` task shuts the worker down.  ``roots`` is
    ``None`` for fresh sampling or an ``int64[count]`` array pinning the
    shard's roots (the incremental-resample path).  ``fault`` is
    ``None`` in production; chaos tests inject ``("kill",)`` (the worker
    exits mid-batch without answering) or ``("delay", seconds)`` (the
    worker sleeps before sampling, simulating a hang).
    """
    indptr_name, tails_name, n, m = topo
    segments = []
    try:
        indptr_shm = _attach_shm(indptr_name)
        tails_shm = _attach_shm(tails_name)
        segments += [indptr_shm, tails_shm]
        in_indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=indptr_shm.buf)
        in_tails = np.ndarray((m,), dtype=np.int64, buffer=tails_shm.buf)
        probs_cache: dict[str, np.ndarray] = {}
        while True:
            task = task_queue.get()
            if task is None:
                break
            task_id, prob_name, count, seed_seq, roots, fault = task
            try:
                if fault is not None:
                    if fault[0] == "kill":
                        os._exit(17)  # simulate a crash: no result, no cleanup
                    elif fault[0] == "delay":
                        time.sleep(float(fault[1]))
                if prob_name not in probs_cache:
                    shm = _attach_shm(prob_name)
                    segments.append(shm)
                    probs_cache[prob_name] = np.ndarray(
                        (m,), dtype=np.float64, buffer=shm.buf
                    )
                members, indptr = sample_batch_flat_kernel(
                    n,
                    in_indptr,
                    in_tails,
                    probs_cache[prob_name],
                    count,
                    as_generator(seed_seq),
                    chunk_bytes,
                    roots,
                )
                result_queue.put((task_id, members, indptr))
            except Exception as exc:  # surface, don't hang the parent
                result_queue.put((task_id, exc))
    finally:
        for shm in segments:
            try:
                shm.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Segment naming, the orphan reaper and the atexit safety net
# ----------------------------------------------------------------------
SHM_PREFIX = "repro"

_SHM_SEQ = itertools.count()
_SHM_NAME_RE = re.compile(rf"^{SHM_PREFIX}_(\d+)_\d+_[0-9a-f]+$")


def _shm_name() -> str:
    """A fresh ``repro_<pid>_<seq>_<rand>`` segment name.

    Embedding the creator's pid is what makes orphans *identifiable*:
    :func:`reap_orphan_shm` unlinks any repro-tagged segment whose
    creator is no longer alive.
    """
    return f"{SHM_PREFIX}_{os.getpid()}_{next(_SHM_SEQ)}_{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (owned by someone else) — leave it alone
    return True


def reap_orphan_shm(directory: str = "/dev/shm") -> list[str]:
    """Unlink ``repro``-tagged shared-memory segments of dead processes.

    Scans *directory* (the Linux tmpfs backing POSIX shared memory) for
    ``repro_<pid>_...`` segments whose creating pid no longer exists and
    removes them; returns the reaped names.  Safe to call anytime — live
    processes' segments (including this one's) are never touched, and a
    missing directory (non-Linux) is a no-op.  The first
    :class:`SharedGraphPool` a process creates runs this automatically,
    so a crashed earlier run cannot permanently leak ``/dev/shm``.
    """
    reaped: list[str] = []
    if not os.path.isdir(directory):
        return reaped
    try:
        entries = os.listdir(directory)
    except OSError:  # pragma: no cover - unreadable tmpfs
        return reaped
    for name in entries:
        match = _SHM_NAME_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(directory, name))
            reaped.append(name)
        except OSError:  # pragma: no cover - raced with another reaper
            pass
    return reaped


_REAPED_ONCE = False

# All not-yet-closed pools, for the atexit safety net.  A WeakSet so the
# net never pins a pool (or its graph) in memory: a pool that is closed
# and dropped disappears from here on its own.
_LIVE_POOLS: "weakref.WeakSet[SharedGraphPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _close_live_pools() -> None:  # pragma: no cover - interpreter exit
    """atexit safety net: close every pool still alive (idempotent)."""
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _track_pool(pool: "SharedGraphPool") -> None:
    global _ATEXIT_REGISTERED, _REAPED_ONCE
    if not _REAPED_ONCE:
        _REAPED_ONCE = True
        reap_orphan_shm()
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(_close_live_pools)
    _LIVE_POOLS.add(pool)


class SharedGraphPool:
    """Persistent worker pool over one graph's shared-memory reverse CSR.

    Created once per (graph, worker count); serves any number of
    probability vectors via :meth:`register_probs` and any number of
    batches via :meth:`sample_shards`.  The topology blocks
    (``in_indptr``, ``in_tails``) are written exactly once; workers map
    them read-only-by-convention.  Not thread-safe: one dispatcher at a
    time (matching the engine's single-threaded loop).

    Supervision parameters
    ----------------------
    heartbeat_s:
        With shards outstanding and *no* result arriving for this many
        seconds, all workers are presumed hung: they are terminated,
        respawned, and the missing shards re-dispatched.  Generous by
        default — a slow-but-alive worker produces results well within
        it for realistic shard sizes.
    max_respawns:
        Total worker respawns (crash or hang) the pool tolerates over
        its lifetime before declaring itself unrecoverable — it then
        closes and raises :class:`~repro.errors.PoolDegradedError`
        (default ``max(2, workers)``).
    counters:
        Optional shared mutable dict to record recovery events in
        (``worker_respawns`` / ``shards_recovered`` /
        ``pool_degraded``); sessions pass their
        :class:`~repro.core.ti_engine.EngineWarmState` counters here so
        recovery is visible in ``session.stats``.  Defaults to a
        pool-private dict, always readable as :attr:`counters`.
    faults:
        Optional :class:`repro.faults.FaultPlan` consulted at the
        ``worker.kill`` / ``shard.delay`` / ``shm.attach`` seams; when
        ``None`` the globally installed plan (usually none) applies.
    """

    def __init__(
        self,
        graph: DiGraph,
        workers: int,
        *,
        start_method: str | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        heartbeat_s: float = 30.0,
        max_respawns: int | None = None,
        poll_s: float = 0.25,
        counters: dict | None = None,
        faults=None,
    ) -> None:
        if workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        if graph.n == 0:
            raise EstimationError("cannot sample RR sets from an empty graph")
        self.graph = graph
        self.workers = int(workers)
        self.chunk_bytes = int(chunk_bytes)
        self.heartbeat_s = float(heartbeat_s)
        self.max_respawns = (
            max(2, self.workers) if max_respawns is None else int(max_respawns)
        )
        self.poll_s = float(poll_s)
        self.counters = counters if counters is not None else new_fault_counters()
        for key in FAULT_COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        self._faults = faults
        self._ctx = mp.get_context(start_method or _preferred_start_method())
        self._segments: list[shared_memory.SharedMemory] = []
        self._prob_blocks: dict[bytes, str] = {}
        self._procs: list = []
        self._task_counter = 0
        self._respawns_used = 0
        self._closed = False
        self._failed = False

        _track_pool(self)
        try:
            indptr_shm = self._create_block(graph.in_indptr)
            tails_shm = self._create_block(graph.in_tails)
            self._topo = (indptr_shm, tails_shm, graph.n, graph.m)
            self._task_queue = self._ctx.Queue()
            self._result_queue = self._ctx.Queue()
            for _ in range(self.workers):
                self._spawn_worker()
        except BaseException:
            # Never leak partially created segments/processes: a pool
            # that fails to construct cleans up after itself first.
            self.close()
            raise

    @property
    def failed(self) -> bool:
        """True once the pool declared itself unrecoverable and shut down."""
        return self._failed

    def _spawn_worker(self) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self._task_queue,
                self._result_queue,
                self._topo,
                self.chunk_bytes,
            ),
            daemon=True,
        )
        proc.start()
        self._procs.append(proc)

    # -- shared-memory bookkeeping -------------------------------------
    def _create_block(self, array: np.ndarray) -> str:
        rule = _faults.fire("shm.attach", plan=self._faults_plan())
        if rule is not None:
            raise WorkerCrashError(f"[fault:shm.attach] {rule.message}")
        array = np.ascontiguousarray(array)
        shm = None
        for _ in range(8):  # retry on (astronomically unlikely) name clash
            try:
                shm = shared_memory.SharedMemory(
                    create=True, name=_shm_name(), size=max(array.nbytes, 1)
                )
                break
            except FileExistsError:  # pragma: no cover - name collision
                continue
            except OSError as exc:
                raise WorkerCrashError(
                    f"cannot create shared-memory block ({array.nbytes} bytes): {exc}"
                ) from exc
        if shm is None:  # pragma: no cover - eight collisions in a row
            raise WorkerCrashError("cannot allocate a shared-memory block name")
        if array.nbytes:
            np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[:] = array
        self._segments.append(shm)
        return shm.name

    def _faults_plan(self):
        return self._faults if self._faults is not None else _faults.active_fault_plan()

    def register_probs(self, probs: np.ndarray) -> str:
        """Publish an ad's arc probabilities; returns the block name.

        *probs* is in canonical edge order; it is permuted to in-CSR
        slot order here (once, in the parent) so workers index it
        directly with in-CSR arc slots.  Content-identical vectors share
        one block — a fully competitive marketplace registers once.
        """
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.graph.m,):
            raise EstimationError(
                f"edge probabilities must have shape ({self.graph.m},), got {probs.shape}"
            )
        # Content key: a cryptographic digest keeps the "no accidental
        # sharing" guarantee of comparing raw bytes (collisions are
        # cryptographically negligible, unlike hash()) without pinning
        # an 8·m-byte copy per distinct vector for the pool's lifetime.
        key = hashlib.sha256(probs.tobytes()).digest()
        if key not in self._prob_blocks:
            probs_in = np.ascontiguousarray(probs[self.graph.in_edge_ids])
            self._prob_blocks[key] = self._create_block(probs_in)
        return self._prob_blocks[key]

    # -- dispatch ------------------------------------------------------
    def sample_shards(
        self,
        prob_name: str,
        counts: list[int],
        seed_seqs: list[np.random.SeedSequence],
        roots: list | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Sample ``len(counts)`` shards concurrently; results in shard order.

        Shard ``k`` draws ``counts[k]`` sets under
        ``default_rng(seed_seqs[k])`` running the exact serial kernel, so
        concatenating the returned pairs equals a single-process run of
        the same shard plan (the parity tests assert this).  *roots*,
        when given, is one ``int64[counts[k]]`` array per shard pinning
        that shard's roots (the incremental-resample path); recovery
        re-dispatches a shard with its original roots, so pinned-root
        batches survive worker crashes bit-identically too.

        Collection is *supervised*: crashed workers are respawned and
        their shards re-dispatched (same seed sequence → bit-identical
        result), a silent pool (no result within ``heartbeat_s``) is
        treated as hung and recovered the same way, and a pool past its
        respawn budget closes itself and raises
        :class:`~repro.errors.PoolDegradedError` so the backend can
        degrade instead of blocking forever.
        """
        if self._failed:
            raise PoolDegradedError(
                "worker pool is unrecoverable (respawn budget exhausted)"
            )
        if self._closed:
            raise EstimationError("pool is closed")
        if len(counts) != len(seed_seqs):
            raise EstimationError("counts and seed_seqs must have equal length")
        if roots is not None and len(roots) != len(counts):
            raise EstimationError("roots must have one entry per shard")
        plan = self._faults_plan()
        id_to_shard: dict[int, int] = {}

        def dispatch(shard: int) -> None:
            task_id = self._task_counter
            self._task_counter += 1
            id_to_shard[task_id] = shard
            fault = None
            rule = _faults.fire("worker.kill", plan=plan)
            if rule is not None:
                fault = ("kill",)
            else:
                rule = _faults.fire("shard.delay", plan=plan)
                if rule is not None:
                    fault = ("delay", float(rule.delay_s))
            self._task_queue.put(
                (
                    task_id,
                    prob_name,
                    int(counts[shard]),
                    seed_seqs[shard],
                    None if roots is None else roots[shard],
                    fault,
                )
            )

        for k in range(len(counts)):
            dispatch(k)
        results: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        last_progress = time.monotonic()
        while len(results) < len(counts):
            try:
                payload = self._result_queue.get(timeout=self.poll_s)
            except _queue.Empty:
                missing = [k for k in range(len(counts)) if k not in results]
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    self._recover(dead, missing, dispatch, reason="crashed")
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > self.heartbeat_s:
                    # No worker died, yet nothing arrived for a full
                    # heartbeat window: presume the pool is hung.  We
                    # cannot tell which worker holds the stuck shard, so
                    # all are replaced; duplicated results are deduped
                    # below (and identical anyway — same seed sequence).
                    self._recover(
                        list(self._procs), missing, dispatch, reason="hung"
                    )
                    last_progress = time.monotonic()
                continue
            last_progress = time.monotonic()
            shard = id_to_shard.pop(payload[0], None)
            if shard is None or shard in results:
                continue  # stale/duplicate result of an aborted dispatch
            if len(payload) == 2 and isinstance(payload[1], Exception):
                raise payload[1]
            _, members, indptr = payload
            results[shard] = (
                np.asarray(members, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            )
        return [results[k] for k in range(len(counts))]

    def _recover(self, procs, missing_shards, dispatch, reason: str) -> None:
        """Replace *procs* and re-dispatch *missing_shards* (bounded).

        Raises :class:`~repro.errors.PoolDegradedError` — after closing
        the pool — once the lifetime respawn budget is exhausted.
        """
        needed = len(procs)
        if self._respawns_used + needed > self.max_respawns:
            self._fail(
                f"{reason} worker(s) would need {needed} more respawn(s), "
                f"budget {self.max_respawns} already spent {self._respawns_used}"
            )
        self._respawns_used += needed
        self.counters["worker_respawns"] += needed
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2.0)
            self._procs.remove(proc)
        if not self._procs:
            # Every worker is being replaced, so nothing references the
            # old queues — restart the transport too.  A process
            # terminated inside queue.get()/put() can die holding the
            # queue's shared lock, which would stall the respawned
            # workers forever (and trip the heartbeat into burning the
            # whole respawn budget).  Outstanding tasks/results are
            # dropped with the queues; the caller re-dispatches every
            # missing shard below.
            for q in (self._task_queue, self._result_queue):
                try:
                    q.cancel_join_thread()
                    q.close()
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
            self._task_queue = self._ctx.Queue()
            self._result_queue = self._ctx.Queue()
        for _ in range(needed):
            self._spawn_worker()
        self.counters["shards_recovered"] += len(missing_shards)
        for shard in missing_shards:
            dispatch(shard)

    def _fail(self, detail: str) -> None:
        """Declare the pool unrecoverable: shut down, then raise."""
        self._failed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self.close()
        raise PoolDegradedError(f"worker pool unrecoverable: {detail}")

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink all shared-memory blocks.

        Idempotent by construction: every teardown step tolerates
        already-released resources (double unlink of a shared-memory
        segment would otherwise raise ``FileNotFoundError``), so
        explicit close, context-manager exit, the atexit safety net and
        failure-path closes can overlap freely.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        for proc in self._procs:
            try:
                self._task_queue.put(None)
            except (AttributeError, OSError, ValueError):
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        for q in (getattr(self, "_task_queue", None), getattr(self, "_result_queue", None)):
            if q is None:
                continue
            try:
                q.close()
                q.join_thread()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        for shm in self._segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - defensive
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedGraphPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelBackend(SamplerBackend):
    """Process-parallel batch sampler over a :class:`SharedGraphPool`.

    Parameters
    ----------
    graph, probs:
        As for :class:`RRSampler` (*probs* in canonical edge order).
    workers:
        Worker process count; defaults to :func:`default_workers`.
        ``workers == 1`` short-circuits to in-process execution with the
        caller's generator — bit-identical to :class:`SerialBackend`.
    pool:
        An existing pool over the same graph to share (e.g. one pool for
        all ads of an engine run).  When omitted the backend creates and
        owns one, closing it in :meth:`close`.
    counters:
        Optional shared fault-counter dict (see
        :class:`SharedGraphPool`); defaults to the pool's when sharing
        one, else to a private dict.  Always readable as
        :attr:`fault_counters`.
    degraded:
        Start directly in degraded (in-process) mode — used by the
        engine when an earlier pool for the same run already proved
        unrecoverable.

    Degradation: when the pool cannot be created
    (:class:`~repro.errors.WorkerCrashError`) or declares itself
    unrecoverable mid-batch (:class:`~repro.errors.PoolDegradedError`),
    the backend runs the *same shard plan* in-process — one
    :func:`sample_batch_flat_kernel` call per shard under that shard's
    seed sequence — so output stays bit-identical per
    ``(seed, workers)``.  The switch is recorded in
    ``fault_counters["pool_degraded"]`` and :attr:`degraded`.
    """

    def __init__(
        self,
        graph: DiGraph,
        probs,
        *,
        workers: int | None = None,
        pool: SharedGraphPool | None = None,
        counters: dict | None = None,
        degraded: bool = False,
        faults=None,
    ) -> None:
        if graph.n == 0:
            raise EstimationError("cannot sample RR sets from an empty graph")
        self.graph = graph
        self.probs = validate_edge_probs(graph, probs)
        self._probs_in: np.ndarray | None = None  # lazy in-CSR permutation
        self._degraded = bool(degraded)
        self._closed = False
        self._prob_name = None
        self._serial = None
        if pool is not None:
            if pool.graph is not graph:
                raise EstimationError("pool was built over a different graph")
            self.workers = pool.workers
            self._pool = pool
            self._owns_pool = False
            self.fault_counters = counters if counters is not None else pool.counters
            for key in FAULT_COUNTER_KEYS:
                self.fault_counters.setdefault(key, 0)
            if pool.failed:
                self._note_degraded()
        else:
            _, self.workers = resolve_backend("parallel", workers)
            self.fault_counters = (
                counters if counters is not None else new_fault_counters()
            )
            for key in FAULT_COUNTER_KEYS:
                self.fault_counters.setdefault(key, 0)
            self._pool = None
            self._owns_pool = False
            if self.workers > 1 and not self._degraded:
                try:
                    self._pool = SharedGraphPool(
                        graph,
                        self.workers,
                        counters=self.fault_counters,
                        faults=faults,
                    )
                    self._owns_pool = True
                except WorkerCrashError:
                    # Pool infrastructure (worker spawn / shared memory)
                    # failed: degrade to in-process shard execution.
                    self._note_degraded()
        if self._pool is not None and not self._degraded:
            try:
                # The pool's shared block (registered here) is the only
                # probs copy the workers need; no in-process delegate.
                self._prob_name = self._pool.register_probs(self.probs)
            except WorkerCrashError:
                self._note_degraded()
        elif self.workers == 1 and not self._degraded:
            # workers == 1: all sampling happens in-process through this
            # delegate, bit-identically to SerialBackend.  (A *degraded*
            # backend instead keeps the shard-plan streams, staying
            # bit-identical to the pooled output it replaces.)
            self._serial = RRSampler(graph, self.probs)

    @property
    def degraded(self) -> bool:
        """True once the backend fell back to in-process shard execution."""
        return self._degraded

    def _note_degraded(self) -> None:
        """Switch to in-process shard execution (recording provenance)."""
        if self._owns_pool and self._pool is not None:
            try:
                self._pool.close()
            finally:
                self._owns_pool = False
        # A shared pool is the creator's to close (and closed itself if
        # it failed); either way this backend stops using it.
        self._pool = None
        self._degraded = True
        self.fault_counters["pool_degraded"] += 1

    def _sample_shards_inproc(
        self, counts: list[int], seqs, shard_roots=None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run the shard plan in-process — the degraded-mode executor.

        Exactly what the workers would have computed: the batch kernel
        over the in-CSR arrays with each shard's own generator
        (and, on the incremental-resample path, each shard's pinned
        roots).
        """
        if self._probs_in is None:
            self._probs_in = np.ascontiguousarray(
                self.probs[self.graph.in_edge_ids]
            )
        g = self.graph
        if shard_roots is None:
            shard_roots = [None] * len(counts)
        return [
            sample_batch_flat_kernel(
                g.n,
                g.in_indptr,
                g.in_tails,
                self._probs_in,
                int(count),
                as_generator(seq),
                DEFAULT_CHUNK_BYTES,
                sroots,
            )
            for count, seq, sroots in zip(counts, seqs, shard_roots)
        ]

    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* RR sets across the pool; one merged CSR pair.

        See the module docstring for the RNG-stream contract.  Batches
        smaller than the shard count still produce one shard per
        non-empty share, preserving the ``(seed, workers)``
        determinism guarantee — which also survives worker recovery and
        pool degradation (the shard plan, not the process topology,
        defines the streams).
        """
        if self._closed:
            raise EstimationError("backend is closed")
        if count < 0:
            raise EstimationError(f"count must be non-negative, got {count}")
        rng = as_generator(rng)
        if count == 0:
            # Stream-neutral on every backend: no RNG draw is consumed.
            return _EMPTY_I64.copy(), np.zeros(1, dtype=np.int64)
        if self._serial is not None:
            # workers == 1 without a pool: in-process, caller's stream,
            # bit-identical to SerialBackend.
            return self._serial.sample_batch_flat(count, rng, roots=roots)
        counts = shard_counts(count, self.workers)
        root = np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
        seqs = root.spawn(len(counts))
        shard_roots = None
        if roots is not None:
            # Split pinned roots along the shard plan: shard k samples
            # sets [offset_k, offset_k + counts[k]), and merge_shards
            # concatenates in shard order, so output set i keeps root i.
            roots = np.ascontiguousarray(roots, dtype=np.int64)
            if roots.shape != (count,):
                raise EstimationError(
                    f"roots must have shape ({count},), got {roots.shape}"
                )
            offsets = np.cumsum([0] + counts)
            shard_roots = [
                roots[offsets[k] : offsets[k + 1]] for k in range(len(counts))
            ]
        if self._pool is not None and not self._degraded:
            try:
                parts = self._pool.sample_shards(
                    self._prob_name, counts, seqs, shard_roots
                )
                return merge_shards(parts)
            except PoolDegradedError:
                self._note_degraded()
        return merge_shards(self._sample_shards_inproc(counts, seqs, shard_roots))

    def close(self) -> None:
        """Close this backend; further sampling raises.

        An owned pool is shut down here; a shared pool stays up (it is
        the creator's to close).  Closing is idempotent — including
        after degradation, after the pool closed itself, and on double
        close — and applies to ``workers == 1`` backends too, so the
        lifecycle is uniform: a closed parallel backend never silently
        degrades to a different (serial) RNG stream.
        """
        if self._owns_pool and self._pool is not None:
            try:
                self._pool.close()
            finally:
                self._owns_pool = False
                self._pool = None
        self._pool = None
        self._closed = True


def make_backend(
    graph: DiGraph,
    probs,
    backend: str = "serial",
    *,
    workers: int | None = None,
    pool: SharedGraphPool | None = None,
    counters: dict | None = None,
    degraded: bool = False,
    faults=None,
) -> SamplerBackend:
    """Build a :class:`SamplerBackend` from a spec string.

    ``backend`` is ``"serial"`` or ``"parallel"``; *workers* / *pool*
    apply to the parallel backend only.  The spec is normalized by
    :func:`resolve_backend` — ``workers`` > 1 upgrades ``"serial"`` to
    parallel (this is what lets a single ``--workers`` CLI flag select
    the backend), and a parallel spec without a worker count uses
    :func:`default_workers`.  Passing an existing *pool* implies
    parallel regardless of the spec.
    """
    backend, workers = resolve_backend(backend, workers)
    if backend == "serial" and pool is None:
        return SerialBackend(graph, probs)
    return ParallelBackend(
        graph,
        probs,
        workers=workers,
        pool=pool,
        counters=counters,
        degraded=degraded,
        faults=faults,
    )
