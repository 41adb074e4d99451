"""Shared-memory parallel RR sampling: the worker pool and its backend.

:class:`ParallelBackend` is the process-parallel
:class:`~repro.rrset.sampler.SamplerBackend`;
:class:`~repro.rrset.sampler.RRSampler` is the serial one.
:meth:`~repro.core.ti_engine.EngineWarmState.make_sampler` is the one
place that picks between them by worker count, and the one place that
builds a :class:`SharedGraphPool`.  The parallel backend fans
:func:`sample_batch_flat_kernel` out over the pool's ``k`` worker
processes.  The graph's reverse CSR (``in_indptr``, ``in_tails``) and
each registered probability vector (already permuted to in-CSR slot
order) live in :mod:`multiprocessing.shared_memory` blocks created once
per pool; workers attach by name and never copy them.  A batch of
``count`` sets is split into one shard per worker (balanced, a pure
function of ``(count, workers)``); each shard samples under its own
:class:`numpy.random.SeedSequence`-spawned generator, and the shards
are merged back into a single CSR pair in shard order.

RNG-stream contract (docs/ARCHITECTURE.md §2–§3):
:class:`ParallelBackend` consumes exactly **one** ``rng.integers`` draw
from the caller's generator per batch, to derive a root
:class:`~numpy.random.SeedSequence`; shard ``k`` samples with
``default_rng(root.spawn(shards)[k])``.  The output is a valid i.i.d.
RR sample from the same distribution, deterministic for a fixed
``(seed, workers)`` pair, but *different* from the serial stream of
:meth:`RRSampler.sample_batch_flat`.

One pool (one set of worker processes + shared-memory segments) can
serve many ads: probability vectors are registered with
:meth:`SharedGraphPool.register_probs`, which dedups by content, so a
fully competitive marketplace shares one block.  Pools must be
:meth:`closed <SharedGraphPool.close>` (or used as context managers) to
release the shared memory; the warm state that built a pool closes it,
and a single module-level :mod:`atexit` guard closes any pool still
alive at interpreter exit.

Fault tolerance (docs/ARCHITECTURE.md §11):

* :meth:`SharedGraphPool.sample_shards` *supervises* the batch — it
  polls worker liveness while collecting results, respawns crashed
  workers and terminate-respawns hung ones (no result within
  ``heartbeat_s``), and re-dispatches exactly the missing shards.
  Because every shard carries its own :class:`~numpy.random.SeedSequence`,
  a re-executed shard reproduces the lost result bit for bit, so
  recovery never changes the ``(seed, workers)`` output contract.
* Past its respawn budget (``max_respawns``), when a replacement
  worker cannot start, or when it cannot create a probability block,
  the pool *fails*: it closes itself and raises
  :class:`~repro.errors.PoolDegradedError`, and :attr:`SharedGraphPool.failed`
  turns True.  :class:`ParallelBackend` catches that and **degrades**
  to in-process serial execution of the *same shard plan*: still
  bit-identical per ``(seed, workers)``, just without process
  parallelism.  It counts the switch as one ``pool_degraded`` in the
  pool's ``counters``, so provenance survives into session stats and
  manifests.
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
from multiprocessing import shared_memory

import numpy as np

from repro import faults as _faults
from repro._rng import as_generator
from repro.errors import EstimationError, PoolDegradedError, WorkerCrashError
from repro.graph.digraph import DiGraph
from repro.rrset.sampler import (
    DEFAULT_CHUNK_BYTES,
    SamplerBackend,
    sample_batch_flat_kernel,
    validate_edge_probs,
)

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Counter keys every pool's fault-counters dict carries.
FAULT_COUNTER_KEYS = ("worker_respawns", "shards_recovered", "pool_degraded")


def new_fault_counters() -> dict:
    """A zeroed recovery/degradation counter dict (see FAULT_COUNTER_KEYS)."""
    return {key: 0 for key in FAULT_COUNTER_KEYS}


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
        (default ``max(2, workers)``).  A probability block that cannot
        be created fails the pool the same way.
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
        try:
            proc.start()
        except OSError as exc:  # e.g. EAGAIN under a process limit
            raise WorkerCrashError(f"cannot start a worker process: {exc}") from exc
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
        one block — a fully competitive marketplace registers once.  A
        block that cannot be created fails the pool (see :meth:`_fail`).
        """
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.graph.m,):
            raise EstimationError(
                f"edge probabilities must have shape ({self.graph.m},), got {probs.shape}"
            )
        self._check_usable()
        # Content key: a cryptographic digest keeps the "no accidental
        # sharing" guarantee of comparing raw bytes (collisions are
        # cryptographically negligible, unlike hash()) without pinning
        # an 8·m-byte copy per distinct vector for the pool's lifetime.
        key = hashlib.sha256(probs.tobytes()).digest()
        if key not in self._prob_blocks:
            probs_in = np.ascontiguousarray(probs[self.graph.in_edge_ids])
            try:
                self._prob_blocks[key] = self._create_block(probs_in)
            except WorkerCrashError as exc:
                self._fail(f"cannot publish a probability vector: {exc}")
        return self._prob_blocks[key]

    def _check_usable(self) -> None:
        """Raise unless the pool can take work: failed or closed pools refuse it."""
        if self._failed:
            raise PoolDegradedError("worker pool is unrecoverable")
        if self._closed:
            raise EstimationError("pool is closed")

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
        self._check_usable()
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
        the pool — once the lifetime respawn budget is exhausted, or when
        a replacement worker cannot start.  ``worker_respawns`` counts
        the replacements that started.
        """
        needed = len(procs)
        if self._respawns_used + needed > self.max_respawns:
            self._fail(
                f"{reason} worker(s) would need {needed} more respawn(s), "
                f"budget {self.max_respawns} already spent {self._respawns_used}"
            )
        self._respawns_used += needed
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
            try:
                self._spawn_worker()
            except WorkerCrashError as exc:
                self._fail(str(exc))
            self.counters["worker_respawns"] += 1
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
    """Shard-parallel batch sampler: the process-parallel :class:`SamplerBackend`.

    Parameters
    ----------
    graph, probs:
        As for :class:`~repro.rrset.sampler.RRSampler` (*probs* in
        canonical edge order).
    workers:
        The shard count, at least 2 (one worker is
        :class:`~repro.rrset.sampler.RRSampler`'s job); taken from
        *pool* when one is given.
    pool:
        The :class:`SharedGraphPool` over *graph* to sample through.
        The backend never builds or closes a pool; ``None`` runs every
        batch's shard plan in this process.

    Each batch is split along the ``(count, workers)`` shard plan.  The
    pool's workers run it, or, without a pool, this process does — one
    :func:`sample_batch_flat_kernel` call per shard under that shard's
    seed sequence — so output is bit-identical per ``(seed, workers)``
    either way.  When the pool fails
    (:class:`~repro.errors.PoolDegradedError`), the backend counts one
    ``pool_degraded`` in the pool's counters, drops the pool and samples
    in-process from then on.
    """

    def __init__(
        self,
        graph: DiGraph,
        probs,
        *,
        workers: int | None = None,
        pool: SharedGraphPool | None = None,
    ) -> None:
        if graph.n == 0:
            raise EstimationError("cannot sample RR sets from an empty graph")
        if pool is not None:
            if pool.graph is not graph:
                raise EstimationError("pool was built over a different graph")
            workers = pool.workers
        if workers is None or workers < 2:
            raise EstimationError(
                f"a parallel backend needs workers >= 2, got {workers}"
            )
        self.graph = graph
        self.probs = validate_edge_probs(graph, probs)
        self.workers = int(workers)
        self._pool = pool
        self._prob_name: str | None = None  # pool block, registered on first use
        self._probs_in: np.ndarray | None = None  # lazy in-CSR permutation
        self._closed = False

    def _sample_shards_inproc(
        self, counts: list[int], seqs, shard_roots=None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run the shard plan in-process — the pool-less executor.

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
        """Draw *count* RR sets along the shard plan; one merged CSR pair.

        See the module docstring for the RNG-stream contract.  Batches
        smaller than the shard count still produce one shard per
        non-empty share, preserving the ``(seed, workers)``
        determinism guarantee — which also survives worker recovery and
        pool failure (the shard plan, not the process topology,
        defines the streams).
        """
        if self._closed:
            raise EstimationError("backend is closed")
        if count < 0:
            raise EstimationError(f"count must be non-negative, got {count}")
        rng = as_generator(rng)
        if count == 0:
            # Stream-neutral on every sampler: no RNG draw is consumed.
            return _EMPTY_I64.copy(), np.zeros(1, dtype=np.int64)
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
        if self._pool is not None:
            try:
                if self._prob_name is None:
                    self._prob_name = self._pool.register_probs(self.probs)
                return merge_shards(
                    self._pool.sample_shards(self._prob_name, counts, seqs, shard_roots)
                )
            except PoolDegradedError:
                # The pool failed and closed itself: degrade to the
                # in-process executor of the same shard plan for good.
                self._pool.counters["pool_degraded"] += 1
                self._pool = None
        return merge_shards(self._sample_shards_inproc(counts, seqs, shard_roots))

    def close(self) -> None:
        """Close this backend; further sampling raises.

        The pool stays up: it is its owner's to close.  Closing is
        idempotent, and a closed parallel backend never silently falls
        back to a different (serial) RNG stream.
        """
        self._pool = None
        self._closed = True
