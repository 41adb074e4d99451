"""``repro serve`` — the allocation-as-a-service daemon.

A :class:`ReproServer` is two cooperating halves over one
:class:`~repro.serve.pool.SessionPool`:

* an **HTTP frontend** (stdlib :class:`~http.server.ThreadingHTTPServer`
  on a background thread) that does *admission only*: it parses and
  validates each ``POST /solve`` body, rejects while draining (503),
  applies backpressure when the bounded query queue is full (429 — the
  client's cue to retry elsewhere or later), enqueues, and parks the
  connection until the answer is ready.  ``GET /healthz`` and
  ``GET /stats`` are answered directly from counters;
* a **single solver loop** (:meth:`run`, on the caller's thread — the
  process main thread under the CLI) that pops queries in arrival
  order, leases the warm session for each query's
  ``(dataset, probs family)`` pool key, solves through it, and enforces
  the global byte budget by LRU-evicting whole sessions after every
  solve.  One solver is not an implementation shortcut: sessions are
  one-solve-at-a-time objects (live RR stores, persisted RNG streams),
  so compatible queries *must* serialize onto their shared session —
  the queue is that serialization point, and cross-family parallelism
  belongs to the per-session worker pools, not to concurrent solver
  threads.

**Determinism.**  A query's answer depends on the query (dataset
entry, axes, effective seed), the daemon config, and its pool key's
solve history since that key's session opened.  The session keeps one
shared RR store and one RNG stream per probability family: the first
query fills the store from its own seed, and later queries adopt those
sets instead of drawing from theirs, so a later query can return an
earlier query's allocation and need not equal a cold solve with its
own seed.  What holds: a fresh session replaying the key's history in
``solve_index`` order (echoed in each response's ``serve`` block)
reproduces every answer byte for byte, and the first query on a key
equals a cold ``share_samples=True`` solve (docs/ARCHITECTURE.md §9).
Eviction and quarantine end a history; the key's next query starts a
new one.

**Timeouts.**  Each query runs under the PR 6 cell-deadline machinery
(:func:`repro.experiments.grid._cell_deadline`, SIGALRM-based, active
when the solver loop owns the main thread); queries that already
overstayed ``query_timeout_s`` waiting in the queue are answered 504
without solving at all.  A timed-out or failed query's session is
discarded, never reused (the quarantine rule).  A query whose dataset
entry or marketplace cannot be built answers 400, with the
:mod:`repro.errors` class name as its ``error_type``, before its
session is touched, so a warm session stays warm.

**Drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`begin_drain`) flips the
server to draining: new queries get 503, queued queries finish, then
the HTTP server closes and every pooled session is closed through its
normal lifecycle — no orphaned ``SharedGraphPool`` shared-memory
segments, which is the whole point of owning shutdown instead of
letting the process die mid-solve.

Fault seams (:mod:`repro.faults`): ``serve.reject`` forces admission
rejections, ``serve.delay`` stalls the solver loop — both deterministic
and test-only, like every other seam.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import faults as _faults
from repro.errors import (
    CellTimeoutError,
    GraphError,
    InstanceError,
    ServeError,
    SpecError,
    TopicModelError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import session_deltas, solve_cell
from repro.serve.pool import SessionPool
from repro.serve.schema import QueryRequest, error_payload, result_payload

#: Default bound on queued-but-unsolved queries (backpressure threshold).
DEFAULT_QUEUE_SIZE = 16

#: Largest ``POST /solve`` body read, in bytes; a query is a few hundred.
#: A larger declared ``Content-Length`` answers 413 unread.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a connection may stall a read or write before it is closed:
#: a body shorter than its ``Content-Length`` cannot pin a handler thread.
READ_TIMEOUT_S = 10.0

#: What building a query's dataset entry or marketplace raises: query
#: input at fault (400), found before the session solves.
INPUT_ERRORS = (GraphError, InstanceError, SpecError, TopicModelError)


@dataclass(frozen=True)
class ServeConfig:
    """Startup configuration of one :class:`ReproServer`.

    ``config`` fixes the engine side (accuracy, ``workers``,
    per-store byte budget) for every session the daemon opens;
    queries cannot override it — see :mod:`repro.serve.schema`.
    ``bytes_budget`` is the *global* cap over all pooled sessions'
    measured store bytes (the CLI's ``--serve-bytes-budget``), distinct
    from the per-store ``rr_bytes_budget`` spill threshold.
    ``max_queries``, when set, drains the server after that many
    processed queries — the deterministic shutdown hook CI smoke tests
    and benchmarks use.
    """

    host: str = "127.0.0.1"
    port: int = 0
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    bytes_budget: int | None = None
    max_sessions: int | None = None
    queue_size: int = DEFAULT_QUEUE_SIZE
    query_timeout_s: float | None = None
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ServeError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.query_timeout_s is not None and self.query_timeout_s <= 0:
            raise ServeError(
                f"query_timeout_s must be positive, got {self.query_timeout_s}"
            )
        if self.max_queries is not None and self.max_queries < 1:
            raise ServeError(f"max_queries must be >= 1, got {self.max_queries}")


class _Job:
    """One admitted query parked between the frontend and the solver."""

    __slots__ = ("request", "enqueued", "done", "status", "payload")

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.enqueued = time.monotonic()
        self.done = threading.Event()
        self.status = 500
        self.payload: dict = error_payload("Internal", "job never answered")

    def respond(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        self.done.set()


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim: route, parse, delegate to the bound server."""

    #: Injected per-server via a dynamic subclass (see ReproServer).
    repro_server: "ReproServer" = None  # type: ignore[assignment]
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through /stats counters, not stderr

    def _write(self, status: int, payload: dict, *, close: bool = False) -> None:
        """Send *payload*; *close* ends the connection (its body is unread)."""
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away; nothing to clean up

    def do_GET(self) -> None:
        server = self.repro_server
        if self.path == "/healthz":
            self._write(200, server.health_payload())
        elif self.path == "/stats":
            self._write(200, server.stats_payload())
        else:
            self._write(404, error_payload("NotFound", f"no route {self.path!r}"))

    def do_POST(self) -> None:
        if self.path != "/solve":
            self._write(404, error_payload("NotFound", f"no route {self.path!r}"))
            return
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._write(
                400,
                error_payload("BadRequest", f"invalid Content-Length {declared!r}"),
                close=True,
            )
            return
        if length > MAX_BODY_BYTES:
            self._write(
                413,
                error_payload(
                    "PayloadTooLarge",
                    f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                ),
                close=True,
            )
            return
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as exc:  # JSONDecodeError and bad UTF-8 included
            self._write(400, error_payload("BadRequest", f"invalid JSON body: {exc}"))
            return
        except RecursionError:
            self._write(400, error_payload("BadRequest", "JSON body nested too deep"))
            return
        status, payload = self.repro_server.submit(data)
        self._write(status, payload)


class ReproServer:
    """The serving daemon (see the module docstring for the contract)."""

    def __init__(self, serve_config: ServeConfig | None = None) -> None:
        self.config = serve_config or ServeConfig()
        self.pool = SessionPool(
            self.config.config,
            bytes_budget=self.config.bytes_budget,
            max_sessions=self.config.max_sessions,
        )
        self._queue: "queue.Queue[_Job]" = queue.Queue(maxsize=self.config.queue_size)
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._shutdown_done = False
        self._processed = 0
        self._counter_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self.counters = {
            "queries_served": 0,
            "admission_rejects": 0,
            "draining_rejects": 0,
            "solve_errors": 0,
            "query_timeouts": 0,
        }
        # One handler subclass per server so concurrent servers (tests)
        # never share mutable class state.
        handler = type(
            "_BoundHandler",
            (_RequestHandler,),
            {"repro_server": self, "timeout": READ_TIMEOUT_S},
        )
        self._http = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._http.daemon_threads = True
        self._http_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Addresses / lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """``host:port`` actually bound (port 0 resolves at construction)."""
        host, port = self._http.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        """Start the HTTP frontend on a background thread (admission only)."""
        if self._http_thread is not None:
            return
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()

    def serve_forever(self) -> None:
        """Start the frontend, then run the solver loop on this thread.

        This is what the CLI calls from the process main thread — which
        is exactly what arms the SIGALRM-based per-query deadline.
        Returns after a drain completes.
        """
        self.start()
        self.run()

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` to :meth:`begin_drain` (CLI path).

        Must run on the main thread (stdlib signal contract); the
        handlers only flip the drain flag, so an in-flight query always
        finishes before the process exits.
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.begin_drain())

    def begin_drain(self) -> None:
        """Stop admitting; the solver loop exits once the queue empties."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested."""
        return self._draining.is_set()

    @property
    def drained(self) -> bool:
        """Whether the solver loop has fully exited (shutdown complete)."""
        return self._drained.is_set()

    # ------------------------------------------------------------------
    # Frontend: admission (called on handler threads)
    # ------------------------------------------------------------------
    def submit(self, data: dict) -> tuple[int, dict]:
        """Admit one ``/solve`` body; blocks until the query is answered.

        Returns ``(http_status, payload)``.  Admission outcomes:
        400 malformed query, 503 draining, 429 backpressure (queue full,
        or the ``serve.reject`` fault seam fired).
        """
        try:
            request = QueryRequest.from_dict(data)
        except ServeError as exc:
            return 400, error_payload("ServeError", str(exc))
        if self._draining.is_set():
            with self._counter_lock:
                self.counters["draining_rejects"] += 1
            return 503, error_payload(
                "Draining", "server is draining; no new queries are admitted"
            )
        plan = _faults.active_fault_plan()
        if plan is not None and plan.fire("serve.reject", key=request.pool_key):
            with self._counter_lock:
                self.counters["admission_rejects"] += 1
            return 429, error_payload(
                "AdmissionRejected", "injected admission rejection (serve.reject)"
            )
        job = _Job(request)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._counter_lock:
                self.counters["admission_rejects"] += 1
            return 429, error_payload(
                "QueueFull",
                f"query queue is full ({self.config.queue_size} pending); "
                "retry with backoff",
                queue_depth=self._queue.qsize(),
            )
        job.done.wait()
        return job.status, job.payload

    # ------------------------------------------------------------------
    # Solver loop (single thread; main thread under the CLI)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve queued queries until drained, then shut everything down.

        Every dequeued job is answered exactly once — including the
        jobs still queued when the drain lands, which are flushed with
        503 rather than left to hang their connections.
        """
        try:
            while not (self._draining.is_set() and self._queue.empty()):
                try:
                    job = self._queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                self._process_job(job)
                self._processed += 1
                if (
                    self.config.max_queries is not None
                    and self._processed >= self.config.max_queries
                ):
                    self.begin_drain()
        finally:
            self.shutdown()

    def _solve_error(self, job: _Job, status: int, exc: Exception) -> None:
        """Answer *job* with *exc* as a counted solve error."""
        with self._counter_lock:
            self.counters["solve_errors"] += 1
        job.respond(status, error_payload(type(exc).__name__, str(exc)))

    def _process_job(self, job: _Job) -> None:
        request = job.request
        waited = time.monotonic() - job.enqueued
        timeout = self.config.query_timeout_s
        if timeout is not None and waited >= timeout:
            # Overstayed the deadline in the queue: answering late would
            # just burn solver time the queued-behind queries need.
            with self._counter_lock:
                self.counters["query_timeouts"] += 1
            job.respond(
                504,
                error_payload(
                    "QueryTimeout",
                    f"query spent {waited:.3f}s queued, past its "
                    f"{timeout}s deadline",
                ),
            )
            return
        try:
            # Whatever raises before the lease answers this query and the
            # loop goes on; the stall sleeps outside the pool lock.
            key = request.pool_key
            plan = _faults.active_fault_plan()
            if plan is not None:
                rule = plan.fire("serve.delay", key=key)
                if rule is not None and rule.delay_s:
                    time.sleep(rule.delay_s)
        except Exception as exc:
            self._solve_error(job, 500, exc)
            return
        from repro.experiments.grid import _cell_deadline

        remaining = None if timeout is None else max(timeout - waited, 1e-3)
        effective_seed = (
            request.seed if request.seed is not None else self.config.config.seed
        )
        with self._pool_lock:
            try:
                entry, warm = self.pool.lease(request)
                before = entry.session.stats
                with _cell_deadline(remaining):
                    result, _ = solve_cell(
                        request,
                        entry.dataset,
                        self.config.config,
                        effective_seed,
                        entry.session,
                    )
            except CellTimeoutError as exc:
                self.pool.discard(key)
                with self._counter_lock:
                    self.counters["query_timeouts"] += 1
                job.respond(504, error_payload("QueryTimeout", str(exc)))
                return
            except Exception as exc:
                if isinstance(exc, INPUT_ERRORS):
                    # Query input that cannot be built: a dataset entry
                    # no builder takes (no session exists for it yet), or
                    # a marketplace the dataset refuses, say one where no
                    # incentive fits its budget.  Both fail before the
                    # session solves, so it stays pooled and warm.
                    self.pool.release(key)
                    status = 400
                else:
                    # Unknown failure mid-solve: quarantine the session
                    # (its warm state is suspect).
                    self.pool.discard(key)
                    status = 500
                self._solve_error(job, status, exc)
                return
            after = entry.session.stats
            evicted = self.pool.release(key)
        with self._counter_lock:
            self.counters["queries_served"] += 1
        job.respond(
            200,
            result_payload(
                request,
                result,
                effective_seed=effective_seed,
                serve={
                    "pool_key": key,
                    "warm_session": warm,
                    "solve_index": after["solves"] - 1,
                    **session_deltas(before, after),
                    "store_bytes": after["store_bytes"],
                    "queue_wait_s": round(waited, 4),
                    "evicted": evicted,
                },
            ),
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        """``/healthz`` body: liveness + admission posture, lock-free."""
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "queue_depth": self._queue.qsize(),
            "queue_size": self.config.queue_size,
            "sessions": len(self.pool),
        }

    def stats_payload(self) -> dict:
        """``/stats`` body: serve counters + the full pool/session stats.

        Snapshots under the pool lock, so numbers are consistent as of
        between-queries boundaries (a long in-flight solve delays the
        snapshot rather than corrupting it).
        """
        with self._counter_lock:
            counters = dict(self.counters)
        with self._pool_lock:
            pool = self.pool.stats()
        attempts = counters["queries_served"] + counters["solve_errors"]
        return {
            "serve": {
                **counters,
                "queue_depth": self._queue.qsize(),
                "queue_size": self.config.queue_size,
                "draining": self._draining.is_set(),
                "processed": self._processed,
                "warm_hit_rate": (
                    pool["warm_hits"] / attempts if attempts else 0.0
                ),
            },
            "pool": pool,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        """Answer every still-queued job 503 (drain landed first)."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            with self._counter_lock:
                self.counters["draining_rejects"] += 1
            job.respond(
                503, error_payload("Draining", "server drained before this query ran")
            )

    def shutdown(self) -> None:
        """Stop the frontend, flush the queue, close every session.

        Idempotent; also safe when :meth:`start` never ran (tests that
        drive :meth:`submit` directly).  After this returns the pool is
        closed — i.e. zero live ``SharedGraphPool`` segments — and the
        listening socket is released.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._draining.set()
        if self._http_thread is not None:
            self._http.shutdown()
            self._http_thread.join(timeout=5.0)
        self._http.server_close()
        self._flush_pending()
        with self._pool_lock:
            self.pool.close()
        self._drained.set()

    def close(self) -> None:
        """Alias of :meth:`shutdown` (context-manager / lint symmetry)."""
        self.shutdown()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReproServer(addr={self.address}, sessions={len(self.pool)}, "
            f"served={self.counters['queries_served']})"
        )
