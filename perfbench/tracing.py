"""Span tracing for the benchmark's traced runs, installed from outside.

The program has no tracing of its own, so a traced run wraps the public
calls into each layer: methods are patched on their classes, and
functions are patched where the caller looks them up (a module attribute
such as ``repro.api.session.compile_updates``, which the session module
imported by name).  :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, parent, name, request id, start, end, attrs)``.  Spans
are appended to a per-thread list (no lock on the hot path) and nest
through a per-thread stack, so a span's parent is the innermost wrapped
call still open on the same thread.  The request id is per thread too:
the benchmark sets it around each request it sends, and wrappers that
receive a query (``ReproServer.submit`` on an HTTP handler thread,
``SessionPool.lease`` on the solver thread) look it up from the query's
seed, which is unique per request.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

#: Request id of work done during set-up (warm-up queries, dataset builds).
SETUP_RID = -1


class _ThreadState:
    __slots__ = ("name", "spans", "stack", "rid")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.rid: int | None = None


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: False while the benchmark does its own work (checks, inputs).
        self.recording = True
        #: Query seed -> request id, for wrappers on server threads; the
        #: request stream fills it as it draws requests.
        self.rid_by_seed: dict[int, int] = {}

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_rid(self, rid: int | None) -> None:
        """Attribute this thread's following spans to request *rid*."""
        self._state().rid = rid

    def wrap(self, fn, name: str, *, attrs=None, rid_from=None):
        """*fn* wrapped in a span called *name*.

        ``attrs(args, result)`` returns the span's attributes;
        ``rid_from(args)`` returns a query seed that names the request.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._state()
            if rid_from is not None:
                state.rid = tracer.rid_by_seed.get(rid_from(args))
            sid = next(tracer._ids)
            parent = state.stack[-1] if state.stack else 0
            state.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.stack.pop()
            state.spans.append(
                (sid, parent, name, state.rid, start, end,
                 attrs(args, result) if attrs is not None else None)
            )
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by uninstall)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def spans(self) -> list[dict]:
        """Every recorded span with its self time (duration minus children)."""
        with self._lock:
            states = list(self._states)
        out = []
        for state in states:
            child_time: dict[int, float] = defaultdict(float)
            for sid, parent, _, _, start, end, _ in state.spans:
                if parent:
                    child_time[parent] += end - start
            for sid, parent, name, rid, start, end, attrs in state.spans:
                out.append(
                    {
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "rid": rid,
                        "thread": state.name,
                        "start": start,
                        "end": end,
                        "self": (end - start) - child_time.get(sid, 0.0),
                        "attrs": attrs,
                    }
                )
        out.sort(key=lambda span: span["id"])
        return out

    def write(self, path, spans: list[dict]) -> None:
        """Write *spans* as JSON lines: a header of field names, then one
        array of values per span (a third of the size of one object each)."""
        fields = list(spans[0]) if spans else []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(fields) + "\n")
            for span in spans:
                fh.write(json.dumps([span[f] for f in fields]) + "\n")


def _sampled(args, result):
    members, indptr = result
    return {"sets": int(indptr.size - 1), "members": int(members.size)}


def _engine_run(args, result):
    return {
        "rounds": int(result.extras["rounds"]),
        "revenue": float(result.total_revenue),
        "bytes_per_rr_set": float(result.extras["memory"]["bytes_per_rr_set"]),
    }


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names are the layer names of the per-layer metrics; see
    NOTES.md for the table of which workload should move which layer.
    """
    from repro.api import session as session_module
    from repro.api.session import AllocationSession
    from repro.core.ti_engine import TIEngine
    from repro.experiments import datasets, grid
    from repro.rrset.collection import RRCollection, SharedRRCollection, SharedRRStore
    from repro.rrset.sampler import RRSampler
    from repro.rrset.tim import KPTEstimator
    from repro.serve.pool import SessionPool
    from repro.serve.server import ReproServer

    # The serve pool builds datasets through grid's by-name import.
    tracer.patch(datasets, "build_dataset", "datasets.build")
    tracer.patch(grid, "build_dataset", "datasets.build")
    tracer.patch(datasets.Dataset, "build_instance", "datasets.build_instance")
    tracer.patch(RRSampler, "sample_batch_flat", "rrset.sampler", attrs=_sampled)
    tracer.patch(KPTEstimator, "estimate", "rrset.tim.kpt")
    for cls in (RRCollection, SharedRRCollection):
        tracer.patch(cls, "best_node", "rrset.collection.select")
        tracer.patch(cls, "best_node_by_ratio", "rrset.collection.select")
        tracer.patch(
            cls, "mark_covered_by", "rrset.collection.cover",
            attrs=lambda args, result: {"covered": int(result)},
        )
    tracer.patch(RRCollection, "add_sets_flat", "rrset.collection.ingest")
    tracer.patch(SharedRRCollection, "adopt", "rrset.collection.ingest")
    tracer.patch(SharedRRStore, "extend_flat", "rrset.collection.ingest")
    tracer.patch(SharedRRStore, "sets_touching", "rrset.collection.invalidate")
    tracer.patch(SharedRRStore, "replace_sets", "rrset.collection.replace")
    tracer.patch(TIEngine, "run", "core.ti_engine", attrs=_engine_run)
    tracer.patch(AllocationSession, "solve", "api.session.solve")
    tracer.patch(AllocationSession, "apply_edge_updates", "api.session.apply")
    tracer.patch(session_module, "compile_updates", "graph.updates.compile")
    tracer.patch(
        ReproServer, "submit", "serve.submit",
        rid_from=lambda args: args[1].get("seed"),
    )
    tracer.patch(
        SessionPool, "lease", "serve.lease", rid_from=lambda args: args[1].seed
    )
