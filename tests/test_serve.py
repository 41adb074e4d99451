"""The serving layer: schema, session pool, daemon, client.

Covers the PR's acceptance criteria end to end:

* a repeated identical query is served warm (observable via ``/stats``)
  and byte-identical both to its cold first response and to a direct
  ``repro.solve``-path run of the same spec and seed;
* LRU eviction keeps the pool's measured bytes under the budget;
* admission backpressure (bounded queue → 429) and fault-seam rejects;
* graceful drain: in-flight queries finish, later ones get 503, every
  session closes, no shared-memory segments leak;
* PR 6 fault tolerance holds through the daemon (a worker killed
  mid-query recovers and the query still succeeds).
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import AllocationSession
from repro.errors import ServeError
from repro.experiments import datasets as datasets_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import clear_dataset_cache
from repro.experiments.grid import _cell_dataset, session_group_key
from repro.experiments.harness import run_algorithm, solve_cell
from repro.faults import FaultPlan, FaultRule, fault_plan
from repro.serve import (
    QueryRequest,
    ReproServer,
    ServeConfig,
    SessionPool,
    pool_key,
    result_payload,
)
from repro.serve import client as serve_client
from repro.serve import server as server_module
from tests.conftest import JSON_VALUES

#: Cheap estimator settings: every serve test solves tiny analogs.
CFG = ExperimentConfig(eps=1.0, theta_cap=150, singleton_rr_samples=400, seed=7)
ENTRY = {"name": "epinions_syn", "n": 80, "h": 2, "singleton_rr_samples": 400}
OTHER_ENTRY = {"name": "flixster_syn", "n": 80, "h": 2, "singleton_rr_samples": 400}
#: Dataset entries that pass the schema but that no builder accepts.
UNBUILDABLE_ENTRIES = [
    ({"name": "nope_syn"}, "InstanceError"),
    ({"path": "/nonexistent/edges.txt"}, "GraphError"),
    ({"name": "epinions_syn", "bogus_kw": 3}, "SpecError"),
    ({"name": "epinions_syn", "n": 1}, "GraphError"),
    ({"name": "epinions_syn", "n": "abc"}, "SpecError"),
]


@contextmanager
def running_server(**kwargs):
    """A started daemon with its solver loop on a background thread.

    (On a non-main thread the SIGALRM in-solve deadline degrades to the
    queue-deadline check only — exactly the documented fallback.)
    """
    kwargs.setdefault("config", CFG)
    server = ReproServer(ServeConfig(**kwargs))
    server.start()
    solver = threading.Thread(target=server.run, daemon=True)
    solver.start()
    try:
        yield server
    finally:
        server.begin_drain()
        solver.join(timeout=60)
        server.shutdown()
        assert not solver.is_alive()


def _comparable(payload: dict) -> dict:
    """A response minus its run-local fields (wall clock, provenance)."""
    return {k: v for k, v in payload.items() if k not in ("runtime_s", "serve")}


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_round_trip(self):
        request = QueryRequest.from_dict(
            {"dataset": dict(ENTRY), "algorithm": "TI-CARM", "budget": 50, "seed": 3}
        )
        assert QueryRequest.from_dict(request.to_dict()) == request
        assert request.budget == 50.0  # numbers normalize to float

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServeError, match="unknown query keys"):
            QueryRequest.from_dict({"dataset": dict(ENTRY), "eps": 0.1})

    def test_dataset_required(self):
        with pytest.raises(ServeError, match="'dataset'"):
            QueryRequest.from_dict({"algorithm": "TI-CSRM"})

    def test_invalid_axes_rejected(self):
        with pytest.raises(ServeError, match="unknown algorithm"):
            QueryRequest(dataset=dict(ENTRY), algorithm="NOPE")
        with pytest.raises(ServeError, match="unknown incentive model"):
            QueryRequest(dataset=dict(ENTRY), incentive_model="bribes")
        with pytest.raises(ServeError, match="alpha"):
            QueryRequest(dataset=dict(ENTRY), alpha=-1.0)
        with pytest.raises(ServeError, match="seed"):
            QueryRequest(dataset=dict(ENTRY), seed=True)
        with pytest.raises(ServeError, match="dataset"):
            QueryRequest(dataset="epinions_syn")

    @pytest.mark.parametrize(
        "entry", [{"path": 3}, {"name": 5}, {"name": "x", "path": None}]
    )
    def test_dataset_name_and_path_must_be_strings(self, entry):
        """An integer path would be opened as a file descriptor."""
        with pytest.raises(ServeError, match="must be a string"):
            QueryRequest.from_dict({"dataset": entry})

    def test_pool_key_matches_grid_session_grouping(self):
        """The serve pool key is the grid runner's session-group key:
        same dataset entry → same warm-sharing decision in both layers."""
        assert pool_key is session_group_key
        assert pool_key(ENTRY).startswith("epinions_syn@")
        assert pool_key(ENTRY) != pool_key({**ENTRY, "n": 81})
        assert pool_key(ENTRY) == pool_key(dict(ENTRY))  # content, not identity


_QUERY_KEYS = tuple(f.name for f in dataclasses.fields(QueryRequest))


@settings(max_examples=300, deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from(_QUERY_KEYS), JSON_VALUES, max_size=3),
    dropped=st.sets(st.sampled_from(_QUERY_KEYS), max_size=2),
    entry=st.dictionaries(
        st.sampled_from(("name", "path", "n", "h")), JSON_VALUES, max_size=2
    ),
)
def test_any_json_query_builds_or_raises_serve_error(overrides, dropped, entry):
    """Fuzz: any keys missing, any JSON on several keys at once, and any
    JSON in the dataset entry — a query builds or raises ServeError."""
    data = {"dataset": {**ENTRY, **entry}, "algorithm": "TI-CARM", "h": 2,
            "seed": 1, **overrides}
    for key in dropped:
        data.pop(key, None)
    try:
        request = QueryRequest.from_dict(data)
    except ServeError:
        return
    assert QueryRequest.from_dict(request.to_dict()) == request
    assert isinstance(request.pool_key, str)


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_lease_cold_then_warm(self):
        with SessionPool(CFG) as pool:
            request = QueryRequest(dataset=dict(ENTRY))
            entry, warm = pool.lease(request)
            assert not warm
            again, warm = pool.lease(request)
            assert warm and again is entry
            assert pool.counters["cold_misses"] == 1
            assert pool.counters["warm_hits"] == 1
        assert entry.session.is_closed

    def test_lru_eviction_under_byte_budget(self):
        """Measured bytes stay under the budget; LRU goes first and the
        just-served key survives when the budget allows it."""
        with SessionPool(CFG, bytes_budget=100) as pool:
            a, _ = pool.lease(QueryRequest(dataset=dict(ENTRY)))
            b, _ = pool.lease(QueryRequest(dataset=dict(OTHER_ENTRY)))
            a.store_bytes = 80
            b.store_bytes = 60  # 140 total: LRU (a) must go
            evicted = pool.evict_over_budget(protect=b.key)
            assert evicted == [a.key]
            assert a.session.is_closed and not b.session.is_closed
            assert pool.total_store_bytes() <= 100
            assert pool.counters["evictions"] == 1
            assert pool.counters["evicted_bytes"] == 80

    def test_protected_session_evicted_when_it_alone_busts_budget(self):
        with SessionPool(CFG, bytes_budget=50) as pool:
            entry, _ = pool.lease(QueryRequest(dataset=dict(ENTRY)))
            entry.store_bytes = 80
            assert pool.evict_over_budget(protect=entry.key) == [entry.key]
            assert len(pool) == 0 and entry.session.is_closed

    def test_max_sessions_cap(self):
        with SessionPool(CFG, max_sessions=1) as pool:
            a, _ = pool.lease(QueryRequest(dataset=dict(ENTRY)))
            b, _ = pool.lease(QueryRequest(dataset=dict(OTHER_ENTRY)))
            pool.evict_over_budget(protect=b.key)
            assert len(pool) == 1 and b.key in pool
            assert a.session.is_closed

    def test_evicted_sessions_free_their_datasets(self):
        """A session leaving the pool takes its dataset out of the build
        cache; the live session's dataset stays cached and warm."""
        clear_dataset_cache()
        with SessionPool(CFG, max_sessions=1) as pool:
            for n in (80, 90, 100, 110, 120):
                entry, warm = pool.lease(QueryRequest(dataset={**ENTRY, "n": n}))
                assert not warm
                entry.session.solve(entry.dataset.build_instance(), "TI-CSRM")
                pool.release(entry.key)
            assert len(pool) == 1 and pool.counters["evictions"] == 4
            cached = list(datasets_module._CACHE.values())
            assert len(cached) == 1 and cached[0] is entry.dataset
            before = entry.session.stats["sets_sampled"]
            again, warm = pool.lease(QueryRequest(dataset={**ENTRY, "n": 120}))
            assert warm and again is entry
            again.session.solve(again.dataset.build_instance(), "TI-CSRM")
            assert again.session.stats["sets_sampled"] == before
        assert not datasets_module._CACHE

    def test_discard_quarantines(self):
        with SessionPool(CFG) as pool:
            entry, _ = pool.lease(QueryRequest(dataset=dict(ENTRY)))
            pool.discard(entry.key)
            assert entry.session.is_closed
            assert pool.counters["discards"] == 1
            fresh, warm = pool.lease(QueryRequest(dataset=dict(ENTRY)))
            assert not warm and fresh.session is not entry.session

    def test_mutated_session_never_served_warm(self):
        """A pooled session whose graph was mutated is stale: its pool
        key still names the *original* dataset entry, so answering from
        it would return allocations for a graph the client never asked
        about.  ``lease`` must discard it and reopen cold
        (docs/ARCHITECTURE.md §14)."""
        with SessionPool(CFG) as pool:
            request = QueryRequest(dataset=dict(ENTRY))
            entry, _ = pool.lease(request)
            # Mutate the pooled session out from under the pool (any
            # holder of the session object can: leases are not copies).
            tails, heads = entry.dataset.graph.edge_array()
            entry.session.apply_edge_updates(
                [("delete", int(tails[0]), int(heads[0]))]
            )
            assert entry.session.graph_epoch == 1
            fresh, warm = pool.lease(request)
            assert not warm
            assert fresh.session is not entry.session
            assert entry.session.is_closed
            assert fresh.session.graph_epoch == 0
            assert pool.counters["stale_discards"] == 1
            assert pool.counters["warm_hits"] == 0
            # The replacement is genuinely healthy: it serves warm next.
            again, warm = pool.lease(request)
            assert warm and again.session is fresh.session

    def test_mutated_session_reopens_on_the_same_dataset(self, tmp_path):
        """A warm grid's dynamic cells each reopen their group's session;
        an edge-list dataset must not be re-parsed for every one."""
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import save_edge_list

        path = tmp_path / "el.txt"
        save_edge_list(erdos_renyi(60, 0.08, seed=6), str(path))
        request = QueryRequest(dataset={"path": str(path), "h": 2, "seed": 5})
        with SessionPool(CFG) as pool:
            entry, _ = pool.lease(request)
            tails, heads = entry.dataset.graph.edge_array()
            entry.session.apply_edge_updates(
                [("delete", int(tails[0]), int(heads[0]))]
            )
            fresh, warm = pool.lease(request)
        assert not warm and fresh.session is not entry.session
        assert fresh.dataset is entry.dataset

    def test_closed_pool_refuses_leases(self):
        pool = SessionPool(CFG)
        pool.close()
        pool.close()  # idempotent
        assert pool.is_closed
        with pytest.raises(ServeError, match="closed"):
            pool.lease(QueryRequest(dataset=dict(ENTRY)))

    def test_stats_json_serializable(self):
        with SessionPool(CFG, bytes_budget=10**9) as pool:
            pool.lease(QueryRequest(dataset=dict(ENTRY)))
            json.dumps(pool.stats())

    def test_budget_validation(self):
        with pytest.raises(ServeError, match="bytes_budget"):
            SessionPool(CFG, bytes_budget=0)
        with pytest.raises(ServeError, match="max_sessions"):
            SessionPool(CFG, max_sessions=0)


# ----------------------------------------------------------------------
# Daemon integration (HTTP, warm hits, bit-identity)
# ----------------------------------------------------------------------
class TestServerIntegration:
    def test_warm_hit_and_bit_identical_to_direct_solve(self):
        """Acceptance: the repeated query is served warm (per /stats),
        identically to its first response, and both match a direct
        solve of the same spec and seed byte for byte."""
        with running_server() as server:
            addr = server.address
            axes = dict(dataset=dict(ENTRY), algorithm="TI-CSRM", seed=11)
            first = serve_client.query(addr, **axes)
            second = serve_client.query(addr, **axes)
            stats = serve_client.stats(addr)
            health = serve_client.healthz(addr)

        assert first["serve"]["warm_session"] is False
        assert second["serve"]["warm_session"] is True
        assert second["serve"]["sets_sampled"] == 0  # fully reused the stores
        assert _comparable(first) == _comparable(second)

        assert stats["pool"]["warm_hits"] >= 1
        assert stats["serve"]["warm_hit_rate"] > 0
        assert stats["serve"]["queries_served"] == 2
        assert health["status"] == "ok"
        json.dumps(stats)  # the whole payload is JSON-clean end to end

        # Sessions solve on the shared-store path, so the reference run
        # is the same config with share_samples=True (the documented
        # session contract; see test_api_session.py).
        dataset = _cell_dataset(dict(ENTRY), memo={})
        instance = dataset.build_instance(incentive_model="linear", alpha=1.0)
        direct = run_algorithm(
            "TI-CSRM",
            dataset,
            instance,
            dataclasses.replace(CFG, share_samples=True),
            seed=11,
        )
        assert direct.allocation.seed_sets() == first["allocation"]
        assert [float(r) for r in direct.revenue_per_ad] == first["revenue_per_ad"]
        assert [float(c) for c in direct.seeding_cost_per_ad] == (
            first["seeding_cost_per_ad"]
        )

    def test_concurrent_clients_identical_responses(self):
        """Parallel identical queries serialize onto one warm session and
        all get the same bytes back."""
        with running_server() as server:
            addr = server.address
            results: list[dict] = []
            errors: list[Exception] = []

            def hit():
                try:
                    results.append(
                        serve_client.query(
                            addr, dataset=dict(ENTRY), algorithm="TI-CSRM", seed=5
                        )
                    )
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = serve_client.stats(addr)

        assert not errors
        assert len(results) == 4
        reference = _comparable(results[0])
        assert all(_comparable(r) == reference for r in results[1:])
        assert stats["pool"]["warm_hits"] >= 3
        assert stats["pool"]["session_count"] == 1

    def test_lru_eviction_through_the_server(self):
        """A 1-byte budget forces every session out after its query:
        measured bytes stay under budget, queries still succeed."""
        with running_server(bytes_budget=1) as server:
            addr = server.address
            first = serve_client.query(addr, dataset=dict(ENTRY), seed=3)
            second = serve_client.query(addr, dataset=dict(ENTRY), seed=3)
            stats = serve_client.stats(addr)

        assert first["serve"]["evicted"] == [first["serve"]["pool_key"]]
        # The evicted session cannot serve warm; the re-query went cold.
        assert second["serve"]["warm_session"] is False
        assert _comparable(first) == _comparable(second)  # eviction ≠ drift
        assert stats["pool"]["evictions"] == 2
        assert stats["pool"]["total_store_bytes"] <= 1
        assert stats["pool"]["session_count"] == 0

    def test_bad_queries_rejected_not_crashing(self):
        with running_server() as server:
            addr = server.address
            status, payload = serve_client.request(
                addr, "/solve", {"dataset": dict(ENTRY), "algorithm": "NOPE"}
            )
            assert (status, payload["error_type"]) == (400, "ServeError")
            status, payload = serve_client.request(addr, "/nope", {})
            assert status == 404
            # The client fail-fasts the same validation before sending.
            with pytest.raises(ServeError, match="unknown algorithm"):
                serve_client.query(addr, dataset=dict(ENTRY), algorithm="NOPE")
            # The daemon still serves after rejections.
            ok = serve_client.query(addr, dataset=dict(ENTRY), seed=2)
            assert ok["status"] == "ok"

    def test_unbuildable_query_keeps_warm_session(self):
        """A query whose marketplace cannot be built answers 400 and
        leaves its warm session pooled.  Non-finite numbers arrive as the
        bare NaN/Infinity literals (json.dumps writes them, and the
        daemon's parser accepts them); an alpha of 1e12 passes the schema
        but no incentive fits any budget.  None of them discards the
        session, so the next valid query is a warm hit sampling 0 sets."""
        with running_server() as server:
            addr = server.address
            axes = dict(dataset=dict(ENTRY), seed=4)
            first = serve_client.query(addr, **axes)
            for bad in (
                {"alpha": float("nan")},
                {"alpha": 1e12},
                {"cpe": float("nan")},
                {"budget": float("inf")},
            ):
                status, payload = serve_client.request(
                    addr, "/solve", {**axes, **bad}
                )
                assert status == 400, (bad, payload)
            stats = serve_client.stats(addr)
            again = serve_client.query(addr, **axes)
        assert stats["pool"]["discards"] == 0
        assert again["serve"]["warm_session"] is True
        assert again["serve"]["sets_sampled"] == 0
        assert _comparable(again) == _comparable(first)

    def test_answer_follows_pool_key_solve_history(self):
        """A seed-2 query after a seed-1 query on the same pool key adopts
        the RR sets the seed-1 query drew: it returns the seed-1
        allocation, exactly as a fresh session replaying seeds [1, 2] in
        solve_index order does."""
        axes = dict(dataset=dict(ENTRY), algorithm="TI-CSRM")
        with running_server() as server:
            first = serve_client.query(server.address, seed=1, **axes)
            second = serve_client.query(server.address, seed=2, **axes)

        assert second["serve"]["solve_index"] == 1
        assert second["allocation"] == first["allocation"]

        dataset = _cell_dataset(dict(ENTRY), memo={})
        instance = dataset.build_instance(incentive_model="linear", alpha=1.0)
        with AllocationSession(
            dataset.graph, spec=CFG.engine_spec(opt_lower="kpt")
        ) as session:
            replay = [
                run_algorithm(
                    "TI-CSRM", dataset, instance, CFG, seed=seed, session=session
                )
                for seed in (1, 2)
            ]
        request = QueryRequest.from_dict({**axes, "seed": 2})
        replayed = result_payload(request, replay[1], effective_seed=2)
        assert _comparable(json.loads(json.dumps(replayed))) == _comparable(second)


    def test_served_answers_equal_the_solve_step_on_a_fresh_session(self):
        """On two pool keys, each served answer is the shared solve
        step's result for the same cell and seed on a fresh session,
        byte for byte through result_payload (a repeated query too)."""
        queries = [
            {"dataset": dict(ENTRY), "algorithm": "TI-CARM", "seed": 11},
            {"dataset": dict(OTHER_ENTRY), "algorithm": "TI-CSRM", "h": 1,
             "cpe": 1.5, "window": 3, "alpha": 0.5, "seed": 12},
            {"dataset": dict(ENTRY), "algorithm": "TI-CARM", "seed": 11},
        ]
        with running_server() as server:
            served = [
                serve_client.request(server.address, "/solve", query)
                for query in queries
            ]
        assert [payload["serve"]["warm_session"] for _, payload in served] == [
            False, False, True
        ]
        for query, (status, payload) in zip(queries, served):
            assert status == 200, payload
            request = QueryRequest.from_dict(query)
            dataset = _cell_dataset(request.dataset, memo={})
            with AllocationSession(
                dataset.graph, spec=CFG.engine_spec(opt_lower="kpt")
            ) as session:
                result, _ = solve_cell(request, dataset, CFG, request.seed, session)
            local = result_payload(request, result, effective_seed=request.seed)
            assert json.dumps(_comparable(local), sort_keys=True) == json.dumps(
                _comparable(payload), sort_keys=True
            )


class TestHostileQueries:
    """A query's dataset entry names files and its axes reach the engine;
    none may close, hang or read the daemon's files, or overspend."""

    def test_integer_path_cannot_close_the_listening_socket(self):
        """Over HTTP, as a client would send it; open() takes an integer
        path as a file descriptor, here the daemon's listening socket."""
        with running_server() as server:
            status, payload = serve_client.request(
                server.address, "/solve",
                {"dataset": {"path": server._http.fileno()}}, timeout=30,
            )
            assert (status, payload["error_type"]) == (400, "ServeError")
            ok = serve_client.query(server.address, dataset=dict(ENTRY), seed=1)
        assert ok["status"] == "ok"

    def test_device_path_refused_unread(self):
        with running_server() as server:
            status, payload = server.submit({"dataset": {"path": "/dev/null"}})
        assert (status, payload["error_type"]) == (400, "GraphError")
        assert "not a regular file" in payload["error"]

    def test_edge_list_error_does_not_echo_the_file(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("api-key-1234 do-not-share\n")
        with running_server() as server:
            status, payload = server.submit({"dataset": {"path": str(secret)}})
        assert (status, payload["error_type"]) == (400, "GraphError")
        assert "api-key" not in json.dumps(payload)

    def test_overflowing_cpe_answers_400_and_keeps_the_session(self):
        """cpe · n overflows for cpe 1e308: the first payment would be
        inf · 0 = NaN, which no budget check refuses."""
        axes = {"dataset": dict(ENTRY), "seed": 4}
        with running_server() as server:
            _, first = server.submit(axes)
            status, payload = server.submit({**axes, "cpe": 1e308})
            _, again = server.submit(axes)
            discards = server.pool.counters["discards"]
        assert (status, payload["error_type"]) == (400, "InstanceError")
        assert discards == 0
        assert again["serve"]["warm_session"] is True
        assert again["serve"]["sets_sampled"] == 0
        assert _comparable(again) == _comparable(first)


def _raw_post(address: str, body: bytes, *, length: str, wait: float = 10.0):
    """``POST /solve`` with a hand-written ``Content-Length``, over a raw
    socket; ``(status, payload)``, or ``None`` if the daemon closed the
    connection unanswered.  Raises ``TimeoutError`` when no answer and no
    close came within *wait* seconds."""
    host, port = address.rsplit(":", 1)
    head = (
        f"POST /solve HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode()
    with socket.create_connection((host, int(port)), timeout=wait) as sock:
        sock.sendall(head + body)
        response = http.client.HTTPResponse(sock)
        try:
            response.begin()
        except http.client.RemoteDisconnected:
            return None
        return response.status, json.loads(response.read())


class TestHttpLimits:
    """The HTTP shim bounds what a client can make a handler thread do:
    every request below is answered, or its connection closed, within
    the read timeout, and the daemon answers ``/healthz`` afterwards."""

    @pytest.fixture(autouse=True)
    def _short_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.5)

    def test_bad_content_length_answers_400(self):
        with running_server() as server:
            for length in ("-1", "abc"):
                status, payload = _raw_post(server.address, b"{}", length=length)
                assert (status, payload["error_type"]) == (400, "BadRequest")
                assert "Content-Length" in payload["error"]
            assert serve_client.healthz(server.address)["status"] == "ok"

    def test_oversized_body_answers_413_unread(self):
        with running_server() as server:
            declared = server_module.MAX_BODY_BYTES + 1
            status, payload = _raw_post(server.address, b"{}", length=str(declared))
            assert (status, payload["error_type"]) == (413, "PayloadTooLarge")
            assert serve_client.healthz(server.address)["status"] == "ok"

    def test_short_body_closed_after_the_read_timeout(self):
        """10 bytes declared, 2 sent: the handler's read times out and
        closes the connection instead of waiting forever."""
        with running_server() as server:
            started = time.monotonic()
            assert _raw_post(server.address, b"{}", length="10", wait=5.0) is None
            assert time.monotonic() - started < 5.0
            assert serve_client.healthz(server.address)["status"] == "ok"

    def test_deep_json_answers_400(self):
        body = b"[" * 20_000 + b"]" * 20_000
        assert len(body) <= server_module.MAX_BODY_BYTES
        with running_server() as server:
            status, payload = _raw_post(server.address, body, length=str(len(body)))
            assert (status, payload["error_type"]) == (400, "BadRequest")
            assert serve_client.healthz(server.address)["status"] == "ok"


class _RaisingPlan:
    """A fault plan whose ``serve.delay`` seam raises once, when armed."""

    def __init__(self) -> None:
        self.armed = False

    def fire(self, seam, key=None):
        if seam == "serve.delay" and self.armed:
            self.armed = False
            raise RuntimeError(f"{seam} failed")
        return None


class TestSolverLoopSurvives:
    """Whatever raises before the lease answers its query 500, counts one
    solve error, and the solver loop goes on to the next query; the
    query leased nothing, so the warm session stays pooled."""

    @staticmethod
    def _submit_within(server, query, wait: float = 30.0):
        outcome: list = []
        thread = threading.Thread(
            target=lambda: outcome.append(server.submit(query)), daemon=True
        )
        thread.start()
        thread.join(wait)
        assert outcome, "query never answered: the solver loop stopped"
        return outcome[0]

    def _check(self, server, arm):
        """A warm-up query, one that raises once *arm* has run, then a
        warm hit on the session the warm-up opened."""
        query = {"dataset": dict(ENTRY), "seed": 1}
        assert self._submit_within(server, query)[0] == 200
        arm()
        status, payload = self._submit_within(server, query)
        assert (status, payload["error_type"]) == (500, "RuntimeError")
        assert server.counters["solve_errors"] == 1
        status, payload = self._submit_within(server, query)
        assert status == 200 and payload["serve"]["warm_session"] is True
        assert server.pool.counters["discards"] == 0

    def test_pool_key_raising_answers_500(self, monkeypatch):
        original = QueryRequest.pool_key
        failures: list[Exception] = []

        def pool_key(request):
            if failures:
                raise failures.pop()
            return original.fget(request)

        monkeypatch.setattr(QueryRequest, "pool_key", property(pool_key))
        with running_server() as server:
            self._check(
                server, lambda: failures.append(RuntimeError("pool key unreadable"))
            )

    def test_fault_seam_raising_answers_500(self, monkeypatch):
        plan = _RaisingPlan()
        monkeypatch.setattr(server_module._faults, "active_fault_plan", lambda: plan)
        with running_server() as server:
            self._check(server, lambda: setattr(plan, "armed", True))


# ----------------------------------------------------------------------
# Admission: backpressure, fault seams, drain
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_backpressure(self):
        """queue_size=1 with a stalled solver: the first query is being
        solved, the second waits, the third bounces 429."""
        plan = FaultPlan(
            [FaultRule(seam="serve.delay", at=0, delay_s=2.0)], seed=0
        )
        with running_server(queue_size=1) as server, fault_plan(plan):
            statuses: list[int] = []

            def hit():
                status, _ = serve_client.request(
                    server.address, "/solve", {"dataset": dict(ENTRY), "seed": 1}
                )
                statuses.append(status)

            first = threading.Thread(target=hit)
            first.start()
            deadline = time.monotonic() + 5
            while (
                plan.stats.get("serve.delay", {}).get("arrivals", 0) < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)  # solver dequeued the first query: stalled
            second = threading.Thread(target=hit)
            second.start()
            deadline = time.monotonic() + 5
            while server._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)  # second query parked in the queue
            status, payload = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert (status, payload["error_type"]) == (429, "QueueFull")
            first.join(timeout=60)
            second.join(timeout=60)
            assert statuses == [200, 200]
            assert server.counters["admission_rejects"] == 1

    def test_delay_seam_leaves_stats_answering(self):
        """The ``serve.delay`` stall sleeps outside the pool lock, so
        ``/stats`` answers while the solver is stalled."""
        plan = FaultPlan(
            [FaultRule(seam="serve.delay", at=0, delay_s=2.0)], seed=0
        )
        with running_server() as server, fault_plan(plan):
            query = {"dataset": dict(ENTRY), "seed": 1}
            stalled = threading.Thread(target=lambda: server.submit(query))
            stalled.start()
            deadline = time.monotonic() + 5
            while (
                plan.stats.get("serve.delay", {}).get("arrivals", 0) < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)  # solver dequeued the query: stalled
            started = time.monotonic()
            server.stats_payload()
            assert time.monotonic() - started < 1.0
            stalled.join(timeout=60)
            assert not stalled.is_alive()

    def test_serve_reject_fault_seam(self):
        plan = FaultPlan([FaultRule(seam="serve.reject", at=0)], seed=0)
        with running_server() as server, fault_plan(plan):
            status, payload = server.submit({"dataset": dict(ENTRY)})
            assert (status, payload["error_type"]) == (429, "AdmissionRejected")
            ok_status, _ = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert ok_status == 200  # only the tagged arrival is rejected

    def test_queue_deadline_times_out_stale_queries(self):
        """A query that overstays its deadline waiting is answered 504
        without burning solver time."""
        server = ReproServer(
            ServeConfig(config=CFG, query_timeout_s=0.05, max_queries=1)
        )
        outcome: list[tuple[int, dict]] = []
        submitter = threading.Thread(
            target=lambda: outcome.append(server.submit({"dataset": dict(ENTRY)}))
        )
        submitter.start()
        deadline = time.monotonic() + 5
        while server._queue.qsize() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # let the queued query expire before solving starts
        server.run()  # processes one job, then drains (max_queries=1)
        submitter.join(timeout=10)
        (status, payload), = outcome
        assert (status, payload["error_type"]) == (504, "QueryTimeout")
        assert server.counters["query_timeouts"] == 1
        assert server.drained and server.pool.is_closed

    def test_graceful_drain(self):
        """In-flight queries finish; post-drain queries get 503; the pool
        closes with its sessions."""
        with running_server() as server:
            addr = server.address
            ok = serve_client.query(addr, dataset=dict(ENTRY), seed=1)
            assert ok["status"] == "ok"
            pool = server.pool
            server.begin_drain()
            status, payload = serve_client.request(
                addr, "/solve", {"dataset": dict(ENTRY)}
            )
            assert (status, payload["error_type"]) == (503, "Draining")
            assert serve_client.healthz(addr)["status"] == "draining"
        assert server.drained
        assert pool.is_closed
        assert server.counters["draining_rejects"] >= 1
        # Idempotent shutdown.
        server.shutdown()
        server.close()

    def test_max_queries_self_drain(self):
        with running_server(max_queries=1) as server:
            addr = server.address
            ok = serve_client.query(addr, dataset=dict(ENTRY), seed=1)
            assert ok["status"] == "ok"
            deadline = time.monotonic() + 10
            while not server.drained and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.drained and server.pool.is_closed


# ----------------------------------------------------------------------
# Fault tolerance through the daemon (PR 6 machinery)
# ----------------------------------------------------------------------
class TestServeFaultTolerance:
    def test_worker_killed_mid_query_recovers(self):
        """A worker killed during a served query is respawned and the
        query succeeds — supervision holds through the serving layer —
        and the drain leaves no shared-memory segments behind."""
        parallel = dataclasses.replace(CFG, workers=2)
        plan = FaultPlan([FaultRule(seam="worker.kill", at=0)], seed=3)
        with running_server(config=parallel) as server, fault_plan(plan):
            payload = serve_client.query(
                server.address, dataset=dict(ENTRY), seed=9
            )
            stats = serve_client.stats(server.address)
        assert payload["status"] == "ok"
        (row,) = stats["pool"]["sessions"]
        assert row["session"]["worker_respawns"] >= 1
        assert server.pool.is_closed  # drained: the pool released its SHM

    def test_solve_error_quarantines_session(self):
        """An unexpected solve failure answers 500, the session is
        discarded, and the next query reopens cold and succeeds."""
        with running_server() as server:
            ok_status, ok = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert ok_status == 200
            # Poison the pooled session behind the server's back: the
            # next warm lease blows up mid-solve (AllocationError).
            (entry,) = server.pool.entries()
            entry.session.close()
            status, payload = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert status == 500
            assert payload["status"] == "error"
            assert server.pool.counters["discards"] == 1
            again_status, again = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert again_status == 200
            assert again["serve"]["warm_session"] is False  # reopened cold
            assert _comparable(ok) == _comparable(again)

    def test_dataset_build_failure_is_a_clean_error(self):
        with running_server() as server:
            status, payload = server.submit(
                {"dataset": {**ENTRY, "bogus_option": 1}}
            )
            assert status == 400
            assert payload["status"] == "error"
            assert payload["error_type"] == "SpecError"
            assert "bogus_option" in payload["error"]
            ok_status, _ = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert ok_status == 200  # the daemon survived the bad build

    def test_unbuildable_dataset_entries_answer_400(self):
        """A dataset entry no builder accepts is query input: it answers
        400 with its typed error, and a warm key stays warm."""
        with running_server() as server:
            first_status, first = server.submit({"dataset": dict(ENTRY), "seed": 1})
            assert first_status == 200
            for entry, error_type in UNBUILDABLE_ENTRIES:
                status, payload = server.submit({"dataset": entry, "seed": 1})
                assert (status, payload["error_type"]) == (400, error_type), payload
            again_status, again = server.submit({"dataset": dict(ENTRY), "seed": 1})
            counters = dict(server.counters)
        assert again_status == 200
        assert again["serve"]["warm_session"] is True
        assert again["serve"]["sets_sampled"] == 0
        assert _comparable(again) == _comparable(first)
        assert counters["solve_errors"] == len(UNBUILDABLE_ENTRIES)


# ----------------------------------------------------------------------
# Client plumbing
# ----------------------------------------------------------------------
class TestClient:
    def test_addr_parsing(self):
        from repro.serve.client import _split_addr

        assert _split_addr("127.0.0.1:8642") == ("127.0.0.1", 8642)
        assert _split_addr("http://localhost:80/") == ("localhost", 80)
        with pytest.raises(ServeError, match="host:port"):
            _split_addr("nonsense")

    def test_unreachable_daemon(self):
        with pytest.raises(ServeError, match="cannot reach"):
            serve_client.healthz("127.0.0.1:9", timeout=0.5)

    def test_client_validates_before_sending(self):
        with pytest.raises(ServeError, match="unknown algorithm"):
            serve_client.query("127.0.0.1:9", dataset=dict(ENTRY), algorithm="NOPE")
