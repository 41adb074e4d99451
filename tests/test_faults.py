"""Chaos suite: deterministic fault injection across the execution layer.

Exercises the fault-tolerance contract of docs/ARCHITECTURE.md §11 with
:mod:`repro.faults` plans instead of real resource exhaustion:

* a worker killed mid-batch is respawned and the batch's output stays
  bit-identical per ``(seed, workers)``;
* a pool past its respawn budget degrades its backends to in-process
  execution of the same shard plan, still bit-identical;
* a pool whose shared memory cannot be created degrades
  ``EngineWarmState.make_sampler`` the same way, and a state whose pool
  failed never builds another — sessions report it on every later
  solve;
* a worker process that cannot start degrades the solve the same way,
  whether the pool is being built or replacing a crashed worker;
* a hung worker (injected shard delay) trips the heartbeat supervisor;
* grid cells that raise or time out are quarantined as typed manifest
  rows, retried with backoff, and re-attempted on resume;
* a poisoned warm session group is torn down without leaking its pool.

The worker count honours ``REPRO_TEST_WORKERS`` (default 2), as in
``test_rrset_backend.py``.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import subprocess
import sys
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

import repro
from repro.api import EngineSpec
from repro.api.session import AllocationSession
from repro.core.ti_engine import EngineWarmState
from repro.errors import (
    CellTimeoutError,
    EstimationError,
    FaultInjectedError,
    PoolDegradedError,
    SpecError,
)
from repro.experiments.datasets import build_dataset
from repro.experiments.grid import (
    GridSpec,
    load_manifest,
    run_grid,
)
from repro.faults import (
    FaultPlan,
    FaultRule,
    active_fault_plan,
    fault_plan,
    install_fault_plan,
)
from repro.graph.generators import powerlaw_configuration
from repro.rrset import backend as backend_module
from repro.rrset.backend import (
    FAULT_COUNTER_KEYS,
    ParallelBackend,
    SharedGraphPool,
    reap_orphan_shm,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2") or 2)
#: Chaos tests need a real pool, so never fewer than two workers.
POOL_WORKERS = max(WORKERS, 2)

GRID = {
    "name": "chaos",
    "datasets": [
        {"name": "epinions_syn", "n": 120, "h": 2, "singleton_rr_samples": 400}
    ],
    "algorithms": ["TI-CSRM"],
    "alphas": [0.5, 1.0],
    "seed": 11,
    "config": {"eps": 1.0, "theta_cap": 120},
}


@pytest.fixture(autouse=True)
def _clean_state():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


@pytest.fixture(scope="module")
def mid_graph():
    g = powerlaw_configuration(300, mean_degree=5.0, exponent=2.2, seed=5)
    probs = np.random.default_rng(5).random(g.m) * 0.3
    return g, probs


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_s"}


# ----------------------------------------------------------------------
# FaultPlan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(SpecError, match="unknown fault seam"):
            FaultRule(seam="nope")
        with pytest.raises(SpecError, match="at >= 0"):
            FaultRule(seam="cell.raise", at=-1)
        with pytest.raises(SpecError, match="count >= 1"):
            FaultRule(seam="cell.raise", count=0)
        with pytest.raises(SpecError, match="probability"):
            FaultRule(seam="cell.raise", probability=1.5)
        with pytest.raises(SpecError, match="delay_s"):
            FaultRule(seam="shard.delay", delay_s=-1.0)
        with pytest.raises(SpecError, match="must be FaultRule"):
            FaultPlan(["worker.kill"])

    def test_ordinal_window(self):
        plan = FaultPlan([FaultRule(seam="cell.raise", at=1, count=2)])
        fired = [plan.fire("cell.raise") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_key_restricts_but_ordinals_stay_global(self):
        plan = FaultPlan([FaultRule(seam="cell.raise", at=0, count=2, key="b")])
        # Arrival 0 has the wrong key; arrival 1 (inside the window)
        # matches; arrival 2 is past the window even with the right key.
        assert plan.fire("cell.raise", key="a") is None
        assert plan.fire("cell.raise", key="b") is not None
        assert plan.fire("cell.raise", key="b") is None

    def test_probabilistic_rules_replay_after_reset(self):
        plan = FaultPlan(
            [FaultRule(seam="cell.raise", probability=0.5)], seed=123
        )
        first = [plan.fire("cell.raise") is not None for _ in range(32)]
        plan.reset()
        second = [plan.fire("cell.raise") is not None for _ in range(32)]
        assert first == second
        assert any(first) and not all(first)  # actually Bernoulli

    def test_maybe_raise_and_stats(self):
        plan = FaultPlan([FaultRule(seam="cell.raise", at=0, message="boom")])
        with pytest.raises(FaultInjectedError, match="boom"):
            plan.maybe_raise("cell.raise")
        plan.maybe_raise("cell.raise")  # window passed: no-op
        assert plan.stats == {"cell.raise": {"arrivals": 2, "fired": 1}}

    def test_unknown_seam_rejected_at_fire_time(self):
        with pytest.raises(SpecError, match="unknown fault seam"):
            FaultPlan().fire("nope")

    def test_install_and_scoped_restore(self):
        assert active_fault_plan() is None
        plan = FaultPlan()
        with fault_plan(plan) as installed:
            assert installed is plan and active_fault_plan() is plan
            inner = FaultPlan()
            with fault_plan(inner):
                assert active_fault_plan() is inner
            assert active_fault_plan() is plan
        assert active_fault_plan() is None
        with pytest.raises(SpecError, match="FaultPlan"):
            install_fault_plan("not a plan")


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
def _healthy(mid_graph, count=400, seed=21):
    """The reference batch: a fault-free pool's output for *seed*."""
    g, probs = mid_graph
    with SharedGraphPool(g, POOL_WORKERS) as pool:
        backend = ParallelBackend(g, probs, pool=pool)
        return backend.sample_batch_flat(count, np.random.default_rng(seed))


def _assert_same_batch(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


class TestWorkerSupervision:
    def test_killed_worker_respawns_bit_identically(self, mid_graph):
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        plan = FaultPlan([FaultRule(seam="worker.kill", at=0)])
        with SharedGraphPool(g, POOL_WORKERS, faults=plan) as pool:
            out = ParallelBackend(g, probs, pool=pool).sample_batch_flat(
                400, np.random.default_rng(21)
            )
            assert not pool.failed
            assert pool.counters["worker_respawns"] >= 1
            assert pool.counters["shards_recovered"] >= 1
            assert pool.counters["pool_degraded"] == 0
        assert plan.stats["worker.kill"]["fired"] == 1
        _assert_same_batch(reference, out)

    def test_respawn_budget_exhaustion_degrades_bit_identically(self, mid_graph):
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        # Every dispatched shard is killed, so the pool burns through its
        # respawn budget and must declare itself unrecoverable.
        plan = FaultPlan([FaultRule(seam="worker.kill", at=0, count=10_000)])
        with SharedGraphPool(g, POOL_WORKERS, faults=plan) as pool:
            backend = ParallelBackend(g, probs, pool=pool)
            out = backend.sample_batch_flat(400, np.random.default_rng(21))
            assert pool.failed
            assert pool.counters["pool_degraded"] == 1
            # Degraded mode keeps working, stays deterministic, and
            # counts the degradation once.
            again = backend.sample_batch_flat(400, np.random.default_rng(21))
            assert pool.counters["pool_degraded"] == 1
        _assert_same_batch(reference, out)
        _assert_same_batch(out, again)

    def test_failed_pool_raises_for_other_users(self, mid_graph):
        g, probs = mid_graph
        plan = FaultPlan([FaultRule(seam="worker.kill", at=0, count=10_000)])
        pool = SharedGraphPool(
            g, POOL_WORKERS, max_respawns=POOL_WORKERS, faults=plan
        )
        try:
            name = pool.register_probs(probs)
            seqs = np.random.SeedSequence(1).spawn(2)
            with pytest.raises(PoolDegradedError):
                pool.sample_shards(name, [5, 5], seqs)
            assert pool.failed
            # A failed pool refuses new batches and new probability
            # vectors instead of hanging or creating blocks.
            with pytest.raises(PoolDegradedError):
                pool.sample_shards(name, [5, 5], seqs)
            with pytest.raises(PoolDegradedError):
                pool.register_probs(probs * 0.5)
        finally:
            pool.close()

    def test_shm_attach_failure_degrades_to_serial_plan(self, mid_graph):
        """A pool that cannot be built degrades ``make_sampler``: one
        ``pool_degraded``, no pool, and a healthy pool's exact output."""
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        warm = EngineWarmState()
        try:
            with fault_plan(FaultPlan([FaultRule(seam="shm.attach", at=0)])):
                backend = warm.make_sampler(g, probs, POOL_WORKERS)
                other = warm.make_sampler(g, probs * 0.5, POOL_WORKERS)
            assert warm.degraded and warm.pool is None
            assert warm.counters["pool_degraded"] == 1
            assert isinstance(other, ParallelBackend)
            out = backend.sample_batch_flat(400, np.random.default_rng(21))
        finally:
            warm.close()
        _assert_same_batch(reference, out)

    def test_unpublishable_probs_fail_the_pool(self, mid_graph):
        """A probability block that cannot be created fails the whole
        pool, so the state's one predicate sees it; the batch still
        equals a healthy pool's."""
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        warm = EngineWarmState()
        try:
            # Arrivals 0 and 1 are the pool's topology blocks; 2 is the
            # first probability vector.
            with fault_plan(FaultPlan([FaultRule(seam="shm.attach", at=2)])):
                backend = warm.make_sampler(g, probs, POOL_WORKERS)
                assert warm.pool is not None and not warm.degraded
                out = backend.sample_batch_flat(400, np.random.default_rng(21))
            assert warm.pool.failed and warm.degraded
            assert warm.counters["pool_degraded"] == 1
        finally:
            warm.close()
        _assert_same_batch(reference, out)

    def test_failed_pool_is_never_rebuilt(self, mid_graph):
        """After a pool has failed, the next sampler starts degraded and
        builds no pool — also after ``close_pool``, as a graph mutation
        calls it."""
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        warm = EngineWarmState()
        try:
            plan = FaultPlan([FaultRule(seam="worker.kill", at=0, count=10_000)])
            with fault_plan(plan):
                first = warm.make_sampler(g, probs, POOL_WORKERS)
                first.sample_batch_flat(50, np.random.default_rng(3))
            assert warm.degraded and warm.pool.failed
            warm.close_pool()
            assert warm.degraded
            live = set(backend_module._LIVE_POOLS)
            later = warm.make_sampler(g, probs, POOL_WORKERS)
            assert warm.pool is None
            assert set(backend_module._LIVE_POOLS) <= live
            out = later.sample_batch_flat(400, np.random.default_rng(21))
            assert warm.counters["pool_degraded"] == 1
        finally:
            warm.close()
        _assert_same_batch(reference, out)

    def test_hung_worker_trips_heartbeat(self, mid_graph):
        g, probs = mid_graph
        reference = _healthy(mid_graph)
        plan = FaultPlan([FaultRule(seam="shard.delay", at=0, delay_s=5.0)])
        pool = SharedGraphPool(
            g,
            POOL_WORKERS,
            heartbeat_s=0.4,
            poll_s=0.1,
            faults=plan,
        )
        try:
            backend = ParallelBackend(g, probs, pool=pool)
            out = backend.sample_batch_flat(400, np.random.default_rng(21))
            assert pool.counters["worker_respawns"] >= POOL_WORKERS
            assert not pool.failed
        finally:
            pool.close()
        _assert_same_batch(reference, out)

    def test_degraded_backend_close_is_idempotent(self, mid_graph):
        g, probs = mid_graph
        warm = EngineWarmState()
        with fault_plan(FaultPlan([FaultRule(seam="shm.attach", at=0)])):
            backend = warm.make_sampler(g, probs, POOL_WORKERS)
        assert warm.degraded
        backend.close()
        backend.close()
        with pytest.raises(EstimationError):
            backend.sample_batch_flat(5, np.random.default_rng(0))
        warm.close()

    def test_session_stats_surface_fault_counters(self, mid_graph):
        from repro.api.session import AllocationSession

        g, _ = mid_graph
        with AllocationSession(g) as session:
            stats = session.stats
            for key in FAULT_COUNTER_KEYS:
                assert stats[key] == 0
            assert stats["pool_degraded_state"] is False


class TestSessionDegradation:
    """A ``workers >= 2`` session whose pool broke says so on every later
    solve: ``extras["degraded"]`` and ``pool_degraded_state`` both read
    ``EngineWarmState.degraded``."""

    SPEC = EngineSpec(eps=0.8, theta_cap=400, workers=2, seed=3)

    @pytest.fixture(scope="class")
    def instance(self):
        ds = build_dataset("epinions_syn", n=300, h=3, singleton_rr_samples=1000)
        return ds.build_instance("linear", 1.0)

    @pytest.mark.parametrize(
        "rule",
        [
            FaultRule(seam="shm.attach", at=0),
            FaultRule(seam="worker.kill", at=0, count=10_000),
        ],
        ids=["pool-build-fails", "pool-fails-mid-batch"],
    )
    def test_broken_pool_reported_on_later_solves(self, instance, rule):
        with AllocationSession(instance.graph, spec=self.SPEC) as session:
            with fault_plan(FaultPlan([rule])):
                first = session.solve(instance, "TI-CSRM")
            assert first.extras["degraded"]
            stats = session.stats
            assert stats["pool_degraded_state"] and not stats["pool_active"]
            # No fault plan now: the next solve samples in-process.
            later = session.solve(instance, "TI-CSRM", theta_cap=4000, eps=0.3)
            after = session.stats
            assert after["sets_sampled"] > stats["sets_sampled"]
            assert later.extras["degraded"]
            assert later.extras["fault_counters"]["pool_degraded"] == 0
            assert after["pool_degraded_state"] and not after["pool_active"]


class TestWorkerStartFailure:
    """A worker process that cannot start (``Process.start`` raising
    ``OSError(EAGAIN)``, as under a process limit) degrades a
    ``workers >= 2`` solve instead of failing it: while the pool is
    being built, and while it replaces a crashed worker."""

    SPEC = EngineSpec(eps=0.8, theta_cap=400, workers=2, seed=3)

    @pytest.fixture(scope="class")
    def instance(self):
        ds = build_dataset("epinions_syn", n=200, h=3, singleton_rr_samples=1000)
        return ds.build_instance("linear", 1.0)

    @pytest.fixture(scope="class")
    def in_process(self, instance):
        """The in-process shard plan's answer: no pool is ever built."""
        with fault_plan(FaultPlan([FaultRule(seam="shm.attach", at=0)])):
            return repro.solve(instance, "TI-CSRM", self.SPEC)

    @staticmethod
    def _refuse_starts(monkeypatch, after: int) -> None:
        """Let the first *after* worker starts through; refuse the rest."""
        real_start = BaseProcess.start
        calls = itertools.count()

        def start(proc):
            if next(calls) < after:
                return real_start(proc)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(BaseProcess, "start", start)

    @staticmethod
    def _assert_degraded_answer(result, in_process):
        assert result.allocation.seed_sets() == in_process.allocation.seed_sets()
        assert result.revenue_per_ad == in_process.revenue_per_ad
        assert result.extras["degraded"]
        assert result.extras["fault_counters"]["pool_degraded"] == 1

    def test_pool_whose_workers_cannot_start_degrades(
        self, instance, in_process, monkeypatch
    ):
        self._refuse_starts(monkeypatch, after=0)
        live = set(backend_module._LIVE_POOLS)
        result = repro.solve(instance, "TI-CSRM", self.SPEC)
        self._assert_degraded_answer(result, in_process)
        assert set(backend_module._LIVE_POOLS) <= live

    def test_failed_respawn_fails_the_pool(self, instance, in_process, monkeypatch):
        """The pool starts its workers, one is killed mid-batch, and its
        replacement cannot start: the pool fails with
        ``PoolDegradedError`` and the backend degrades."""
        self._refuse_starts(monkeypatch, after=self.SPEC.workers)
        with fault_plan(FaultPlan([FaultRule(seam="worker.kill", at=0)])):
            result = repro.solve(instance, "TI-CSRM", self.SPEC)
        self._assert_degraded_answer(result, in_process)
        # The replacement never started, so nothing counts as respawned.
        assert result.extras["fault_counters"]["worker_respawns"] == 0


class TestOrphanReaper:
    def test_reaps_dead_pid_segments_only(self, tmp_path):
        dead_pid = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        orphan = f"repro_{dead_pid}_0_abcd1234"
        live = f"repro_{os.getpid()}_0_abcd1234"
        unrelated = "psm_something_else"
        for name in (orphan, live, unrelated):
            (tmp_path / name).write_bytes(b"x")
        reaped = reap_orphan_shm(directory=str(tmp_path))
        assert reaped == [orphan]
        assert not (tmp_path / orphan).exists()
        assert (tmp_path / live).exists()
        assert (tmp_path / unrelated).exists()

    def test_missing_directory_is_noop(self, tmp_path):
        assert reap_orphan_shm(directory=str(tmp_path / "nope")) == []


# ----------------------------------------------------------------------
# Grid: retry, quarantine, resume
# ----------------------------------------------------------------------
class TestGridQuarantine:
    def test_execution_block_validates_fault_knobs(self):
        spec = GridSpec.from_dict(
            {
                **GRID,
                "execution": {
                    "cell_timeout_s": 5,
                    "max_retries": 2,
                    "retry_backoff_s": 0.1,
                },
            }
        )
        assert spec.cell_timeout_s == 5.0
        assert spec.max_retries == 2
        assert spec.retry_backoff_s == 0.1
        assert GridSpec.from_dict(spec.to_dict()) == spec
        # The knobs change how cells are driven, never which cells
        # exist, so the spec key (and hence resume) is unaffected.
        assert spec.spec_key() == GridSpec.from_dict(GRID).spec_key()
        for bad in (
            {"cell_timeout_s": 0},
            {"cell_timeout_s": "fast"},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"retry_backoff_s": -0.1},
            {"flaky": True},
        ):
            with pytest.raises(SpecError):
                GridSpec.from_dict({**GRID, "execution": bad})

    def test_injected_failure_quarantines_then_resume_completes(self, tmp_path):
        spec = GridSpec.from_dict(GRID)
        target = spec.cells()[0].cell_id
        manifest = str(tmp_path / "chaos.jsonl")
        plan = FaultPlan([FaultRule(seam="cell.raise", key=target, count=10)])
        with fault_plan(plan):
            rows = run_grid(spec, manifest, max_retries=0, retry_backoff=0.0)
        assert [row["kind"] for row in rows] == ["cell_error", "cell"]
        error = rows[0]
        assert error["cell_id"] == target
        assert error["quarantined"] is True
        assert error["attempts"] == 1
        assert error["error_type"] == "FaultInjectedError"
        assert error["dataset"] == "epinions_syn"  # axes survive for reports
        _, manifest_rows = load_manifest(manifest)
        assert [row["kind"] for row in manifest_rows] == ["cell_error", "cell"]

        # Resume without the plan: only the quarantined cell re-runs,
        # and the grid ends identical to a never-faulted run.
        resumed = run_grid(spec, manifest)
        assert [row["kind"] for row in resumed] == ["cell", "cell"]
        clean = run_grid(spec, str(tmp_path / "clean.jsonl"))
        assert [_strip(r) for r in resumed] == [_strip(r) for r in clean]
        # The manifest keeps the quarantine row as history.
        _, manifest_rows = load_manifest(manifest)
        kinds = [row["kind"] for row in manifest_rows]
        assert kinds.count("cell_error") == 1 and kinds.count("cell") == 2

    def test_retry_recovers_transient_failure(self, tmp_path):
        spec = GridSpec.from_dict(GRID)
        target = spec.cells()[0].cell_id
        sleeps: list[float] = []
        plan = FaultPlan(
            [FaultRule(seam="cell.raise", key=target, at=0, count=2)]
        )
        with fault_plan(plan):
            rows = run_grid(
                spec,
                str(tmp_path / "retry.jsonl"),
                max_retries=3,
                retry_backoff=0.5,
                sleep=sleeps.append,
            )
        assert [row["kind"] for row in rows] == ["cell", "cell"]
        assert rows[0]["attempts"] == 3  # two injected failures, then success
        assert "attempts" not in rows[1]  # first-try cells stay unannotated
        assert sleeps == [0.5, 1.0]  # exponential backoff between attempts

    def test_cell_timeout_quarantines_and_resumes(self, tmp_path):
        spec = GridSpec.from_dict(GRID)
        target = spec.cells()[0].cell_id
        manifest = str(tmp_path / "timeout.jsonl")
        plan = FaultPlan(
            [FaultRule(seam="cell.delay", key=target, delay_s=5.0)]
        )
        with fault_plan(plan):
            rows = run_grid(
                spec, manifest, cell_timeout=0.3, max_retries=0, retry_backoff=0.0
            )
        assert rows[0]["kind"] == "cell_error"
        assert rows[0]["error_type"] == "CellTimeoutError"
        assert rows[1]["kind"] == "cell"
        resumed = run_grid(spec, manifest, cell_timeout=0.3)
        assert [row["kind"] for row in resumed] == ["cell", "cell"]

    def test_warm_group_poisoning_reopens_session_without_leaks(self, tmp_path):
        spec = GridSpec.from_dict(GRID)
        target = spec.cells()[0].cell_id
        pools_before = set(backend_module._LIVE_POOLS)
        plan = FaultPlan([FaultRule(seam="cell.raise", key=target, at=0)])
        with fault_plan(plan):
            rows = run_grid(
                spec,
                str(tmp_path / "warm.jsonl"),
                execution="warm_per_dataset",
                config_overrides={"workers": POOL_WORKERS},
                max_retries=1,
                retry_backoff=0.0,
            )
        assert [row["kind"] for row in rows] == ["cell", "cell"]
        assert rows[0]["attempts"] == 2
        # The poisoned group was torn down and reopened: the retried
        # cell ran in a *fresh* session (solve_index restarts at 0).
        assert rows[0]["session"]["solve_index"] == 0
        # No worker pool leaked past its session's teardown.
        assert set(backend_module._LIVE_POOLS) <= pools_before

    def test_cell_timeout_error_importable_from_repro(self):
        import repro

        assert repro.CellTimeoutError is CellTimeoutError
        assert issubclass(repro.FaultInjectedError, repro.ReproError)
        assert repro.FaultPlan is FaultPlan


class TestCliQuarantine:
    def test_grid_exit_code_and_quarantine_table(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import EXIT_QUARANTINED, main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        spec_path = tmp_path / "chaos.json"
        spec_path.write_text(json.dumps(GRID))
        manifest = str(tmp_path / "cli.jsonl")
        target = GridSpec.from_dict(GRID).cells()[0].cell_id
        plan = FaultPlan([FaultRule(seam="cell.raise", key=target, count=10)])
        with fault_plan(plan):
            code = main(
                ["grid", "--spec", str(spec_path), "--manifest", manifest]
            )
        out = capsys.readouterr().out
        assert code == EXIT_QUARANTINED == 3
        assert "QUARANTINED" in out
        assert "FaultInjectedError" in out
        # Re-running the same command (fault gone) completes the grid.
        code = main(["grid", "--spec", str(spec_path), "--manifest", manifest])
        out = capsys.readouterr().out
        assert code == 0
        assert "quarantined" not in out
