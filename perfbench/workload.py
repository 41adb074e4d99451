"""One benchmark workload in one fresh process (started by run.py).

    python3 perfbench/workload.py --workload cold_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/workload.py --workload serve_warm --seed 1 --setup-only

The process times its own set-up from its first statement, so the
program's imports count; the benchmark's own work (inputs, checks,
out-of-sample samples) is kept off every clock.  It then runs the timed
phase as a closed loop, checks every answer, and prints one JSON object
as its last stdout line.  With ``--trace 1`` the timed phase alternates
traced chunks (see tracing.py) with untraced ones, which give the
tracing overhead.  See NOTES.md for what each workload is for.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from time import perf_counter  # noqa: E402

_IMPORTS_START = perf_counter()
import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.api.session import AllocationSession  # noqa: E402
from repro.core.instance import RMInstance  # noqa: E402
from repro.experiments import datasets  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.harness import run_algorithm  # noqa: E402
from repro.graph.updates import compile_updates, random_update_batch  # noqa: E402
from repro.serve import QueryRequest, ReproServer, ServeConfig, result_payload  # noqa: E402
from repro.serve import client as serve_client  # noqa: E402

_IMPORTS_END = perf_counter()

from evaluate import OOSEvaluator, mc_cross_check  # noqa: E402
from tracing import SETUP_RID, Tracer, install_layer_patches  # noqa: E402

WORKLOADS = ("cold_solve", "serve_warm", "graph_churn")
EPS = 0.4
THETA_CAP = 10_000
DATASETS = (
    {"name": "epinions_syn", "n": 1500, "h": 4},
    {"name": "flixster_syn", "n": 1200, "h": 6},
)
ALGORITHMS = ("TI-CSRM", "TI-CARM")
#: Algorithm slots of one block of timed requests (see RequestStream).
TIMED_ALGORITHMS = ("TI-CSRM", "TI-CSRM", "TI-CARM")
ALPHAS = (0.2, 0.5, 1.0)
#: Warm-up queries use one alpha so set-up work does not vary with the seed.
WARM_UP_ALPHA = 0.5
#: Requests 0..WINDOW-1 of every run give revenue_oos and the per-layer
#: counts, so both repeat exactly for a seed: three whole blocks of 18.
WINDOW = 54
#: Ten samples beyond p90 need at least 100; a little margin on top.
MIN_REQUESTS = 110
#: A traced run alternates this many traced and untraced chunks.
TRACE_ROUNDS = 3
BATCH_EDGES = 20
_BUDGET_SLACK = 1e-9  # the engine's own feasibility slack


@dataclasses.dataclass(frozen=True)
class Request:
    rid: int
    dataset: int
    algorithm: str
    alpha: float
    seed: int


class RequestStream:
    """Warm-up and timed requests drawn from one seed.

    Timed requests come in shuffled blocks of 18: every dataset x alpha x
    TIMED_ALGORITHMS entry once, so any prefix of whole blocks is exactly
    50/50 between datasets.  TI-CSRM appears twice per block: TI-CARM
    solves are much faster, and with a 50/50 split the median latency
    would fall in the gap between the two algorithms' latencies, where it
    moves a lot with small changes.  Every request gets a fresh solve
    seed.  Blocks are drawn as the timed loop reaches them, so a faster
    program never runs out of requests.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = np.random.default_rng([seed, WORKLOADS.index(workload) + 1])
        #: Solve seed -> request id; tracing wrappers on server threads use it.
        self.rid_by_seed: dict[int, int] = {}
        self.warm_up = [
            Request(SETUP_RID, d, algorithm, WARM_UP_ALPHA, self._fresh_seed(SETUP_RID))
            for d in range(len(DATASETS))
            for algorithm in ALGORITHMS
        ]
        self._block = [
            (d, algorithm, alpha)
            for d in range(len(DATASETS))
            for algorithm in TIMED_ALGORITHMS
            for alpha in ALPHAS
        ]
        self._timed: list[Request] = []

    def _fresh_seed(self, rid: int) -> int:
        while True:
            value = int(self._rng.integers(0, 2**31))
            if value not in self.rid_by_seed:
                self.rid_by_seed[value] = rid
                return value

    def __getitem__(self, rid: int) -> Request:
        while rid >= len(self._timed):
            for j in self._rng.permutation(len(self._block)):
                d, algorithm, alpha = self._block[int(j)]
                rid_new = len(self._timed)
                self._timed.append(
                    Request(rid_new, d, algorithm, alpha, self._fresh_seed(rid_new))
                )
        return self._timed[rid]


def check_allocation(instance, revenue_per_ad, cost_per_ad, seed_sets) -> list[str]:
    """Budget feasibility and non-negative incentives for one answer."""
    problems = []
    for ad, seeds in enumerate(seed_sets):
        payment = float(revenue_per_ad[ad]) + float(cost_per_ad[ad])
        if payment > instance.budget(ad) + _BUDGET_SLACK:
            problems.append(f"ad {ad} pays {payment} over budget {instance.budget(ad)}")
        if float(cost_per_ad[ad]) < 0 or (seeds and instance.incentives[ad][seeds].min() < 0):
            problems.append(f"ad {ad} has a negative incentive")
    return problems


def summarize_spec(spec: dict) -> dict:
    """The engine spec with per-ad OPT_s bounds shortened to a label."""
    out = dict(spec)
    if isinstance(out.get("opt_lower"), list):
        out["opt_lower"] = f"singleton bounds ({len(out['opt_lower'])} ads)"
    out["kernel_resolved"] = repro.resolve_kernel(out.get("kernel", "auto"))
    return out


def dataset_provenance(ds) -> dict:
    return {
        "name": ds.name,
        "n": int(ds.graph.n),
        "m": int(ds.graph.m),
        "h": ds.h,
        "families": len({p.tobytes() for p in ds.ad_probs}),
        "spread_source": ds.spread_source,
    }


def build_datasets():
    built = []
    for entry in DATASETS:
        kwargs = dict(entry)
        built.append(datasets.build_dataset(kwargs.pop("name"), **kwargs))
    return built


class Workload:
    """Hooks the timed loop calls; ``send`` is the only timed one."""

    #: Closed-loop clients sending requests concurrently.
    clients = 1

    def __init__(self, seed: int, tracer: Tracer | None, warm_up: list[Request]) -> None:
        self.seed = seed
        self.tracer = tracer
        self.warm_up = warm_up
        self.oos = OOSEvaluator(seed)
        self.failures: list[str] = []
        self.run_checks: dict[str, bool] = {}
        self.mc_checks: list[dict] = []
        self.mc_done: set[int] = set()
        self.provenance: dict = {}

    def prepare(self, req: Request) -> None:
        """Benchmark work before *req* is sent (off the clock)."""

    def keep(self, req: Request, out):
        """What a concurrent client keeps of an answer until the phase ends."""
        return out

    def record(self, req: Request, out, error: str | None, latency: float) -> dict:
        """Check one answer (off the clock); returns its record."""
        raise NotImplementedError

    def finish(self, records: list[dict]) -> None:
        """Run-level checks after the timed phase."""

    def close(self) -> None:
        """Release what set-up opened."""

    def _mc(self, req: Request, instance, result, graph_key: tuple) -> None:
        # One TI-CSRM request per dataset inside the window.
        if req.algorithm != "TI-CSRM" or req.dataset in self.mc_done or not 0 <= req.rid < WINDOW:
            return
        self.mc_done.add(req.dataset)
        oos, error = self.oos.revenue(graph_key, instance, result.allocation.seed_sets())
        check = mc_cross_check(instance, result, oos, error, self.seed * 10 + req.dataset)
        check.update(rid=req.rid, dataset=DATASETS[req.dataset]["name"],
                     revenue_in_sample=float(result.total_revenue))
        self.mc_checks.append(check)


class ColdSolve(Workload):
    """Session-less ``repro.solve`` per request, engine defaults."""

    def setup(self) -> None:
        self.datasets = build_datasets()
        self.spec = repro.EngineSpec(eps=EPS, theta_cap=THETA_CAP)

    def after_setup(self) -> None:
        self.provenance = {
            "engine_spec": summarize_spec(self.spec.to_dict()),
            "datasets": [dataset_provenance(ds) for ds in self.datasets],
        }

    def send(self, req: Request):
        instance = self.datasets[req.dataset].build_instance(alpha=req.alpha)
        return instance, repro.solve(instance, req.algorithm, self.spec, seed=req.seed)

    def record(self, req, out, error, latency):
        rec = {"rid": req.rid, "latency": latency, "error": error}
        if error is not None:
            return rec
        instance, result = out
        seed_sets = result.allocation.seed_sets()
        rec["problems"] = check_allocation(
            instance, result.revenue_per_ad, result.seeding_cost_per_ad, seed_sets
        )
        rec["revenue_in_sample"] = float(result.total_revenue)
        if req.rid < WINDOW:
            rec["revenue_oos"] = self.oos.revenue((req.dataset, 0), instance, seed_sets)[0]
            self._mc(req, instance, result, (req.dataset, 0))
        return rec

    def layer_extras(self, traced, submit_by_rid) -> dict:
        return {**_NO_SESSION, **_NO_SERVE}


class ServeWarm(Workload):
    """An in-process ReproServer answering two closed-loop HTTP clients."""

    clients = 2

    def setup(self) -> None:
        self.config = ExperimentConfig(eps=EPS, theta_cap=THETA_CAP)
        self.server = ReproServer(ServeConfig(config=self.config))
        self.server.start()
        self.solver = threading.Thread(target=self.server.run, name="solver", daemon=True)
        self.solver.start()
        self.addr = self.server.address
        self.warm_payloads = [self.query(req) for req in self.warm_up]

    @staticmethod
    def axes(req: Request) -> dict:
        return {"dataset": DATASETS[req.dataset], "algorithm": req.algorithm,
                "alpha": req.alpha, "seed": req.seed}

    def query(self, req: Request) -> dict:
        return serve_client.query(self.addr, **self.axes(req))

    def after_setup(self) -> None:
        self.datasets = build_datasets()  # the server's own objects (cached)
        self.instances = {
            (d, alpha): ds.build_instance(alpha=alpha)
            for d, ds in enumerate(self.datasets)
            for alpha in ALPHAS
        }
        self.warm_kept = [self.keep(r, p) for r, p in zip(self.warm_up, self.warm_payloads)]
        self.stats_before = serve_client.stats(self.addr)
        self.provenance = {
            "serve_config": {
                k: v for k, v in dataclasses.asdict(self.server.config).items() if k != "config"
            },
            "experiment_config": dataclasses.asdict(self.config),
            "engine_spec": summarize_spec(self.warm_payloads[0]["engine_spec"]),
            "datasets": [dataset_provenance(ds) for ds in self.datasets],
        }

    def send(self, req: Request):
        return self.query(req)

    def keep(self, req: Request, payload: dict) -> dict:
        """Check an answer as it arrives; keep what later checks need.

        Runs on the client thread right after the answer is timed, so the
        benchmark holds a few hundred bytes per answer instead of whole
        payloads, which would inflate peak_rss_mb with run length.
        """
        serve = payload["serve"]
        instance = self.instances[(req.dataset, req.alpha)]
        problems = check_allocation(
            instance, payload["revenue_per_ad"], payload["seeding_cost_per_ad"],
            payload["allocation"],
        )
        if not serve["warm_session"] or serve["sets_sampled"] != 0:
            problems.append(f"not a zero-sampling warm hit: {serve}")
        return {
            "problems": problems,
            "revenue": float(payload["revenue"]),
            "queue_wait": float(serve["queue_wait_s"]),
            "pool_key": serve["pool_key"],
            "solve_index": serve["solve_index"],
            "answer": _digest(payload),
            "answer_without_seed": _digest(payload, drop_seed=True),
            "allocation": payload["allocation"] if req.rid < WINDOW else None,
        }

    def record(self, req, kept, error, latency):
        rec = {"rid": req.rid, "latency": latency, "error": error}
        if error is not None:
            return rec
        rec.update(
            problems=kept["problems"],
            revenue_in_sample=kept["revenue"],
            queue_wait=kept["queue_wait"],
            kept=kept,
        )
        if req.rid < WINDOW:
            instance = self.instances[(req.dataset, req.alpha)]
            rec["revenue_oos"] = self.oos.revenue(
                (req.dataset, 0), instance, kept["allocation"]
            )[0]
        return rec

    def finish(self, records) -> None:
        after = serve_client.stats(self.addr)
        before = self.stats_before
        served = after["serve"]["queries_served"] - before["serve"]["queries_served"]
        hits = after["pool"]["warm_hits"] - before["pool"]["warm_hits"]
        sampled = sum(s["session"]["sets_sampled"] for s in after["pool"]["sessions"]) - sum(
            s["session"]["sets_sampled"] for s in before["pool"]["sessions"]
        )
        self.run_checks["timed_phase_samples_zero_sets"] = sampled == 0
        self.run_checks["timed_phase_warm_hit_rate_is_1"] = served > 0 and hits == served
        answers = list(zip(self.warm_up, self.warm_kept))
        answers += [(rec["req"], rec["kept"]) for rec in records if "kept" in rec]
        self.run_checks["answers_equal_fresh_session_replay"] = self._replay(answers)
        self.run_checks["answers_depend_only_on_query_once_warm"] = self._consistent(answers)

    def _replay(self, answers) -> bool:
        """Served answers == a fresh session replaying them in solve order.

        Each pool key's history is replayed from its first query up to
        the last query of the count window.  Later answers sample nothing
        (checked per answer), so they leave the session as it was, and
        :meth:`_consistent` covers them.
        """
        by_key = defaultdict(list)
        for req, kept in answers:
            by_key[kept["pool_key"]].append((kept["solve_index"], req, kept))
        ok = True
        for key, items in by_key.items():
            items.sort(key=lambda item: item[0])
            if [item[0] for item in items] != list(range(len(items))):
                self.failures.append(f"{key}: solve indices are not 0..{len(items) - 1}")
                ok = False
                continue
            last = max(i for i, (_, req, _) in enumerate(items) if req.rid < WINDOW)
            ds = self.datasets[items[0][1].dataset]
            with AllocationSession(ds.graph, spec=self.config.engine_spec(opt_lower="kpt")) as session:
                for index, req, kept in items[: last + 1]:
                    instance = ds.build_instance(alpha=req.alpha)
                    result = run_algorithm(
                        req.algorithm, ds, instance, self.config, seed=req.seed, session=session
                    )
                    request = QueryRequest.from_dict(self.axes(req))
                    replayed = result_payload(request, result, effective_seed=req.seed)
                    if _digest(replayed) != kept["answer"]:
                        self.failures.append(f"{key}: solve {index} differs on replay")
                        ok = False
                    else:
                        self._mc(req, instance, result, (req.dataset, 0))
        return ok

    def _consistent(self, answers) -> bool:
        """Timed answers to one (dataset, algorithm, alpha) are identical.

        With full stores and OPT_s priced from singleton bounds no solve
        draws a random number, so the query seed cannot matter; only its
        echo in the answer differs.
        """
        first: dict[tuple, str] = {}
        ok = True
        for req, kept in answers:
            if req.rid == SETUP_RID:
                continue
            key = (req.dataset, req.algorithm, req.alpha)
            if first.setdefault(key, kept["answer_without_seed"]) != kept["answer_without_seed"]:
                self.failures.append(f"request {req.rid}: answer differs from an identical query")
                ok = False
        return ok

    def layer_extras(self, traced, submit_by_rid) -> dict:
        before, after = self.stats_before, self.stats_traced
        delta = lambda group, key: after[group][key] - before[group][key]  # noqa: E731
        served = delta("serve", "queries_served")
        errors = delta("serve", "solve_errors")
        transport = [
            rec["latency"] - submit_by_rid[rec["rid"]]
            for rec in traced
            if rec["rid"] in submit_by_rid
        ]
        return {
            **_NO_SESSION,
            **_session_counts(
                [s["session"] for s in before["pool"]["sessions"]],
                [s["session"] for s in after["pool"]["sessions"]],
            ),
            "serve.queue_wait_s": percentile([rec["queue_wait"] for rec in traced], 50),
            "serve.transport_s": percentile(transport, 50),
            "serve.warm_hit_rate": (
                delta("pool", "warm_hits") / (served + errors) if served + errors else 0.0
            ),
            "serve.rejects": delta("serve", "admission_rejects") + delta("serve", "draining_rejects"),
            "serve.solve_errors": errors,
        }

    def close(self) -> None:
        self.server.begin_drain()
        self.solver.join(timeout=60)
        self.server.shutdown()


def _digest(payload: dict, drop_seed: bool = False) -> str:
    """Digest of a served answer without its timing and serve provenance."""
    answer = {k: v for k, v in payload.items() if k not in ("runtime_s", "serve")}
    if drop_seed:
        answer["engine_spec"] = dict(answer["engine_spec"], seed=None)
        answer["query"] = dict(answer["query"], seed=None)
        answer["effective_seed"] = None
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


class GraphChurn(Workload):
    """Edge-update batches applied to warm sessions, each followed by a solve."""

    def setup(self) -> None:
        self.datasets = build_datasets()
        self.spec = repro.EngineSpec(eps=EPS, theta_cap=THETA_CAP)
        self.sessions = [AllocationSession(ds.graph, spec=self.spec) for ds in self.datasets]
        for req in self.warm_up:
            ds = self.datasets[req.dataset]
            self.sessions[req.dataset].solve(
                ds.build_instance(alpha=req.alpha), req.algorithm, seed=req.seed
            )

    def after_setup(self) -> None:
        schedule_rng = np.random.default_rng([self.seed, 0x5C4ED])
        self.schedule_seeds = [int(s) for s in schedule_rng.integers(0, 2**31, len(self.datasets))]
        self.schedule = [np.random.default_rng(s) for s in self.schedule_seeds]
        self.base = {
            (d, alpha): ds.build_instance(alpha=alpha)
            for d, ds in enumerate(self.datasets)
            for alpha in ALPHAS
        }
        self.probs = [list(ds.build_instance().ad_probs) for ds in self.datasets]
        self.applied = [0] * len(self.datasets)
        self.reports: list[dict] = []
        self.window_stats = None
        self.stats_before = [s.stats for s in self.sessions]
        self.provenance = {
            "engine_spec": summarize_spec(self.spec.to_dict()),
            "datasets": [dataset_provenance(ds) for ds in self.datasets],
            "updates": {"edges_per_batch": BATCH_EDGES, "ops": "insert/delete/set_prob",
                        "schedule_seeds": self.schedule_seeds},
        }

    def prepare(self, req: Request) -> None:
        d = req.dataset
        graph = self.sessions[d].graph
        # Batch k of random_update_schedule(graph_0, schedule_seed, ...):
        # drawn from the same generator against the graph after batch k-1.
        batch = random_update_batch(graph, self.schedule[d], BATCH_EDGES, ts=self.applied[d])
        plan = compile_updates(graph, batch)
        new: dict[int, np.ndarray] = {}
        for p in self.probs[d]:
            if id(p) not in new:  # ads of one family share one array
                new[id(p)] = plan.apply_probs(p)
        probs = [new[id(p)] for p in self.probs[d]]
        base = self.base[(d, req.alpha)]
        self.pending = (batch, base.advertisers, probs, base.incentives)

    def send(self, req: Request):
        batch, advertisers, probs, incentives = self.pending
        session = self.sessions[req.dataset]
        report = session.apply_edge_updates(batch)
        instance = RMInstance(session.graph, advertisers, probs, incentives)
        return report, instance, session.solve(instance, req.algorithm, seed=req.seed)

    def record(self, req, out, error, latency):
        rec = {"rid": req.rid, "latency": latency, "error": error}
        d = req.dataset
        if error is not None:
            return rec
        report, instance, result = out
        self.probs[d] = instance.ad_probs
        self.applied[d] += 1
        self.oos.forget((d, self.applied[d] - 1))
        seed_sets = result.allocation.seed_sets()
        problems = check_allocation(
            instance, result.revenue_per_ad, result.seeding_cost_per_ad, seed_sets
        )
        if report["invalidated_sets"] > report["checked_sets"]:
            problems.append(f"invalidated {report['invalidated_sets']} > checked {report['checked_sets']}")
        epoch = self.sessions[d].graph_epoch
        if report["graph_epoch"] != self.applied[d] or epoch != self.applied[d]:
            problems.append(f"graph_epoch {epoch} after {self.applied[d]} batches")
        rec.update(problems=problems, revenue_in_sample=float(result.total_revenue))
        if req.rid < WINDOW:
            key = (d, self.applied[d])
            rec["revenue_oos"] = self.oos.revenue(key, instance, seed_sets)[0]
            self._mc(req, instance, result, key)
            self.reports.append(report)
            if req.rid == WINDOW - 1:
                self.window_stats = [s.stats for s in self.sessions]
        return rec

    def layer_extras(self, traced, submit_by_rid) -> dict:
        checked = sum(r["checked_sets"] for r in self.reports)
        invalidated = sum(r["invalidated_sets"] for r in self.reports)
        return {
            "api.session.checked_sets": checked,
            "api.session.invalidated_sets": invalidated,
            "api.session.invalidation_rate": invalidated / checked if checked else 0.0,
            **_session_counts(self.stats_before, self.window_stats),
            **_NO_SERVE,
        }

    def close(self) -> None:
        for session in self.sessions:
            session.close()


WORKLOAD_CLASSES = {"cold_solve": ColdSolve, "serve_warm": ServeWarm, "graph_churn": GraphChurn}


@contextmanager
def own_work(tracer: Tracer | None):
    """Benchmark work: never recorded as a program span."""
    if tracer is None:
        yield
        return
    recording = tracer.recording
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = recording


def timed_phase(
    wl: Workload, requests: RequestStream, start: int, seconds: float, clients: int,
    min_requests: int = MIN_REQUESTS,
):
    """Closed loop over ``requests[start:]``; returns ``(records, busy_s)``.

    Clients send until *seconds* of wall time have passed and at least
    *min_requests* were sent.  With one client the benchmark's own work
    (``prepare`` and ``record``) runs between requests, so the busy time
    is the sum of latencies; with two clients answers are checked after
    the phase and the busy time is the phase's wall time.
    """
    tracer = wl.tracer
    lock = threading.Lock()
    cursor = [start]
    done: list[tuple] = []
    t_start = perf_counter()

    def next_request():
        with lock:
            sent = cursor[0] - start
            if perf_counter() - t_start >= seconds and sent >= min_requests:
                return None
            cursor[0] += 1
            return requests[cursor[0] - 1]

    def client(check_inline: bool) -> None:
        while (req := next_request()) is not None:
            if check_inline:
                with own_work(tracer):
                    wl.prepare(req)
            if tracer is not None:
                tracer.set_rid(req.rid)
            t0 = perf_counter()
            try:
                out, error = wl.send(req), None
            except Exception as exc:  # a failed request is data, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.set_rid(None)
            if check_inline:
                with own_work(tracer):
                    done.append((req, wl.record(req, out, error, t1 - t0), t1))
            else:
                kept = wl.keep(req, out) if error is None else None
                with lock:
                    done.append((req, (kept, error, t1 - t0), t1))

    if clients == 1:
        client(check_inline=True)
        records = [rec for _, rec, _ in done]
        busy = sum(rec["latency"] for rec in records)
    else:
        threads = [
            threading.Thread(target=client, args=(False,), name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        busy = max(t1 for _, _, t1 in done) - t_start
        done.sort(key=lambda item: item[0].rid)
        with own_work(tracer):
            records = [wl.record(req, *answer) for req, answer, _ in done]
    for (req, _, _), rec in zip(done, records):
        rec["req"] = req
    return records, busy


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(records: list[dict], wall: float) -> tuple[dict, dict]:
    latencies = [rec["latency"] for rec in records if rec["error"] is None]
    window = [rec for rec in records if rec["rid"] < WINDOW]
    oos = [rec["revenue_oos"] for rec in window if "revenue_oos" in rec]
    metrics = {
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "throughput_rps": len(latencies) / wall,
        "revenue_oos": statistics.fmean(oos) if oos else 0.0,
        "revenue_in_sample": statistics.fmean(
            rec["revenue_in_sample"] for rec in window if "revenue_in_sample" in rec
        ),
    }
    samples = {
        "latency_p50_s": len(latencies),
        "latency_p90_s": len(latencies),
        "throughput_rps": len(latencies),
        "revenue_oos": len(oos),
    }
    return metrics, samples


def layer_metrics(wl: Workload, spans: list[dict], traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer numbers from the traced chunks (see NOTES.md for each)."""
    timed = {rec["rid"] for rec in traced}
    n = len(timed)
    self_s: dict[str, float] = defaultdict(float)
    setup_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    names = {span["id"]: span["name"] for span in spans}
    kpt_total = kpt_nested_sampler = 0.0
    submit_by_rid = {}
    for span in spans:
        name, rid = span["name"], span["rid"]
        duration = span["end"] - span["start"]
        if rid == SETUP_RID:
            setup_s[name] += duration
            continue
        if rid not in timed:
            continue
        self_s[name] += span["self"]
        under_kpt = names.get(span["parent"]) == "rrset.tim.kpt"
        if name == "rrset.tim.kpt":
            kpt_total += duration
        if name == "rrset.sampler" and under_kpt:
            kpt_nested_sampler += duration
        if name == "serve.submit":
            submit_by_rid[rid] = duration
        if rid >= WINDOW:
            continue
        calls[name] += 1
        for key, value in (span["attrs"] or {}).items():
            attr_sum[f"{name}.{key}"] += value
            if name == "rrset.sampler" and under_kpt and key == "sets":
                attr_sum["rrset.tim.kpt_sets"] += value
    # The submit span (HTTP handler thread) waits for the solver thread's
    # spans of the same request, so it is not added to their self times.
    submit_s = self_s.pop("serve.submit", 0.0)
    per_req = {name: total / n for name, total in self_s.items()}
    latency_traced = statistics.fmean(rec["latency"] for rec in traced)
    # Time of a request outside every layer span: in the client (HTTP and
    # JSON both ways), in the solver thread between spans, and for serve
    # the wait behind the other client's query.
    queue_s = sum(rec.get("queue_wait", 0.0) for rec in traced)
    transport_s = sum(rec["latency"] for rec in traced if rec["rid"] in submit_by_rid) - submit_s
    unattributed = latency_traced - sum(per_req.values()) - (queue_s + transport_s) / n
    rounds = attr_sum["core.ti_engine.rounds"]
    e2e, _ = end_to_end(traced, 1.0)
    p50_traced = percentile([r["latency"] for r in traced], 50)
    p50_untraced = percentile([r["latency"] for r in untraced], 50)
    layers = {
        "datasets.build_s": setup_s["datasets.build"],
        "datasets.build_instance_s": per_req.get("datasets.build_instance", 0.0),
        "rrset.sampler.calls": calls["rrset.sampler"],
        "rrset.sampler.sets": attr_sum["rrset.sampler.sets"],
        "rrset.sampler.members": attr_sum["rrset.sampler.members"],
        "rrset.sampler.self_s": per_req.get("rrset.sampler", 0.0),
        "rrset.tim.kpt_calls": calls["rrset.tim.kpt"],
        "rrset.tim.kpt_sets": attr_sum["rrset.tim.kpt_sets"],
        "rrset.tim.kpt_self_s": per_req.get("rrset.tim.kpt", 0.0),
        "rrset.tim.kpt_total_s": kpt_total / n,
        "rrset.collection.select_calls": calls["rrset.collection.select"],
        "rrset.collection.select_s": per_req.get("rrset.collection.select", 0.0),
        "rrset.collection.cover_calls": calls["rrset.collection.cover"],
        "rrset.collection.cover_s": per_req.get("rrset.collection.cover", 0.0),
        "rrset.collection.sets_covered": attr_sum["rrset.collection.cover.covered"],
        "rrset.collection.ingest_s": per_req.get("rrset.collection.ingest", 0.0),
        "rrset.collection.invalidate_s": per_req.get("rrset.collection.invalidate", 0.0),
        "rrset.collection.replace_s": per_req.get("rrset.collection.replace", 0.0),
        "rrset.collection.bytes_per_rr_set": (
            attr_sum["core.ti_engine.bytes_per_rr_set"] / calls["core.ti_engine"]
            if calls["core.ti_engine"] else 0.0
        ),
        "core.ti_engine.rounds": rounds,
        "core.ti_engine.self_s": per_req.get("core.ti_engine", 0.0),
        "core.ti_engine.selects_per_round": (
            calls["rrset.collection.select"] / rounds if rounds else 0.0
        ),
        "core.ti_engine.revenue_in_sample": e2e["revenue_in_sample"],
        "core.ti_engine.revenue_bias": e2e["revenue_in_sample"] / e2e["revenue_oos"],
        "api.session.fill_s": setup_s["api.session.solve"],
        "api.session.apply_s": per_req.get("api.session.apply", 0.0),
        "graph.updates.compile_s": per_req.get("graph.updates.compile", 0.0),
        "serve.lease_s": per_req.get("serve.lease", 0.0),
        "trace.latency_p50_s": p50_traced,
        "trace.untraced_latency_p50_s": p50_untraced,
        "trace.overhead": p50_traced / p50_untraced - 1.0,
        "trace.unattributed_s": unattributed,
    }
    layers.update(wl.layer_extras(traced, submit_by_rid))
    # Shares of traced request time, for the design checks in NOTES.md.
    share = {
        "rrset.sampler": layers["rrset.sampler.self_s"] / latency_traced,
        "rrset.tim": layers["rrset.tim.kpt_self_s"] / latency_traced,
    }
    blocking = dict(per_req)
    blocking["rrset.sampler"] = blocking.get("rrset.sampler", 0.0) - kpt_nested_sampler / n
    blocking["rrset.tim.kpt"] = kpt_total / n
    wl.design = {
        "sampler_plus_tim_share": share["rrset.sampler"] + share["rrset.tim"],
        "largest_layer": max(blocking, key=blocking.get),
        "layer_s_with_kpt_draws_in_tim": blocking,
    }
    return layers


#: Per-layer values of layers a workload does not run.
_NO_SESSION = {
    "api.session.checked_sets": 0,
    "api.session.invalidated_sets": 0,
    "api.session.invalidation_rate": 0.0,
    "api.session.sets_sampled": 0,
    "api.session.store_hit_rate": 0.0,
    "api.session.store_bytes": 0,
}
_NO_SERVE = {
    "serve.queue_wait_s": 0.0,
    "serve.transport_s": 0.0,
    "serve.warm_hit_rate": 0.0,
    "serve.rejects": 0,
    "serve.solve_errors": 0,
}


def layer_sample_count(name: str, traced: int, untraced: int) -> int:
    """How many samples a per-layer value rests on (see NOTES.md)."""
    if name in ("datasets.build_s", "api.session.fill_s"):
        return 1  # one set-up
    if name == "trace.untraced_latency_p50_s":
        return untraced
    if name == "trace.overhead":
        return traced + untraced
    if name.endswith("_s") or name.startswith("serve."):
        return traced  # per traced request
    return WINDOW  # counts and ratios over the count window


def _session_counts(before: list[dict], after: list[dict]) -> dict:
    delta = lambda key: sum(a[key] for a in after) - sum(b[key] for b in before)  # noqa: E731
    lookups = delta("store_hits") + delta("store_misses")
    return {
        "api.session.sets_sampled": delta("sets_sampled"),
        "api.session.store_hit_rate": delta("store_hits") / lookups if lookups else 0.0,
        "api.session.store_bytes": sum(a["store_bytes"] for a in after),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    requests = RequestStream(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_patches(tracer)
        tracer.rid_by_seed = requests.rid_by_seed
        tracer.set_rid(SETUP_RID)
    wl = WORKLOAD_CLASSES[args.workload](args.seed, tracer, requests.warm_up)
    t0 = perf_counter()
    wl.setup()
    setup_s = (_IMPORTS_END - _PROCESS_START) + (perf_counter() - t0)
    with own_work(tracer):
        wl.after_setup()
    if tracer is not None:
        tracer.set_rid(None)
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    clients = wl.clients
    if tracer is None:
        records, wall = timed_phase(wl, requests, 0, args.seconds, clients)
        untraced = []
    else:
        # Traced and untraced chunks alternate, so spells of host speed
        # fall on both sides of the overhead comparison.  The first
        # traced chunk holds the whole count window.
        records, untraced, wall = [], [], 0.0
        chunk = args.seconds / (2 * TRACE_ROUNDS)
        for k in range(TRACE_ROUNDS):
            if k:
                install_layer_patches(tracer)
            part, busy = timed_phase(
                wl, requests, len(records) + len(untraced), chunk, clients,
                WINDOW if k == 0 else 1,
            )
            records, wall = records + part, wall + busy
            if k == 0 and args.workload == "serve_warm":
                wl.stats_traced = serve_client.stats(wl.addr)
            tracer.uninstall()
            part, _ = timed_phase(
                wl, requests, len(records) + len(untraced), chunk, clients, 1
            )
            untraced += part
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.finish(records + untraced)
    wl.close()

    failed = 0
    for rec in records + untraced:
        if rec["error"] is not None or rec.get("problems"):
            failed += 1
            wl.failures.append(f"request {rec['rid']}: {rec['error'] or rec['problems']}")
    for check in wl.mc_checks:
        wl.run_checks[f"mc_cross_check_{check['dataset']}"] = check["ok"]
    failed += sum(1 for ok in wl.run_checks.values() if not ok)
    attempted = len(records) + len(untraced) + len(wl.run_checks)

    metrics, samples = end_to_end(records, wall)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["success_rate"] = (attempted - failed) / attempted
    metrics["error_rate"] = failed / attempted
    samples.update(peak_rss_mb=1, success_rate=attempted, error_rate=attempted)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "run_checks": wl.run_checks,
        "mc_checks": wl.mc_checks,
        "failures": wl.failures[:20],
        "requests": [
            [r["rid"], r["req"].dataset, r["req"].algorithm, r["req"].alpha, r["latency"]]
            for r in records
        ],
        "provenance": {
            **wl.provenance,
            "seed": args.seed,
            "seconds": args.seconds,
            "clients": clients,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": repro.__version__,
            "platform": platform.platform(),
            "imports_s": _IMPORTS_END - _IMPORTS_START,
            "window": WINDOW,
            "first_requests": [
                [requests[i].dataset, requests[i].algorithm, requests[i].alpha, requests[i].seed]
                for i in range(3)
            ],
        },
    }
    if tracer is not None:
        spans = tracer.spans()
        out["layers"] = layer_metrics(wl, spans, records, untraced)
        out["design"] = wl.design
        out["samples"].update(traced_requests=len(records), untraced_requests=len(untraced),
                              spans=len(spans))
        out["layer_samples"] = {
            name: layer_sample_count(name, len(records), len(untraced)) for name in out["layers"]
        }
        if args.spans:
            tracer.write(args.spans, spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
