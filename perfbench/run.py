"""The repository benchmark: every workload from one command.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload, untraced
    python3 perfbench/run.py --seed 1 --trace 1       # every workload, traced

Each workload runs in fresh processes (workload.py).  An untraced run
times set-up in the process that runs the timed phase and in set-up-only
processes around it, and reports the median set-up time.  A traced run
starts one process and reports the per-layer metrics instead of the
end-to-end ones.  Every metric is printed with its unit and sample
count; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A report with
provenance, checks and samples is written to perfbench/out/, and a
traced run writes its spans there too.  Any failed check makes the
command exit with status 1; a missing program (no src/repro next to
perfbench/) exits with status 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cold_solve", "serve_warm", "graph_churn")
#: An untraced run times set-up this many times (median reported): in
#: set-up-only processes before and after the timed one, so that a slow
#: spell of the host does not move them all.
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 2
#: A whole invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0

#: name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "throughput_rps": ("requests/s", "higher"),
    "revenue_oos": ("revenue", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("fraction", "higher"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "datasets.build_s": ("s", "lower"),
    "datasets.build_instance_s": ("s", "lower"),
    "rrset.sampler.calls": ("count", "lower"),
    "rrset.sampler.sets": ("count", "lower"),
    "rrset.sampler.members": ("count", "lower"),
    "rrset.sampler.self_s": ("s", "lower"),
    "rrset.tim.kpt_calls": ("count", "lower"),
    "rrset.tim.kpt_sets": ("count", "lower"),
    "rrset.tim.kpt_self_s": ("s", "lower"),
    "rrset.tim.kpt_total_s": ("s", "lower"),
    "rrset.collection.select_calls": ("count", "lower"),
    "rrset.collection.select_s": ("s", "lower"),
    "rrset.collection.cover_calls": ("count", "lower"),
    "rrset.collection.cover_s": ("s", "lower"),
    "rrset.collection.sets_covered": ("count", "higher"),
    "rrset.collection.ingest_s": ("s", "lower"),
    "rrset.collection.invalidate_s": ("s", "lower"),
    "rrset.collection.replace_s": ("s", "lower"),
    "rrset.collection.bytes_per_rr_set": ("B", "lower"),
    "core.ti_engine.rounds": ("count", "lower"),
    "core.ti_engine.self_s": ("s", "lower"),
    "core.ti_engine.selects_per_round": ("ratio", "lower"),
    "core.ti_engine.revenue_in_sample": ("revenue", "higher"),
    "core.ti_engine.revenue_bias": ("ratio", "lower"),
    "api.session.fill_s": ("s", "lower"),
    "api.session.apply_s": ("s", "lower"),
    "api.session.checked_sets": ("count", "lower"),
    "api.session.invalidated_sets": ("count", "lower"),
    "api.session.invalidation_rate": ("fraction", "lower"),
    "api.session.sets_sampled": ("count", "lower"),
    "api.session.store_hit_rate": ("fraction", "higher"),
    "api.session.store_bytes": ("B", "lower"),
    "graph.updates.compile_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.transport_s": ("s", "lower"),
    "serve.lease_s": ("s", "lower"),
    "serve.warm_hit_rate": ("fraction", "higher"),
    "serve.rejects": ("count", "lower"),
    "serve.solve_errors": ("count", "lower"),
    "trace.latency_p50_s": ("s", "lower"),
    "trace.untraced_latency_p50_s": ("s", "lower"),
    "trace.overhead": ("fraction", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


class BenchError(Exception):
    """A workload process failed or broke the output contract."""


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py with *args*; its last stdout line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {args}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed ({proc.returncode}): {args}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One workload's report: end-to-end (trace 0) or per-layer (trace 1)."""
    OUT.mkdir(exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)]
    probes = 0 if trace else SETUP_RUNS_BEFORE
    setups = [run_child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    extra = ["--spans", str(OUT / f"{name}-seed{seed}-spans.jsonl")] if trace else []
    report = run_child(
        base + ["--seconds", str(seconds), "--trace", str(trace)] + extra, deadline
    )
    setups.append(report["setup_s"])
    probes = 0 if trace else SETUP_RUNS_AFTER
    setups += [run_child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    report["setup_runs_s"] = setups
    report["metrics"]["setup_s"] = statistics.median(setups)
    report["samples"]["setup_s"] = len(setups)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def selected_metrics(report: dict, trace: int) -> dict:
    values, table = (report["layers"], PER_LAYER) if trace else (report["metrics"], END_TO_END)
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}


def print_report(report: dict, metrics: dict, trace: int) -> None:
    prov = report["provenance"]
    print(f"# {report['workload']}  seed {report['seed']}  trace {trace}  "
          f"nproc {prov['nproc']}  python {prov['python']}  numpy {prov['numpy']}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    samples = report["layer_samples"] if trace else report["samples"]
    for name, metric in metrics.items():
        count = samples[name]
        print(f"{name:38s} {metric['value']:>16.6g} {metric['unit']:<11s} n={count}")
    if not trace:
        print(f"{'error_rate':38s} {report['metrics']['error_rate']:>16.6g} "
              f"{'fraction':<11s} n={report['attempted']}")
    else:
        print("# design " + json.dumps(report["design"], sort_keys=True))
    print("# checks " + json.dumps(report["run_checks"], sort_keys=True))
    for failure in report["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            chosen = selected_metrics(report, args.trace)
            print_report(report, chosen, args.trace)
            attempted += report["attempted"]
            failed += report["failed"]
            correct = correct and report["failed"] == 0
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + key: value for key, value in chosen.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
