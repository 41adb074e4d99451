"""Self-test of the benchmark: determinism, workload design, metric tables.

    python3 perfbench/selftest.py [--seed 1] [--seconds 8]

Not part of the repository's test suite (it takes a few minutes).  For
each workload it makes two traced runs with one seed and one with the
next seed, through run.py, and checks that

* per-layer counts (every per-layer metric that is not a time) and
  revenue_oos repeat exactly for a seed, so later changes may rest a
  count-based claim on them;
* another seed changes the request stream;
* the workload does what NOTES.md says it is for: serve_warm draws no RR
  set and makes no KPT call in its timed phase, sampling plus KPT take
  more than half of a cold_solve request, KPT is the largest layer of
  graph_churn, and every run reports its tracing overhead.

It also checks that BENCHMARK.json lists exactly the metrics run.py
prints, and that graph_churn's batch-by-batch update generation draws
the same batches as ``random_update_schedule``.  Exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

RESULTS: dict[str, bool] = {}


def check(name: str, ok: bool, detail="") -> None:
    RESULTS[name] = bool(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{'' if ok else f'  {detail}'}", flush=True)


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"traced run of {workload} seed {seed} failed")
    with open(run.OUT / f"{workload}-seed{seed}-trace1.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_tables() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = lambda key: {m["name"]: (m["unit"], m["better"]) for m in bench[key]}  # noqa: E731
    check("BENCHMARK.json end_to_end == run.END_TO_END", listed("end_to_end") == run.END_TO_END)
    check("BENCHMARK.json per_layer == run.PER_LAYER", listed("per_layer") == run.PER_LAYER)
    check("BENCHMARK.json workloads == run.WORKLOADS",
          [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))


def check_schedule() -> None:
    import numpy as np

    import workload
    from repro.graph.updates import compile_updates, random_update_batch, random_update_schedule

    for ds in workload.build_datasets():
        expected = random_update_schedule(ds.graph, 123, batches=3, edges_per_batch=workload.BATCH_EDGES)
        rng, graph, drawn = np.random.default_rng(123), ds.graph, []
        for k in range(3):
            drawn.append(random_update_batch(graph, rng, workload.BATCH_EDGES, ts=k))
            graph = compile_updates(graph, drawn[-1]).new_graph
        check(f"{ds.name}: batch-by-batch updates == random_update_schedule", drawn == expected)


def check_workload(name: str, seed: int, seconds: float) -> None:
    first, again, other = (traced(name, s, seconds) for s in (seed, seed, seed + 1))
    repeatable = [
        metric for metric, (unit, _) in run.PER_LAYER.items()
        if unit != "s" and metric != "trace.overhead"
    ]
    moved = {m: (first["layers"][m], again["layers"][m]) for m in repeatable
             if first["layers"][m] != again["layers"][m]}
    check(f"{name}: per-layer counts repeat for one seed", not moved, moved)
    check(f"{name}: revenue_oos repeats for one seed",
          first["metrics"]["revenue_oos"] == again["metrics"]["revenue_oos"])
    check(f"{name}: another seed changes the request stream",
          first["provenance"]["first_requests"] != other["provenance"]["first_requests"]
          and first["metrics"]["revenue_oos"] != other["metrics"]["revenue_oos"])
    for report in (first, again, other):
        check(f"{name} seed {report['seed']}: all checks pass", report["failed"] == 0,
              report["failures"])
    overhead = first["layers"]["trace.overhead"]
    check(f"{name}: tracing overhead reported ({overhead:+.3f})", math.isfinite(overhead))
    layers, design = first["layers"], first["design"]
    if name == "serve_warm":
        check("serve_warm: timed phase draws 0 RR sets and makes 0 KPT calls",
              layers["rrset.sampler.sets"] == 0 and layers["rrset.tim.kpt_calls"] == 0)
        check("serve_warm: every timed query is a warm hit", layers["serve.warm_hit_rate"] == 1.0)
    if name == "cold_solve":
        share = design["sampler_plus_tim_share"]
        check(f"cold_solve: sampler + KPT self time is {share:.0%} of a request (> 50%)",
              share > 0.5)
    if name == "graph_churn":
        check(f"graph_churn: largest layer is rrset.tim ({design['largest_layer']})",
              design["largest_layer"] == "rrset.tim.kpt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test the benchmark.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    check_tables()
    check_schedule()
    for name in run.WORKLOADS:
        check_workload(name, args.seed, args.seconds)
    failed = [name for name, ok in RESULTS.items() if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
