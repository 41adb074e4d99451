#!/usr/bin/env python
"""One SHA-256 over a fixed set of seeded solves: "same answers" as one command.

Runs a fixed matrix of solves and prints one digest line, then one
``<sha256> <label>`` line per record.  Run it on two trees and compare
the first line: equal digests mean every recorded output is bit for bit
the same.  The records cover:

* 128 serial cold solves: the four built-in algorithms x
  ``share_samples`` x ``opt_lower`` (KPT or the dataset's singleton
  bounds) x ``window`` (None or 5) x ``theta_cap`` (120 or 2000) on
  ``epinions_syn`` and ``flixster_syn`` (n=300, h=4);
* ``workers=2`` cold solves, private and shared;
* spilled stores (``rr_bytes_budget=1``), serial and ``workers=2``;
* a warm session per worker setting: two solves, one 20-edge batch,
  two solves on the mutated graph, with the mutation report;
* :class:`~repro.core.oracles.RRStaticOracle`, serial and ``workers=2``;
* the front ends: the ``run_grid`` rows of ``specs/smoke.json``,
  ``specs/smoke_warm.json``, ``specs/dynamic_smoke.json`` and an inline
  two-dataset warm spec, each run under its own execution mode and cold;
  an in-process ``ReproServer``'s answers to a fixed query list; and
  what ``repro run`` prints for two argument sets.

Each solve record holds the seed sets, per-ad revenue and seeding cost
as float hex, theta and seed-size estimates per ad, rounds, the
``memory`` block and the state of every sampling generator after the
solve.  Front-end records hold what the front end reports, minus wall-clock
fields (``runtime_s``, ``serve.queue_wait_s``, ``time=``).

Usage: ``python tools/solve_digest.py [--out records.json] [repo_root]``.
The script puts ``<root>/src`` on ``sys.path`` itself, so a checkout of
another commit is compared by passing its root.  It takes a few seconds
on two cores and starts two-worker pools.

``python tools/solve_digest.py --against REV`` makes the comparison
itself: it extracts commit REV of this repository with ``git archive``
into a temporary directory and runs this script over this tree's root
and over REV's in separate processes.  When this script cannot run over
REV (a record it added needs code REV lacks), REV's own script digests
REV instead.  It prints both digest lines, the labels of the records
only one side has, and the label of every shared record whose hash
differs.  It exits 0 when every shared record is equal (so a change
that only adds or removes records passes), 1 when one differs or no
record is shared, and 2 when REV cannot be extracted or run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
import threading
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("root", nargs="?", default=None, help="repository root")
parser.add_argument("--out", default=None, help="write the records as JSON here")
parser.add_argument(
    "--against", metavar="REV", default=None,
    help="compare this tree's digest with commit REV's (exit 1 if they differ)",
)
ARGS = parser.parse_args()
ROOT = Path(ARGS.root).resolve() if ARGS.root else Path(__file__).resolve().parents[1]


def _digest_lines(root: Path, script: Path | None = None) -> list[str] | None:
    """*script*'s output over *root* (this script by default), run in a
    fresh process; ``None`` when it fails."""
    script = script or Path(__file__).resolve()
    run = subprocess.run(
        [sys.executable, str(script), str(root)], capture_output=True, text=True
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return None
    return run.stdout.splitlines()


def _record_hashes(lines: list[str]) -> dict[str, str]:
    """Label -> hash of the ``<sha256> <label>`` lines after the digest."""
    return {label: h for h, label in (line.split(" ", 1) for line in lines[1:])}


def against(rev: str) -> int:
    """Compare this tree's digest with commit *rev*'s; the exit code."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
    )
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        print(f"cannot extract {rev!r}")
        return 2
    ours = _digest_lines(ROOT)
    if ours is None:
        print("this tree cannot be run")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = _digest_lines(Path(tmp))
        own = Path(tmp) / "tools" / "solve_digest.py"
        if theirs is None and own.exists():
            # Records this tree added may need code REV lacks: compare
            # with what REV's own script records.
            print(f"this tree's digest cannot run on {rev}; using {rev}'s own")
            theirs = _digest_lines(Path(tmp), own)
    if theirs is None:
        print(f"{rev} cannot be run")
        return 2
    print(f"this tree: {ours[0]}")
    print(f"{rev}: {theirs[0]}")
    mine, other = _record_hashes(ours), _record_hashes(theirs)
    shared = [label for label in mine if label in other]
    report = {
        "only in this tree": [label for label in mine if label not in other],
        f"only in {rev}": [label for label in other if label not in mine],
        "differ": [label for label in shared if mine[label] != other[label]],
    }
    for title, labels in report.items():
        if labels:
            print(f"{title}: {len(labels)} records")
            for label in labels:
                print(f"  {label}")
    if report["differ"] or not shared:
        return 1
    print(f"equal: {len(shared)} shared records")
    return 0


if ARGS.against is not None:
    sys.exit(against(ARGS.against))

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import AllocationSession, EngineSpec  # noqa: E402
from repro.api.session import apply_edge_batch  # noqa: E402
from repro.api.solve import resolve_spec  # noqa: E402
from repro.core.instance import RMInstance  # noqa: E402
from repro.core.oracles import RRStaticOracle  # noqa: E402
from repro.core.ti_engine import TIEngine  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.datasets import build_dataset  # noqa: E402
from repro.experiments.grid import GridSpec, run_grid  # noqa: E402
from repro.graph.updates import random_update_batch  # noqa: E402
from repro.serve import ReproServer, ServeConfig  # noqa: E402

ALGORITHMS = ("TI-CSRM", "TI-CARM", "PageRank-GR", "PageRank-RR")
DATASETS = ("epinions_syn", "flixster_syn")
N, H, SEED = 300, 4, 7


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _state(rng) -> dict:
    return rng.bit_generator.state


def _result_fields(result) -> dict:
    extras = result.extras
    return {
        "seeds": result.allocation.seed_sets(),
        "revenue": _hex(result.revenue_per_ad),
        "seeding_cost": _hex(result.seeding_cost_per_ad),
        "theta": extras["theta_per_ad"],
        "s_est": extras["seed_size_estimate_per_ad"],
        "rounds": extras["rounds"],
        "memory_bytes": extras["memory_bytes"],
        "memory": extras["memory"],
        "degraded": extras["degraded"],
    }


def cold(instance, algorithm: str, spec: EngineSpec) -> dict:
    """What ``repro.solve`` returns, plus each ad's generator state after."""
    definition, resolved = resolve_spec(algorithm, spec)
    engine = TIEngine(
        instance,
        resolved,
        candidate_rule=definition.candidate_rule,
        selector=definition.selector,
        algorithm_name=definition.display(resolved),
    )
    result = engine.run()
    return {
        **_result_fields(result),
        "rng_states": [_state(st.group.rng) for st in engine._states],
    }


def session_records(dataset, workers) -> list[tuple[str, dict]]:
    instance = dataset.build_instance(alpha=0.5, h=H)
    spec = EngineSpec(eps=0.4, theta_cap=2000, seed=SEED, workers=workers)
    records = []
    with AllocationSession(instance.graph, spec=spec) as session:

        def solve_all(inst, tag):
            for algorithm in ("TI-CSRM", "TI-CARM"):
                result = session.solve(inst, algorithm)
                states = [_state(g.rng) for g in session._warm.stores.values()]
                records.append((
                    f"session/w{workers}/{tag}/{algorithm}",
                    {**_result_fields(result), "rng_states": states},
                ))

        solve_all(instance, "before")
        batch = random_update_batch(instance.graph, np.random.default_rng(SEED), 20)
        graph, probs, report = apply_edge_batch(
            instance.graph, instance.ad_probs, batch, session
        )
        records.append((f"session/w{workers}/mutation", report))
        mutated = RMInstance(graph, instance.advertisers, probs, instance.incentives)
        solve_all(mutated, "after")
    return records


def oracle_record(instance, workers) -> dict:
    rng = np.random.default_rng(SEED)
    oracle = RRStaticOracle(instance, n_samples=3000, seed=rng, workers=workers)
    probes = ([0], [1, 2, 3], list(range(0, N, 7)))
    return {
        "spreads": [
            _hex(oracle.spread(ad, s) for s in probes) for ad in range(instance.h)
        ],
        "rng_state": _state(rng),
    }


#: Grid specs whose rows are recorded: committed files, then inline.
GRID_SPECS = ("smoke.json", "smoke_warm.json", "dynamic_smoke.json")
TWO_DATASET_WARM = {
    "name": "digest_two_datasets",
    "datasets": [
        {"name": "epinions_syn", "n": 120, "h": 3, "singleton_rr_samples": 400},
        {"name": "flixster_syn", "n": 120, "h": 3, "singleton_rr_samples": 400},
    ],
    "algorithms": ["TI-CSRM", "TI-CARM"],
    "h": [None, 2],
    "budgets": [None, 80],
    "cpes": [None, 1.5],
    "windows": [None, 4],
    "seed": 5,
    "execution": {"mode": "warm_per_dataset"},
    "config": {"eps": 1.0, "theta_cap": 150, "opt_lower_mode": "kpt"},
}

#: Served queries: two pool keys, both algorithms, a repeated query, and
#: h / budget / CPE / window / incentive overrides.
SERVE_ENTRIES = (
    {"name": "epinions_syn", "n": 80, "h": 2, "singleton_rr_samples": 400},
    {"name": "flixster_syn", "n": 80, "h": 3, "singleton_rr_samples": 400},
)
SERVE_QUERIES = (
    {"dataset": 0, "seed": 1},
    {"dataset": 0, "algorithm": "TI-CARM", "seed": 2},
    {"dataset": 1, "seed": 3},
    {"dataset": 0, "seed": 1},
    {"dataset": 0, "h": 1, "budget": 60, "seed": 4},
    {"dataset": 1, "algorithm": "TI-CARM", "cpe": 1.5, "alpha": 0.5, "seed": 5},
    {"dataset": 1, "window": 3, "seed": 6},
    {"dataset": 0, "incentive_model": "constant", "alpha": 2.0},
)

#: ``repro run`` argument sets.
CLI_RUNS = (
    ["run", "--dataset", "epinions_syn", "--n", "150", "--h", "3",
     "--algorithm", "TI-CSRM", "--seed", "9", "--eps", "0.8", "--theta-cap", "300"],
    ["run", "--dataset", "flixster_syn", "--n", "120", "--h", "2",
     "--algorithm", "TI-CARM", "--incentives", "constant", "--alpha", "2.0",
     "--seed", "3", "--eps", "1.0", "--theta-cap", "200", "--share-samples"],
)


def grid_records() -> list[tuple[str, dict]]:
    specs = [json.loads((ROOT / "specs" / name).read_text()) for name in GRID_SPECS]
    specs.append(TWO_DATASET_WARM)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for data in specs:
            spec = GridSpec.from_dict(data)
            for mode in dict.fromkeys((spec.execution_mode, "cold")):
                manifest = str(Path(tmp) / f"{spec.name}_{mode}.jsonl")
                rows = run_grid(spec, manifest, resume=False, execution=mode)
                rows = [{k: v for k, v in row.items() if k != "runtime_s"}
                        for row in rows]
                out.append((f"grid/{spec.name}/{mode}", {"rows": rows}))
    return out


def serve_records() -> list[tuple[str, dict]]:
    config = ExperimentConfig(eps=1.0, theta_cap=150, seed=7)
    server = ReproServer(ServeConfig(config=config))
    solver = threading.Thread(target=server.run, daemon=True)
    solver.start()
    out = []
    try:
        for index, query in enumerate(SERVE_QUERIES):
            query = {**query, "dataset": dict(SERVE_ENTRIES[query["dataset"]])}
            status, payload = server.submit(query)
            payload = {k: v for k, v in payload.items() if k != "runtime_s"}
            if "serve" in payload:
                payload["serve"] = {
                    k: v for k, v in payload["serve"].items() if k != "queue_wait_s"
                }
            out.append((f"serve/{index}", {"status": status, "payload": payload}))
    finally:
        server.begin_drain()
        solver.join(timeout=60)
        server.shutdown()
    return out


def cli_records() -> list[tuple[str, dict]]:
    out = []
    for index, argv in enumerate(CLI_RUNS):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(list(argv))
        text = re.sub(r" time=\S+s", "", buffer.getvalue())
        out.append((f"cli/run/{index}", {"exit": code, "stdout": text}))
    return out


def records() -> list[tuple[str, dict]]:
    out = []
    for name in DATASETS:
        dataset = build_dataset(name, n=N, h=H, seed=SEED)
        instance = dataset.build_instance(alpha=0.5, h=H)
        bounds = tuple(dataset.opt_lower_bounds(H))
        for algorithm in ALGORITHMS:
            for share in (False, True):
                for opt_name, opt_lower in (("kpt", "kpt"), ("singleton", bounds)):
                    for window in (None, 5):
                        for cap in (120, 2000):
                            spec = EngineSpec(
                                eps=0.4, theta_cap=cap, opt_lower=opt_lower,
                                window=window, share_samples=share, seed=SEED,
                            )
                            label = (
                                f"cold/{name}/{algorithm}/share={share}/"
                                f"{opt_name}/window={window}/cap={cap}"
                            )
                            out.append((label, cold(instance, algorithm, spec)))
        for workers, share, budget in (
            (2, False, None), (2, True, None), (None, True, 1), (2, True, 1),
        ):
            spec = EngineSpec(
                eps=0.4, theta_cap=2000, share_samples=share, workers=workers,
                rr_bytes_budget=budget, seed=SEED,
            )
            label = f"cold/{name}/TI-CSRM/workers={workers}/share={share}"
            out.append((f"{label}/budget={budget}", cold(instance, "TI-CSRM", spec)))
        if name == DATASETS[0]:
            for workers in (None, 2):
                out.extend(session_records(dataset, workers))
                out.append((f"oracle/w{workers}", oracle_record(instance, workers)))
    return out + grid_records() + serve_records() + cli_records()


def main() -> int:
    recs = records()
    lines = []
    digest = hashlib.sha256()
    for label, record in recs:
        blob = json.dumps(record, sort_keys=True).encode()
        record_hash = hashlib.sha256(blob).hexdigest()
        digest.update(record_hash.encode())
        lines.append(f"{record_hash} {label}")
    print(f"{digest.hexdigest()} {len(recs)} records")
    print("\n".join(lines))
    if ARGS.out:
        Path(ARGS.out).write_text(
            json.dumps([{"label": label, **record} for label, record in recs],
                       sort_keys=True, indent=1)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
