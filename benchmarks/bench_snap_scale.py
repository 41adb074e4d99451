"""Epinions-scale SNAP crawl under a declared memory budget (ISSUE 7).

End-to-end evidence that the memory-bounded RR pipeline holds at real
crawl scale: a ~75k-node power-law edge list in SNAP's plain-text
format (the same shape as ``soc-Epinions1.txt``: comment header, one
``src\\tdst`` arc per line) is

1. **generated** deterministically (no network in the benchmark box),
2. **ingested** through ``repro ingest --cache`` (parse, dedupe,
   self-loop strip, ``.npz`` cache),
3. **solved** through ``repro grid`` with a declared per-store
   ``rr_bytes_budget``, so shared RR stores spill to memmap instead of
   growing without bound, and every manifest row records measured
   ``bytes_per_rr_set`` / peak-store accounting.

The summary — node/arc counts, declared budget, spill status, measured
bytes-per-RR-set, wall times — is appended (never overwritten)
to ``BENCH_snap_scale.json`` at the repo root.

Run: ``PYTHONPATH=src python benchmarks/bench_snap_scale.py [workdir]``
(default workdir: a fresh temp directory).  The pytest wrapper runs a
scaled-down graph so the structural contract stays cheap to check; the
committed report is the full-scale run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_snap_scale.json"

try:  # package import (pytest from the repo root)
    from benchmarks.trajectory import append_entry
except ImportError:  # standalone: python benchmarks/bench_snap_scale.py
    from trajectory import append_entry

#: Full-scale workload: ≥ 50k nodes (Epinions is 75,879 / 508,837).
FULL = dict(
    n_nodes=75_000,
    n_arcs=500_000,
    graph_seed=42,
    #: Declared per-store RAM budget for RR members: 8 MiB.  Past it
    #: the shared store spills to a temp-file memmap.
    rr_bytes_budget=8 * 1024 * 1024,
    h=2,
    alphas=(0.5, 1.0),
    eps=1.0,
    theta_cap=400,
    singleton_rr_samples=4_000,
    seed=11,
)


def write_snap_edge_list(path: Path, *, n_nodes: int, n_arcs: int, seed: int) -> int:
    """A power-law SNAP-format crawl: heavy-tailed out-degree, uniform heads.

    Mirrors the messiness of a real crawl on purpose: duplicate arcs and
    self loops are left in (ingestion strips them), and the header uses
    SNAP's comment style.  Returns the number of raw lines written.
    """
    rng = np.random.default_rng(seed)
    # Zipf-ish tail capped so one hub cannot own the whole arc budget.
    weights = (np.arange(1, n_nodes + 1, dtype=np.float64)) ** -0.9
    rng.shuffle(weights)
    tails = rng.choice(n_nodes, size=n_arcs, p=weights / weights.sum())
    heads = rng.integers(0, n_nodes, size=n_arcs)
    lines = np.char.add(
        np.char.add(tails.astype(np.str_), "\t"), heads.astype(np.str_)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Synthetic power-law crawl (SNAP format)\n")
        fh.write(f"# Nodes: {n_nodes} Edges: {n_arcs}\n")
        fh.write("\n".join(lines.tolist()))
        fh.write("\n")
    return n_arcs


def run_benchmark(workdir: str | Path, workload: dict = FULL) -> dict:
    """Generate → ``repro ingest`` → ``repro grid`` under the budget."""
    from repro.cli import main as repro_main
    from repro.experiments.grid import clear_grid_caches, load_manifest

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    edge_path = workdir / "snap_crawl.txt"

    t0 = time.perf_counter()
    write_snap_edge_list(
        edge_path,
        n_nodes=workload["n_nodes"],
        n_arcs=workload["n_arcs"],
        seed=workload["graph_seed"],
    )
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    code = repro_main(["ingest", str(edge_path), "--cache"])
    assert code == 0, "repro ingest failed"
    ingest_s = time.perf_counter() - t0

    spec = {
        "name": "snap_scale",
        "datasets": [
            {
                "path": str(edge_path),
                "h": workload["h"],
                "singleton_rr_samples": workload["singleton_rr_samples"],
                "cache": True,
            }
        ],
        "algorithms": ["TI-CSRM"],
        "alphas": list(workload["alphas"]),
        "seed": workload["seed"],
        "config": {
            "eps": workload["eps"],
            "theta_cap": workload["theta_cap"],
            "share_samples": True,
            "rr_bytes_budget": workload["rr_bytes_budget"],
        },
    }
    spec_path = workdir / "snap_scale.json"
    spec_path.write_text(json.dumps(spec, indent=2))
    manifest = workdir / "snap_scale.jsonl"

    clear_grid_caches()
    t0 = time.perf_counter()
    code = repro_main(
        ["grid", "--spec", str(spec_path), "--manifest", str(manifest), "--quiet"]
    )
    grid_s = time.perf_counter() - t0
    clear_grid_caches()
    assert code == 0, "repro grid left quarantined cells"

    _, rows = load_manifest(str(manifest))
    cells = [row for row in rows if row.get("kind") == "cell"]
    assert cells, "grid produced no cells"
    memory_rows = [row["memory"] for row in cells]
    for memory in memory_rows:
        assert memory["rr_bytes_budget"] == workload["rr_bytes_budget"]
        assert memory["bytes_per_rr_set"] > 0

    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "workload": dict(workload),
        "edge_list": {
            "raw_arcs": workload["n_arcs"],
            "generate_s": round(gen_s, 2),
            "ingest_s": round(ingest_s, 2),
        },
        "grid": {
            "cells": len(cells),
            "total_s": round(grid_s, 2),
            "revenues": [round(row["revenue"], 2) for row in cells],
        },
        "memory": {
            "declared_rr_bytes_budget": workload["rr_bytes_budget"],
            "bytes_per_rr_set": [
                round(m["bytes_per_rr_set"], 2) for m in memory_rows
            ],
            "peak_store_bytes": [m["peak_store_bytes"] for m in memory_rows],
            "spilled_stores": [m["spilled_stores"] for m in memory_rows],
        },
    }


# -- pytest wrapper (scaled down; structure only) -----------------------
def test_snap_scale_pipeline(tmp_path):
    workload = dict(
        FULL,
        n_nodes=2_000,
        n_arcs=10_000,
        rr_bytes_budget=64,
        theta_cap=100,
        singleton_rr_samples=400,
    )
    report = run_benchmark(tmp_path, workload)
    assert report["grid"]["cells"] == len(workload["alphas"])
    assert all(b > 0 for b in report["memory"]["bytes_per_rr_set"])
    assert all(s >= 1 for s in report["memory"]["spilled_stores"])


if __name__ == "__main__":
    workdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro_snap_"
    )
    report = run_benchmark(workdir)
    append_entry(RESULT_PATH, report)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {RESULT_PATH} (workdir: {workdir})")
