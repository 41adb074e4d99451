"""Grid execution-mode benchmark (perf trajectory: ``BENCH_grid.json``).

Measures what ``execution: warm_per_dataset`` buys on the paper's
evaluation shape — a Figure-5-style scenario grid (one dataset, an
``h`` sweep, two algorithms, a TI-CSRM window) where every cell
re-solves the *same* graph + probability family:

* **cold** — today's default: every cell samples its RR sets from
  scratch (results independent of execution order);
* **warm_per_dataset** — one :class:`repro.AllocationSession` per
  dataset group; cells after the group's first adopt the already-drawn
  stores and sample only past their end.

The report embeds the per-cell ``session`` provenance blocks from the
warm manifest, so the mechanism is visible next to the wall-clock
numbers: one store-filling cell, then near-zero ``sets_sampled``
deltas.  Statistical parity between the modes is asserted by
``tests/test_grid_warm.py``; this file measures the speed.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_grid_warm.py``,
or via ``pytest benchmarks/bench_grid_warm.py`` (structure checks only —
wall-clock ratios from one machine would fail spuriously elsewhere).
Like the other ``BENCH_*.json`` files, the committed numbers extend the
trajectory; re-run on your own host to compare.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.grid import GridSpec, run_grid

try:  # package import (pytest from the repo root)
    from benchmarks.trajectory import append_entry
except ImportError:  # standalone: python benchmarks/<script>.py
    from trajectory import append_entry

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_grid.json"

#: A scaled-down specs/fig5.json: same dataset family, axes and window
#: shape, sized for a laptop-class container (the committed spec's
#: n=2000/h<=20 grid takes minutes cold).
WORKLOAD = {
    "name": "fig5_bench",
    "datasets": [{"name": "dblp_syn", "n": 800, "h": 8}],
    "algorithms": ["TI-CSRM", "TI-CARM"],
    "h": [1, 4, 8],
    # Scaled with the smaller graph's spreads so every cell seats seeds
    # (at 60.0, TI-CARM's max-coverage candidate is never affordable on
    # the h=1 cell and the cell reports zero revenue).
    "budgets": [150.0],
    "incentive_models": ["linear"],
    "alphas": [0.5],
    "windows": [200],
    "seed": 7,
    "config": {"eps": 0.5, "theta_cap": 2000},
}


def _run_mode(mode: str, directory: str) -> tuple[float, list[dict]]:
    spec = GridSpec.from_dict(
        {**WORKLOAD, "execution": {"mode": mode}}
        if mode != "cold"
        else WORKLOAD
    )
    manifest = str(Path(directory) / f"{mode}.jsonl")
    start = time.perf_counter()
    rows = run_grid(spec, manifest)
    return time.perf_counter() - start, rows


def run_benchmark() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        cold_s, cold_rows = _run_mode("cold", directory)
        warm_s, warm_rows = _run_mode("warm_per_dataset", directory)

    def cells(rows):
        return [
            {
                "algorithm": row["algorithm"],
                "h": row["h"],
                "revenue": round(row["revenue"], 1),
                "runtime_s": round(row["runtime_s"], 4),
            }
            for row in rows
        ]

    sessions = [row["session"] for row in warm_rows]
    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": WORKLOAD,
        "cold": {"total_s": round(cold_s, 4), "cells": cells(cold_rows)},
        "warm_per_dataset": {
            "total_s": round(warm_s, 4),
            "cells": cells(warm_rows),
            "session_blocks": sessions,
            "sets_sampled_total": sum(s["sets_sampled"] for s in sessions),
            "store_misses_total": sum(s["store_misses"] for s in sessions),
        },
        "speedup": {"grid_total": round(cold_s / max(warm_s, 1e-9), 2)},
        "note": (
            "same spec both modes (a scaled specs/fig5.json); warm groups "
            "all cells into one AllocationSession per dataset entry, so "
            "session_blocks should show one store-filling cell and "
            "near-zero sets_sampled everywhere after it; revenues differ "
            "statistically, not systematically (tests/test_grid_warm.py)"
        ),
    }
    return report


def main() -> None:
    report = run_benchmark()
    append_entry(RESULT_PATH, report)  # append-only: history is kept
    print(json.dumps(report, indent=2))
    print(f"# written to {RESULT_PATH}")


# -- pytest wrappers (structure only; see module docstring) -------------
def test_report_structure():
    report = run_benchmark()
    cold, warm = report["cold"], report["warm_per_dataset"]
    n_cells = len(WORKLOAD["h"]) * len(WORKLOAD["algorithms"])
    assert len(cold["cells"]) == len(warm["cells"]) == n_cells
    assert [c["h"] for c in cold["cells"]] == [c["h"] for c in warm["cells"]]
    # One dataset entry, one probability vector: exactly one store fill.
    assert warm["store_misses_total"] == 1
    blocks = warm["session_blocks"]
    assert blocks[0]["solve_index"] == 0 and not blocks[0]["warm_resolve"]
    assert all(b["warm_resolve"] for b in blocks[1:])
    # The whole warm grid samples at most ~one cold cell's worth of sets
    # beyond the first fill (growth past the largest-h store prefix).
    assert warm["sets_sampled_total"] <= 2 * blocks[0]["sets_sampled"]


if __name__ == "__main__":
    main()
