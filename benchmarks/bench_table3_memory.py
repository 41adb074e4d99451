"""Table 3: memory usage of TI-CARM / TI-CSRM as h grows.

Paper shape (GB of process memory at full scale): memory grows linearly
in h, and TI-CSRM needs more than TI-CARM — typically 20–40% more on
LIVEJOURNAL — because its cost-sensitive seeding certifies larger seed
set sizes, hence larger ``L(s, ε)`` RR samples.  The reproduced quantity
is the tracked RR storage in MB (docs/ARCHITECTURE.md §4.1), measured on
analogs (the opening of docs/EXPERIMENTS.md) small enough that the
honest Eq.-8 sample sizes stay below the θ cap (a binding cap would
equalize the two algorithms by construction).
"""

from dataclasses import replace

import pytest

from repro.experiments.reporting import format_table, save_report
from repro.experiments.tables import table3_rows

from benchmarks.conftest import FULL, run_once

H_VALUES = (1, 5, 10, 15, 20) if FULL else (1, 3, 6)


def test_table3_memory(benchmark, dblp_small, livejournal_small, bench_config):
    config = replace(bench_config, theta_cap=40_000)
    rows = run_once(
        benchmark,
        table3_rows,
        [dblp_small, livejournal_small],
        config=config,
        h_values=H_VALUES,
    )
    text = format_table(rows)
    print("\n== Table 3: RR-collection memory (MB) vs h ==\n" + text)
    save_report("table3_memory", text)

    columns = [f"h={h} (MB)" for h in H_VALUES]
    for row in rows:
        values = [row[c] for c in columns]
        # Memory grows with h...
        assert values == sorted(values)
        # ...with a stabilizing per-ad slope (the paper's linear regime):
        # compare the per-ad memory between the middle and last h.
        mid_slope = values[1] / H_VALUES[1]
        last_slope = values[-1] / H_VALUES[-1]
        assert last_slope <= 3.0 * mid_slope
    # TI-CSRM uses at least as much memory as TI-CARM per dataset.
    by_ds: dict = {}
    for row in rows:
        by_ds.setdefault(row["dataset"], {})[row["algorithm"]] = row[columns[-1]]
    for dataset, values in by_ds.items():
        assert values["TI-CSRM"] >= 0.95 * values["TI-CARM"], dataset
