"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the experiment pipeline without writing code:

* ``datasets``  — list the synthetic analog datasets and their stats;
* ``run``       — run one algorithm on one experimental cell;
* ``table``     — regenerate Table 1 or 2;
* ``sweep``     — a Figure 2/3-style α sweep on one dataset;
* ``grid``      — run a declarative scenario grid from a JSON spec;
* ``ingest``    — parse a SNAP-style edge list (stats + ``.npz`` cache);
* ``tightness`` — print the Figure 1 theory walkthrough numbers;
* ``serve``     — run the allocation daemon over a warm session pool;
* ``query``     — send one allocation query to a running daemon.

Examples::

    python -m repro datasets
    python -m repro run --dataset epinions_syn --algorithm TI-CSRM \\
        --incentives linear --alpha 1.5 --n 1000
    python -m repro sweep --dataset flixster_syn --models linear constant
    python -m repro grid --spec specs/smoke.json
    python -m repro grid --spec specs/fig5.json --execution warm_per_dataset
    python -m repro ingest data/soc-Epinions1.txt --cache
    python -m repro table --which 1
    python -m repro tightness
    python -m repro serve --port 8642 --serve-bytes-budget 500000000
    python -m repro query --addr 127.0.0.1:8642 --dataset epinions_syn \\
        --n 500 --algorithm TI-CSRM --budget 120
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DATASET_BUILDERS, build_dataset
from repro.experiments.figures import run_alpha_sweep
from repro.experiments.grid import GridCell
from repro.experiments.harness import ALGORITHMS, solve_cell
from repro.experiments.reporting import format_table
from repro.experiments.tables import table1_rows, table2_rows

#: Exit code for malformed input: a ``repro.errors`` failure, reported in
#: one ``error: <Class>: <message>`` line (argparse uses it too).
EXIT_USAGE = 2
#: ``grid`` exit code: the grid completed but left quarantined cells
#: behind (re-run the same manifest to re-attempt them).
EXIT_QUARANTINED = 3


def _dataset_kwargs(args) -> dict:
    kwargs: dict = {}
    if args.n is not None:
        if args.dataset == "livejournal_syn":
            # The R-MAT generator sizes by 2**scale; round to the NEAREST
            # power of two (bit_length()-1 silently rounded down, turning
            # --n 1000 into 512 nodes).
            kwargs["scale"] = max(round(math.log2(max(int(args.n), 1))), 6)
        else:
            kwargs["n"] = args.n
    if args.h is not None:
        kwargs["h"] = args.h
    return kwargs


def _print_run_header(args, dataset) -> None:
    """Echo the effective experiment sizing before results.

    In particular the effective node count: R-MAT datasets round ``--n``
    to a power of two, and the header makes that adjustment visible.
    """
    effective_n = dataset.graph.n
    sizing = f"n={effective_n}"
    if args.n is not None and args.n != effective_n:
        sizing += f" (requested --n {args.n})"
    print(
        f"# dataset={dataset.name} {sizing} m={dataset.graph.m} "
        f"h={dataset.h} seed={args.seed} workers={args.workers}"
    )


def _engine_overrides(args) -> dict:
    """The engine flags the user set, as ``ExperimentConfig`` fields.

    Unset flags are left out, so a grid spec's own ``config`` block
    keeps its values unless the command line overrides them.
    """
    overrides: dict = {}
    if args.workers:
        overrides["workers"] = args.workers
    if args.share_samples:
        overrides["share_samples"] = True
    if args.rr_bytes_budget:
        overrides["rr_bytes_budget"] = args.rr_bytes_budget
    return overrides


def _config(args, **settings) -> ExperimentConfig:
    return ExperimentConfig(
        eps=args.eps,
        theta_cap=args.theta_cap,
        seed=args.seed,
        **settings,
        **_engine_overrides(args),
    )


def cmd_datasets(args) -> int:
    rows = []
    for name in sorted(DATASET_BUILDERS):
        if args.build:
            ds = build_dataset(name, **({"n": args.n} if args.n and name != "livejournal_syn" else {}))
            from repro.graph.stats import compute_stats

            stats = compute_stats(ds.graph, name=name, graph_type=ds.graph_type)
            row = stats.as_row()
            row["paper counterpart"] = ds.meta.get("paper_counterpart", "")
            rows.append(row)
        else:
            rows.append({"dataset": name})
    print(format_table(rows))
    return 0


def cmd_run(args) -> int:
    kwargs = _dataset_kwargs(args)
    cell = GridCell(
        dataset={"name": args.dataset, **kwargs},
        algorithm=args.algorithm,
        incentive_model=args.incentives,
        alpha=args.alpha,
    )
    dataset = build_dataset(args.dataset, **kwargs)
    _print_run_header(args, dataset)
    result, _ = solve_cell(cell, dataset, _config(args), args.seed)
    print(result.summary())
    rows = [
        {
            "ad": i,
            "budget": float(dataset.budgets[i]),
            "revenue": result.revenue_per_ad[i],
            "incentives": result.seeding_cost_per_ad[i],
            "seeds": len(result.allocation.seeds(i)),
        }
        for i in range(dataset.h)
    ]
    print(format_table(rows))
    return 0


def cmd_sweep(args) -> int:
    dataset = build_dataset(args.dataset, **_dataset_kwargs(args))
    _print_run_header(args, dataset)
    config = _config(args, grid_mode=args.grid)
    rows = run_alpha_sweep(
        dataset,
        config,
        incentive_models=tuple(args.models),
        algorithms=tuple(args.algorithms),
    )
    print(format_table(rows))
    return 0


def cmd_table(args) -> int:
    size_kwargs = {"n": args.n} if args.n is not None else {}
    if args.which == 1:
        datasets = [
            build_dataset(
                name,
                **(size_kwargs if name != "livejournal_syn" else {}),
            )
            for name in ("flixster_syn", "epinions_syn", "dblp_syn", "livejournal_syn")
        ]
        print(format_table(table1_rows(datasets)))
    else:
        datasets = [
            build_dataset(name, **size_kwargs)
            for name in ("flixster_syn", "epinions_syn")
        ]
        print(format_table(table2_rows(datasets)))
    return 0


def cmd_grid(args) -> int:
    """Run a scenario grid; see ``docs/EXPERIMENTS.md`` for the manifest.

    Each completed cell appends one JSONL row carrying the cell axes,
    the results (``revenue`` / ``seed_cost`` / ``seeds`` /
    ``runtime_s``), the resolved ``engine_spec``, and — in
    ``warm_per_dataset`` execution — a ``session`` provenance block
    (group key, solve index, per-cell sampler/store-hit deltas).  The
    header line pins the spec digest, config and execution mode; the
    rendered table is persisted via
    :func:`repro.experiments.reporting.save_report` under the results
    directory (``REPRO_RESULTS_DIR``, default ``benchmarks/results/``).

    Failed cells are quarantined as ``"cell_error"`` rows (see
    ``--cell-timeout`` / ``--max-retries``) instead of aborting; when
    any remain, a quarantine table is printed and the command exits
    with code ``EXIT_QUARANTINED`` (3) — re-running the same manifest
    re-attempts exactly those cells.
    """
    from repro.experiments.grid import (
        GridSpec,
        default_manifest_path,
        grid_table_rows,
        run_grid,
    )

    spec = GridSpec.from_json(args.spec)
    manifest = args.manifest or default_manifest_path(spec)
    mode = args.execution or spec.execution_mode
    total = len(spec.cells())
    print(
        f"# grid={spec.name} cells={total} seed={spec.seed} "
        f"execution={mode} manifest={manifest}"
    )

    def progress(done, total, row):
        if not args.quiet:
            prefix = f"# [{done}/{total}] {row['dataset']} {row['algorithm']} "
            if row.get("kind") == "cell_error":
                print(
                    prefix + f"alpha={row['alpha']} -> QUARANTINED "
                    f"{row['error_type']} after {row['attempts']} attempt(s)"
                )
                return
            line = prefix + f"alpha={row['alpha']} -> revenue={row['revenue']:.1f}"
            session = row.get("session")
            if session is not None and "mutations" in row:
                line += (
                    f" [dynamic invalidated={session['invalidated_sets']}"
                    f" rate={session['invalidation_rate']:.3f}"
                    f" resamples={session['resample_batches']}]"
                )
            elif session is not None:
                line += (
                    f" [session {session['group']}"
                    f" solve={session['solve_index']}"
                    f" sampled={session['sets_sampled']}]"
                )
            print(line)

    rows = run_grid(
        spec,
        manifest,
        resume=not args.fresh,
        config_overrides=_engine_overrides(args),
        progress=progress,
        execution=args.execution,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
    )
    errors = [row for row in rows if row.get("kind") == "cell_error"]
    table = format_table(
        grid_table_rows([row for row in rows if row.get("kind") == "cell"])
    )
    print(table)
    from repro.experiments.reporting import save_report

    report_path = save_report(f"grid_{spec.name}", table)
    print(f"# report saved to {report_path}")
    if errors:
        print(f"# {len(errors)} quarantined cell(s):")
        print(
            format_table(
                [
                    {
                        "dataset": row["dataset"],
                        "algorithm": row["algorithm"],
                        "alpha": row["alpha"],
                        "attempts": row["attempts"],
                        "error_type": row["error_type"],
                        "error": row["error"][:60],
                    }
                    for row in errors
                ]
            )
        )
        print("# re-run the same command to re-attempt quarantined cells")
        return EXIT_QUARANTINED
    return 0


def cmd_ingest(args) -> int:
    from repro.graph.io import ingest_cached, ingest_edge_list
    from repro.graph.stats import compute_stats

    kwargs = dict(
        n=args.n,
        remap_ids=not args.no_remap,
        drop_self_loops=not args.keep_self_loops,
        dedupe=not args.no_dedupe,
    )
    if args.cache is not None:
        result = ingest_cached(
            args.path, args.cache or None, refresh=args.refresh, **kwargs
        )
    else:
        result = ingest_edge_list(args.path, **kwargs)
    print(format_table([result.stats_row()]))
    stats = compute_stats(result.graph, name=args.path)
    print(format_table([stats.as_row()]))
    return 0


def cmd_tightness(args) -> int:
    from repro.core.bounds import theorem2_bound, tightness_instance
    from repro.core.greedy import ca_greedy, cs_greedy, exhaustive_optimum
    from repro.core.oracles import ExactOracle

    instance, expected = tightness_instance()
    oracle = ExactOracle(instance)
    _, opt = exhaustive_optimum(instance, oracle)
    rows = [
        {"quantity": "optimal revenue", "value": opt},
        {
            "quantity": "CA-GREEDY (adversarial ties)",
            "value": ca_greedy(instance, oracle, tie_break="cost").total_revenue,
        },
        {
            "quantity": "CS-GREEDY",
            "value": cs_greedy(instance, oracle).total_revenue,
        },
        {
            "quantity": "Theorem 2 bound",
            "value": theorem2_bound(
                expected["kappa_pi"], expected["lower_rank"], expected["upper_rank"]
            ),
        },
    ]
    print(format_table(rows))
    return 0


def cmd_serve(args) -> int:
    """Run the allocation daemon until drained (SIGTERM/SIGINT/max-queries).

    The solver loop runs on this (main) thread, which is what arms the
    SIGALRM per-query deadline (``--query-timeout``); the HTTP frontend
    runs on a background thread.  The engine config (accuracy, workers,
    per-store byte budget) is fixed here for every pooled
    session — queries choose datasets and marketplace axes only.
    """
    from repro.serve import ReproServer, ServeConfig

    server = ReproServer(
        ServeConfig(
            host=args.host,
            port=args.port,
            config=_config(args),
            bytes_budget=args.serve_bytes_budget or None,
            max_sessions=args.max_sessions,
            queue_size=args.queue_size,
            query_timeout_s=args.query_timeout,
            max_queries=args.max_queries,
        )
    )
    # Parsed by tools/serve_smoke.py and shell scripts: keep the
    # "listening on" line first and flushed before any solving starts.
    print(f"# repro-serve listening on {server.address}", flush=True)
    print(
        f"# sessions: bytes_budget={server.pool.bytes_budget or 'unbounded'} "
        f"max_sessions={server.pool.max_sessions or 'unbounded'} "
        f"queue_size={server.config.queue_size} "
        f"query_timeout={server.config.query_timeout_s or 'unbounded'}",
        flush=True,
    )
    server.install_signal_handlers()
    server.serve_forever()
    counters = server.counters
    print(
        f"# drained: served={counters['queries_served']} "
        f"rejected={counters['admission_rejects']} "
        f"errors={counters['solve_errors']} "
        f"timeouts={counters['query_timeouts']} "
        f"evictions={server.pool.counters['evictions']}",
        flush=True,
    )
    return 0


def cmd_query(args) -> int:
    """Send one query (or a stats/health probe) to a running daemon."""
    import json as _json

    from repro.serve import client as serve_client

    if args.stats or args.healthz:
        path = "/stats" if args.stats else "/healthz"
        _, payload = serve_client.request(
            args.addr, path, timeout=args.timeout
        )
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not args.dataset and not args.dataset_path:
        print("repro query: --dataset or --dataset-path is required", file=sys.stderr)
        return 2
    entry: dict = (
        {"path": args.dataset_path} if args.dataset_path else {"name": args.dataset}
    )
    if args.n is not None:
        entry["n"] = args.n
    if args.dataset_h is not None:
        entry["h"] = args.dataset_h
    payload = serve_client.query(
        args.addr,
        timeout=args.timeout,
        dataset=entry,
        algorithm=args.algorithm,
        h=args.h,
        budget=args.budget,
        cpe=args.cpe,
        incentive_model=args.incentives,
        alpha=args.alpha,
        window=args.window,
        seed=args.seed,
    )
    serve = payload.get("serve", {})
    print(
        f"# {payload['algorithm']}: revenue={payload['revenue']:.1f} "
        f"seed_cost={payload['seed_cost']:.1f} seeds={payload['seeds']} "
        f"time={payload['runtime_s']:.2f}s seed={payload['effective_seed']}"
    )
    print(
        f"# serve: pool_key={serve.get('pool_key')} "
        f"warm={serve.get('warm_session')} "
        f"sampled={serve.get('sets_sampled')} "
        f"queue_wait={serve.get('queue_wait_s')}s"
    )
    rows = [
        {
            "ad": i,
            "revenue": payload["revenue_per_ad"][i],
            "incentives": payload["seeding_cost_per_ad"][i],
            "seeds": len(seeds),
        }
        for i, seeds in enumerate(payload["allocation"])
    ]
    print(format_table(rows))
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    # The linter lives in the repo checkout (tools/lint), not the
    # installed package: repro/cli.py -> repro -> src -> <root>.
    root = Path(__file__).resolve().parents[2]
    if not (root / "tools" / "lint").is_dir():
        print(
            "repro lint: tools/lint not found next to this checkout "
            f"(looked under {root}) — run from a source tree",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.lint.cli import main as lint_main

    return lint_main(list(args.lint_args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Revenue maximization in incentivized social advertising "
        "(Aslay et al., VLDB 2017) — reproduction CLI",
        allow_abbrev=False,
    )
    # Flags are spelled in full: an abbreviation would turn a --h given
    # to a command without --h into --help.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    # Shared flags, each declared only on the commands that read it:
    # --n (datasets, run, sweep, table), --h (run, sweep) and the
    # accuracy flags (run, sweep, serve).  --grid is sweep's own.
    size_n = argparse.ArgumentParser(add_help=False)
    size_n.add_argument("--n", type=int, default=None, help="graph size override")
    size_h = argparse.ArgumentParser(add_help=False)
    size_h.add_argument("--h", type=int, default=None, help="number of advertisers")
    accuracy = argparse.ArgumentParser(add_help=False)
    accuracy.add_argument("--eps", type=float, default=0.5, help="estimator accuracy")
    accuracy.add_argument("--theta-cap", type=int, default=2000, dest="theta_cap")
    accuracy.add_argument("--seed", type=int, default=7)

    # Engine flags, only for the commands that solve (run, sweep, serve,
    # grid); see _engine_overrides.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--workers",
        type=int,
        default=0,
        help="RR sampler worker processes; >= 2 selects the shared-memory "
        "parallel backend, 0/1 the bit-reproducible serial one",
    )
    engine.add_argument(
        "--share-samples",
        action="store_true",
        dest="share_samples",
        help="store probability-identical ads' RR sets once (shared stores)",
    )
    engine.add_argument(
        "--rr-bytes-budget",
        type=int,
        default=0,
        dest="rr_bytes_budget",
        help="RAM budget in bytes per shared RR store; past it members "
        "spill to a temp-file memmap (0 = not set: unbounded, or the grid "
        "spec's value)",
    )

    p = sub.add_parser("datasets", parents=[size_n], help="list analog datasets")
    p.add_argument("--build", action="store_true", help="build and show stats")
    p.set_defaults(func=cmd_datasets)

    from repro.api.registry import algorithm_names

    p = sub.add_parser(
        "run", parents=[size_n, size_h, accuracy, engine], help="run one algorithm"
    )
    p.add_argument("--dataset", choices=sorted(DATASET_BUILDERS), required=True)
    # Choices come from the live registry, so algorithms registered
    # before main() (e.g. via a sitecustomize or wrapper script) are
    # directly runnable from the command line.
    p.add_argument("--algorithm", choices=algorithm_names(), default="TI-CSRM")
    p.add_argument(
        "--incentives",
        choices=("linear", "constant", "sublinear", "superlinear"),
        default="linear",
    )
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep",
        parents=[size_n, size_h, accuracy, engine],
        help="alpha sweep (Fig. 2/3)",
    )
    p.add_argument("--dataset", choices=sorted(DATASET_BUILDERS), required=True)
    p.add_argument(
        "--grid",
        choices=("quick", "paper"),
        default="quick",
        help="alpha grid: the paper's full grid or endpoints plus midpoint",
    )
    p.add_argument(
        "--models",
        nargs="+",
        default=["linear"],
        choices=("linear", "constant", "sublinear", "superlinear"),
    )
    p.add_argument(
        "--algorithms",
        nargs="+",
        default=list(ALGORITHMS),
        choices=algorithm_names(),
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", parents=[size_n], help="regenerate Table 1/2")
    p.add_argument("--which", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "grid",
        parents=[engine],
        help="run a declarative scenario grid from a JSON spec; engine "
        "flags that are set override the spec's config in every cell",
    )
    p.add_argument("--spec", required=True, help="path to a GridSpec JSON file")
    p.add_argument(
        "--manifest",
        default=None,
        help="JSONL run manifest (default: <results dir>/grid_<name>.jsonl); "
        "an existing manifest for the same spec is resumed",
    )
    p.add_argument(
        "--fresh",
        action="store_true",
        help="overwrite the manifest instead of resuming it",
    )
    p.add_argument(
        "--execution",
        # Literal copy of repro.experiments.grid.EXECUTION_MODES: the
        # grid module stays lazily imported (cmd_grid), and run_grid
        # re-validates the value against the real constant anyway.
        choices=("cold", "warm_per_dataset"),
        default=None,
        help="override the spec's execution block: 'cold' solves every "
        "cell from scratch (order-independent results); "
        "'warm_per_dataset' drives each dataset's cells through one "
        "AllocationSession, reusing RR samples across cells and "
        "recording the reuse in each manifest row's session block",
    )
    p.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        dest="cell_timeout",
        help="per-cell wall-clock timeout in seconds (default: the spec's "
        "execution.cell_timeout_s, else unbounded); a timed-out cell is "
        "retried, then quarantined",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        dest="max_retries",
        help="retries after a cell's first failure before quarantining it "
        "(default: the spec's execution.max_retries, else 0)",
    )
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "ingest", help="parse a SNAP-style edge list and report its stats"
    )
    p.add_argument("path", help="text edge list (comments: # or %%)")
    p.add_argument(
        "--n", type=int, default=None, help="declared node count (validated)"
    )
    p.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="NPZ",
        help="write/reuse an .npz parse cache (default: <path>.ingest.npz)",
    )
    p.add_argument(
        "--refresh", action="store_true", help="force re-parse, ignoring the cache"
    )
    p.add_argument(
        "--no-remap",
        action="store_true",
        help="require dense 0..n-1 ids instead of remapping",
    )
    p.add_argument(
        "--keep-self-loops", action="store_true", help="keep self-loop arcs"
    )
    p.add_argument(
        "--no-dedupe", action="store_true", help="keep duplicate arcs"
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tightness", help="Figure 1 theory walkthrough")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser(
        "serve",
        parents=[accuracy, engine],
        help="run the allocation daemon over a warm session pool",
        description="Long-running HTTP daemon: POST /solve queries route "
        "onto pooled warm AllocationSessions keyed by (dataset, probs "
        "family); GET /healthz and /stats expose liveness and counters. "
        "SIGTERM/SIGINT drain gracefully (in-flight queries finish, all "
        "sessions close). The accuracy and engine flags are fixed "
        "for every session at startup; per-query axes travel in the "
        "query body (see `repro query`).",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral, printed)"
    )
    p.add_argument(
        "--serve-bytes-budget",
        type=int,
        default=0,
        dest="serve_bytes_budget",
        help="global cap on summed measured RR-store bytes across all "
        "pooled sessions; past it whole least-recently-used sessions "
        "are evicted (0 = unbounded)",
    )
    p.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        dest="max_sessions",
        help="cap on concurrently pooled sessions (default: unbounded)",
    )
    p.add_argument(
        "--queue-size",
        type=int,
        default=16,
        dest="queue_size",
        help="bound on queued-but-unsolved queries; past it new queries "
        "are rejected 429 (backpressure)",
    )
    p.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        dest="query_timeout",
        help="per-query wall-clock deadline in seconds, queue wait "
        "included (default: unbounded); a timed-out query gets 504 and "
        "its session is discarded",
    )
    p.add_argument(
        "--max-queries",
        type=int,
        default=None,
        dest="max_queries",
        help="drain automatically after this many processed queries "
        "(smoke tests / benchmarks; default: run until signalled)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="send one allocation query to a running `repro serve` daemon",
    )
    p.add_argument(
        "--addr", required=True, help="daemon address, host:port (see serve output)"
    )
    p.add_argument(
        "--dataset",
        choices=sorted(DATASET_BUILDERS),
        default=None,
        help="synthetic analog dataset name",
    )
    p.add_argument(
        "--dataset-path",
        default=None,
        dest="dataset_path",
        help="edge-list path instead of --dataset",
    )
    p.add_argument("--n", type=int, default=None, help="dataset size override")
    p.add_argument(
        "--dataset-h",
        type=int,
        default=None,
        dest="dataset_h",
        help="advertiser count built into the dataset entry (pool key)",
    )
    p.add_argument("--algorithm", choices=algorithm_names(), default="TI-CSRM")
    p.add_argument(
        "--h", type=int, default=None, help="per-query advertiser count override"
    )
    p.add_argument("--budget", type=float, default=None, help="per-ad budget override")
    p.add_argument("--cpe", type=float, default=None, help="cost-per-engagement override")
    p.add_argument(
        "--incentives",
        choices=("linear", "constant", "sublinear", "superlinear"),
        default="linear",
    )
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--window", type=int, default=None, help="TI-CSRM window override")
    p.add_argument(
        "--seed", type=int, default=None, help="query RNG seed (default: daemon's)"
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="client-side HTTP timeout in seconds",
    )
    p.add_argument(
        "--stats", action="store_true", help="print the daemon's /stats and exit"
    )
    p.add_argument(
        "--healthz", action="store_true", help="print the daemon's /healthz and exit"
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "lint",
        help="run the repo contract linter (AST rules R1, R3-R7)",
        description="All arguments are forwarded to `python -m tools.lint` "
        "(try `repro lint -- --help`).",
    )
    p.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the linter (paths, --format, --rules, …)",
    )
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # `lint` forwards everything verbatim (argparse.REMAINDER won't
    # capture leading optionals like `--list-rules`, so bypass it).
    if argv and argv[0] == "lint":
        rest = list(argv[1:])
        if rest and rest[0] == "--":
            rest = rest[1:]
        return cmd_lint(argparse.Namespace(lint_args=rest))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Malformed input (a bad flag value, a missing file): one line,
        # and argparse's usage-error code.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
