"""Declarative scenario grids over the Section-5 experiment space.

A :class:`GridSpec` names the axes of a scenario matrix — datasets
(synthetic analogs *or* ingested edge lists), algorithms, advertiser
counts ``h``, budgets, CPEs, incentive models, α values and TI-CSRM
windows — and :func:`run_grid` runs the full cross product:

* **Deterministic per-cell seeds.**  Every cell derives its RNG seed from
  the spec's root seed and the cell's parameter digest via
  ``numpy.random.SeedSequence``, so a cell's result depends only on
  ``(spec, root seed)`` — never on execution order, resume history, or
  which other cells exist.

* **Resumable JSONL manifests.**  Each completed cell is appended to a
  manifest file as one JSON line; re-running the same spec skips
  completed cells and finishes the rest.  The manifest header pins the
  spec digest and the estimator config, so resuming against an edited
  spec or different config fails loudly instead of mixing results.

* **Backend threading.**  The ``workers`` entry of the spec's
  ``config`` block (or CLI ``--workers``) selects the serial /
  shared-memory-parallel RR sampling backend for every cell, exactly as
  in single runs.

* **Execution modes (docs/ARCHITECTURE.md §10).**  The optional
  ``execution`` block selects how cells are driven; either way every
  cell, static or dynamic, runs through :func:`run_cell`:

  - ``{"mode": "cold"}`` (the default) solves every cell from scratch —
    results are a pure function of ``(spec, root seed)``, independent
    of execution order and resume history;
  - ``{"mode": "warm_per_dataset"}`` groups cells by dataset entry and
    drives each group through one
    :class:`~repro.api.session.AllocationSession`, so cells after the
    first adopt the group's already-drawn RR stores (the paper's
    evaluation shape — many solves over one graph — typically re-solves
    several times faster warm; see ``BENCH_grid.json``).  Reuse trades
    order-independence for speed: each cell's manifest row carries a
    ``session`` provenance block (group key, solve index, per-cell
    sampler-call / store-hit deltas), and the manifest header pins the
    execution mode so cold and warm rows can never silently mix.  A
    session a dynamic cell mutated is reopened before the group's next
    cell, so no cell sees another cell's mutations.

* **Cell retry and quarantine (docs/ARCHITECTURE.md §11).**  The
  ``execution`` block's ``cell_timeout_s`` / ``max_retries`` /
  ``retry_backoff_s`` knobs bound each cell's wall clock and retry
  failing cells with exponential backoff; a cell that exhausts its
  attempts is *quarantined* — written to the manifest as a typed
  ``"cell_error"`` row — instead of aborting the grid, and resume
  re-attempts quarantined cells.  In warm mode a failing cell's
  session group is torn down (pool included) before the retry, so a
  poisoned :class:`~repro.api.session.AllocationSession` is never
  reused and never leaks.

Specs are plain JSON (see ``specs/`` at the repo root)::

    {
      "name": "smoke",
      "datasets": [{"name": "epinions_syn", "n": 150, "h": 3}],
      "algorithms": ["TI-CSRM", "TI-CARM"],
      "alphas": [0.5, 1.0],
      "execution": {"mode": "warm_per_dataset"},
      "config": {"eps": 1.0, "theta_cap": 200}
    }

Dataset entries with a ``"path"`` key are ingested edge lists routed
through :func:`repro.experiments.datasets.build_edge_list_dataset`; all
other keys in the entry are builder keyword arguments.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from repro import faults as _faults
from repro._checks import check_choice, check_int, check_number
from repro.errors import CellTimeoutError, SpecError
from repro.api.registry import algorithm_names
from repro.api.session import AllocationSession, apply_edge_batch
from repro.api.solve import solve
from repro.core.instance import RMInstance
from repro.graph.updates import UPDATE_OPS, random_update_schedule
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import (
    Dataset,
    build_dataset,
    build_edge_list_dataset,
)
from repro.experiments.harness import opt_lower_for
from repro.experiments.reporting import results_dir
from repro.incentives.models import INCENTIVE_MODELS

MANIFEST_VERSION = 1

#: Manifest/table columns every cell row carries (besides the axes).
CELL_RESULT_FIELDS = ("revenue", "seed_cost", "seeds", "runtime_s")

#: How run_grid drives the cells of a spec (docs/ARCHITECTURE.md §10).
EXECUTION_MODES = ("cold", "warm_per_dataset")

#: Execution-block keys beyond ``mode``: the fault-tolerance knobs
#: (docs/ARCHITECTURE.md §11).  They change *how* cells are driven,
#: never which cells exist or what a successful cell computes, so —
#: like ``mode`` — they stay outside :meth:`GridSpec.spec_key`.
EXECUTION_FAULT_KEYS = ("cell_timeout_s", "max_retries", "retry_backoff_s")

#: ``ExperimentConfig`` fields that no grid cell reads (dataset entries
#: carry their own ``singleton_rr_samples``); a spec's ``config`` block
#: refuses them.
UNREAD_CONFIG_KEYS = ("grid_mode", "scalability_window", "singleton_rr_samples")

#: Default exponential-backoff base between cell retry attempts.
DEFAULT_RETRY_BACKOFF_S = 0.25


def _canonical(data) -> str:
    """Canonical JSON used for digests: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def dataset_label(entry: dict) -> str:
    """Human-readable name of a dataset entry (synthetic or edge-list)."""
    if "name" in entry:
        return str(entry["name"])
    if "path" in entry:
        return os.path.splitext(os.path.basename(str(entry["path"])))[0]
    raise SpecError(f"dataset entry needs a 'name' or 'path' key: {entry!r}")


@dataclass(frozen=True)
class GridCell:
    """One point of the scenario matrix (a single algorithm run)."""

    dataset: dict
    algorithm: str
    h: int | None
    budget: float | None
    cpe: float | None
    incentive_model: str
    alpha: float
    window: int | None

    def params(self) -> dict:
        """The cell's axis values as a flat JSON-able dict."""
        return {
            "dataset": dataset_label(self.dataset),
            "dataset_spec": dict(self.dataset),
            "algorithm": self.algorithm,
            "h": self.h,
            "budget": self.budget,
            "cpe": self.cpe,
            "incentives": self.incentive_model,
            "alpha": self.alpha,
            "window": self.window,
        }

    @property
    def cell_id(self) -> str:
        """Digest of the cell parameters — stable across spec reordering."""
        return hashlib.sha256(_canonical(self.params()).encode()).hexdigest()[:16]

    def seed(self, root_seed: int) -> int:
        """The cell's RNG seed, a pure function of (root seed, cell id)."""
        digest = int.from_bytes(
            hashlib.sha256(self.cell_id.encode()).digest()[:8], "big"
        )
        sequence = np.random.SeedSequence([int(root_seed), digest])
        return int(sequence.generate_state(1, np.uint64)[0])


#: The list-valued axes of a :class:`GridSpec`.
_AXES = ("datasets", "algorithms", "h", "budgets", "cpes",
         "incentive_models", "alphas", "windows")


@dataclass(frozen=True)
class GridSpec:
    """A declarative scenario matrix (see the module docstring).

    ``None`` entries on the ``h`` / ``budgets`` / ``cpes`` / ``windows``
    axes mean "dataset default" (no override / full window).  The
    ``execution`` block (``{"mode": "cold" | "warm_per_dataset"}``,
    default cold) selects how :func:`run_grid` drives the cells; it
    changes *how* results are computed, never *which* cells exist, so
    it does not enter :meth:`spec_key`.
    """

    name: str
    datasets: tuple
    algorithms: tuple = ("TI-CSRM",)
    h: tuple = (None,)
    budgets: tuple = (None,)
    cpes: tuple = (None,)
    incentive_models: tuple = ("linear",)
    alphas: tuple = (1.0,)
    windows: tuple = (None,)
    seed: int = 7
    config: dict = field(default_factory=dict)
    execution: dict = field(default_factory=dict)
    #: Streaming axis (docs/ARCHITECTURE.md §14): a non-empty block
    #: (``batches`` / ``edges_per_batch`` / ``ops`` / ``prob``) turns
    #: every cell dynamic — a deterministic edge-update schedule keyed
    #: off the per-cell seed mutates the graph before the measured
    #: solve.  Unlike ``execution`` it changes *what* cells compute, so
    #: a non-empty block enters :meth:`spec_key`.
    mutations: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.execution, dict):
            raise SpecError(
                "execution must be an object like "
                '{"mode": "warm_per_dataset"}, got '
                f"{self.execution!r}"
            )
        unknown = set(self.execution) - {"mode", *EXECUTION_FAULT_KEYS}
        if unknown:
            raise SpecError(f"unknown execution keys: {sorted(unknown)}")
        mode = check_choice(
            self.execution.get("mode", "cold"), "execution mode", EXECUTION_MODES,
            error=SpecError,
        )
        normalized = {"mode": mode}
        timeout = self.execution.get("cell_timeout_s")
        if timeout is not None:
            normalized["cell_timeout_s"] = check_number(
                timeout, "cell_timeout_s", error=SpecError, positive=True
            )
        retries = self.execution.get("max_retries")
        if retries is not None:
            normalized["max_retries"] = check_int(
                retries, "max_retries", error=SpecError, minimum=0
            )
        backoff = self.execution.get("retry_backoff_s")
        if backoff is not None:
            normalized["retry_backoff_s"] = check_number(
                backoff, "retry_backoff_s", error=SpecError, minimum=0.0
            )
        object.__setattr__(self, "execution", normalized)
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(f"name must be a non-empty string, got {self.name!r}")
        for axis in _AXES:
            if not isinstance(getattr(self, axis), (list, tuple)):
                raise SpecError(f"{axis} must be a list, got {getattr(self, axis)!r}")
        if not self.datasets:
            raise SpecError("spec needs at least one dataset entry")
        for entry in self.datasets:
            if not isinstance(entry, dict):
                raise SpecError(f"dataset entry must be an object, got {entry!r}")
            dataset_label(entry)  # validates the entry shape
        # Axis values are validated, never rewritten: they enter every
        # cell id (and so every cell seed) exactly as the spec spells them.
        for axis in ("h", "windows"):
            for value in getattr(self, axis):
                check_int(value, axis, error=SpecError, minimum=1, optional=True)
        # Dataset.build_instance refuses a zero α, budget or CPE.
        for axis in ("alphas", "budgets", "cpes"):
            for value in getattr(self, axis):
                check_number(value, axis, error=SpecError, positive=True,
                             optional=axis != "alphas")
        check_int(self.seed, "seed", error=SpecError, minimum=0)
        for algorithm in self.algorithms:
            # Validated against the live registry, so user-registered
            # algorithms are first-class grid citizens.
            if algorithm not in algorithm_names():
                raise SpecError(
                    f"unknown algorithm {algorithm!r}; "
                    f"options: {list(algorithm_names())}"
                )
        for model in self.incentive_models:
            if not isinstance(model, str) or model not in INCENTIVE_MODELS:
                raise SpecError(
                    f"unknown incentive model {model!r}; "
                    f"options: {sorted(INCENTIVE_MODELS)}"
                )
        if not isinstance(self.config, dict):
            raise SpecError(f"config must be an object, got {self.config!r}")
        unknown = set(self.config) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise SpecError(f"unknown config keys: {sorted(unknown)}")
        unread = set(self.config) & set(UNREAD_CONFIG_KEYS)
        if unread:
            # Each would still enter spec_key and fork the manifest.
            raise SpecError(
                f"config keys that no grid cell reads: {sorted(unread)}; "
                "a dataset entry takes singleton_rr_samples"
            )
        # Run EngineSpec's own checks now, not one quarantined cell at a
        # time; the per-cell opt_lower is resolved later, so "kpt" stands in.
        ExperimentConfig(**self.config).engine_spec(opt_lower="kpt")
        if not isinstance(self.mutations, dict):
            raise SpecError(
                'mutations must be an object like {"batches": 2, '
                f'"edges_per_batch": 10}}, got {self.mutations!r}'
            )
        if self.mutations:
            unknown = set(self.mutations) - {
                "batches", "edges_per_batch", "ops", "prob"
            }
            if unknown:
                raise SpecError(f"unknown mutations keys: {sorted(unknown)}")
            batches, edges = (
                check_int(self.mutations.get(key, 1), f"mutations.{key}",
                          error=SpecError, minimum=1)
                for key in ("batches", "edges_per_batch")
            )
            ops = self.mutations.get("ops", UPDATE_OPS)
            if not isinstance(ops, (list, tuple)) or not ops or any(
                op not in UPDATE_OPS for op in ops
            ):
                raise SpecError(
                    f"mutations.ops must be a non-empty subset of "
                    f"{list(UPDATE_OPS)}, got {ops!r}"
                )
            prob = check_number(
                self.mutations.get("prob", 0.1), "mutations.prob", error=SpecError
            )
            if not 0.0 <= prob <= 1.0:
                raise SpecError(
                    f"mutations.prob must be a number in [0, 1], got {prob!r}"
                )
            object.__setattr__(
                self,
                "mutations",
                {
                    "batches": batches,
                    "edges_per_batch": edges,
                    "ops": list(ops),
                    "prob": prob,
                },
            )

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        """Build a spec from a plain dict (e.g. parsed JSON)."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown spec keys: {sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in data:
            raise SpecError("spec needs a 'name'")
        kwargs = dict(data)
        for key in _AXES:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "GridSpec":
        """Load a spec from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON in spec {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise SpecError(f"spec {path!r} must hold a JSON object")
        return cls.from_dict(data)

    @property
    def execution_mode(self) -> str:
        """The normalized execution mode (``"cold"`` when unspecified)."""
        return self.execution["mode"]

    @property
    def cell_timeout_s(self) -> float | None:
        """Per-cell wall-clock timeout; ``None`` means unbounded."""
        return self.execution.get("cell_timeout_s")

    @property
    def max_retries(self) -> int:
        """Retry attempts after a cell's first failure (0 = quarantine at once)."""
        return self.execution.get("max_retries", 0)

    @property
    def retry_backoff_s(self) -> float:
        """Base of the exponential backoff between cell retry attempts."""
        return self.execution.get("retry_backoff_s", DEFAULT_RETRY_BACKOFF_S)

    def to_dict(self) -> dict:
        """The spec as a JSON-able dict (inverse of :meth:`from_dict`).

        A default (cold) ``execution`` block is omitted, so the
        canonical form — and therefore :meth:`spec_key` — of every
        pre-execution-mode spec is byte-identical to what it always was.
        """
        data = asdict(self)
        for key, value in data.items():
            if isinstance(value, tuple):
                data[key] = list(value)
        data["datasets"] = [dict(entry) for entry in self.datasets]
        if data["execution"] == {"mode": "cold"}:
            del data["execution"]
        # An empty mutations block (the static default) is omitted the
        # same way, keeping pre-dynamic spec keys byte-identical; a
        # non-empty block stays — it changes every cell's result, so it
        # must enter spec_key().
        if not data["mutations"]:
            del data["mutations"]
        return data

    def spec_key(self) -> str:
        """Digest pinning the spec's *matrix* (axes + root seed).

        The ``execution`` block is excluded: warm and cold runs of one
        spec compute the same cells, so they share a key — the manifest
        header pins the execution mode separately (and resume rejects a
        mode mismatch with its own, clearer error).
        """
        data = self.to_dict()
        data.pop("execution", None)
        return hashlib.sha256(_canonical(data).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # The matrix
    # ------------------------------------------------------------------
    def cells(self) -> list[GridCell]:
        """The cross product of all axes, in deterministic order."""
        out: list[GridCell] = []
        for entry in self.datasets:
            for algorithm in self.algorithms:
                for model in self.incentive_models:
                    for alpha in self.alphas:
                        for h in self.h:
                            for budget in self.budgets:
                                for cpe in self.cpes:
                                    for window in self.windows:
                                        out.append(
                                            GridCell(
                                                dataset=dict(entry),
                                                algorithm=algorithm,
                                                h=h,
                                                budget=budget,
                                                cpe=cpe,
                                                incentive_model=model,
                                                alpha=alpha,
                                                window=window,
                                            )
                                        )
        return out

    def experiment_config(self, **overrides) -> ExperimentConfig:
        """The estimator config for every cell (spec block + overrides)."""
        merged = {**self.config, **overrides}
        merged.setdefault("seed", self.seed)
        return ExperimentConfig(**merged)


def _configs_compatible(previous: dict | None, current: dict) -> bool:
    """Whether a manifest written under *previous* can resume under *current*.

    Keys present in both must match exactly.  Keys only in *current*
    (config fields added after the manifest was written) are compatible
    iff the current value equals the field's declared default — the old
    cells ran identical effective settings, so mixing is safe.  Keys
    only in *previous* (fields since removed) stay incomparable.
    """
    if not isinstance(previous, dict):
        return False
    defaults = {
        f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING
    }
    for key in sorted(set(previous) | set(current)):
        if key in previous and key in current:
            if previous[key] != current[key]:
                return False
        elif key in current:
            if key not in defaults or current[key] != defaults[key]:
                return False
        else:
            return False
    return True


# ----------------------------------------------------------------------
# Dataset memo (edge-list builds are expensive; synthetic builds are
# already cached by build_dataset)
# ----------------------------------------------------------------------
# Fallback memo for direct run_cell callers only.  run_grid passes its
# own per-invocation memo instead, so repeated grid runs cannot pile
# ingested edge-list datasets (graphs + spread arrays) up in module
# state for the life of the process.
_DATASET_MEMO: dict[str, Dataset] = {}


def _cell_dataset(entry: dict, memo: dict | None = None) -> Dataset:
    """The dataset a grid or serve dataset entry names, built once per memo.

    Raises only :mod:`repro.errors` types, since the entry is spec or
    query input: an unknown name is an ``InstanceError``, an unreadable
    edge list a ``GraphError``, and an option the builder does not take,
    or a value of the wrong type, a ``SpecError`` naming it.
    """
    if memo is None:
        memo = _DATASET_MEMO
    key = _canonical(entry)
    if key not in memo:
        # JSON arrays arrive as lists; builders take tuples, and
        # build_dataset keys its cache on the options.
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()}
        try:
            if "path" in kwargs:
                memo[key] = build_edge_list_dataset(kwargs.pop("path"), **kwargs)
            else:
                memo[key] = build_dataset(kwargs.pop("name"), **kwargs)
        except (TypeError, ValueError) as exc:
            # What builders raise for an option they do not take or a
            # value of the wrong type or range.
            raise SpecError(f"dataset entry {entry!r} cannot be built: {exc}") from exc
    return memo[key]


def clear_grid_caches() -> None:
    """Drop the grid runner's dataset memo (tests use this for isolation)."""
    _DATASET_MEMO.clear()


# ----------------------------------------------------------------------
# Warm execution: session groups
# ----------------------------------------------------------------------
def session_group_key(entry: dict) -> str:
    """The warm-session key of a dataset entry, as a provenance string.

    Grid cells share an :class:`~repro.api.session.AllocationSession`
    iff they share a *dataset entry*, and ``repro serve`` pools its
    sessions under the same key (:func:`repro.serve.pool_key` is this
    function).  The entry (name/path plus every builder option,
    probability model included) fully determines the graph and the
    probability family, which is exactly the state a session keeps
    warm.  Budgets, CPEs, incentives, ``h``, α and the algorithm all
    vary freely under one key.  The key is human-readable (the dataset
    label) plus a digest of the full entry, so two entries with the
    same label but different builder options get different keys.
    """
    digest = hashlib.sha256(_canonical(entry).encode()).hexdigest()[:8]
    return f"{dataset_label(entry)}@{digest}"


class WarmSessionGroups:
    """Lifecycle owner of one ``run_grid`` call's warm sessions.

    Sessions are opened lazily (a resumed run whose remaining cells
    touch one dataset opens one session, a fully resumed run opens
    none), keyed by :func:`session_group_key`, and every session is
    closed when the instance exits — including on a crashed cell, so an
    aborted warm run never orphans a
    :class:`~repro.rrset.backend.SharedGraphPool` or its shared-memory
    blocks.  ``run_grid`` additionally closes each group as soon as its
    last pending cell finishes, bounding peak memory to one dataset's
    stores at a time.

    The *dataset_memo* must be the same mapping the cells are built
    from: a session is bound to its graph by identity, so the session's
    graph and the cells' instances have to come from one
    :class:`Dataset` object.
    """

    def __init__(self, config: ExperimentConfig, dataset_memo: dict) -> None:
        self._config = config
        self._memo = dataset_memo
        self._sessions: dict[str, AllocationSession] = {}

    def session_for(self, cell: GridCell) -> AllocationSession:
        """The (lazily opened) session of *cell*'s group.

        A session a dynamic cell mutated (``graph_epoch != 0``) no
        longer answers for the group's dataset entry, so it is closed
        and a fresh one opened, as ``SessionPool.lease`` does in
        ``repro serve``: no cell ever sees another cell's mutations.
        """
        key = session_group_key(cell.dataset)
        session = self._sessions.get(key)
        if session is not None and session.graph_epoch != 0:
            self.close_group(key)
            session = None
        if session is None:
            dataset = _cell_dataset(cell.dataset, self._memo)
            # The config pins workers for the whole group (an
            # AllocationSession never lets per-solve specs flip them).
            session = AllocationSession(
                dataset.graph, spec=self._config.engine_spec(opt_lower="kpt")
            )
            self._sessions[key] = session
        return session

    def close_group(self, key: str) -> None:
        """Close and drop one group's session (no-op if never opened)."""
        session = self._sessions.pop(key, None)
        if session is not None:
            session.close()

    def close(self) -> None:
        """Close every remaining session (idempotent)."""
        for key in list(self._sessions):
            self.close_group(key)

    def __enter__(self) -> "WarmSessionGroups":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Running cells and manifests
# ----------------------------------------------------------------------
def run_cell(
    spec: GridSpec,
    cell: GridCell,
    config: ExperimentConfig,
    *,
    session: AllocationSession | None = None,
    dataset_memo: dict | None = None,
) -> dict:
    """Run one cell of any kind; returns its manifest row.

    A static cell (empty ``spec.mutations``) solves its instance once.
    A dynamic cell first applies its :func:`cell_update_schedule`, one
    :func:`~repro.api.session.apply_edge_batch` per batch, and solves
    the market left after the last batch.  It prices ``OPT_s`` with KPT,
    since the dataset's singleton bounds describe the unmutated graph,
    and its row gains a ``mutations`` block with one report per batch.

    A cold cell passes ``session=None``.  A warm cell solves through
    *session*, whose lifecycle the caller owns; a dynamic one primes it
    on the unmutated graph first, so the batches repair its RR stores
    instead of resampling them.  A warm row gains a ``session`` block:
    the session counters around this cell (docs/EXPERIMENTS.md §4).
    *dataset_memo* scopes the dataset cache to the caller; ``None``
    falls back to the module-level memo.
    """
    dataset = _cell_dataset(cell.dataset, dataset_memo)
    instance = dataset.build_instance(
        incentive_model=cell.incentive_model,
        alpha=cell.alpha,
        h=cell.h,
        budget_override=cell.budget,
        cpe_override=cell.cpe,
    )
    seed = cell.seed(spec.seed)
    opt_lower = "kpt" if spec.mutations else opt_lower_for(dataset, instance, config)
    engine_spec = config.engine_spec(opt_lower=opt_lower, window=cell.window, seed=seed)
    before = None if session is None else session.stats
    row = {"kind": "cell", "cell_id": cell.cell_id, "cell_seed": seed}
    row.update(cell.params())
    if spec.mutations:
        if session is not None:
            solve(instance, cell.algorithm, engine_spec, session=session)
        graph, probs, applied = dataset.graph, instance.ad_probs, []
        for batch in cell_update_schedule(spec, cell, dataset.graph):
            graph, probs, report = apply_edge_batch(graph, probs, batch, session)
            applied.append(report)
        instance = RMInstance(graph, instance.advertisers, probs, instance.incentives)
        row["mutations"] = {
            **spec.mutations,
            "applied": applied,
            "warm_incremental": session is not None,
        }
    result = solve(instance, cell.algorithm, engine_spec, session=session)
    row.update(
        revenue=result.total_revenue,
        seed_cost=result.total_seeding_cost,
        seeds=result.total_seeds,
        runtime_s=result.runtime_seconds,
        # Full provenance: the resolved EngineSpec the cell actually ran
        # with (theta_cap, opt_lower, seed policy, backend, ...).
        engine_spec=result.extras.get("engine_spec"),
        # Measured storage accounting (store_bytes / peak_store_bytes /
        # bytes_per_rr_set / spilled_stores / rr_bytes_budget).
        memory=result.extras.get("memory"),
    )
    if session is not None:
        after = session.stats
        # A dynamic cell's session opened fresh for it (see
        # WarmSessionGroups.session_for), so its totals are the cell's own.
        totals = _SESSION_TOTALS + (_MUTATION_TOTALS if spec.mutations else ())
        row["session"] = {
            "group": session_group_key(cell.dataset),
            "solve_index": after["solves"] - 1,
            "warm_resolve": after["solves"] > 1,
            **{key: after[key] - before[key] for key in _SESSION_DELTAS},
            **{key: after[key] for key in totals},
        }
    return row


#: What a warm row's ``session`` block reports: this cell's sampler and
#: store work, the session's store totals after the cell, and, for a
#: dynamic cell, its mutation totals.
_SESSION_DELTAS = ("sample_batches", "sets_sampled", "store_hits", "store_misses")
_SESSION_TOTALS = (
    "stored_sets", "store_bytes", "peak_store_bytes", "bytes_per_rr_set",
    "spilled_stores",
)
_MUTATION_TOTALS = (
    "mutations", "invalidated_sets", "mutation_checked_sets",
    "invalidation_rate", "resample_batches", "graph_epoch",
)


def cell_update_schedule(spec: GridSpec, cell: GridCell, graph) -> list:
    """The cell's deterministic edge-update schedule (empty when static).

    A pure function of ``(spec.mutations, cell seed, graph)`` — batch
    ``k`` is generated against the graph as already evolved by batches
    ``0..k-1`` — so every run (and both execution modes, and the
    differential tests) replays the exact same mutation stream.
    """
    mut = spec.mutations
    if not mut:
        return []
    return random_update_schedule(
        graph,
        cell.seed(spec.seed),
        batches=mut["batches"],
        edges_per_batch=mut["edges_per_batch"],
        ops=tuple(mut["ops"]),
        prob=mut["prob"],
    )


# ----------------------------------------------------------------------
# Fault tolerance: per-cell timeout, retries, quarantine rows
# ----------------------------------------------------------------------
@contextmanager
def _cell_deadline(seconds: float | None):
    """Bound a cell's wall-clock via ``SIGALRM``; raises CellTimeoutError.

    Preempting arbitrary Python needs a signal, so the deadline is only
    enforceable on the main thread of a POSIX process; elsewhere (or
    with *seconds* unset) the block runs unbounded — retry/quarantine
    still applies to ordinary exceptions either way.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"cell exceeded its {seconds}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _error_row(spec: GridSpec, cell: GridCell, exc: BaseException, attempts: int) -> dict:
    """The typed quarantine row a failed cell leaves in the manifest.

    Carries the full cell axes (so reports can still group it), the
    exception class and message, and the attempt count; ``quarantined``
    marks it for resume, which re-attempts quarantined cells instead of
    treating them as done.
    """
    row = {
        "kind": "cell_error",
        "cell_id": cell.cell_id,
        "cell_seed": cell.seed(spec.seed),
        "quarantined": True,
        "attempts": attempts,
        "error_type": type(exc).__name__,
        "error": str(exc)[:500],
    }
    row.update(cell.params())
    return row


def _run_cell_with_retries(
    spec: GridSpec,
    cell: GridCell,
    config: ExperimentConfig,
    *,
    warm: bool,
    groups: "WarmSessionGroups",
    memo: dict,
    cell_timeout: float | None,
    max_retries: int,
    retry_backoff: float,
    sleep=time.sleep,
) -> dict:
    """Run one cell under the fault-tolerance contract.

    Each attempt runs under the per-cell deadline; a failing attempt in
    warm mode first tears down the cell's session group (closing its
    :class:`~repro.api.session.AllocationSession` and worker pool — a
    poisoned session is never reused and never orphans its pool), then
    backs off exponentially and retries.  After ``1 + max_retries``
    failed attempts the cell is quarantined: a typed error row is
    returned (and written to the manifest) instead of aborting the
    grid.  The ``cell.raise`` / ``cell.delay`` seams of
    :mod:`repro.faults` fire here, keyed by ``cell_id``, so chaos tests
    can fail exactly one chosen cell.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            with _cell_deadline(cell_timeout):
                plan = _faults.active_fault_plan()
                if plan is not None:
                    rule = plan.fire("cell.delay", key=cell.cell_id)
                    if rule is not None and rule.delay_s:
                        time.sleep(rule.delay_s)
                    plan.maybe_raise("cell.raise", key=cell.cell_id)
                session = groups.session_for(cell) if warm else None
                row = run_cell(
                    spec, cell, config, session=session, dataset_memo=memo
                )
        except Exception as exc:
            if warm:
                # The group's session state is unknown after a failure
                # (a timeout can interrupt a solve anywhere): tear it
                # down now; the next attempt — or the group's next cell
                # — reopens a fresh session lazily.
                groups.close_group(session_group_key(cell.dataset))
            if attempts > max_retries:
                return _error_row(spec, cell, exc, attempts)
            if retry_backoff:
                sleep(retry_backoff * (2 ** (attempts - 1)))
            continue
        if attempts > 1:
            row["attempts"] = attempts
        return row


def default_manifest_path(spec: GridSpec) -> str:
    """Where :func:`run_grid` writes the manifest when not told otherwise."""
    return os.path.join(results_dir(), f"grid_{spec.name}.jsonl")


def _manifest_header(spec: GridSpec, config: ExperimentConfig, mode: str) -> dict:
    header = {
        "kind": "header",
        "manifest_version": MANIFEST_VERSION,
        "spec_name": spec.name,
        "spec_key": spec.spec_key(),
        "root_seed": spec.seed,
        "config": asdict(config),
        "total_cells": len(spec.cells()),
    }
    # Cold headers stay byte-identical to pre-execution-mode manifests
    # (which were all cold), so they remain mutually resumable.
    if mode != "cold":
        header["execution_mode"] = mode
    return header


def load_manifest(path: str) -> tuple[dict | None, list[dict]]:
    """Read a JSONL manifest into ``(header, cell_rows)``.

    *cell_rows* holds both completed ``"cell"`` rows and quarantined
    ``"cell_error"`` rows (distinguish on ``row["kind"]``); a cell that
    was quarantined and later succeeded on resume appears once per
    attempt's final outcome, latest last.  Truncated trailing lines (a
    run killed mid-write) are dropped rather than failing, so
    interrupted manifests stay resumable.
    """
    header: dict | None = None
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("kind") == "header" and header is None:
                header = record
            elif record.get("kind") in ("cell", "cell_error"):
                rows.append(record)
    return header, rows


def run_grid(
    spec: GridSpec,
    manifest_path: str | None = None,
    *,
    resume: bool = True,
    config_overrides: dict | None = None,
    progress=None,
    execution: str | None = None,
    cell_timeout: float | None = None,
    max_retries: int | None = None,
    retry_backoff: float | None = None,
    sleep=time.sleep,
) -> list[dict]:
    """Run every cell of *spec*, resuming from *manifest_path* if present.

    Returns one row per cell, in :meth:`GridSpec.cells` order
    (completed rows loaded from the manifest, fresh rows appended to it
    as they finish — the manifest is valid after every cell, so an
    interrupted run resumes where it stopped).  *progress*, when given,
    is called with ``(done, total, row)`` after each cell, in
    *execution* order.

    **Fault tolerance (docs/ARCHITECTURE.md §11).**  Each cell runs
    under *cell_timeout* seconds of wall clock (``None`` = unbounded)
    and up to *max_retries* retries with exponential backoff (base
    *retry_backoff* seconds, doubling per attempt); the three knobs
    default to the spec's ``execution`` block (``cell_timeout_s`` /
    ``max_retries`` / ``retry_backoff_s``).  A cell that still fails is
    *quarantined*: a typed ``"cell_error"`` row — attempt count,
    exception class, truncated message, plus the full cell axes — is
    appended to the manifest and returned in the cell's slot, and the
    grid keeps going.  Resume treats only ``"cell"`` rows as done, so
    re-running the same manifest re-attempts every quarantined cell;
    their error rows stay in the file as history (readers take the
    latest row per ``cell_id``).  *sleep* is injectable for tests.

    *execution* overrides the spec's ``execution`` block (CLI
    ``--execution``).  In ``warm_per_dataset`` mode cells are executed
    group-contiguously (groups ordered by first appearance, cells in
    spec order within a group), each group solving through one
    :class:`~repro.api.session.AllocationSession` whose lifecycle is
    owned by this call — sessions close when their group finishes, and
    unconditionally on any error.  The manifest header pins the mode;
    resuming a manifest under a different mode raises
    :class:`~repro.errors.SpecError`.  Warm runs are deterministic for
    a fixed ``(spec, root seed)`` but — unlike cold runs — a *resumed*
    warm run re-opens sessions, so cells completed after an
    interruption may differ from an uninterrupted run's (statistically
    equivalent either way; the per-row ``session`` block records what
    each cell actually reused).
    """
    manifest_path = manifest_path or default_manifest_path(spec)
    mode = spec.execution_mode if execution is None else str(execution)
    check_choice(mode, "execution mode", EXECUTION_MODES, error=SpecError)
    if cell_timeout is None:
        cell_timeout = spec.cell_timeout_s
    if max_retries is None:
        max_retries = spec.max_retries
    if retry_backoff is None:
        retry_backoff = spec.retry_backoff_s
    config = spec.experiment_config(**(config_overrides or {}))
    header = _manifest_header(spec, config, mode)
    completed: dict[str, dict] = {}
    quarantined: dict[str, dict] = {}
    resuming = (
        resume
        and os.path.exists(manifest_path)
        and os.path.getsize(manifest_path) > 0
    )
    if resuming:
        previous, rows = load_manifest(manifest_path)
        if previous is None:
            # A manifest without a readable header cannot be checked
            # against the spec/config — resuming it could silently mix
            # incomparable cells, the exact failure the header prevents.
            raise SpecError(
                f"manifest {manifest_path!r} has no readable header; "
                "cannot verify it matches this spec — use a new manifest "
                "or pass resume=False"
            )
        if previous.get("spec_key") != header["spec_key"]:
            raise SpecError(
                f"manifest {manifest_path!r} was written for spec key "
                f"{previous.get('spec_key')!r} but the current spec hashes "
                f"to {header['spec_key']!r} — the spec changed; use a new "
                "manifest or pass resume=False"
            )
        previous_mode = previous.get("execution_mode", "cold")
        if previous_mode != mode:
            raise SpecError(
                f"manifest {manifest_path!r} was written under execution "
                f"mode {previous_mode!r} but this run uses {mode!r} — warm "
                "session reuse draws different (equally valid) RR samples "
                "than cold solves, so mixing modes would mix incomparable "
                "cells; use a new manifest or pass resume=False"
            )
        if not _configs_compatible(previous.get("config"), header["config"]):
            raise SpecError(
                f"manifest {manifest_path!r} was run with a different "
                "estimator config; resuming would mix incomparable cells"
            )
        # Only successful rows count as done; a cell whose latest row
        # is a quarantine error is re-attempted by this run.
        latest = {row["cell_id"]: row for row in rows}
        completed = {
            cid: row for cid, row in latest.items() if row.get("kind") == "cell"
        }
        quarantined = {
            cid: row for cid, row in latest.items() if cid not in completed
        }
    else:
        directory = os.path.dirname(manifest_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
    cells = spec.cells()
    warm = mode == "warm_per_dataset"
    order = list(range(len(cells)))
    keys: list[str] = []
    if warm:
        # Group-contiguous execution: one session opens, serves all of
        # its group's pending cells, and closes before the next group.
        keys = [session_group_key(cell.dataset) for cell in cells]
        first_seen: dict[str, int] = {}
        for index, key in enumerate(keys):
            first_seen.setdefault(key, index)
        order.sort(key=lambda index: (first_seen[keys[index]], index))
    memo: dict[str, Dataset] = {}
    rows_by_id: dict[str, dict] = {**quarantined, **completed}
    with open(manifest_path, "a", encoding="utf-8") as fh, WarmSessionGroups(
        config, memo
    ) as groups:
        for done, index in enumerate(order, start=1):
            cell = cells[index]
            row = completed.get(cell.cell_id)
            if row is None:
                row = _run_cell_with_retries(
                    spec,
                    cell,
                    config,
                    warm=warm,
                    groups=groups,
                    memo=memo,
                    cell_timeout=cell_timeout,
                    max_retries=max_retries,
                    retry_backoff=retry_backoff,
                    sleep=sleep,
                )
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                fh.flush()
                rows_by_id[cell.cell_id] = row
            if warm and (
                done == len(order) or keys[order[done]] != keys[index]
            ):
                groups.close_group(keys[index])
            if progress is not None:
                progress(done, len(cells), row)
    return [rows_by_id[cell.cell_id] for cell in cells]


def grid_table_rows(rows: list[dict]) -> list[dict]:
    """Flatten manifest rows for :func:`repro.experiments.reporting.format_table`.

    Keeps the scalar axis columns plus the result fields; drops manifest
    bookkeeping (``kind``, digests, nested dataset specs).
    """
    columns = (
        "dataset", "algorithm", "incentives", "alpha",
        "h", "budget", "cpe", "window",
    ) + CELL_RESULT_FIELDS
    out = []
    for row in rows:
        out.append({
            col: ("-" if row.get(col) is None else row.get(col)) for col in columns
        })
    return out
