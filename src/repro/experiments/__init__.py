"""Experiment orchestration: scenario registry, sweeps, artifacts.

The layer that turns the library into a runnable system:

* :mod:`repro.experiments.registry` — the paper's experiment families
  (Tables 1–4, the Section 4 profile, a CI smoke set) declared as data and
  resolved into :class:`SweepCell` grids;
* :mod:`repro.experiments.sweeps` — serial or process-pool execution with
  per-cell failure isolation and deterministic results;
* :mod:`repro.experiments.artifacts` — JSON/CSV run records that
  :mod:`repro.analysis.reporting` renders back into the paper's table
  layouts.

The ``repro`` console script (:mod:`repro.cli`) is a thin shell over these
three modules; the benches and examples build on them too.
"""

from repro.experiments.artifacts import (
    ArtifactStore,
    CellCache,
    RunRecord,
    cell_key,
    failed,
    version_key,
)
from repro.experiments.registry import (
    SCENARIOS,
    Scenario,
    StrategyGrid,
    SweepCell,
    base_spec,
    custom_sweep,
    derive_seeds,
    get_scenario,
    list_scenarios,
    resolve,
    scaled_iterations,
)
from repro.experiments.sweeps import (
    BACKENDS,
    ChunkedBackend,
    SerialBackend,
    SweepBackend,
    make_backend,
    parse_shard,
    run_cell,
    run_sweep,
    shard_cells,
)

__all__ = [
    "ArtifactStore",
    "CellCache",
    "RunRecord",
    "cell_key",
    "failed",
    "version_key",
    "SCENARIOS",
    "Scenario",
    "StrategyGrid",
    "SweepCell",
    "base_spec",
    "custom_sweep",
    "derive_seeds",
    "get_scenario",
    "list_scenarios",
    "resolve",
    "scaled_iterations",
    "BACKENDS",
    "ChunkedBackend",
    "SerialBackend",
    "SweepBackend",
    "make_backend",
    "parse_shard",
    "run_cell",
    "run_sweep",
    "shard_cells",
]
