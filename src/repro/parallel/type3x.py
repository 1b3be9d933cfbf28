"""Diversified Type III — the paper's Section 7 proposals, implemented.

The paper closes by observing that plain Type III fails because SimE
threads seeded with the same solution "are not diversified enough", and
proposes two remedies:

1. "Use of a different allocation function at each thread ... whereby the
   searches are directed in different directions" — implemented here by
   giving each searching rank a distinct allocation profile (different
   probe windows and allocation-order direction);
2. "solutions from independent, parallel threads may be combined
   intelligently using crossover operators that take advantage of SimE
   goodness measure" — implemented as a goodness-aware row crossover: when
   a stagnating slave fetches the store's best solution, instead of
   wholesale adoption it builds a child that keeps, per row, the parent
   ordering from whichever parent scores that row's cells better, then
   repairs duplicates/omissions into the lightest rows.

The experiment (bench A5) asks whether these two mechanisms buy quality
over plain Type III at equal iteration budgets — the paper's conjecture,
here made testable.
"""

from __future__ import annotations

from repro.cost.engine import CostEngine
from repro.cost.workmeter import WorkModel
from repro.layout.grid import RowGrid
from repro.layout.placement import Placement
from repro.parallel.faults import FaultPlan, as_plan
from repro.parallel.mpi.backend import make_cluster
from repro.parallel.mpi.comm import Communicator
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.runners import (
    ExperimentSpec,
    ParallelOutcome,
    build_problem,
    rank_stream_id,
    stream_for,
)
from repro.parallel.type3 import (  # shared central-store protocol
    _TAG_STORE,
    _close_out,
    _master,
)
from repro.sime.config import SimEConfig
from repro.sime.engine import SimulatedEvolution
from repro.utils.rng import RngStream

__all__ = ["run_type3_diversified", "goodness_crossover", "allocator_profile"]

_REPORT = "report"
_REQUEST = "request"
_DONE = "done"


def allocator_profile(spec: ExperimentSpec, slave_index: int, iterations: int) -> SimEConfig:
    """A distinct allocation profile per searching thread.

    Cycles through four profiles: (worst-first, tight window),
    (worst-first, wide window), (best-first, tight), (best-first, wide) —
    four genuinely different allocation behaviours, which is the
    diversification lever the paper suggests.
    """
    variant = slave_index % 4
    wide = variant in (1, 3)
    return SimEConfig(
        max_iterations=iterations,
        bias=spec.bias,
        adaptive_bias=spec.adaptive_bias,
        row_window=spec.row_window + (1 if wide else 0),
        slot_window=spec.slot_window + (2 if wide else 0),
        sort_descending=variant >= 2,
        eval_mode=spec.eval_mode,
    )


def goodness_crossover(
    grid: RowGrid,
    engine: CostEngine,
    mine_rows: list[list[int]],
    theirs_rows: list[list[int]],
    rng: RngStream,
) -> list[list[int]]:
    """Goodness-aware row crossover of two placements (see module doc).

    For each row index, score both parents' row contents by the mean
    cell goodness *in the currently attached placement* (the requester's
    frame of reference) and keep the better parent's ordering; repair so
    every movable cell appears exactly once.
    """
    if len(mine_rows) != grid.num_rows or len(theirs_rows) != grid.num_rows:
        raise ValueError("parents must have one list per grid row")

    def row_score(row: list[int]) -> float:
        if not row:
            return 0.0
        return sum(engine.cell_goodness(c) for c in row) / len(row)

    child: list[list[int]] = []
    assigned: set[int] = set()
    for r in range(grid.num_rows):
        a, b = mine_rows[r], theirs_rows[r]
        src = a if row_score(a) >= row_score(b) else b
        row = [c for c in src if c not in assigned]
        assigned.update(row)
        child.append(row)
    # Repair: place leftover cells into the lightest rows.
    missing = [
        c.index for c in grid.netlist.movable_cells() if c.index not in assigned
    ]
    rng.shuffle(missing)
    widths = [
        sum(grid.netlist.cells[c].width_sites for c in row) for row in child
    ]
    for c in missing:
        r = min(range(grid.num_rows), key=lambda i: widths[i])
        child[r].append(c)
        widths[r] += grid.netlist.cells[c].width_sites
    return child


def _slave(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    retry_threshold: int,
    crossover: bool,
) -> dict:
    problem = build_problem(spec, meter=comm.meter)
    engine = problem.engine
    rng = stream_for(spec.seed, rank_stream_id(comm.rank), "t3x-sel")
    config = allocator_profile(spec, comm.rank - 1, iterations)
    sime = SimulatedEvolution(engine, config, rng)

    placement = problem.initial_placement()
    engine.attach(placement)
    sime.best_mu = engine.mu()
    sime.best_rows = placement.to_rows()
    sime.best_costs = engine.costs()

    count = 0
    last_best = sime.best_mu
    crossovers = 0
    for it in range(iterations):
        sime.step()
        comm.progress()
        if sime.best_mu > last_best:
            comm.send((_REPORT, sime.best_mu, sime.best_rows), 0,
                      tag=_TAG_STORE)
            last_best = sime.best_mu
            count = 0
        else:
            count += 1
        if count > retry_threshold:
            comm.send((_REQUEST, sime.best_mu, sime.best_rows), 0,
                      tag=_TAG_STORE)
            _src, reply = comm.recv(source=0, tag=_TAG_STORE)
            if reply is not None:
                their_mu, their_rows = reply
                if crossover:
                    child_rows = goodness_crossover(
                        problem.grid, engine, sime.best_rows, their_rows, rng
                    )
                    crossovers += 1
                else:
                    child_rows = their_rows
                placement = Placement.from_rows(problem.grid, child_rows)
                engine.attach(placement)
                mu = engine.mu()
                if mu > sime.best_mu:
                    sime.best_mu = mu
                    sime.best_rows = placement.to_rows()
                    sime.best_costs = engine.costs()
                last_best = sime.best_mu
            count = 0
    comm.send((_DONE,), 0, tag=_TAG_STORE)
    result = sime.result()
    return {
        "best_mu": result.best_mu,
        "best_costs": result.best_costs,
        "history": [(r.iteration, r.mu, 0.0) for r in result.history],
        "elapsed": comm.elapsed(),
        "crossovers": crossovers,
    }


def _spmd(comm, spec, iterations, retry_threshold, crossover,
          on_rank_failure="abort"):
    if comm.rank == 0:
        return _master(comm, on_rank_failure)
    return _slave(comm, spec, iterations, retry_threshold, crossover)


def run_type3_diversified(
    spec: ExperimentSpec,
    p: int,
    retry_threshold: int,
    crossover: bool = True,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run the diversified Type III variant (Section 7 future work).

    ``cluster`` selects the backend — ``"sim"`` (deterministic, default)
    or ``"socket"`` (real processes; arrival order and hence the cooperative
    result vary run to run).  ``faults`` / ``on_rank_failure`` behave as
    in :func:`repro.parallel.type3.run_type3`: a degraded run survives
    searcher loss and records it under ``extras["degraded"]``.
    """
    if p < 3:
        raise ValueError("needs at least 3 ranks (store + 2 searchers)")
    iters = iterations if iterations is not None else spec.iterations
    plan = as_plan(faults, spec.seed)
    cl = make_cluster(
        cluster, p, network=network, work_model=work_model, timeout=deadline,
        faults=plan, on_rank_failure=on_rank_failure, trace_dir=trace_dir,
    )
    res = cl.run(
        _spmd,
        kwargs={
            "spec": spec,
            "iterations": iters,
            "retry_threshold": retry_threshold,
            "crossover": crossover,
            "on_rank_failure": on_rank_failure,
        },
    )
    strategy = "type3x" if crossover else "type3-diverse"
    master, slaves, tail = _close_out(
        res, p, strategy, cluster, plan, on_rank_failure
    )
    best_slave = max(slaves, key=lambda s: s["best_mu"])
    extras = {
        "retry_threshold": retry_threshold,
        "crossover": crossover,
        "crossovers": sum(s["crossovers"] for s in slaves),
        "slave_mus": [s["best_mu"] for s in slaves],
        **tail,
    }
    return ParallelOutcome(
        strategy=strategy,
        circuit=spec.circuit,
        objectives=spec.objectives,
        p=p,
        iterations=iters,
        runtime=max(s["elapsed"] for s in slaves),
        best_mu=max(master["best_mu"], best_slave["best_mu"]),
        best_costs=best_slave["best_costs"],
        history=best_slave["history"],
        extras=extras,
    )
