"""Type III parallel SimE: cooperating parallel searches.

Paper Section 6.3 (Figure 6), modelled on asynchronous multiple-Markov-
chain parallel SA (Chandy et al. [1]):

* rank 0 is a **central store** ("one processor is required as a central
  store", which is why the paper's Table 4 starts at p = 3);
* every other rank runs the full serial SimE loop from the *same starting
  solution* with a *different randomization seed*;
* whenever a slave improves its best solution it reports it to the store
  ("each processor always communicates the best solution found recently to
  the master");
* a slave counts consecutive non-improving iterations; past the **retry
  threshold** it asks the store for a better solution — the store "either
  provides a better solution or accepts the solution of the requesting
  processor if it is better".

There is no workload division, so runtimes track the serial algorithm;
the paper's observation — and this implementation reproduces its mechanism
— is that identically-seeded-solution SimE threads explore overlapping
regions, so cooperation buys quality (especially at high retry thresholds)
but no speed.
"""

from __future__ import annotations

from repro.cost.workmeter import WorkModel
from repro.layout.placement import Placement
from repro.parallel.faults import FaultPlan, as_plan
from repro.parallel.mpi.backend import make_cluster
from repro.parallel.mpi.comm import ANY_SOURCE, CommError, Communicator
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.runners import (
    ExperimentSpec,
    ParallelOutcome,
    build_problem,
    make_config,
    rank_stream_id,
    stream_for,
)
from repro.sime.engine import SimulatedEvolution

__all__ = ["run_type3"]

_REPORT = "report"
_REQUEST = "request"
_DONE = "done"

#: The single tag of the store<->searcher channel.  The value is the
#: protocol default (so the wire behavior is unchanged), but every call
#: names it explicitly: the store's ANY_SOURCE funnel is then a
#: single-tag channel the protocol checker (`repro commcheck`) can
#: certify, and lint rule C205 holds by construction.
_TAG_STORE = 0


def _master(comm: Communicator, on_rank_failure: str = "abort") -> dict:
    """Central best-solution store (rank 0).

    Under ``on_rank_failure="degrade"`` the store survives searcher
    loss: a reply to a requester that died in flight is dropped, and
    when the receive loop can provably never complete (every remaining
    searcher is gone and nothing matching is stashed — the backend
    broadcast their departures) the store closes out with whatever the
    survivors contributed, reporting the missing ranks as
    ``lost_ranks``.  The cooperating searches are independent
    explorations sharing one store, so "rebalancing" a dead searcher's
    region means exactly this: the store stops waiting for it and the
    survivors' own budgets keep covering the space.  Under the default
    abort policy any loss propagates as :class:`CommError`, unchanged.
    """
    degrade = on_rank_failure == "degrade"
    best_mu = -1.0
    best_rows: list[list[int]] | None = None
    done_ranks: set[int] = set()
    lost_ranks: list[int] = []
    exchanges = 0
    adoptions = 0

    def reply(dest: int, obj) -> None:
        try:
            comm.send(obj, dest, tag=_TAG_STORE)
        except CommError:
            if not degrade:
                raise
            # The requester died between asking and our answer.

    while len(done_ranks) < comm.size - 1:
        try:
            # The store funnel is inherently arrival-order dependent: the
            # asynchronous cooperative search is the paper's Type III
            # semantics, so the ANY_SOURCE race flagged by the dynamic
            # sanitizer is accepted here (and determinized by virtual
            # time on the simulated backend).
            src, msg = comm.recv(source=ANY_SOURCE, tag=_TAG_STORE)  # repro: noqa[P505] -- Type III is an asynchronous cooperative search: store arrival order is the algorithm; sim delivery determinizes it
        except CommError:
            if not degrade:
                raise
            # recv can only fail here with every remaining peer gone:
            # whoever never sent DONE is lost.
            lost_ranks = sorted(set(range(1, comm.size)) - done_ranks)
            break
        kind = msg[0]
        if kind == _REPORT:
            _, mu, rows = msg
            if mu > best_mu:
                best_mu = mu
                best_rows = rows
        elif kind == _REQUEST:
            _, mu, rows = msg
            exchanges += 1
            if mu > best_mu:
                # Accept the requester's solution; nothing better to offer.
                best_mu = mu
                best_rows = rows
                reply(src, None)
            elif best_mu > mu:
                adoptions += 1
                reply(src, (best_mu, best_rows))
            else:
                reply(src, None)
        elif kind == _DONE:
            done_ranks.add(src)
        else:  # pragma: no cover - protocol is closed
            raise RuntimeError(f"unknown message kind {kind!r}")
    return {
        "best_mu": best_mu,
        "best_rows": best_rows,
        "exchanges": exchanges,
        "adoptions": adoptions,
        "lost_ranks": lost_ranks,
    }


def _slave(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    retry_threshold: int,
) -> dict:
    problem = build_problem(spec, meter=comm.meter)
    engine = problem.engine
    rng = stream_for(spec.seed, rank_stream_id(comm.rank), "t3-sel")
    sime = SimulatedEvolution(engine, make_config(spec, iterations), rng)

    placement = problem.initial_placement()
    engine.attach(placement)
    sime.best_mu = engine.mu()
    sime.best_rows = placement.to_rows()
    sime.best_costs = engine.costs()

    count = 0
    last_best = sime.best_mu
    history: list[tuple[int, float, float]] = []
    for it in range(iterations):
        rec = sime.step()
        comm.progress()
        history.append((it, rec.mu, comm.elapsed()))
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
                mu, rows = reply
                if mu > sime.best_mu:
                    placement = Placement.from_rows(problem.grid, rows)
                    engine.attach(placement)
                    sime.best_mu = engine.mu()
                    sime.best_rows = placement.to_rows()
                    sime.best_costs = engine.costs()
                    last_best = sime.best_mu
            count = 0
    comm.send((_DONE,), 0, tag=_TAG_STORE)
    result = sime.result()
    return {
        "best_mu": result.best_mu,
        "best_costs": result.best_costs,
        "history": history,
        "elapsed": comm.elapsed(),
    }


def _spmd(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    retry_threshold: int,
    on_rank_failure: str = "abort",
) -> dict:
    if comm.rank == 0:
        return _master(comm, on_rank_failure)
    return _slave(comm, spec, iterations, retry_threshold)


def _close_out(res, p: int, strategy: str, cluster: str,
               plan: FaultPlan | None, on_rank_failure: str
               ) -> tuple[dict, list[dict], dict]:
    """``(master, survivors, extras)`` of a store-plus-searchers run.

    Shared by both Type III runners: losing the store (rank 0) or every
    searcher aborts; ``extras`` holds the cluster, ``faults``,
    ``on_rank_failure`` and ``degraded`` entries.
    """
    lost_backend = dict(getattr(res, "lost", {}) or {})
    if 0 in lost_backend:
        raise CommError(
            f"{strategy} central store (rank 0) was lost; a degraded run "
            f"cannot continue without it ({lost_backend[0]})"
        )
    master = res.results[0]
    lost_ranks = sorted(set(master.get("lost_ranks", ())) | set(lost_backend))
    slaves = [res.results[r] for r in range(1, p) if r not in lost_ranks]
    if not slaves:
        raise CommError(
            f"all searching ranks were lost: {lost_backend or lost_ranks}"
        )
    extras: dict = {}
    if cluster != "sim":
        extras["cluster"] = cluster
        extras["model_seconds"] = [m.seconds() for m in res.meters]
        extras["wall_seconds"] = res.makespan
    if plan is not None:
        extras["faults"] = plan.spec()
    if on_rank_failure != "abort":
        extras["on_rank_failure"] = on_rank_failure
    if lost_ranks:
        extras["degraded"] = {
            "lost_ranks": lost_ranks,
            "p_effective": p - len(lost_ranks),
            "reasons": {
                str(r): lost_backend.get(r, "no DONE received")
                for r in lost_ranks
            },
        }
    return master, slaves, extras


def run_type3(
    spec: ExperimentSpec,
    p: int,
    retry_threshold: int,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run Type III parallel SimE on a ``p``-rank cluster backend.

    ``p`` counts the central store: Table 4's "p = 3" is one store plus
    two searching slaves.  Serial and parallel runs use the same iteration
    budget per processor (paper: "Both the serial and parallel algorithms
    were run for 2500 iterations at each processor").  ``cluster="socket"``
    runs on real processes — message arrival order (and hence the
    cooperative search result) then varies run to run, exactly as it did
    on the paper's cluster; ``"sim"`` stays deterministic.

    ``faults`` arms a deterministic fault plan (spec string or
    :class:`FaultPlan`).  ``on_rank_failure="degrade"`` lets the run
    survive mid-run searcher loss on the real backends: the store and
    the backend stop waiting for the dead rank, the outcome is built
    from the survivors, and ``extras["degraded"]`` records what was
    lost (losing the store itself still aborts).  The default
    ``"abort"`` matches the historical fail-fast behavior exactly.
    """
    if p < 3:
        raise ValueError("Type III needs at least 3 ranks (store + 2 searchers)")
    if retry_threshold < 1:
        raise ValueError("retry_threshold must be >= 1")
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
            "on_rank_failure": on_rank_failure,
        },
    )
    master, slaves, tail = _close_out(
        res, p, "type3", cluster, plan, on_rank_failure
    )
    best_slave = max(slaves, key=lambda s: s["best_mu"])
    best_mu = max(master["best_mu"], best_slave["best_mu"])
    # Runtime: the searchers' makespan (the store idles by design).
    runtime = max(s["elapsed"] for s in slaves)
    extras = {
        "retry_threshold": retry_threshold,
        "exchanges": master["exchanges"],
        "adoptions": master["adoptions"],
        "slave_mus": [s["best_mu"] for s in slaves],
        "rank_clocks": res.clocks,
        **tail,
    }
    return ParallelOutcome(
        strategy="type3",
        circuit=spec.circuit,
        objectives=spec.objectives,
        p=p,
        iterations=iters,
        runtime=runtime,
        best_mu=best_mu,
        best_costs=best_slave["best_costs"],
        history=best_slave["history"],
        extras=extras,
    )
