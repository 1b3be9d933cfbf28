"""Which public functions the traced run wraps, and the per-layer metrics.

Every span name belongs to one layer of ``src/repro``.  :func:`install_run`
wraps the calls a placement run makes (SimE loop, cost engine, communicator,
cluster runners, sweep and cache); :func:`install_setup` wraps the calls of
problem construction.  :data:`LAYER_MAP` records, for each per-layer
metric, the end-to-end metric it should move and on which workload — the
map a change that claims a gain is checked against.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any

from spans import SpanStats, Tracer, install

__all__ = [
    "LAYER_MAP",
    "PER_LAYER",
    "install_run",
    "install_setup",
    "RankSpans",
    "layer_metrics",
]

#: metric -> (unit, end-to-end metric it should move, on which workloads).
LAYER_MAP: dict[str, tuple[str, str, str]] = {
    "netlist.build_s": ("s", "setup_s", "serial_commit, scan_wide"),
    "layout.initial_s": ("s", "setup_s", "serial_commit, scan_wide"),
    "cost.engine_init_s": ("s", "setup_s", "serial_commit, scan_wide"),
    "cost.attach_s": ("s", "setup_s", "serial_commit, scan_wide"),
    "cost.commit.calls": ("count", "run_s, iter_ms_*", "serial_commit (most), scan_wide (little), socket_type2"),
    "cost.commit.wall_s": ("s", "run_s, iter_ms_*", "serial_commit (most), scan_wide (little), socket_type2"),
    "cost.remove.wall_s": ("s", "run_s, iter_ms_*", "serial_commit, scan_wide, socket_type2"),
    "cost.refresh.wall_s": ("s", "run_s, iter_ms_*", "serial_commit, scan_wide"),
    "cost.probe.open.calls": ("count", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.probe.open.wall_s": ("s", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.probe.scan.calls": ("count", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.probe.scan.wall_s": ("s", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.probe.candidates": ("count", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.probe.candidates_per_s": ("1/s", "run_s, time_to_target_s", "scan_wide (most), serial_commit (some)"),
    "cost.soa.open.wall_s": ("s", "run_s, time_to_target_s", "zero unless the batch eval path is selected"),
    "cost.soa.scan.wall_s": ("s", "run_s, time_to_target_s", "zero unless the batch eval path is selected"),
    "cost.meter.model_s.wirelength": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide, sweep_sim"),
    "cost.meter.model_s.power": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide, sweep_sim"),
    "cost.meter.model_s.delay": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide"),
    "cost.meter.model_s.goodness": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide, sweep_sim"),
    "cost.meter.model_s.selection": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide, sweep_sim"),
    "cost.meter.model_s.allocation": ("model-s", "none: a change means the algorithm changed", "serial_commit, scan_wide, sweep_sim"),
    "sime.step.wall_s": ("s", "iter_ms_*", "serial_commit, scan_wide"),
    "sime.step.unaccounted_frac": ("ratio", "none: share of step() wall outside the wrapped calls", "serial_commit, scan_wide"),
    "sime.evaluate.wall_s": ("s", "iter_ms_*", "serial_commit"),
    "sime.select.wall_s": ("s", "iter_ms_*", "serial_commit"),
    "sime.select.cells": ("count", "iter_ms_*", "serial_commit"),
    "sime.allocate.self_s": ("s", "iter_ms_*", "serial_commit"),
    "sime.allocate.cells": ("count", "iter_ms_*", "serial_commit"),
    "sime.allocate.moved_frac": ("ratio", "iter_ms_*", "serial_commit"),
    "parallel.rank.busy_s": ("s", "run_s, time_to_target_s", "socket_type2"),
    "parallel.rank.imbalance": ("ratio", "run_s, time_to_target_s", "socket_type2"),
    "mpi.bringup_s": ("s", "run_s", "socket_type2"),
    "mpi.send.calls": ("count", "run_s", "socket_type2"),
    "mpi.send.bytes": ("B-computed", "run_s", "socket_type2"),
    "mpi.send.wall_s": ("s", "run_s", "socket_type2"),
    "mpi.recv.calls": ("count", "run_s", "socket_type2"),
    "mpi.recv.wait_s": ("s", "run_s", "socket_type2"),
    "mpi.coll.calls": ("count", "run_s", "socket_type2"),
    "mpi.coll.wait_s": ("s", "run_s", "socket_type2"),
    # Sim run wall minus the summed thread-CPU of the rank bodies (SimE and
    # the simulated comm ops' own CPU): thread bring-up and hand-offs, and
    # time no rank thread is on the CPU.
    "mpi.sim.overhead_s": ("s", "run_s", "sweep_sim"),
    "experiments.run_cell.wall_s": ("s", "run_s", "sweep_sim"),
    "experiments.cache.get.calls": ("count", "run_s", "sweep_sim"),
    "experiments.cache.get.hits": ("count", "run_s", "sweep_sim"),
    "experiments.cache.get.wall_s": ("s", "run_s", "sweep_sim"),
    "experiments.cache.put.calls": ("count", "run_s", "sweep_sim"),
    "experiments.cache.put.wall_s": ("s", "run_s", "sweep_sim"),
    "experiments.sweep.utilization": ("ratio", "run_s", "sweep_sim"),
    "trace.overhead_frac": ("ratio", "none: traced over untraced run_s, minus one", "all"),
}

#: Per-layer metric names in report order.
PER_LAYER: tuple[str, ...] = tuple(LAYER_MAP)

#: Per-layer metrics of problem construction, measured by the set-up probe.
SETUP_METRICS = ("netlist.build_s", "layout.initial_s", "cost.engine_init_s",
                 "cost.attach_s")

#: Work-meter categories reported as ``cost.meter.model_s.<phase>``.
METER_PHASES = ("wirelength", "power", "delay", "goodness", "selection",
                "allocation")

_COLLECTIVES = ("bcast", "scatter", "gather", "barrier")


# ---------------------------------------------------------------------------
# counters attached to spans
# ---------------------------------------------------------------------------


def _count_candidates(stats: SpanStats, _pre: Any, args: tuple, kwargs: dict,
                      _result: Any) -> None:
    # ProbeContext.scan_row(self, row, lo_slot, hi_slot, best)
    n = args[3] - args[2] + 1
    if n > 0:
        stats.counts["candidates"] = stats.counts.get("candidates", 0.0) + n


def _count_batch_candidates(stats: SpanStats, _pre: Any, args: tuple,
                            kwargs: dict, _result: Any) -> None:
    # BatchProbeContext.scan_rows(self, windows, best=None)
    windows = args[1] if len(args) > 1 else kwargs["windows"]
    n = sum(max(0, hi - lo + 1) for _r, lo, hi in windows)
    stats.counts["candidates"] = stats.counts.get("candidates", 0.0) + n


def _count_selected(stats: SpanStats, _pre: Any, _args: tuple, _kwargs: dict,
                    result: Any) -> None:
    stats.counts["cells"] = stats.counts.get("cells", 0.0) + len(result)


def _positions_before(args: tuple, kwargs: dict) -> list[tuple[int, int, int]]:
    # Allocator.allocate(self, selected, goodness, allowed_rows=None)
    placement = args[0].engine.placement
    selected = args[1] if len(args) > 1 else kwargs["selected"]
    return [(c, placement.row_of[c], placement.slot_of[c]) for c in selected]


def _count_moved(stats: SpanStats, before: list, args: tuple, _kwargs: dict,
                 _result: Any) -> None:
    placement = args[0].engine.placement
    moved = sum(
        1 for c, r, s in before
        if placement.row_of[c] != r or placement.slot_of[c] != s
    )
    c = stats.counts
    c["cells"] = c.get("cells", 0.0) + len(before)
    c["moved"] = c.get("moved", 0.0) + moved


def _count_hit(stats: SpanStats, _pre: Any, _args: tuple, _kwargs: dict,
               result: Any) -> None:
    if result is not None:
        stats.counts["hits"] = stats.counts.get("hits", 0.0) + 1


# ---------------------------------------------------------------------------
# communicator ops
# ---------------------------------------------------------------------------


def _pickled(obj: Any) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _arg(args: tuple, kwargs: dict, i: int, key: str, default: Any) -> Any:
    return args[i] if len(args) > i else kwargs.get(key, default)


def _wire_sends(op: str, comm: Any, args: tuple, kwargs: dict) -> tuple[int, int]:
    """Messages and pickled bytes one public op puts on the wire (computed).

    Follows ``BufferedComm``: collectives are root-sequenced over
    point-to-point messages, and a send to oneself never leaves the stash.
    """
    rank, size = comm.rank, comm.size
    if op == "send":
        if _arg(args, kwargs, 1, "dest", None) == rank:
            return 0, 0
        return 1, _pickled(_arg(args, kwargs, 0, "obj", None))
    if op == "bcast":
        if size > 1 and _arg(args, kwargs, 1, "root", 0) == rank:
            return size - 1, (size - 1) * _pickled(_arg(args, kwargs, 0, "obj", None))
        return 0, 0
    if op == "scatter":
        root = _arg(args, kwargs, 1, "root", 0)
        objs = _arg(args, kwargs, 0, "objs", None)
        if rank != root or objs is None:
            return 0, 0
        return size - 1, sum(_pickled(o) for r, o in enumerate(objs) if r != root)
    if op == "gather":
        if _arg(args, kwargs, 1, "root", 0) == rank:
            return 0, 0
        return 1, _pickled(_arg(args, kwargs, 0, "obj", None))
    if op == "barrier":
        return (size - 1, (size - 1) * _pickled(None)) if rank == 0 else (1, _pickled(None))
    return 0, 0


def _install_comm_op(tracer: Tracer, owner: Any, op: str) -> tuple[Any, str, Any]:
    """Wrap one ``BufferedComm`` op.

    Public ops (not nested in another comm op on this thread) are counted
    per op name, for the cross-check against the comm-event recorder, and
    their wire messages are computed.  ``recv`` is timed at every depth —
    collectives receive through it — so receive-wait inside a collective
    shows under ``mpi.recv`` and inside the ``mpi.coll`` span.
    """
    original = owner.__dict__[op]
    span = "mpi.coll" if op in _COLLECTIVES else f"mpi.{op}"

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        st = tracer.state()
        public = st.comm_depth == 0
        if public:
            msgs, nbytes = _wire_sends(op, self, args, kwargs)
            tracer.count(f"op.{op}", 1)
            tracer.count("send.msgs", msgs)
            tracer.count("send.bytes", nbytes)
        frame = st.push(span) if (public or op == "recv") else None
        st.comm_depth += 1
        try:
            return original(self, *args, **kwargs)
        finally:
            st.comm_depth -= 1
            if frame is not None:
                st.pop(frame)

    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__doc__ = original.__doc__
    setattr(owner, op, wrapper)
    return owner, op, original


# ---------------------------------------------------------------------------
# cluster runners
# ---------------------------------------------------------------------------


class RankSpans:
    """SPMD body wrapper: the rank's thread-CPU over its whole body.

    Serves both backends.  Simulated ranks are threads of the calling
    process and add to its counters.  Socket ranks are forked from the
    parent that installed the wrapper: their tracer starts empty, and each
    dumps ``proc-<pid>.json`` (tagged with the rank) before it ships its
    result, so the file is complete when the run returns.
    """

    def __init__(self, fn: Any, tracer: Tracer):
        self.fn = fn
        self.tracer = tracer
        self.pid = os.getpid()

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        tracer = self.tracer
        forked = os.getpid() != self.pid
        if forked:
            tracer.state()  # drops what the fork inherited
            tracer.meta["rank"] = comm.rank
        c0 = time.thread_time()
        try:
            return self.fn(comm, *args, **kwargs)
        finally:
            tracer.count("rank.busy_cpu", time.thread_time() - c0)
            if forked:
                tracer.dump()


def _install_cluster(tracer: Tracer, owner: Any,
                     span: str | None) -> tuple[Any, str, Any]:
    original = owner.__dict__["run"]

    def run(self: Any, fn: Any, args: Any = (), kwargs: Any = None,
            per_rank_kwargs: Any = None) -> Any:
        wrapped = RankSpans(fn, tracer)
        if span is None:
            return original(self, wrapped, args, kwargs, per_rank_kwargs)
        st = tracer.state()
        frame = st.push(span)
        try:
            return original(self, wrapped, args, kwargs, per_rank_kwargs)
        finally:
            st.pop(frame)

    run.__doc__ = original.__doc__
    setattr(owner, "run", run)
    return owner, "run", original


def _dump_if_child(tracer: Tracer, parent_pid: int):
    def post(_stats: SpanStats, _pre: Any, _args: tuple, _kwargs: dict,
             _result: Any) -> None:
        if os.getpid() != parent_pid:
            tracer.dump()
    return post


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def install_run(tracer: Tracer) -> list:
    """Wrap every run-path public call; returns handles for ``uninstall``."""
    import repro.experiments.sweeps as sweeps
    import repro.parallel.type1 as type1
    import repro.parallel.type2 as type2
    import repro.sime.engine as sime_engine
    import repro.sime.selection as selection
    from repro.cost.engine import CostEngine
    from repro.cost.probe import ProbeContext
    from repro.cost.soa import BatchProbeContext
    from repro.experiments.artifacts import CellCache
    from repro.parallel.mpi.commbase import BufferedComm
    from repro.parallel.mpi.simcluster import SimCluster
    from repro.parallel.mpi.socket_backend import SocketCluster
    from repro.parallel.trace import TRACE_OPS
    from repro.sime.allocation import Allocator

    h = [
        install(tracer, sime_engine.SimulatedEvolution, "step", "sime.step"),
        install(tracer, CostEngine, "refresh_totals", "cost.refresh"),
        install(tracer, sime_engine, "evaluate_goodness", "sime.evaluate"),
        install(tracer, Allocator, "allocate", "sime.allocate",
                pre=_positions_before, post=_count_moved),
        install(tracer, CostEngine, "remove_cells", "cost.remove"),
        install(tracer, CostEngine, "insert_cell", "cost.commit"),
        install(tracer, CostEngine, "open_probe", "cost.probe.open"),
        install(tracer, ProbeContext, "scan_row", "cost.probe.scan",
                post=_count_candidates),
        install(tracer, CostEngine, "open_batch_probe", "cost.soa.open"),
        install(tracer, BatchProbeContext, "scan_rows", "cost.soa.scan",
                post=_count_batch_candidates),
    ]
    # select_cells is imported by name into each module that calls it.
    for module in (selection, sime_engine, type1, type2):
        h.append(install(tracer, module, "select_cells", "sime.select",
                         post=_count_selected))
    for op in TRACE_OPS:
        h.append(_install_comm_op(tracer, BufferedComm, op))
    h.append(_install_cluster(tracer, SocketCluster, None))
    h.append(_install_cluster(tracer, SimCluster, "mpi.sim.run"))
    h.append(install(tracer, sweeps, "run_cell", "experiments.run_cell",
                     post=_dump_if_child(tracer, os.getpid())))
    h.append(install(tracer, CellCache, "get", "experiments.cache.get",
                     post=_count_hit))
    h.append(install(tracer, CellCache, "put", "experiments.cache.put"))
    return h


def install_setup(tracer: Tracer) -> list:
    """Wrap the calls ``build_problem`` and ``attach`` make."""
    import repro.parallel.runners as runners
    from repro.cost.engine import CostEngine
    from repro.layout.grid import RowGrid

    return [
        install(tracer, runners, "paper_circuit", "netlist.build"),
        install(tracer, RowGrid, "for_netlist", "layout.initial"),
        install(tracer, runners, "random_placement", "layout.initial"),
        install(tracer, CostEngine, "__init__", "cost.engine_init"),
        install(tracer, CostEngine, "attach", "cost.attach"),
    ]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: dict[str, SpanStats], extra: dict[str, float],
                  jobs: int) -> dict[str, float]:
    """Run-path per-layer metrics, per traced job, from merged spans."""
    n = float(max(1, jobs))

    def s(name: str) -> SpanStats:
        return spans.get(name) or SpanStats()

    def count(name: str, key: str) -> float:
        return s(name).counts.get(key, 0.0)

    scan = s("cost.probe.scan")
    candidates = count("cost.probe.scan", "candidates")
    step = s("sime.step")
    alloc_cells = count("sime.allocate", "cells")
    coll = s("mpi.coll")
    # Metrics a workload's own code fills in (or that stay 0 where the
    # workload bypasses the layer) start at zero.
    out = {name: 0.0 for name in PER_LAYER if name not in SETUP_METRICS}
    out.update({
        "cost.commit.calls": s("cost.commit").calls / n,
        "cost.commit.wall_s": s("cost.commit").self_wall / n,
        "cost.remove.wall_s": s("cost.remove").self_wall / n,
        "cost.refresh.wall_s": s("cost.refresh").self_wall / n,
        "cost.probe.open.calls": s("cost.probe.open").calls / n,
        "cost.probe.open.wall_s": s("cost.probe.open").self_wall / n,
        "cost.probe.scan.calls": scan.calls / n,
        "cost.probe.scan.wall_s": scan.self_wall / n,
        "cost.probe.candidates": candidates / n,
        "cost.probe.candidates_per_s": (
            candidates / scan.self_wall if scan.self_wall > 0 else 0.0
        ),
        "cost.soa.open.wall_s": s("cost.soa.open").self_wall / n,
        "cost.soa.scan.wall_s": s("cost.soa.scan").self_wall / n,
        "sime.step.wall_s": step.wall / n,
        "sime.step.unaccounted_frac": (
            step.self_wall / step.wall if step.wall > 0 else 0.0
        ),
        "sime.evaluate.wall_s": s("sime.evaluate").self_wall / n,
        "sime.select.wall_s": s("sime.select").self_wall / n,
        "sime.select.cells": count("sime.select", "cells") / n,
        "sime.allocate.self_s": s("sime.allocate").self_wall / n,
        "sime.allocate.cells": alloc_cells / n,
        "sime.allocate.moved_frac": (
            count("sime.allocate", "moved") / alloc_cells if alloc_cells else 0.0
        ),
        "mpi.send.calls": extra.get("send.msgs", 0.0) / n,
        "mpi.send.bytes": extra.get("send.bytes", 0.0) / n,
        # Time in comm ops outside receive-wait: p2p sends plus the
        # collectives' own (sending and pickling) time.
        "mpi.send.wall_s": (s("mpi.send").self_wall + coll.self_wall) / n,
        "mpi.recv.calls": s("mpi.recv").calls / n,
        "mpi.recv.wait_s": s("mpi.recv").wall / n,
        "mpi.coll.calls": coll.calls / n,
        "mpi.coll.wait_s": coll.wall / n,
        "mpi.sim.overhead_s": (
            (s("mpi.sim.run").wall - extra.get("rank.busy_cpu", 0.0)) / n
            if s("mpi.sim.run").calls else 0.0
        ),
        "experiments.run_cell.wall_s": s("experiments.run_cell").wall / n,
        "experiments.cache.get.calls": s("experiments.cache.get").calls / n,
        "experiments.cache.get.hits": count("experiments.cache.get", "hits") / n,
        "experiments.cache.get.wall_s": s("experiments.cache.get").wall / n,
        "experiments.cache.put.calls": s("experiments.cache.put").calls / n,
        "experiments.cache.put.wall_s": s("experiments.cache.put").wall / n,
    })
    return out
