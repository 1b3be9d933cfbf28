"""Deterministic fault injection: spec language, victim hashing, arming.

The contract under test: a ``(seed, FaultPlan)`` pair is a *replayable*
failure — same victim, same firing point, same error, on every backend,
every run.  That determinism is what the chaos tests, the retry layer
and the degradation machinery all build on.
"""

import pytest

from repro.parallel.faults import (
    DEFAULT_DELAY_SECONDS,
    Fault,
    FaultPlan,
    InjectedFault,
    as_plan,
    format_faults,
    parse_faults,
)
from repro.parallel.mpi.backend import make_cluster
from repro.parallel.mpi.comm import CommError
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.trace import load_trace

# The conformance suite's backend fixture: the drop case runs on every
# registered backend, so the plan also crosses the socket backend's
# pickle boundary.
from tests.parallel.test_backend_conformance import backend  # noqa: F401


# ----------------------------------------------------------- spec language


def test_parse_single_clause():
    (fault,) = parse_faults("kill:at=3")
    assert fault == Fault(kind="kill", at=3)


def test_parse_full_clause_and_multiple():
    faults = parse_faults("wedge:rank=2:at=5:attempt=1;delay:at=2:seconds=0.5")
    assert faults == (
        Fault(kind="wedge", rank=2, at=5, attempt=1),
        Fault(kind="delay", at=2, seconds=0.5),
    )


def test_format_round_trips():
    text = "wedge:rank=2:at=5:attempt=1;delay:at=2:seconds=0.5;drop:at=1"
    assert format_faults(parse_faults(text)) == text


@pytest.mark.parametrize("bad", [
    "explode:at=1",          # unknown kind
    "kill:when=3",           # unknown key
    "kill:at=zero",          # non-integer value
    "kill:at=0",             # at must be >= 1
    "kill:at=1:attempt=0",   # attempt must be >= 1
    "delay:at=1:seconds=-1",  # seconds must be >= 0
    "delay:at=1:seconds=nan",  # ... and finite
    "delay:at=1:seconds=inf",
    "delay:at=1:seconds=-inf",
    "",                      # no clauses at all
    ";;",
])
def test_malformed_specs_raise(bad):
    with pytest.raises(ValueError):
        parse_faults(bad)


# ------------------------------------------------------------- the plan


def test_rankless_victim_is_seeded_never_rank_zero_and_stable():
    plan = FaultPlan.parse("kill:at=3", seed=42)
    victims = {plan.resolve(p).faults[0].rank for _ in range(5) for p in (4,)}
    assert len(victims) == 1
    victim = victims.pop()
    assert 1 <= victim < 4
    # A different seed may pick a different victim; the same seed never does.
    assert FaultPlan.parse("kill:at=3", seed=42).resolve(4).faults[0].rank == victim


def test_victim_independent_of_clause_position():
    """Filtering a plan by attempt must never reshuffle victims: the hash
    keys on the fault's shape, not its index in the list."""
    alone = FaultPlan.parse("kill:at=3", seed=9).resolve(8)
    with_sibling = (
        FaultPlan.parse("wedge:at=1:attempt=2;kill:at=3", seed=9)
        .for_attempt(1)
        .resolve(8)
    )
    assert alone.faults[0].rank == with_sibling.faults[0].rank


def test_explicit_rank_out_of_range_raises():
    plan = FaultPlan.parse("kill:rank=7:at=1", seed=0)
    with pytest.raises(ValueError, match="only 3 ranks"):
        plan.resolve(3)


def test_for_attempt_filters_and_clears_scope():
    plan = FaultPlan.parse("kill:at=3:attempt=1;drop:at=2", seed=0)
    first = plan.for_attempt(1)
    assert [f.kind for f in first.faults] == ["kill", "drop"]
    assert all(f.attempt is None for f in first.faults)
    second = plan.for_attempt(2)
    assert [f.kind for f in second.faults] == ["drop"]


def test_as_plan_coerces_strings_and_passes_plans_through():
    assert as_plan(None, seed=1) is None
    plan = FaultPlan.parse("kill:at=1", seed=1)
    assert as_plan(plan, seed=99) is plan
    coerced = as_plan("kill:at=2:attempt=2", seed=1)
    assert coerced.faults == ()  # a bare run is attempt 1


def test_default_delay_seconds_round_trip():
    (fault,) = parse_faults("delay:at=1")
    assert fault.seconds == DEFAULT_DELAY_SECONDS
    assert "seconds" not in fault.spec()


# ------------------------------------------------- armed on a real backend


def _chat(comm):
    # Deterministic little protocol: everyone reports to 0, 0 acks.
    if comm.rank == 0:
        acks = []
        for r in range(1, comm.size):
            src, v = comm.recv(r)
            acks.append((src, v))
            comm.send(v + 1, r)
        return acks
    comm.send(comm.rank * 10, 0)
    return comm.recv(0)[1]


def test_sim_cluster_fault_is_bit_identical_across_runs():
    def run_once():
        plan = FaultPlan.parse("kill:at=2", seed=5)
        with pytest.raises(CommError) as exc_info:
            SimCluster(3, faults=plan).run(_chat)
        return str(exc_info.value)

    assert run_once() == run_once()


def test_sim_cluster_surfaces_injected_fault_as_root_cause():
    plan = FaultPlan.parse("kill:rank=2:at=1", seed=0)
    with pytest.raises(InjectedFault, match="injected kill: rank 2 at comm op 1"):
        SimCluster(3, faults=plan).run(_chat)


def test_unfaulted_ranks_and_runs_are_untouched():
    clean = SimCluster(3).run(_chat)
    # A plan scoped to attempt 2 resolves to nothing on a bare run.
    armed = SimCluster(3, faults=as_plan("kill:at=1:attempt=2", 5)).run(_chat)
    assert armed.results == clean.results
    assert armed.clocks == clean.clocks


def test_collective_ops_count_toward_firing_point():
    """``at`` counts public comm API calls uniformly — a bcast is one op
    on every backend, however it is implemented internally."""

    def collective_only(comm):
        for _ in range(4):
            comm.bcast(comm.rank, root=0)
        return comm.rank

    plan = FaultPlan.parse("kill:rank=1:at=3", seed=0)
    with pytest.raises(InjectedFault, match="at comm op 3"):
        SimCluster(2, faults=plan).run(collective_only)


# ------------------------------------------ faults composed with tracing


def _w_three_sends(comm, expect=3):
    """Rank 1 sends three tagged messages, then both ranks join a bcast."""
    got = None
    if comm.rank == 1:
        for msg in ("a", "b", "c"):
            comm.send(msg, 0, tag=4)
    else:
        got = [comm.recv(1, tag=4)[1] for _ in range(expect)]
    return got, comm.bcast("go" if comm.rank == 0 else None, root=0)


def test_drop_discards_exactly_that_send_and_leaves_it_untraced(backend, tmp_path):
    plan = FaultPlan.parse("drop:rank=1:at=2", seed=0)
    res = make_cluster(backend, 2, faults=plan, trace_dir=str(tmp_path)).run(
        _w_three_sends, kwargs={"expect": 2}
    )
    assert res.results[0] == (["a", "c"], "go")
    assert res.results[1] == (None, "go")
    traces = load_trace(tmp_path)
    assert [e["op"] for e in traces[1]] == ["send", "send", "bcast"]
    assert [e["op"] for e in traces[0]] == ["recv", "recv", "bcast"]


def test_zero_delay_is_bit_identical_to_an_unfaulted_run():
    clean = SimCluster(2).run(_w_three_sends)
    plan = FaultPlan.parse("delay:rank=1:at=2:seconds=0", seed=0)
    delayed = SimCluster(2, faults=plan).run(_w_three_sends)
    assert delayed.results == clean.results == [(["a", "b", "c"], "go"), (None, "go")]
    assert delayed.clocks == clean.clocks


def test_kill_raises_and_keeps_the_victims_partial_trace(tmp_path):
    plan = FaultPlan.parse("kill:rank=1:at=2", seed=0)
    with pytest.raises(InjectedFault, match="rank 1 at comm op 2"):
        SimCluster(2, faults=plan, trace_dir=str(tmp_path)).run(_w_three_sends)
    traces = load_trace(tmp_path)
    assert [e["op"] for e in traces[1]] == ["send"]
    assert traces[1][0]["dst"] == 0 and traces[1][0]["tag"] == 4
