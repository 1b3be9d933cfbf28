"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import pickle
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from spans import (  # noqa: E402
    METRIC_NAME,
    UNIT_NAME,
    Tracer,
    install,
    load_spool,
    percentile,
    tail_rank,
    uninstall,
    validate_result,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize("count, rank", [
    (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (1000, 99),
])
def test_tail_rank_leaves_ten_samples_beyond(count, rank):
    assert tail_rank(count) == rank
    assert count * (100 - rank) / 100 >= 10


def test_tail_rank_refuses_a_sample_too_small_for_the_median():
    with pytest.raises(ValueError):
        tail_rank(19)


def test_percentile_refuses_a_tail_the_sample_cannot_carry():
    with pytest.raises(ValueError, match="needs 100 samples, got 99"):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_reported_notes_carry_the_sample_count():
    from workloads import WORKLOADS, Run

    w = WORKLOADS["serial_commit"]
    run = Run(1, 1.0, HERE)
    out = w._e2e(run, [1.0, 2.0], [0.5], [0.001 * i for i in range(1, 101)], 0.5)
    assert run.notes == ["100 iteration samples, tail = p90, 2 jobs, 1 target jobs"]
    assert out["iter_ms_tail"] == pytest.approx(90.1)
    with pytest.raises(RuntimeError):
        w._e2e(run, [1.0], [0.5], [0.001] * 99, 0.5)


def test_every_workload_quota_supports_its_tail():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])
    for w in WORKLOADS.values():
        assert w.quota * (100 - w.tail) >= 1000


# -- self time from nested spans --------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def tick(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class _Layered:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.tick(1.0)
        self.inner()
        self.inner()
        self.clock.tick(0.5)

    def inner(self):
        self.clock.tick(2.0)


def test_self_time_excludes_wrapped_children(monkeypatch):
    wall, cpu = _Clock(), _Clock()
    monkeypatch.setattr(spans, "_wall", wall)
    monkeypatch.setattr(spans, "_cpu", cpu)
    tracer = Tracer()
    handles = [
        install(tracer, _Layered, "outer", "outer"),
        install(tracer, _Layered, "inner", "inner"),
    ]
    try:
        _Layered(wall).outer()
    finally:
        uninstall(handles)
    got = tracer.merged()
    assert got["outer"].calls == 1 and got["inner"].calls == 2
    assert got["outer"].wall == 5.5
    assert got["outer"].self_wall == 1.5
    assert got["inner"].wall == got["inner"].self_wall == 4.0
    assert _Layered.__dict__["outer"].__name__ == "outer"  # restored


def test_spans_are_per_thread_and_merge():
    tracer = Tracer()
    handles = [install(tracer, _Layered, "inner", "inner")]
    try:
        threads = [
            threading.Thread(target=lambda: [_Layered(_Clock()).inner()
                                             for _ in range(50)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        uninstall(handles)
    assert tracer.merged()["inner"].calls == 200
    assert sum(1 for st in tracer._threads if st.stats) == 4


def _child_records(tracer):
    _Layered(_Clock()).inner()
    tracer.dump()


def test_forked_child_starts_empty_and_spools(tmp_path):
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs fork")
    tracer = Tracer(spool=tmp_path)
    handles = [install(tracer, _Layered, "inner", "inner")]
    try:
        _Layered(_Clock()).inner()  # parent-side span, must not leak
        proc = mp.get_context("fork").Process(target=_child_records,
                                              args=(tracer,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        uninstall(handles)
    (snap,) = load_spool(tmp_path)
    assert snap["spans"]["inner"]["calls"] == 1
    assert tracer.merged()["inner"].calls == 1


def _burn(comm):
    x = 0
    for i in range(200_000):  # unwrapped work inside the rank body
        x += i * comm.rank
    return x


def test_sim_rank_cpu_covers_unwrapped_work_in_the_body():
    from repro.parallel.mpi.simcluster import SimCluster

    tracer = Tracer()
    handles = [layers._install_cluster(tracer, SimCluster, "mpi.sim.run")]
    try:
        SimCluster(2).run(_burn)
    finally:
        uninstall(handles)
    wall = tracer.merged()["mpi.sim.run"].wall
    busy = tracer.extra["rank.busy_cpu"]
    assert 0.5 * wall < busy <= 1.05 * wall
    out = layers.layer_metrics(tracer.merged(), tracer.extra, 1)
    assert out["mpi.sim.overhead_s"] == pytest.approx(wall - busy)


def test_wire_sends_follow_the_collective_shapes():
    class Comm:
        def __init__(self, rank, size):
            self.rank, self.size = rank, size

    one = len(pickle.dumps(("x",), protocol=pickle.HIGHEST_PROTOCOL))
    assert layers._wire_sends("bcast", Comm(0, 3), (("x",), 0), {}) == (2, 2 * one)
    assert layers._wire_sends("bcast", Comm(1, 3), (None, 0), {}) == (0, 0)
    assert layers._wire_sends("gather", Comm(2, 3), (("x",),), {}) == (1, one)
    assert layers._wire_sends("gather", Comm(0, 3), (("x",),), {}) == (0, 0)
    assert layers._wire_sends("send", Comm(1, 3), (("x",), 1), {}) == (0, 0)
    assert layers._wire_sends("send", Comm(1, 3), (("x",), 2), {}) == (1, one)


# -- names, units and the result schema -------------------------------------


@pytest.mark.parametrize("name", ["run_s", "cost.probe.scan.wall_s",
                                  "9lives", "a-b_c.d", "x" * 64])
def test_metric_name_regex_accepts(name):
    assert METRIC_NAME.match(name)


@pytest.mark.parametrize("name", ["", "_run", ".run", "run s", "run/s",
                                  "x" * 65, "µ"])
def test_metric_name_regex_rejects(name):
    assert not METRIC_NAME.match(name)


def test_benchmark_json_names_units_and_layer_map_agree():
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCH[key]]
        assert len(names) == len(set(names))
        for m in BENCH[key]:
            assert METRIC_NAME.match(m["name"]) and UNIT_NAME.match(m["unit"])
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: v[0] for k, v in layers.LAYER_MAP.items()
    }
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _result(**over):
    r = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                    for m in BENCH["end_to_end"]},
    }
    r.update(over)
    return r


def test_validate_result_accepts_a_well_formed_line():
    validate_result(_result(), BENCH["end_to_end"])


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("failed"),
    lambda r: r.update(extra=1),
    lambda r: r.update(correct=1),
    lambda r: r.update(attempted=0),
    lambda r: r.update(attempted=2.0),
    lambda r: r.update(failed=4),
    lambda r: r["metrics"].pop("run_s"),
    lambda r: r["metrics"].update(bogus={"value": 1.0, "unit": "s"}),
    lambda r: r["metrics"]["run_s"].update(unit="ms"),
    lambda r: r["metrics"]["run_s"].update(value=True),
    lambda r: r["metrics"]["run_s"].update(value=math.nan),
    lambda r: r["metrics"]["run_s"].update(value="1"),
    lambda r: r["metrics"]["run_s"].update(extra=0),
])
def test_validate_result_rejects(mutate):
    r = _result()
    mutate(r)
    with pytest.raises(ValueError):
        validate_result(r, BENCH["end_to_end"])
