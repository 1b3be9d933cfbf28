"""Golden proof that the knob table preserves cell identity, plus the
table's scoping rules.

``golden_cell_identity.json`` was generated by the per-knob rewriters the
table replaced.  It records ``(cell_id, cell_key(cell, version="golden"))``
in order for every registered scenario, smoke and full, bare and with
each CLI-reachable knob value forced in CLI order.  Rebuilding it through
:func:`apply_knobs` must reproduce it byte for byte: ids, cache keys and
cell order.  ``RUN_GOLDEN`` does the same for ``repro run --circuit``.
"""

import json
import math
from pathlib import Path

import pytest

import repro.cli as cli
from repro.experiments.artifacts import NON_IDENTITY_PARAMS, cell_key
from repro.experiments.registry import (
    CLUSTERS,
    KNOBS,
    apply_knob,
    apply_knobs,
    knob_tag,
    list_scenarios,
    resolve,
)
from repro.sime.config import EVAL_MODES

GOLDEN = Path(__file__).parent / "golden_cell_identity.json"

#: Knob sets applied on top of each resolution, labelled as in GOLDEN.
VARIANTS = (
    [("bare", {})]
    + [(f"cluster={c}", {"cluster": c}) for c in CLUSTERS]
    + [(f"eval_mode={m}", {"eval_mode": m}) for m in EVAL_MODES]
    + [
        ("on_rank_failure=degrade", {"on_rank_failure": "degrade"}),
        ("faults=kill:at=3", {"faults": "kill:at=3"}),
        ("cluster=socket+deadline=30", {"cluster": "socket", "deadline": 30.0}),
        ("all", {"cluster": "socket", "eval_mode": "batch", "deadline": 30.0,
                 "faults": "kill:at=3", "on_rank_failure": "degrade"}),
    ]
)


def _snapshot():
    out = []
    for scenario in list_scenarios():
        for smoke in (False, True):
            base = resolve(scenario, smoke=smoke)
            for label, forced in VARIANTS:
                cells = apply_knobs(base, forced)
                out.append({
                    "scenario": scenario.name, "smoke": smoke, "knobs": label,
                    "cells": [[c.cell_id, cell_key(c, version="golden")]
                              for c in cells],
                })
    return out


def test_cell_identity_matches_golden_snapshot():
    golden = json.loads(GOLDEN.read_text())
    rebuilt = _snapshot()
    assert [(g["scenario"], g["smoke"], g["knobs"]) for g in rebuilt] == [
        (g["scenario"], g["smoke"], g["knobs"]) for g in golden
    ]
    for got, want in zip(rebuilt, golden):
        assert got == want, (got["scenario"], got["smoke"], got["knobs"])


#: ``repro run --circuit s1196 --iterations 10 ARGS``: the cell's id,
#: golden cache key and params, recorded before the knob table existed.
RUN_GOLDEN = [
    (["--strategy", "serial"],
     "s1196/seed1/serial", "44f074c051e98f09", []),
    (["--strategy", "profile", "--eval-mode", "batch"],
     "s1196/seed1/profile[eval_mode=batch]", "a22108f9550fdf69", []),
    (["--strategy", "type1", "--p", "3", "--cluster", "socket",
      "--deadline", "30"],
     "s1196/seed1/type1[cluster=socket,p=3]", "682a7fd2d2de28f4",
     [["cluster", "socket"], ["deadline", 30.0], ["p", 3]]),
    (["--strategy", "type2", "--pattern", "fixed",
      "--inject-faults", "kill:at=3"],
     "s1196/seed1/type2[faults=kill:at=3,p=2,pattern=fixed]",
     "db9f602a965ba0a9",
     [["faults", "kill:at=3"], ["p", 2], ["pattern", "fixed"]]),
    (["--strategy", "type2", "--cluster", "socket", "--eval-mode", "check",
      "--inject-faults", "wedge:rank=1:at=4:attempt=1"],
     "s1196/seed1/type2[cluster=socket,eval_mode=check,"
     "faults=wedge:rank=1:at=4:attempt=1,p=2,pattern=random]",
     "74fdbd547837c7e8",
     [["cluster", "socket"], ["faults", "wedge:rank=1:at=4:attempt=1"],
      ["p", 2], ["pattern", "random"]]),
    (["--strategy", "type3", "--retry-threshold", "5",
      "--on-rank-failure", "degrade", "--cluster", "socket"],
     "s1196/seed1/type3[cluster=socket,on_rank_failure=degrade,p=3,"
     "retry_threshold=5]", "69eb7535c894c68d",
     [["cluster", "socket"], ["on_rank_failure", "degrade"], ["p", 3],
      ["retry_threshold", 5]]),
    (["--strategy", "type3x", "--p", "4", "--on-rank-failure", "degrade",
      "--inject-faults", "kill:rank=2:at=6", "--eval-mode", "batch"],
     "s1196/seed1/type3x[eval_mode=batch,faults=kill:rank=2:at=6,"
     "on_rank_failure=degrade,p=4,retry_threshold=1]", "fea8797c5ccc42fe",
     [["faults", "kill:rank=2:at=6"], ["on_rank_failure", "degrade"],
      ["p", 4], ["retry_threshold", 1]]),
    (["--strategy", "serial", "--cluster", "socket",
      "--on-rank-failure", "abort", "--eval-mode", "scalar"],
     "s1196/seed1/serial[cluster=socket]", "b35d64ccad0c5f05",
     [["cluster", "socket"]]),
]


@pytest.mark.parametrize("argv,cell_id,key,params", RUN_GOLDEN)
def test_run_cell_identity_matches_golden(monkeypatch, argv, cell_id, key, params):
    captured = []

    def fake_run_cell(cell, max_retries=0):
        captured.append(cell)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_cell", fake_run_cell)
    with pytest.raises(SystemExit):
        cli.main(["run", "--circuit", "s1196", "--iterations", "10"] + argv)
    (cell,) = captured
    assert cell.cell_id == cell_id
    assert cell_key(cell, version="golden") == key
    assert [list(p) for p in cell.params] == params


def test_table_matches_exemption_manifest():
    assert {k.name for k in KNOBS if not k.identity} == set(NON_IDENTITY_PARAMS)
    assert [k.name for k in KNOBS] == [
        "cluster", "eval_mode", "deadline", "faults", "on_rank_failure"
    ]


def test_deadline_lands_only_on_wall_clock_cells():
    cells = resolve("speedup", scale=100) + resolve("profile", scale=100)
    timed = apply_knob(cells, "deadline", 30)
    assert [c.cell_id for c in timed] == [c.cell_id for c in cells]
    for before, after in zip(cells, timed):
        on_wall = (before.strategy != "profile"
                   and before.params_dict().get("cluster", "sim") != "sim")
        if on_wall:
            assert after.params_dict()["deadline"] == 30.0
            assert cell_key(after) == cell_key(before)
        else:
            assert after == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, -1])
def test_deadline_rejects_non_finite_and_non_positive(bad):
    cells = apply_knob(resolve("smoke", smoke=True), "cluster", "socket")
    with pytest.raises(ValueError, match="finite"):
        apply_knob(cells, "deadline", bad)


def test_faults_and_policy_reach_only_their_strategies():
    cells = resolve("smoke", smoke=True)
    faulted = apply_knob(cells, "faults", " kill:at=3 ; ")
    for before, after in zip(cells, faulted):
        if before.strategy == "serial":
            assert after == before
        else:
            assert after.params_dict()["faults"] == "kill:at=3"
            assert after.cell_id.count("faults=kill:at=3") == 1
    with pytest.raises(ValueError):
        apply_knob(cells, "faults", "explode:at=1")
    degraded = apply_knob(cells, "on_rank_failure", "degrade")
    changed = {a.strategy for a, b in zip(degraded, cells) if a != b}
    assert changed == {"type3", "type3x"}
    assert apply_knob(cells, "on_rank_failure", "abort") == cells


def test_strict_apply_rejects_unreachable_cells():
    serial = [c for c in resolve("smoke", smoke=True) if c.strategy == "serial"]
    for name, value in (("faults", "kill:at=3"), ("on_rank_failure", "degrade"),
                        ("deadline", 30)):
        with pytest.raises(ValueError, match=f"{name} does not apply"):
            apply_knob(serial, name, value, strict=True)
        assert apply_knob(serial, name, value) == serial
    # A value the cell already holds is no misfit.
    assert apply_knob(serial, "on_rank_failure", "abort", strict=True) == serial


def test_knob_tag_keeps_forced_runs_apart():
    assert knob_tag({}) == ""
    assert knob_tag({"cluster": "sim"}) == "-sim"
    assert knob_tag({"eval_mode": "scalar", "on_rank_failure": "abort",
                     "deadline": 30.0}) == ""
    assert knob_tag({"on_rank_failure": "degrade", "faults": "kill:at=3",
                     "eval_mode": "batch", "cluster": "socket"}) == (
        "-socket-batch-faults-degrade"
    )
