"""Sweep backends, sharding, and the resume cell cache.

The contracts pinned here are what make `repro sweep --shard i/N` and
`--resume` safe:

* every backend produces canonically identical records;
* shards are disjoint, covering, and deterministic;
* cache hits are bit-identical (modulo wall_seconds) to fresh runs;
* resume re-runs only missing/failed cells;
* pool-level failures exit through failure records that carry observed
  wall time, never zero.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import CellCache, cell_key, version_key
from repro.experiments.registry import SweepCell, base_spec, resolve
from repro.experiments.sweeps import (
    ChunkedBackend,
    SerialBackend,
    make_backend,
    parse_shard,
    run_sweep,
    shard_cells,
)

TINY_ITERS = 5


def _cells(n_extra_seeds: int = 0) -> list[SweepCell]:
    cells = []
    for seed in range(3, 4 + n_extra_seeds):
        spec = base_spec("s1196", iterations=TINY_ITERS, seed=seed)
        cells.append(SweepCell("t", f"s1196/seed{seed}/serial", "serial", spec))
        cells.append(SweepCell(
            "t", f"s1196/seed{seed}/type2", "type2", spec,
            (("p", 2), ("pattern", "random")),
        ))
    return cells


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def test_all_backends_agree_canonically():
    cells = _cells(1)
    serial = SerialBackend().run(cells)
    pooled = ChunkedBackend(workers=2, chunk_size=1).run(cells)
    chunked = ChunkedBackend(workers=2, chunk_size=3).run(cells)
    want = [r.canonical() for r in serial]
    assert [r.canonical() for r in pooled] == want
    assert [r.canonical() for r in chunked] == want


def test_make_backend_names_and_unknown():
    assert make_backend("serial").name == "serial"
    assert make_backend("chunked", chunk_size=4).name == "chunked"
    for name in ("gpu", "process"):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend(name)


def test_run_sweep_backend_selection_compatible():
    cells = _cells()
    # No backend and no workers is serial; a workers count alone picks
    # the chunked pool; an explicit backend overrides both.
    a = run_sweep(cells)
    b = run_sweep(cells, backend="chunked", workers=2, chunk_size=2)
    c = run_sweep(cells, workers=2)
    assert [r.canonical() for r in a] == [r.canonical() for r in b]
    assert [r.canonical() for r in c] == [r.canonical() for r in a]


def test_chunked_backend_chunk_size_validation():
    with pytest.raises(ValueError, match="chunk_size"):
        ChunkedBackend(chunk_size=0).run(_cells())


def test_chunked_backend_preserves_order_with_ragged_chunks():
    cells = _cells(2)  # 6 cells, chunk_size 4 -> chunks of 4 and 2
    records = ChunkedBackend(workers=2, chunk_size=4).run(cells)
    assert [r.cell_id for r in records] == [c.cell_id for c in cells]


def test_progress_fires_once_per_cell_across_backends():
    cells = _cells(1)
    for backend in (SerialBackend(), ChunkedBackend(workers=2, chunk_size=2)):
        seen = []
        backend.run(cells, progress=lambda d, t, r: seen.append((d, t)))
        assert [d for d, _ in seen] == list(range(1, len(cells) + 1))
        assert all(t == len(cells) for _, t in seen)


def test_pool_failure_records_carry_observed_wall_time():
    # A cell whose params cannot pickle never reaches a worker: the
    # future itself fails, which is exactly the pool-level failure path.
    bad = SweepCell(
        "t", "bad/unpicklable", "serial",
        base_spec("s1196", iterations=2),
        (("hook", lambda: None),),
    )
    [record] = ChunkedBackend(workers=1, chunk_size=1).run([bad])
    assert not record.ok
    assert record.wall_seconds > 0.0  # was recorded as 0.0 before


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def test_parse_shard():
    assert parse_shard("1/2") == (1, 2)
    assert parse_shard("3/3") == (3, 3)
    for bad in ("0/2", "3/2", "x/2", "2", "2/", "-1/2"):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_shards_are_disjoint_covering_and_deterministic():
    cells = resolve("smoke", smoke=True)
    parts = [shard_cells(cells, i, 3) for i in (1, 2, 3)]
    ids = [c.cell_id for part in parts for c in part]
    assert sorted(ids) == sorted(c.cell_id for c in cells)
    assert len(ids) == len(set(ids))
    assert parts == [shard_cells(cells, i, 3) for i in (1, 2, 3)]
    with pytest.raises(ValueError):
        shard_cells(cells, 4, 3)


# ---------------------------------------------------------------------------
# Cell cache + resume
# ---------------------------------------------------------------------------


def test_cell_key_covers_physics_not_labels():
    spec = base_spec("s1196", iterations=4, seed=2)
    a = SweepCell("scenA", "idA", "serial", spec)
    b = SweepCell("scenB", "idB", "serial", spec)
    assert cell_key(a) == cell_key(b)  # labels excluded
    c = SweepCell("scenA", "idA", "serial",
                  base_spec("s1196", iterations=4, seed=3))
    assert cell_key(a) != cell_key(c)  # spec included
    d = SweepCell("scenA", "idA", "type2", spec, (("p", 2),))
    assert cell_key(a) != cell_key(d)  # strategy/params included
    assert cell_key(a) != cell_key(a, version="other-version")


def test_cache_hit_is_bit_identical_and_relabelled(tmp_path):
    cells = _cells()
    cache = CellCache(tmp_path)
    fresh = run_sweep(cells, cache=cache)
    assert len(cache) == len(cells)
    relabelled = [
        SweepCell("other", f"renamed/{i}", c.strategy, c.spec, c.params)
        for i, c in enumerate(cells)
    ]
    hits = [cache.get(c) for c in relabelled]
    for hit, want, cell in zip(hits, fresh, relabelled):
        assert hit is not None
        assert hit.scenario == "other" and hit.cell_id == cell.cell_id
        a, b = hit.canonical(), want.canonical()
        a.pop("scenario"), a.pop("cell_id")
        b.pop("scenario"), b.pop("cell_id")
        assert a == b


def test_resume_runs_only_missing_cells(tmp_path, monkeypatch):
    import repro.experiments.sweeps as sweeps_mod

    cells = _cells(1)  # 4 cells
    cache = CellCache(tmp_path)
    run_sweep(cells[:2], cache=cache)  # half-complete artifact dir
    assert len(cache) == 2

    executed = []
    real_run_cell = sweeps_mod.run_cell
    monkeypatch.setattr(
        sweeps_mod, "run_cell",
        lambda c, **kw: (executed.append(c.cell_id), real_run_cell(c, **kw))[1],
    )
    resumed = run_sweep(cells, cache=cache)
    assert executed == [c.cell_id for c in cells[2:]]  # only the missing
    fresh = run_sweep(cells)  # no cache: the unsharded reference
    assert [r.canonical() for r in resumed] == [r.canonical() for r in fresh]


def test_failed_cells_are_never_cached_and_rerun(tmp_path):
    bad = SweepCell(
        "t", "bad", "type2", base_spec("s1196", iterations=2),
        (("no_such_kwarg", 1), ("p", 2), ("pattern", "random")),
    )
    cache = CellCache(tmp_path)
    [first] = run_sweep([bad], cache=cache)
    assert not first.ok
    assert len(cache) == 0
    assert cache.get(bad) is None  # resume re-runs it


def test_sharded_runs_merge_to_unsharded_result(tmp_path):
    cells = _cells(1)
    cache = CellCache(tmp_path)
    for i in (1, 2):
        run_sweep(shard_cells(cells, i, 2), cache=cache)
    merged = run_sweep(cells, cache=cache)  # all hits, merge order = input
    fresh = run_sweep(cells)
    assert [r.canonical() for r in merged] == [r.canonical() for r in fresh]


def test_cache_read_write_switches(tmp_path):
    cells = _cells()
    write_only = CellCache(tmp_path, read=False)
    run_sweep(cells, cache=write_only)
    assert len(write_only) == len(cells)
    assert write_only.get(cells[0]) is None  # reads disabled
    disabled = CellCache(tmp_path / "other", write=False)
    run_sweep(cells, cache=disabled)
    assert len(disabled) == 0


def test_cache_fills_per_completion_not_at_sweep_end(tmp_path, monkeypatch):
    # An interrupted sweep must leave every finished cell on disk for
    # --resume; deferring puts to after backend.run would lose them all.
    import repro.experiments.sweeps as sweeps_mod

    cells = _cells(1)  # 4 cells
    cache = CellCache(tmp_path)
    real_run_cell = sweeps_mod.run_cell
    calls = []

    def interrupting(cell, **kwargs):
        if len(calls) == 2:
            raise KeyboardInterrupt
        calls.append(cell.cell_id)
        return real_run_cell(cell, **kwargs)

    monkeypatch.setattr(sweeps_mod, "run_cell", interrupting)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, cache=cache)
    assert len(cache) == 2  # the two completed cells survived

    monkeypatch.setattr(sweeps_mod, "run_cell", real_run_cell)
    resumed = run_sweep(cells, cache=cache)
    assert [r.ok for r in resumed] == [True] * 4
    assert len(cache) == 4


def test_cache_also_read_consults_and_promotes_but_never_writes_back(tmp_path):
    cells = _cells()
    source = CellCache(tmp_path / "source")
    run_sweep(cells[:1], cache=source)  # partial prior run elsewhere
    cache = CellCache(tmp_path / "out", also_read=[tmp_path / "source"])
    records = run_sweep(cells, cache=cache)
    assert [r.ok for r in records] == [True] * len(cells)
    # Fallback hits are promoted into out, fresh cells written there too:
    # out is self-contained, and the source dir never grew.
    assert len(source) == 1
    assert len(cache) == len(cells)
    standalone = CellCache(tmp_path / "out")
    assert all(standalone.get(c) is not None for c in cells)


def test_corrupt_cache_entry_reads_as_miss(tmp_path):
    cells = _cells()[:1]
    cache = CellCache(tmp_path)
    run_sweep(cells, cache=cache)
    cache.path_for(cells[0]).write_text("{not json")
    assert cache.get(cells[0]) is None


def test_version_key_binds_package_version():
    import repro

    assert repro.__version__ in version_key()
