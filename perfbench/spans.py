"""Span recording, statistics helpers and the result schema of the benchmark.

The benchmark measures each layer from outside: :func:`install` replaces a
public function or method with a wrapper that records one span per call
into a :class:`Tracer`.  Spans nest per thread, so a span's *self* time is
its wall (and thread-CPU) time minus the part its wrapped children cover.
Simulated-cluster ranks are threads, so every thread keeps its own
accumulator; socket ranks and sweep pool workers are forked processes, so
a tracer notices a new process id, starts empty, and :meth:`Tracer.dump`
writes the process's accumulator to a spool file the parent merges.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "METRIC_NAME",
    "UNIT_NAME",
    "SpanStats",
    "Tracer",
    "install",
    "uninstall",
    "tail_rank",
    "percentile",
    "validate_result",
]

#: Metric names: a letter or digit, then up to 63 letters, digits, ``_``,
#: ``.`` or ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: Units: up to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

_wall = time.perf_counter
_cpu = time.thread_time


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


#: Percentile ladder the tail metric chooses from, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)

#: Samples a reported percentile must leave beyond it.
TAIL_BEYOND = 10


def tail_rank(count: int) -> int:
    """Highest ladder percentile with at least :data:`TAIL_BEYOND` samples
    above it.

    With ``count`` samples, percentile ``p`` leaves ``count * (100 - p) /
    100`` samples beyond it (the median needs ``2 * TAIL_BEYOND`` samples).
    """
    for p in TAIL_LADDER:
        if count * (100 - p) >= TAIL_BEYOND * 100:
            return p
    raise ValueError(
        f"{count} samples leave fewer than {TAIL_BEYOND} beyond the median"
    )


def percentile(values: list[float], p: int) -> float:
    """Percentile ``p`` of ``values``, refusing a tail the sample can't carry.

    Linear interpolation between order statistics (the ``inclusive``
    method of :func:`statistics.quantiles`).
    """
    if p > tail_rank(len(values)):
        raise ValueError(
            f"p{p} needs {math.ceil(TAIL_BEYOND * 100 / (100 - p))} samples, "
            f"got {len(values)}"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class SpanStats:
    """Totals of one span name on one thread (or merged)."""

    __slots__ = ("calls", "wall", "cpu", "self_wall", "self_cpu", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.self_wall = 0.0
        self.self_cpu = 0.0
        self.counts: dict[str, float] = {}

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.cpu += other.cpu
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0.0) + v

    def to_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls, "wall": self.wall, "cpu": self.cpu,
            "self_wall": self.self_wall, "self_cpu": self.self_cpu,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpanStats":
        s = cls()
        s.calls = int(d["calls"])
        s.wall, s.cpu = float(d["wall"]), float(d["cpu"])
        s.self_wall, s.self_cpu = float(d["self_wall"]), float(d["self_cpu"])
        s.counts = {k: float(v) for k, v in d["counts"].items()}
        return s


class _Frame:
    __slots__ = ("stats", "w0", "c0", "child_wall", "child_cpu")

    def __init__(self, stats: SpanStats):
        self.stats = stats
        self.w0 = _wall()
        self.c0 = _cpu()
        self.child_wall = 0.0
        self.child_cpu = 0.0


class _ThreadState:
    """One thread's span stack and accumulators."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.stats: dict[str, SpanStats] = {}
        #: Nesting depth of communicator operations on this thread.
        self.comm_depth = 0

    def push(self, name: str) -> _Frame:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        frame = _Frame(stats)
        self.stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> None:
        wall = _wall() - frame.w0
        cpu = _cpu() - frame.c0
        self.stack.pop()
        s = frame.stats
        s.calls += 1
        s.wall += wall
        s.cpu += cpu
        s.self_wall += wall - frame.child_wall
        s.self_cpu += cpu - frame.child_cpu
        if self.stack:
            parent = self.stack[-1]
            parent.child_wall += wall
            parent.child_cpu += cpu


class Tracer:
    """Per-thread span accumulators for one process.

    A tracer created before a fork starts empty in the child on first use
    (accumulators are keyed by process id), so a forked rank or pool
    worker reports only its own spans.
    """

    def __init__(self, spool: str | Path | None = None):
        self.spool = None if spool is None else Path(spool)
        self.meta: dict[str, Any] = {}
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.extra: dict[str, float] = {}

    def state(self) -> _ThreadState:
        if self._pid != os.getpid():
            self._reset()
            self.meta = {}
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to a process-wide counter (thread-safe)."""
        self.state()
        with self._lock:
            self.extra[key] = self.extra.get(key, 0.0) + value

    def merged(self) -> dict[str, SpanStats]:
        """Span totals over every thread of this process."""
        self.state()
        out: dict[str, SpanStats] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, s in list(st.stats.items()):
                out.setdefault(name, SpanStats()).add(s)
        return out

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            extra = dict(self.extra)
        return {
            "pid": os.getpid(),
            "meta": dict(self.meta),
            "spans": {k: v.to_dict() for k, v in self.merged().items()},
            "extra": extra,
        }

    def dump(self) -> None:
        """Write this process's snapshot to ``<spool>/proc-<pid>.json``."""
        if self.spool is None:
            return
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"proc-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def load_spool(spool: str | Path) -> list[dict[str, Any]]:
    """Every process snapshot written under ``spool``."""
    return [
        json.loads(p.read_text())
        for p in sorted(Path(spool).glob("proc-*.json"))
    ]


def merge_snapshots(snaps: list[dict[str, Any]]) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = {}
    for snap in snaps:
        for name, d in snap["spans"].items():
            out.setdefault(name, SpanStats()).add(SpanStats.from_dict(d))
    return out


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def install(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    pre: Callable[..., Any] | None = None,
    post: Callable[..., None] | None = None,
) -> tuple[Any, str, Any]:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``pre(args, kwargs)`` runs before the call and its value reaches
    ``post(stats, pre_value, args, kwargs, result)``, which may add to
    ``stats.counts``; neither runs inside the span's timed interval.
    Returns the handle :func:`uninstall` needs.
    """
    original = owner.__dict__[attr]
    is_classmethod = isinstance(original, classmethod)
    fn = original.__func__ if is_classmethod else original

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        st = tracer.state()
        before = pre(args, kwargs) if pre is not None else None
        frame = st.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            st.pop(frame)
        if post is not None:
            post(frame.stats, before, args, kwargs, result)
        return result

    wrapper.__name__ = getattr(fn, "__name__", attr)
    wrapper.__qualname__ = getattr(fn, "__qualname__", attr)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    return owner, attr, original


def uninstall(handles: list[tuple[Any, str, Any]]) -> None:
    """Restore wrapped attributes, most recent first."""
    for owner, attr, original in reversed(handles):
        setattr(owner, attr, original)
    handles.clear()


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------


def validate_result(
    result: dict[str, Any], expected: list[dict[str, str]]
) -> None:
    """Raise ``ValueError`` unless ``result`` is a well-formed result line.

    ``expected`` is the ``end_to_end`` or ``per_layer`` list of
    ``BENCHMARK.json``: the metrics must be exactly those names, each with
    its declared unit and a finite numeric value.
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{key} must be a non-negative int")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if result["failed"] > result["attempted"]:
        raise ValueError("failed exceeds attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if set(entry) != {"value", "unit"}:
            raise ValueError(f"{name}: keys {sorted(entry)}")
        if entry["unit"] != want[name] or not UNIT_NAME.match(entry["unit"]):
            raise ValueError(f"{name}: unit {entry['unit']!r}")
        v = entry["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name}: value {v!r} is not a number")
        if not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r} is not finite")
