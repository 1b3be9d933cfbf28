"""The one comm interception point, and the comm-event traces built on it.

:func:`intercept` wraps a communicator's six public comm ops in place,
once, behind one depth guard, so each *public* op is seen exactly once
on every backend, however a backend implements its collectives.  Two
hooks ride on it: the fault plan's trigger
(:meth:`repro.parallel.faults.FaultPlan.arm`) fires *before* the op, and
:class:`CommTraceRecorder` records *after* it returns, so a dropped or
killed op is never recorded.  Clusters arm both through
:func:`instrument`; an unfaulted, untraced run gets no wrapper at all.

The recorder is the dynamic half of ``repro commcheck``.  Each rank
records locally (no payload is touched, no extra message flows, no RNG is
consumed), so a traced run is bit-identical to an untraced one; tracing
is enabled per run via ``make_cluster(..., trace_dir=...)``.  The trace
is one JSONL file per rank (``rank-N.jsonl``) of canonical events:

``{"i": 3, "op": "send", "dst": 0, "tag": 0, "label": "report",
   "file": ".../type3.py", "line": 148}``
``{"i": 4, "op": "recv", "req": -1, "tag": 0, "src": 2, ...}``
``{"i": 5, "op": "bcast", "root": 0, ...}``

``req`` is the *requested* source (−1 = ANY_SOURCE), ``src`` the matched
sender — the pair is what the offline vector-clock checker
(:mod:`repro.check.replay`) needs to reconstruct happens-before and flag
ANY_SOURCE message races.  ``label`` is the message kind for the
tuple-with-string-head protocol idiom (``("report", ...)``), recorded so
replays can be cross-checked against the static skeleton's labels.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults ← comm)
    from repro.parallel.faults import FaultPlan

__all__ = ["CommTraceRecorder", "InterceptedFn", "TRACE_OPS", "instrument",
           "intercept", "load_trace"]

#: The public comm ops, in the order they are wrapped.
TRACE_OPS = ("send", "recv", "bcast", "scatter", "gather", "barrier")


def intercept(
    comm: Any,
    before: Callable[[str], bool] | None = None,
    after: Callable[[str, tuple, dict, Any], None] | None = None,
) -> None:
    """Wrap ``comm``'s public ops in place with ``before``/``after`` hooks.

    Per public op: ``before(op)`` runs first, and a True return drops the
    op (it returns ``None``); otherwise the real op runs and, if it
    returns, ``after(op, args, kwargs, result)`` runs.  A call made while
    another op is in flight (a collective built on the backend's own
    ``send``/``recv``) goes straight to the real op.  With neither hook
    the communicator is left untouched.
    """
    if before is None and after is None:
        return
    depth = 0

    def wrap(op: str, base: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            nonlocal depth
            if depth:
                return base(*args, **kwargs)
            if before is not None and before(op):
                return None  # send dropped on the floor
            depth += 1
            try:
                result = base(*args, **kwargs)
            finally:
                depth -= 1
            if after is not None:
                after(op, args, kwargs, result)
            return result

        return wrapped

    for op in TRACE_OPS:
        setattr(comm, op, wrap(op, getattr(comm, op)))


def _call_site() -> tuple[str, int]:
    """(file, line) of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - there is always a caller
        return "<unknown>", 0
    return frame.f_code.co_filename, frame.f_lineno


def _label_of(obj: Any) -> str | None:
    """The message kind of the tuple-with-string-head protocol idiom."""
    if isinstance(obj, tuple) and obj and isinstance(obj[0], str):
        return obj[0]
    return None


class CommTraceRecorder:
    """Builds one canonical event per public comm op on one rank.

    :meth:`record` is the ``after`` hook of :func:`intercept`.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def record(self, op: str, args: tuple, kwargs: dict, result: Any) -> None:
        if op == "send":
            obj = args[0] if args else kwargs.get("obj")
            dest = args[1] if len(args) > 1 else kwargs.get("dest")
            tag = args[2] if len(args) > 2 else kwargs.get("tag", 0)
            event = {"op": "send", "dst": dest, "tag": tag,
                     "label": _label_of(obj)}
        elif op == "recv":
            req = args[0] if args else kwargs.get("source", -1)
            tag = args[1] if len(args) > 1 else kwargs.get("tag", 0)
            src, obj = result
            event = {"op": "recv", "req": req, "tag": tag, "src": src,
                     "label": _label_of(obj)}
        elif op == "barrier":
            event = {"op": "barrier", "root": 0}
        else:  # bcast / scatter / gather
            root = args[1] if len(args) > 1 else kwargs.get("root", 0)
            event = {"op": op, "root": root}
        event["i"] = len(self.events)
        event["file"], event["line"] = _call_site()
        self.events.append(event)

    def dump(self, path: str | Path) -> None:
        """Write this rank's trace as one JSON record per line."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")


class InterceptedFn:
    """Picklable SPMD wrapper that arms both hooks, then runs ``fn``.

    Travels to every rank (across a ``spawn`` pickle boundary too) and
    dumps ``<trace_dir>/rank-N.jsonl`` when the rank finishes — also on
    the error path, so a failed rank's partial trace survives.  ``plan``
    must already be resolved for the cluster size.
    """

    def __init__(self, fn: Callable[..., Any], plan: "FaultPlan | None",
                 mode: str, trace_dir: str | None):
        self.fn = fn
        self.plan = plan
        self.mode = mode
        self.trace_dir = trace_dir

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        before = None if self.plan is None else self.plan.arm(comm, self.mode)
        recorder = None if self.trace_dir is None else CommTraceRecorder()
        intercept(comm, before, None if recorder is None else recorder.record)
        try:
            return self.fn(comm, *args, **kwargs)
        finally:
            if recorder is not None:
                recorder.dump(Path(self.trace_dir) / f"rank-{comm.rank}.jsonl")


def instrument(fn: Callable[..., Any], size: int, faults: "FaultPlan | None",
               trace_dir: str | None, mode: str) -> Callable[..., Any]:
    """``fn`` armed with a run's fault plan and trace directory, or ``fn``
    itself when there is neither; ``mode`` as in ``FaultPlan.arm``."""
    if faults is None and trace_dir is None:
        return fn
    plan = None if faults is None else faults.resolve(size)
    return InterceptedFn(fn, plan, mode, trace_dir)


def load_trace(trace_dir: str | Path) -> dict[int, list[dict[str, Any]]]:
    """Read every ``rank-N.jsonl`` under ``trace_dir``; rank -> events."""
    out: dict[int, list[dict[str, Any]]] = {}
    for path in sorted(Path(trace_dir).glob("rank-*.jsonl")):
        rank = int(path.stem.split("-", 1)[1])
        events = []
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        out[rank] = events
    return out
