"""The repository benchmark: one command, four workloads, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload serial_commit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``layers.py``).  Both run the workload's output checks.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and every metric by name with its unit.  The exit code is 0
only if every check passed.

Scratch files (sweep caches, span spools, the socket router's socket) go
under ``.perfbench-work/`` in the working directory and are removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = {False: 5, True: 3}


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _setup_probes(spec_dict: dict, trace: bool, count: int) -> list[dict]:
    """Set-up time in fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             json.dumps(spec_dict), "1" if trace else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; expected one of {names}")
    trace = bool(args.trace)
    expected = bench["per_layer" if trace else "end_to_end"]

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    from spans import Tracer, validate_result
    from workloads import WORKLOADS, Run, cleanup

    provenance = _provenance()
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    # Relative, so the router's AF_UNIX path stays short wherever the
    # checkout lives.
    work = Path(".perfbench-work") / str(os.getpid())
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    workload = WORKLOADS[args.workload]
    run = Run(args.seed, args.seconds, work)
    metrics: dict[str, float] = {}
    try:
        if trace:
            tracer = Tracer()
            got = run.attempt(workload.trace, run, tracer,
                              lambda: layers.install_run(tracer))
        else:
            got = run.attempt(workload.measure, run)
            if got is not None:
                # Before the set-up probes: their interpreters are children
                # too, and never run alongside the workload.
                got["peak_rss_mb"] = _peak_rss_mb()
        probes = run.attempt(
            _setup_probes, workload.setup_spec(args.seed).to_dict(), trace,
            SETUP_PROBES[trace],
        )
        if got is not None and probes:
            if trace:
                for key in layers.SETUP_METRICS:
                    got[key] = statistics.median([p[key] for p in probes])
            else:
                got["setup_s"] = statistics.median([p["setup_s"] for p in probes])
            metrics = got
    finally:
        cleanup(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        run.check(False, "metrics missing: "
                  + ", ".join(sorted(set(units) - set(metrics))))
    for note in run.notes:
        print(f"note {note}")
    for name in units:
        if name in metrics:
            print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    for err in run.errors:
        print("FAILED " + err.strip().replace("\n", "\n    "), file=sys.stderr)
    if set(metrics) != set(units):
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    validate_result(result, expected)
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
