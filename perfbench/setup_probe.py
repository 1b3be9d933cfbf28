"""Set-up time of one workload, measured in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py '<spec json>' <trace 0|1>`` from
the checkout root.  Times ``import repro``, problem construction
(``build_problem``) and the first ``attach`` (``SimulatedEvolution.run``
with no iterations) — everything a cold run pays before its first
iteration — and prints one JSON object.  With trace 1 it also reports the
construction calls' own times (netlist, layout, cost engine, attach).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    sys.path.insert(0, str(here.parent / "src"))
    spec_dict = json.loads(argv[0])
    trace = argv[1] == "1"
    tracer = None
    if trace:
        from layers import install_setup
        from spans import Tracer

        tracer = Tracer()
        install_setup(tracer)

    from repro.parallel.mpi.calibration import calibrated_work_model
    from repro.parallel.runners import (
        SERIAL_STREAM,
        ExperimentSpec,
        build_problem,
        make_config,
        stream_for,
    )
    from repro.cost.workmeter import WorkMeter
    from repro.sime.engine import SimulatedEvolution

    spec = ExperimentSpec.from_dict(spec_dict)
    problem = build_problem(spec, WorkMeter(calibrated_work_model()))
    sime = SimulatedEvolution(
        problem.engine, make_config(spec),
        stream_for(spec.seed, SERIAL_STREAM, "serial-sel"),
    )
    sime.run(problem.initial_placement(), iterations=0)
    out = {"setup_s": time.perf_counter() - t0, "mu0": sime.best_mu}
    if tracer is not None:
        spans = tracer.merged()
        for name in ("netlist.build", "layout.initial", "cost.engine_init",
                     "cost.attach"):
            out[name + "_s"] = spans[name].wall if name in spans else 0.0
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
