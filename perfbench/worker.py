"""One benchmark process: set up a workload, then measure it.

run.py starts this script with the run's settings as one JSON argument
and src/ on PYTHONPATH.  Set-up ends at the clock reading "ready", taken
just before the first timed call; with "setup_only" the process exits
there.  Otherwise it measures repetitions for the run's seconds (with
trace on: half of the time untraced, then half traced), runs the final
checks and prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

import charpos
import numpy

from instrument import Instrument
from tracing import Tracer
from workloads import WORKLOADS


def measure(wl, seconds: float, inst: Instrument | None = None) -> list[dict]:
    """Repetitions while another one, as long as the last, fits in `seconds`.

    At least one repetition runs.
    """
    reps = []
    end = time.perf_counter() + seconds
    while True:
        if inst is not None:
            inst.tracer.reset()
            hits = inst.class_hits()
        t0 = time.perf_counter()
        rep = wl.rep()
        rep["wall_s"] = time.perf_counter() - t0
        if inst is not None:
            rep["layers"] = inst.layer_metrics(inst.class_hits() - hits)
        reps.append(rep)
        if time.perf_counter() + rep["wall_s"] > end:
            return reps


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    wl = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"], Path(spec["tmp"]))
    wl.warm_up()
    ready = time.monotonic()
    if spec["setup_only"]:
        print(json.dumps({"ready": ready}))
        return 0
    seconds = spec["seconds"]
    untraced = measure(wl, seconds / 2 if spec["trace"] else seconds)
    traced = []
    if spec["trace"]:
        tracer = Tracer()
        inst = Instrument(tracer)
        inst.install()
        wl.tracer = tracer
        try:
            traced = measure(wl, seconds / 2, inst)
        finally:
            wl.tracer = None
            inst.uninstall()
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")
    wl.final_checks()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "ready": ready,
        "inputs": wl.inputs(),
        "units": wl.units,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in wl.named(untraced).items()},
        "untraced": untraced,
        "traced": traced,
        "checks": wl.checks,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "charpos": charpos.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
