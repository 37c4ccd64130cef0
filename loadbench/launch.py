"""Start ``repro serve`` with the benchmark's wrappers installed.

    python3 -u loadbench/launch.py --out FILE [--trace] -- serve ARGS...

Without ``--trace`` only the decision rounds are timed, the same
measurement the simulation workloads take; with ``--trace`` every layer
wrapper of :mod:`loadbench.layers` is installed instead.  The daemon
runs until SIGTERM; then the round times (``.npy``) or the spans
(``.npz``) are written to ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def time_rounds(rounds: list[float]) -> None:
    """Record the host time of every decision round that evaluates at
    least one placement, as the simulation workloads do."""
    from repro.schedulers.topo import TopoAwareScheduler

    schedule = TopoAwareScheduler.schedule
    clock = time.perf_counter

    def timed(self, ctx):
        stats = ctx.engine.stats
        lookups = stats.lookups
        t0 = clock()
        placed = schedule(self, ctx)
        if stats.lookups != lookups:
            rounds.append(clock() - t0)
        return placed

    TopoAwareScheduler.schedule = timed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro import cli

    tracer = None
    rounds: list[float] = []
    if args.trace:
        from loadbench.layers import install_service_layers, install_sim_layers
        from loadbench.tracer import Tracer

        tracer = Tracer()
        install_sim_layers(tracer)
        install_service_layers(tracer)
    else:
        time_rounds(rounds)
    code = cli.main(serve_args)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.out)
    else:
        import numpy as np

        np.save(args.out, np.array(rounds))
    return code


if __name__ == "__main__":
    sys.exit(main())
