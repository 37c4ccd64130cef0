"""Loaded-regime benchmark of the scheduler: four workloads, checked
outputs, end-to-end metrics and a traced per-layer split.

One run of one workload (what a regression gate calls)::

    python3 loadbench/run.py --workload scenario2-loaded --seed 1 --seconds 15 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Without ``--workload`` every workload runs in a fresh process, untraced
and then traced, and a table of every metric is printed.  ``--repeat N``
is the steadiness mode: N untraced runs per workload with seeds
``seed .. seed+N-1``, reporting each metric's median and quartiles.
``--quick`` shrinks every workload to toy size (for the self-test).

Run it from the root of a source checkout: the program is imported from
``src/`` there, and scratch files go to ``.loadbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("scenario2-loaded", "fleet-wide", "preempt-mix", "daemon-live")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "round_ms_p50": "ms",
    "sim_makespan_s": "s",
    "sim_slowdown_mean": "x",
    "start_ms_p50": "ms",
    "cpu_ms_per_job": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_propose"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = Path.cwd() / ".loadbench_out"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "daemon-live":
        from loadbench import daemonwork as work
    else:
        from loadbench import simwork as work
    t0 = time.perf_counter()
    correct, attempted, failed, metrics, info = work.run(
        args.workload, args.seed, args.seconds, trace, args.quick, out_dir
    )
    info["wall_s"] = time.perf_counter() - t0
    print(json.dumps(info, default=str), file=sys.stderr)
    units = (
        {m: per_layer_unit(m) for m in metrics} if trace else END_TO_END
    )
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(doc))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            doc = spawn(workload, args.seed, args.seconds, trace, args.quick)
            ok &= doc["correct"] and doc["failed"] == 0
            kind = "per-layer" if trace else "end-to-end"
            print(
                f"== {workload} ({kind}): correct={doc['correct']} "
                f"attempted={doc['attempted']} failed={doc['failed']}"
            )
            for name, m in doc["metrics"].items():
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def run_repeat(args) -> int:
    from loadbench.stats import spread

    workloads = [args.workload] if args.workload else WORKLOADS
    for workload in workloads:
        docs = []
        for i in range(args.repeat):
            docs.append(spawn(workload, args.seed + i, args.seconds, 0, args.quick))
            values = {k: round(m["value"], 6) for k, m in docs[-1]["metrics"].items()}
            print(f"{workload} seed {args.seed + i}: {json.dumps(values)}", file=sys.stderr)
        shares = sorted({d["failed"] / d["attempted"] for d in docs})
        print(f"== {workload}: {args.repeat} runs, failed shares {shares}")
        print("| metric | unit | median | q1 | q3 | IQR/median |")
        print("|---|---|---|---|---|---|")
        for name, unit in END_TO_END.items():
            values = [d["metrics"][name]["value"] for d in docs]
            med, q1, q3, rel = spread(values)
            print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.3f} |")
        sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many untraced runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="toy-sized inputs (self-test)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if args.repeat:
        return run_repeat(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
