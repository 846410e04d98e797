"""The antiatom benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload frobenius-scan --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
the traced run that splits the time by module.  ``--smoke`` shrinks every
workload so the whole harness runs in seconds.  The program is imported from
the checkout's ``src/``; without it the benchmark exits with code 2.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, with the metrics BENCHMARK.json declares.  The
lines before it record the environment and the metrics in readable form.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="antiatom benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    return p.parse_args(argv)


def environment(args: argparse.Namespace) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired) as exc:
            sha = f"unknown: {exc}"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def declared_units(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "antiatom" / "__init__.py").is_file():
        print(f"error: no antiatom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import antiatom

    if Path(antiatom.__file__).resolve().parent != (SRC / "antiatom").resolve():
        print(f"error: imported antiatom from {antiatom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import measure
    import traced
    from workloads import FULL, SMOKE, Workload

    work = Workload(args.workload, SMOKE if args.smoke else FULL, args.seed)
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    env = environment(args)
    units = declared_units(args.trace)
    if args.trace:
        tracer = traced.Tracer()
        metrics, tally = traced.run(work, tracer)
        notes = {"spans": len(tracer.spans)}
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.json",
                     {"env": env, "metrics": metrics})
    else:
        metrics, tally, notes = measure.run(work, ROOT, args.seconds, started)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")

    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name in units:
        print(f"  {name:<32} {metrics[name]:>16.6f} {units[name]}")
    print(f"  {'failed_ratio':<32} {tally.failed / tally.attempted:>16.6f} "
          f"({tally.failed} of {tally.attempted} invocations)")
    for reason in tally.reasons:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
