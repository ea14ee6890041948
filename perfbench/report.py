"""Run every workload in its own process and print each metric with its unit.

    python3 perfbench/report.py                       # one seed, all workloads
    python3 perfbench/report.py --seeds 1-10 --workloads exact-small
    python3 perfbench/report.py --seeds 1-10 --out perfbench/baseline.json

For each metric it prints the median over the seeds and, with two or more
seeds, the quartiles and the spread: the distance between the first and
third quartile as a share of the median.  Compare the spread of an
end-to-end metric with its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    for line in lines[:-1]:
        print(f"  {line}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    row = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3)
        row["spread"] = (q3 - q1) / row["median"] if row["median"] else 0.0
    return row


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
    }
    print(f"# python {env['python']}, nproc {env['nproc']}, seconds {args.seconds}, "
          f"trace {args.trace}, seeds {args.seeds}")
    summary = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            print(f"{workload} seed {seed}:")
            runs.append(run_one(workload, seed, args.seconds, args.trace))
        failed |= not all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failures = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {attempted} items, failed_frac "
              f"{failures / attempted:g}, longest run {max(r['wall_s'] for r in runs):.1f} s")
        table = {}
        for metric, entry in runs[0]["metrics"].items():
            row = summarize([r["metrics"][metric]["value"] for r in runs])
            row["unit"] = entry["unit"]
            table[metric] = row
            line = f"  {metric:<48} {row['median']:>14.6g} {entry['unit']}"
            if "spread" in row:
                line += f"   q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
                if metric in bounds:
                    line += f" (bound {bounds[metric]})"
                line += "\n    values " + " ".join(f"{v:.6g}" for v in row["values"])
            print(line)
        summary[workload] = {"failed_frac": failures / attempted, "metrics": table}
    if args.out:
        Path(args.out).write_text(
            json.dumps({"environment": env, "workloads": summary}, indent=2) + "\n"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
