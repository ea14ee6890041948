"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Fault injection: an infeasible schedule, a wrong reported cost, a wrong
   optimum and a failed verify report go through the same checks the
   workloads use; the harness must count every one of them as failed, so
   ``failed_frac`` comes out above 0, and must pass the correct outputs.
2. Determinism: each workload's traced run is made twice with one seed;
   every counter must repeat exactly.  A run with a second seed must pass
   every correctness check.

Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from workloads import (
    WORKLOADS,
    Outcome,
    check_opt,
    check_run_output,
    check_verify_report,
)

SEEDS = (11, 12)


def fault_injection() -> list[str]:
    lab = run.import_rentlab()
    model = lab.model
    workdir = run.ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        instance = model.make_instance(
            [(Fraction(1, 2), 0, 2), (Fraction(2, 3), 0, 1), (Fraction(1, 3), 1, 3)]
        )
        path = workdir / "small.jobs"
        model.write_instance(path, instance)
        report_path, schedule_path = workdir / "report.json", workdir / "schedule.json"
        rc = lab.cli.main(["run", "--alg", "firstfit", "--in", str(path),
                           "--out", str(report_path), "--schedule-out", str(schedule_path)])
        if rc != 0:
            raise RuntimeError("rentlab run failed on the self-test instance")
        report = json.loads(report_path.read_text())
        schedule = model.read_schedule(schedule_path, instance)
        crowded = model.make_schedule(instance, [[0, 1, 2]])  # load 7/6 at time 0
        wrong_cost = json.loads(json.dumps(report))
        wrong_cost["cost"]["exact"] = "1"

        ff = model.cost(lab.algorithms.first_fit(instance).schedule)
        nf = model.cost(lab.algorithms.next_fit(instance).schedule)
        opt = lab.optimal.brute_force_opt(instance)
        low_opt = dataclasses.replace(opt, cost=opt.cost - Fraction(1, 2))
        good_verify = {"suite": "weights", "passed": True,
                       "details": {"seed": 5, "trials": 200}}
        bad_verify = dict(good_verify, passed=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = {
        "correct run output": check_run_output(lab, instance, report, schedule),
        "correct optimum": check_opt(lab, instance, opt, ff, nf),
        "passing verify report": check_verify_report(good_verify, "weights", 5, 200),
    }
    faults = {
        "infeasible schedule": check_run_output(lab, instance, report, crowded),
        "wrong reported cost": check_run_output(lab, instance, wrong_cost, schedule),
        "optimum below its schedule's cost": check_opt(lab, instance, low_opt, ff, nf),
        "failed verify report": check_verify_report(bad_verify, "weights", 5, 200),
    }
    outcome = Outcome()
    for name, errors in {**good, **faults}.items():
        outcome.record(name, 0.0, 0.0, 1, errors)
    problems = [f"check rejects a correct output ({name}): {errors}"
                for name, errors in good.items() if errors]
    problems += [f"injected fault not detected: {name}"
                 for name, errors in faults.items() if not errors]
    if outcome.failed != len(faults) or not outcome.failed_frac > 0:
        problems.append(f"harness counted {outcome.failed} failures, expected {len(faults)}")
    print(f"fault injection: failed_frac {outcome.failed_frac:g} "
          f"({outcome.failed} of {outcome.attempted} items)")
    return problems


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def determinism() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        first, second, other = (traced(workload, s) for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
        for name, entry in first["metrics"].items():
            if entry["unit"] in ("count", "ratio") and entry != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs between runs of seed "
                                f"{SEEDS[0]}: {entry['value']} vs {second['metrics'][name]['value']}")
        for seed, result in zip((SEEDS[0], SEEDS[0], SEEDS[1]), (first, second, other)):
            if not result["correct"]:
                problems.append(f"{workload}: seed {seed} failed {result['failed']} checks")
        print(f"determinism: {workload} checked")
    return problems


def main() -> int:
    problems = fault_injection() + determinism()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
