"""The three benchmark workloads and the checks on their outputs.

Each workload is driven by one caller in a closed loop: an item starts only
after the previous one has finished.  A workload object builds its inputs in
``setup``; ``items()`` lists its items, each a call that runs one unit of
work, times it, checks its output and records the result.  Every call goes
through rentlab's public API or through ``rentlab.cli.main(argv)``; the
modules come in as the namespace ``lab`` so that a fresh import, or a traced
one, is what the workload calls.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path


class Outcome:
    """Failures of every item run, and when each run's timed part began and ended.

    The times come from ``time.perf_counter``; the run turns them into
    latencies at the host's reference speed (see ``calibrate.py``).
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.runs: list[tuple[str, float, float, int]] = []  # item, start, end, work

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, item: str, start: float, end: float, work: int, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failures.append(f"{item}: {'; '.join(errors)}")
        self.runs.append((item, start, end, work))


# ---------------------------------------------------------------------------
# Output checks.  They return a list of error strings (empty when the output
# is right) and are shared with the fault-injection self-test.
# ---------------------------------------------------------------------------

def check_run_output(lab, instance, report: dict, schedule, expected_cost=None):
    """A ``rentlab run`` report against the schedule it wrote."""
    errors = []
    try:
        verified = lab.optimal.verify_certificate(instance, schedule)
    except lab.model.InfeasibleScheduleError as exc:
        return [f"written schedule is infeasible: {exc}"]
    if report["cost"]["exact"] != lab.model.format_rational(verified):
        errors.append(
            f"report cost {report['cost']['exact']} != schedule cost {verified}"
        )
    if report["servers_opened"] != len(schedule.servers):
        errors.append("report server count differs from the schedule")
    if report["instance"]["jobs"] != len(instance.jobs):
        errors.append("report job count differs from the instance")
    if expected_cost is not None and verified != expected_cost:
        errors.append(f"cost {verified} != expected {expected_cost}")
    return errors


def check_opt(lab, instance, opt, ff_cost, nf_cost):
    """max(util, span) <= opt <= min(FF, NF), on a feasible optimal schedule."""
    try:
        verified = lab.optimal.verify_certificate(instance, opt.schedule)
    except lab.model.InfeasibleScheduleError as exc:
        return [f"optimal schedule is infeasible: {exc}"]
    errors = []
    if verified != opt.cost:
        errors.append(f"reported optimum {opt.cost} != schedule cost {verified}")
    floor = max(opt.util_bound, opt.span_bound)
    if not floor <= opt.cost <= min(ff_cost, nf_cost):
        errors.append(
            f"optimum {opt.cost} outside [floor {floor}, "
            f"min(FF, NF) {min(ff_cost, nf_cost)}]"
        )
    return errors


def check_verify_report(report: dict, suite: str, seed, trials) -> list[str]:
    errors = []
    if report.get("suite") != suite:
        errors.append(f"report is for suite {report.get('suite')!r}")
    if report.get("passed") is not True:
        errors.append(f"suite did not pass: {report.get('details')}")
    details = report.get("details", {})
    if seed is not None and details.get("seed") != seed:
        errors.append(f"report echoes seed {details.get('seed')}, not {seed}")
    if trials is not None and details.get("trials") != trials:
        errors.append(f"report echoes {details.get('trials')} trials, not {trials}")
    return errors


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class OnlineLarge:
    """``rentlab run`` on three large instance files, each schedule verified.

    One item is one (file, algorithm) run plus the check of what it wrote.
    Work units are jobs placed.  Only the random file depends on the seed.
    """

    name = "online-large"
    work_unit = "jobs"
    K_GGU, T_GGU = 36, Fraction(1, 2)
    K_LU, L_LU = 100, 100

    def __init__(self, lab, seed: int, workdir: Path):
        self.lab, self.seed, self.workdir = lab, seed, workdir
        self.files: list[tuple[str, object, dict]] = []

    def setup(self) -> None:
        lab, wd = self.lab, self.workdir
        specs = [
            ("long-uniform", ["--family", "long-uniform", "--k", str(self.K_LU),
                              "--l", str(self.L_LU)]),
            ("ggu", ["--family", "ggu", "--k", str(self.K_GGU),
                     "--t", str(self.T_GGU)]),
            ("random", ["--family", "random-equal-duration", "--n", "2000",
                        "--seed", str(self.seed), "--horizon", "50"]),
        ]
        for label, argv in specs:
            path = wd / f"{label}.jobs"
            with contextlib.redirect_stdout(io.StringIO()):  # "wrote ..." lines
                rc = lab.cli.main(["gen", *argv, "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"rentlab gen failed for {label}")
            instance = lab.model.read_instance(path)
            expected = {}
            if label == "long-uniform":
                expected["firstfit"] = self.K_LU * (self.L_LU + 2)
            elif label == "ggu":
                expected["firstfit"] = 17 * self.K_GGU * (1 + self.T_GGU)
                self.ggu_certificate = lab.model.read_schedule(
                    f"{path}.cert.json", instance
                )
            self.files.append((label, instance, expected))

    def items(self) -> list:
        return [
            functools.partial(self._run, label, instance, expected, alg)
            for label, instance, expected in self.files
            for alg in ("firstfit", "nextfit")
        ]

    def _run(self, label, instance, expected, alg, outcome: Outcome) -> None:
        lab, wd = self.lab, self.workdir
        report_path = wd / f"{label}.{alg}.report.json"
        schedule_path = wd / f"{label}.{alg}.schedule.json"
        started = time.perf_counter()
        rc = lab.cli.main([
            "run", "--alg", alg, "--in", str(wd / f"{label}.jobs"),
            "--out", str(report_path), "--schedule-out", str(schedule_path),
        ])
        if rc != 0:
            errors = [f"rentlab run exited {rc}"]
        else:
            report = json.loads(report_path.read_text())
            schedule = lab.model.read_schedule(schedule_path, instance)
            errors = check_run_output(lab, instance, report, schedule, expected.get(alg))
            if label == "ggu" and alg == "firstfit":
                errors += self._check_certificate(instance)
        ended = time.perf_counter()
        outcome.record(f"{label}/{alg}", started, ended, len(instance.jobs), errors)

    def _check_certificate(self, instance) -> list[str]:
        try:
            got = self.lab.optimal.verify_certificate(instance, self.ggu_certificate)
        except self.lab.model.InfeasibleScheduleError as exc:
            return [f"ggu certificate is infeasible: {exc}"]
        want = Fraction(27 * self.K_GGU, 2) + 1
        return [] if got == want else [f"ggu certificate cost {got} != {want}"]


class ExactSmall:
    """``brute_force_opt`` on 120 general-duration instances.

    The 120 job structures come from one fixed draw (sizes on a 1/12 grid,
    starts on a 1/4 grid in [0, 2], durations in {1/4, ..., 2}, n cycling
    10, 11, 12).  The workload seed picks the order in which they are
    solved and, per instance, a time scale and a time shift.  Those change
    every rational in the input but not the search: fit tests and cost
    comparisons are invariant under a positive affine map of time.  Drawing
    the structures from the seed instead made the search effort of 400
    instances vary by 15% between seeds, wider than any useful bound.
    One item is one instance; its latency is the solver call alone, and the
    FirstFit, NextFit and certificate checks follow it.  Work units are
    instances solved.
    """

    name = "exact-small"
    work_unit = "instances"
    COUNT = 120
    STRUCTURE_SEED = 20210827
    SCALES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))

    def __init__(self, lab, seed: int, workdir: Path):
        self.lab, self.seed, self.workdir = lab, seed, workdir
        self.instances: list = []

    def setup(self) -> None:
        rng = random.Random(self.STRUCTURE_SEED)
        structures = []
        for i in range(self.COUNT):
            rows = []
            for _ in range(10 + i % 3):
                size = Fraction(rng.randint(1, 12), 12)
                start = Fraction(rng.randint(0, 8), 4)
                rows.append((size, start, start + Fraction(rng.randint(1, 8), 4)))
            rows.sort(key=lambda row: row[1])
            structures.append(rows)
        rng = random.Random(f"exact-small:{self.seed}")
        order = list(range(self.COUNT))
        rng.shuffle(order)
        for i in order:
            scale = rng.choice(self.SCALES)
            shift = Fraction(rng.randint(0, 8), 4)
            self.instances.append((i, self.lab.model.make_instance(
                (size, start * scale + shift, finish * scale + shift)
                for size, start, finish in structures[i]
            )))

    def items(self) -> list:
        return [functools.partial(self._solve, i, instance) for i, instance in self.instances]

    def _solve(self, i, instance, outcome: Outcome) -> None:
        lab = self.lab
        started = time.perf_counter()
        opt = lab.optimal.brute_force_opt(instance, max_jobs=12)
        ended = time.perf_counter()
        ff = lab.model.cost(lab.algorithms.first_fit(instance).schedule)
        nf = lab.model.cost(lab.algorithms.next_fit(instance).schedule)
        outcome.record(f"structure {i}", started, ended, 1, check_opt(lab, instance, opt, ff, nf))


class VerifySuites:
    """The five ``rentlab verify`` suites, in-process, at default trials.

    One item is one suite.  Each run of a randomized suite gets the next
    seed of a sequence derived from the workload seed, so a timed run
    averages over several draws of trials: the work of one draw varies by
    up to 17% between seeds (FirstFit jobs placed, rejection-sampling
    attempts).  Work units are randomized trials (nextfit-2t, strict-ff-2
    and weights).
    """

    name = "verify-suites"
    work_unit = "trials"
    # suite -> trial count it runs by default (None: not randomized)
    SUITES = {
        "nextfit-2t": 500,
        "strict-ff-2": 500,
        "weights": 200,
        "layers": None,
        "recurrence": None,
    }

    def __init__(self, lab, seed: int, workdir: Path):
        self.lab, self.seed, self.workdir = lab, seed, workdir

    def setup(self) -> None:
        """Nothing to generate: the suites draw their instances from their seeds."""

    def items(self) -> list:
        return [
            functools.partial(self._verify, suite, trials, itertools.count())
            for suite, trials in self.SUITES.items()
        ]

    def _verify(self, suite, trials, rounds, outcome: Outcome) -> None:
        seed = None
        if trials is not None:
            seed = random.Random(f"{suite}:{self.seed}:{next(rounds)}").randrange(1, 2**31)
        out = self.workdir / f"verify-{suite}.json"
        argv = ["verify", "--suite", suite, "--out", str(out),
                "--counterexample-dir", str(self.workdir)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        started = time.perf_counter()
        rc = self.lab.cli.main(argv)
        ended = time.perf_counter()
        if rc != 0:
            errors = [f"rentlab verify exited {rc}"]
        else:
            errors = check_verify_report(json.loads(out.read_text()), suite, seed, trials)
        outcome.record(suite, started, ended, trials or 0, errors)


WORKLOADS = {w.name: w for w in (OnlineLarge, ExactSmall, VerifySuites)}
