"""Command-line front door: generate, run, solve, verify, report.

Reports are JSON with every rational as a 'p/q' string next to a decimal
column; given identical inputs they are byte-for-byte reproducible (timing
is opt-in via --timing for that reason).  All randomized suites take
explicit seeds, echo them in the report, and default to fixed values.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from inspect import signature
from pathlib import Path

from . import analysis, generators
from .algorithms import first_fit, next_fit
from .model import (
    InfeasibleScheduleError,
    Instance,
    active_count_profile,
    cost,
    format_rational,
    mu,
    parse_rational,
    read_instance,
    span,
    utilization,
    write_instance,
    write_schedule,
)
from .optimal import brute_force_opt

_ALGORITHMS = {"nextfit": next_fit, "firstfit": first_fit}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _union(tables) -> dict:
    """Every parameter of some table by name, in table order."""
    return {name: parameter for table in tables for name, parameter in table.items()}


# gen and verify flags: every parameter of some family or suite
_FAMILY_PARAMETERS = _union(map(generators.family_parameters, generators.FAMILIES))
_SUITE_PARAMETERS = _union(signature(s).parameters for s in analysis.SUITES.values())


def _add_parameter_flags(parser, parameters: dict) -> None:
    """One flag per parameter: an int annotation gives an int, none a rational."""
    for name, parameter in parameters.items():
        if parameter.annotation in (int, "int"):
            parser.add_argument(_flag(name), dest=name, type=int)
        else:
            parser.add_argument(_flag(name), dest=name, help="rational, like 1/2")


def _given(args, parameters: dict) -> dict:
    """The parameters given on the command line, by name."""
    return {name: v for name in parameters if (v := getattr(args, name)) is not None}


def _check_writable(*paths) -> None:
    """Raise the error writing any of ``paths`` would raise, before writing any.

    A command that fails writes nothing, so each command checks all of its
    output paths before the first write.  A ``None`` path (stdout) passes.
    Two paths that resolve to the same file raise ``ValueError``: the
    second write would replace the first.
    """
    paths = [Path(path) for path in paths if path]
    first_named: dict[Path, Path] = {}
    for path in paths:
        same = first_named.setdefault(path.resolve(), path)
        if same is not path:
            raise ValueError(f"{same} and {path} are the same file")
    for path in paths:
        parent = path.parent
        if path.is_dir():
            code = errno.EISDIR
        elif not parent.exists():
            code = errno.ENOENT
        elif not parent.is_dir():
            code = errno.ENOTDIR
        elif not os.access(path if path.exists() else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))


@contextmanager
def _phase(phases: dict, name: str):
    """Add the wall time of the ``with`` body to ``phases[name]``."""
    started = time.perf_counter()
    yield
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - started


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _rational_pair(value: Fraction) -> dict:
    return {"exact": format_rational(value), "decimal": float(value)}


def _instance_digest(instance: Instance) -> dict:
    digest = {
        "jobs": len(instance.jobs),
        "utilization": _rational_pair(utilization(instance)),
        "span": _rational_pair(span(instance)),
    }
    digest["mu"] = _rational_pair(mu(instance)) if instance.jobs else None
    return digest


def cmd_gen(args) -> int:
    accepted = generators.family_parameters(args.family)
    params = _given(args, _FAMILY_PARAMETERS)
    generators.check_arguments(f"family {args.family}", accepted, params, _flag)
    for name, value in params.items():
        if isinstance(value, str):  # a rational flag, left as text by the parser
            params[name] = parse_rational(value)
    spec = generators.GeneratorSpec(family=args.family, parameters=params)
    instance, certificate = spec.build()
    if certificate is None and args.cert_out:
        raise ValueError(f"family {args.family} has no certificate for --cert-out")
    shown = ", ".join(
        f"{key}={format_rational(v) if isinstance(v, Fraction) else v}"
        for key, v in sorted(params.items())
    )
    cert_path = None if certificate is None else args.cert_out or f"{args.out}.cert.json"
    _check_writable(args.out, cert_path)
    write_instance(args.out, instance, header=f"family {args.family}: {shown}")
    print(f"wrote {len(instance.jobs)} jobs to {args.out}")
    if certificate is not None:
        write_schedule(cert_path, certificate)
        print(
            f"wrote certificate ({len(certificate.servers)} servers, "
            f"cost {format_rational(cost(certificate))}) to {cert_path}"
        )
    return 0


def _emit_solution(args, started, phases, instance, schedule, fields) -> int:
    """Emit a run/opt report: ``fields`` plus what both commands share.

    ``phases`` holds the seconds each step of the command took so far; the
    instance digest adds to ``measure`` and the schedule file is timed as
    ``write_schedule``.  Both timings are reported only under ``--timing``.
    """
    with _phase(phases, "measure"):
        digest = _instance_digest(instance)
    report = {
        "command": args.command,
        "input": str(args.input),
        "instance": digest,
        **fields,
    }
    _check_writable(args.schedule_out, args.out)
    if args.schedule_out:
        with _phase(phases, "write_schedule"):
            write_schedule(args.schedule_out, schedule)
        report["schedule"] = str(args.schedule_out)
    if args.timing:
        report["wall_time_s"] = time.perf_counter() - started
        report["phases_s"] = phases
    _emit(report, args.out)
    return 0


def cmd_run(args) -> int:
    started = time.perf_counter()
    phases: dict[str, float] = {}
    with _phase(phases, "parse"):
        instance = read_instance(args.input)
    with _phase(phases, "place"):
        trace = _ALGORITHMS[args.alg](instance)
    schedule = trace.schedule
    with _phase(phases, "measure"):
        fields = {
            "algorithm": args.alg,
            "cost": _rational_pair(cost(schedule)),
            "servers_opened": len(schedule.servers),
            "active_counts": [
                {"time": format_rational(tau), "count": count}
                for tau, count in active_count_profile(schedule)
            ],
        }
    if args.timing:
        fields["counters"] = trace.counters
    return _emit_solution(args, started, phases, instance, schedule, fields)


def cmd_opt(args) -> int:
    started = time.perf_counter()
    phases: dict[str, float] = {}
    with _phase(phases, "parse"):
        instance = read_instance(args.input)
    with _phase(phases, "solve"):
        result = brute_force_opt(instance, max_jobs=args.max_jobs)
    fields = {
        "cost": _rational_pair(result.cost),
        "servers": len(result.schedule.servers),
        "partitions_examined": result.partitions_examined,
        "lower_bounds": {
            "utilization": _rational_pair(result.util_bound),
            "span": _rational_pair(result.span_bound),
        },
    }
    return _emit_solution(args, started, phases, instance, result.schedule, fields)


def cmd_ratio(args) -> int:
    report = analysis.ratio_report(
        parse_rational(args.alg_cost), parse_rational(args.opt), args.kind
    )
    payload = {"command": "ratio", "alg_cost": args.alg_cost, "reference": args.opt}
    payload.update(report.as_dict())
    _emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    suite = analysis.SUITES[args.suite]
    settings = _given(args, _SUITE_PARAMETERS)
    generators.check_arguments(
        f"suite {args.suite}", signature(suite).parameters, settings, _flag
    )
    result = suite(**settings)
    report = {
        "command": "verify",
        "suite": args.suite,
        "passed": result.passed,
        "details": result.details,
    }
    if not result.passed and result.counterexample is not None:
        dump_dir = Path(args.counterexample_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        dump = dump_dir / f"counterexample-{args.suite}.jobs"
        header = f"suite {args.suite} failed: " + json.dumps(
            result.details, sort_keys=True
        )
        write_instance(dump, result.counterexample, header=header)
        report["counterexample"] = str(dump)
    _emit(report, args.out)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentlab",
        description="Exact lab for online server rental: generators, "
        "algorithms, optima and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=generators.FAMILIES)
    _add_parameter_flags(gen, _FAMILY_PARAMETERS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--cert-out", dest="cert_out")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an online algorithm on an instance")
    run.add_argument("--alg", required=True, choices=sorted(_ALGORITHMS))
    run.add_argument("--in", dest="input", required=True)
    run.add_argument("--out")
    run.add_argument("--schedule-out", dest="schedule_out")
    run.add_argument("--timing", action="store_true")
    run.set_defaults(func=cmd_run)

    opt = sub.add_parser("opt", help="brute-force optimum for a small instance")
    opt.add_argument("--in", dest="input", required=True)
    max_jobs = signature(brute_force_opt).parameters["max_jobs"].default
    opt.add_argument("--max-jobs", dest="max_jobs", type=int, default=max_jobs)
    opt.add_argument("--out")
    opt.add_argument("--schedule-out", dest="schedule_out")
    opt.add_argument("--timing", action="store_true")
    opt.set_defaults(func=cmd_opt)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(analysis.SUITES))
    _add_parameter_flags(verify, _SUITE_PARAMETERS)
    verify.add_argument("--out")
    verify.add_argument(
        "--counterexample-dir", dest="counterexample_dir", default="."
    )
    verify.set_defaults(func=cmd_verify)

    ratio = sub.add_parser("ratio", help="label an algorithm-to-reference ratio")
    ratio.add_argument("--alg-cost", dest="alg_cost", required=True)
    ratio.add_argument("--opt", required=True)
    ratio.add_argument("--kind", required=True, choices=analysis.RATIO_KINDS)
    ratio.add_argument("--out")
    ratio.set_defaults(func=cmd_ratio)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, InfeasibleScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
