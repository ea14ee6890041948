"""End-to-end command checks: generation, runs, optima, suites, reports."""

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rentlab import Instance, Job, model, read_instance, write_instance
from rentlab.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_gen_adversarial_family(tmp_path, capsys):
    out = tmp_path / "ggu.jobs"
    rc = run_cli("gen", "--family", "ggu", "--k", "6", "--t", "1/2", "--out", str(out))
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wrote 282 jobs" in printed
    assert "cost 82" in printed
    inst = read_instance(out)
    assert len(inst) == 282
    cert_path = tmp_path / "ggu.jobs.cert.json"
    assert cert_path.exists()


def test_gen_cert_out_flag(tmp_path):
    out = tmp_path / "ggu.jobs"
    cert = tmp_path / "claim.json"
    rc = run_cli(
        "gen", "--family", "ggu", "--k", "6", "--t", "1/2",
        "--out", str(out), "--cert-out", str(cert),
    )
    assert rc == 0
    assert cert.exists()
    data = json.loads(cert.read_text())
    assert len(data["servers"]) == 82


def test_gen_other_families(tmp_path, capsys):
    out = tmp_path / "lu.jobs"
    rc = run_cli("gen", "--family", "long-uniform", "--k", "2", "--l", "4", "--out", str(out))
    assert rc == 0
    assert "wrote 10 jobs" in capsys.readouterr().out

    out = tmp_path / "nem.jobs"
    rc = run_cli("gen", "--family", "nf-nemesis", "--N", "1", "--out", str(out))
    assert rc == 0
    assert "wrote 4 jobs" in capsys.readouterr().out

    out = tmp_path / "rnd.jobs"
    rc = run_cli(
        "gen", "--family", "random-two-arrival",
        "--n", "9", "--t", "1/2", "--seed", "11", "--out", str(out),
    )
    assert rc == 0
    assert len(read_instance(out)) == 9


def test_gen_missing_parameter(tmp_path, capsys):
    rc = run_cli("gen", "--family", "ggu", "--k", "6", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "requires --t" in capsys.readouterr().err
    # a flag the family does not use is refused, not written into the header
    rc = run_cli(
        "gen", "--family", "nf-nemesis", "--N", "1", "--seed", "9", "--t", "1/2",
        "--out", str(tmp_path / "x"),
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: family nf-nemesis does not take --t, --seed\n"
    )
    assert not (tmp_path / "x").exists()


def test_gen_refuses_cert_out_without_certificate(tmp_path, monkeypatch, capsys):
    # only ggu carries a certificate; elsewhere --cert-out would write nothing
    monkeypatch.chdir(tmp_path)
    for flags in (["--family", "long-uniform", "--k", "2", "--l", "4"],
                  ["--family", "nf-nemesis", "--N", "1"]):
        assert run_cli("gen", *flags, "--cert-out", "c", "--out", "w") == 2
        family = flags[1]
        assert capsys.readouterr() == (
            "", f"error: family {family} has no certificate for --cert-out\n"
        )
        assert list(tmp_path.iterdir()) == []


def _os_error(code, path):
    return f"error: {OSError(code, os.strerror(code), path)}\n"


# A command whose output cannot be written, as (argv, the error it prints).
# Every output path is checked before the first write.
UNWRITABLE = [
    ("gen --family ggu --k 6 --t 1/2 --out w.jobs --cert-out nodir/c.json",
     _os_error(errno.ENOENT, "nodir/c.json")),
    ("gen --family ggu --k 6 --t 1/2 --out sub", _os_error(errno.EISDIR, "sub")),
    ("gen --family ggu --k 6 --t 1/2 --out in.jobs/w.jobs",
     _os_error(errno.ENOTDIR, "in.jobs/w.jobs")),
    ("run --alg firstfit --in in.jobs --schedule-out s.json --out nodir/r.json",
     _os_error(errno.ENOENT, "nodir/r.json")),
    ("run --alg nextfit --in in.jobs --schedule-out sub --out r.json",
     _os_error(errno.EISDIR, "sub")),
    ("opt --in in.jobs --schedule-out s.json --out in.jobs/r.json",
     _os_error(errno.ENOTDIR, "in.jobs/r.json")),
    ("verify --suite recurrence --n 3 --out nodir/r.json",
     _os_error(errno.ENOENT, "nodir/r.json")),
]


@pytest.mark.parametrize("argv, error", UNWRITABLE, ids=[argv for argv, _ in UNWRITABLE])
def test_unwritable_output_writes_nothing(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    Path("in.jobs").write_text("1/2 0 1\n1/2 0 2\n")
    Path("s.json").write_text("an earlier schedule\n")
    Path("sub").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert run_cli(*argv.split()) == 2
    assert capsys.readouterr() == ("", error)
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before


# Two outputs of one command that name the same file, as (argv, the pair the
# error names).  The second write would replace the first.
SAME_FILE = [
    ("gen --family ggu --k 6 --t 1/2 --out w.jobs --cert-out sub/../w.jobs",
     ("w.jobs", "sub/../w.jobs")),
    ("run --alg firstfit --in in.jobs --schedule-out s.json --out ./sub/../s.json",
     ("s.json", "sub/../s.json")),
    ("opt --in in.jobs --schedule-out r.json --out link.json", ("r.json", "link.json")),
]


@pytest.mark.parametrize("argv, pair", SAME_FILE, ids=[argv for argv, _ in SAME_FILE])
def test_outputs_naming_one_file_write_nothing(tmp_path, monkeypatch, capsys, argv, pair):
    monkeypatch.chdir(tmp_path)
    Path("in.jobs").write_text("1/2 0 1\n1/2 0 2\n")
    Path("s.json").write_text("an earlier schedule\n")
    Path("sub").mkdir()
    Path("link.json").symlink_to("r.json")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert run_cli(*argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {pair[0]} and {pair[1]} are the same file\n")
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before
    assert not Path("r.json").exists()


def test_read_only_output_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("in.jobs").write_text("1/2 0 1\n")
    monkeypatch.setattr(os, "access", lambda path, mode: Path(path).name != "locked")
    Path("locked").mkdir()
    assert run_cli("run", "--alg", "nextfit", "--in", "in.jobs",
                   "--schedule-out", "s.json", "--out", "locked/r.json") == 2
    assert capsys.readouterr() == ("", _os_error(errno.EACCES, "locked/r.json"))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in.jobs", "locked"]


# Each `gen` flag set, run with `--out out.jobs` in an empty directory, as a
# known-good build answered it: exit code, stdout, stderr and the sha256 of
# every file left in the directory (instance header and certificate included).
GOLDEN_GEN = {
    "--family ggu --k 6 --t 1/2": (
        0,
        "wrote 282 jobs to out.jobs\n"
        "wrote certificate (82 servers, cost 82) to out.jobs.cert.json\n",
        "",
        {"out.jobs": "08425faffa5fc75cb11db902876fe6223753722767e2781f4272d3c47d245a10",
         "out.jobs.cert.json":
             "f0d25607d86258bcae9c5a4cae8807c31b35947ae3acf005e584f0139e26ed6d"},
    ),
    # t is normalised before it reaches the header
    "--family ggu --k 6 --t 2/4 --cert-out claim.json": (
        0,
        "wrote 282 jobs to out.jobs\n"
        "wrote certificate (82 servers, cost 82) to claim.json\n",
        "",
        {"claim.json": "f0d25607d86258bcae9c5a4cae8807c31b35947ae3acf005e584f0139e26ed6d",
         "out.jobs": "08425faffa5fc75cb11db902876fe6223753722767e2781f4272d3c47d245a10"},
    ),
    "--family ggu --k 6 --t 1/3 --delta 1/4000000000": (
        0,
        "wrote 282 jobs to out.jobs\n"
        "wrote certificate (82 servers, cost 82) to out.jobs.cert.json\n",
        "",
        {"out.jobs": "cb1e1c893442b9244feb017f82c0873887450cb4b1840f50805c8ca7db5d72b7",
         "out.jobs.cert.json":
             "89b924ff8e482432a57c66e6d44a905098b45e5644f8ec52467d78d476a71339"},
    ),
    "--family long-uniform --k 2 --l 4": (
        0, "wrote 10 jobs to out.jobs\n", "",
        {"out.jobs": "f23ce0640970d91e515998c189d2efee39702588ee7c971fdffaabdcf0855b54"},
    ),
    "--family nf-nemesis --N 3": (
        0, "wrote 12 jobs to out.jobs\n", "",
        {"out.jobs": "1bd480d096cbb62c0f6ac7964262e5501b9b547080fdc8ae3a471f7962abdda7"},
    ),
    "--family random-two-arrival --n 9 --t 1/2 --seed 11": (
        0, "wrote 9 jobs to out.jobs\n", "",
        {"out.jobs": "7fe5da9a4d787f944f28ccedcc6f12dba228f74f904e3b25ac651c09ad561032"},
    ),
    "--family random-two-arrival --n 9 --t 2/3 --seed 11 --size-grid 5": (
        0, "wrote 9 jobs to out.jobs\n", "",
        {"out.jobs": "635729a9e3fc5dd6568f6c04c43a854ddbbd23ee847d5235e8935bddffc331d5"},
    ),
    "--family random-equal-duration --n 12 --seed 5": (
        0, "wrote 12 jobs to out.jobs\n", "",
        {"out.jobs": "42d5e071ad88a3480f369de68bb6986f79ddf17a9649b4f080546a6fbd5ec1d7"},
    ),
    "--family random-equal-duration --n 12 --seed 5 --size-grid 3 --start-grid 2 "
    "--horizon 6": (
        0, "wrote 12 jobs to out.jobs\n", "",
        {"out.jobs": "aca6b7b5acc6f128884e0f2a24953e1d4aca25ecd3912fd310659391bf83e4ca"},
    ),
    "--family ggu --k 6": (2, "", "error: family ggu requires --t\n", {}),
    "--family random-two-arrival --size-grid 4": (
        2, "", "error: family random-two-arrival requires --n, --t, --seed\n", {},
    ),
    "--family nf-nemesis --N 1 --seed 9 --t 1/2": (
        2, "", "error: family nf-nemesis does not take --t, --seed\n", {},
    ),
    "--family long-uniform --k 2 --l 4 --delta 1/9 --horizon 2": (
        2, "", "error: family long-uniform does not take --delta, --horizon\n", {},
    ),
    "--family ggu --k 6 --t 0.5": (
        2, "", "error: not an integer or p/q rational: '0.5'\n", {},
    ),
    "--family random-two-arrival --n 3 --t 1 --seed 2": (
        2, "", "error: second arrival t must lie strictly between 0 and 1\n", {},
    ),
    "--family long-uniform --k 2 --l 3": (
        2, "", "error: level_count must be a positive even integer\n", {},
    ),
    "--family ggu --k 6 --t 1/2 --delta 1/9": (
        2, "", "error: delta must lie in (0, 1/3401222400)\n", {},
    ),
}


@pytest.mark.parametrize("flags", GOLDEN_GEN)
def test_gen_matches_golden(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    rc = run_cli("gen", *flags.split(), "--out", "out.jobs")
    captured = capsys.readouterr()
    written = {path.name: sha256_of(path) for path in sorted(tmp_path.iterdir())}
    assert (rc, captured.out, captured.err, written) == GOLDEN_GEN[flags]


# Every subcommand's options as a known-good build declared them:
# dest -> (option strings, type, default, required, choices).  The order in
# which `gen` and `verify` list their parameter flags is not pinned here.
PARSER_SURFACE = {
    "gen": {
        "family": (("--family",), None, None, True, (
            "ggu", "long-uniform", "nf-nemesis", "random-two-arrival",
            "random-equal-duration",
        )),
        "k": (("--k",), "int", None, False, None),
        "l": (("--l",), "int", None, False, None),
        "N": (("--N",), "int", None, False, None),
        "n": (("--n",), "int", None, False, None),
        "t": (("--t",), None, None, False, None),
        "delta": (("--delta",), None, None, False, None),
        "seed": (("--seed",), "int", None, False, None),
        "size_grid": (("--size-grid",), "int", None, False, None),
        "start_grid": (("--start-grid",), "int", None, False, None),
        "horizon": (("--horizon",), "int", None, False, None),
        "out": (("--out",), None, None, True, None),
        "cert_out": (("--cert-out",), None, None, False, None),
    },
    "run": {
        "alg": (("--alg",), None, None, True, ("firstfit", "nextfit")),
        "input": (("--in",), None, None, True, None),
        "out": (("--out",), None, None, False, None),
        "schedule_out": (("--schedule-out",), None, None, False, None),
        "timing": (("--timing",), None, False, False, None),
    },
    "opt": {
        "input": (("--in",), None, None, True, None),
        "max_jobs": (("--max-jobs",), "int", 10, False, None),
        "out": (("--out",), None, None, False, None),
        "schedule_out": (("--schedule-out",), None, None, False, None),
        "timing": (("--timing",), None, False, False, None),
    },
    "verify": {
        "suite": (("--suite",), None, None, True, (
            "layers", "nextfit-2t", "recurrence", "strict-ff-2", "weights",
        )),
        "trials": (("--trials",), "int", None, False, None),
        "seed": (("--seed",), "int", None, False, None),
        "max_jobs": (("--max-jobs",), "int", None, False, None),
        "n": (("--n",), "int", None, False, None),
        "out": (("--out",), None, None, False, None),
        "counterexample_dir": (("--counterexample-dir",), None, ".", False, None),
    },
    "ratio": {
        "alg_cost": (("--alg-cost",), None, None, True, None),
        "opt": (("--opt",), None, None, True, None),
        "kind": (("--kind",), None, None, True, (
            "exact-opt", "certificate-upper", "lower-bound",
        )),
        "out": (("--out",), None, None, False, None),
    },
}


def test_parser_surface_is_unchanged():
    parser = build_parser()
    [commands] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        name: {
            action.dest: (
                tuple(action.option_strings),
                getattr(action.type, "__name__", action.type),
                action.default,
                action.required,
                None if action.choices is None else tuple(action.choices),
            )
            for action in subparser._actions
            if action.dest != "help"
        }
        for name, subparser in commands.choices.items()
    }
    assert surface == PARSER_SURFACE


def test_run_firstfit_on_adversarial_family(tmp_path):
    inst_path = tmp_path / "ggu.jobs"
    run_cli("gen", "--family", "ggu", "--k", "6", "--t", "1/2", "--out", str(inst_path))
    report_path = tmp_path / "report.json"
    rc = run_cli(
        "run", "--alg", "firstfit", "--in", str(inst_path), "--out", str(report_path)
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["cost"]["exact"] == "153"
    assert report["servers_opened"] == 102
    assert report["instance"]["jobs"] == 282
    assert "wall_time_s" not in report


def test_run_single_job_costs_its_duration(tmp_path):
    inst_path = tmp_path / "one.jobs"
    inst_path.write_text("1/3 1 4\n")
    report_path = tmp_path / "report.json"
    rc = run_cli(
        "run", "--alg", "nextfit", "--in", str(inst_path), "--out", str(report_path)
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["cost"]["exact"] == "3"
    assert report["servers_opened"] == 1


def test_run_rejects_invalid_instance(tmp_path, capsys):
    inst_path = tmp_path / "bad.jobs"
    inst_path.write_text("3/2 0 1\n")
    rc = run_cli("run", "--alg", "nextfit", "--in", str(inst_path))
    assert rc == 2
    assert "invalid instance" in capsys.readouterr().err


SOLVE_COMMANDS = [("run", "--alg", "firstfit"), ("run", "--alg", "nextfit"), ("opt",)]


@pytest.mark.parametrize("command", SOLVE_COMMANDS)
def test_solve_rejects_invalid_instance_in_one_line(tmp_path, capsys, command):
    inst_path = tmp_path / "bad.jobs"
    inst_path.write_text("3/2 0 1\n1/2 2 1\n")
    out, sched = tmp_path / "report.json", tmp_path / "sched.json"
    rc = run_cli(
        *command, "--in", str(inst_path), "--out", str(out),
        "--schedule-out", str(sched),
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: invalid instance: size must be at most 1: job 0; "
        "finish must exceed start: job 1\n"
    )
    assert not out.exists() and not sched.exists()


@pytest.mark.parametrize("command", SOLVE_COMMANDS)
@pytest.mark.parametrize("jobs", ["1/2 0 2\n1/2 1 3\n", "3/2 0 1\n1/2 2 1\n"])
def test_solve_validates_instance_once(tmp_path, monkeypatch, capsys, command, jobs):
    calls = []
    original = model.validate

    def counting(instance):
        calls.append(instance)
        return original(instance)

    # wrap every rentlab namespace that binds validate, not just model
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validate", None)
        if name.split(".")[0] == "rentlab" and bound is original:
            monkeypatch.setattr(module, "validate", counting)
    inst_path = tmp_path / "inst.jobs"
    inst_path.write_text(jobs)
    run_cli(*command, "--in", str(inst_path))
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("command", SOLVE_COMMANDS)
@pytest.mark.parametrize("jobs", ["1/2 0 2\n1/2 1 3\n1/4 5 6\n", "3/2 0 1\n1/2 2 1\n"])
def test_solve_builds_instance_lattice_once(tmp_path, monkeypatch, capsys, command, jobs):
    # validation, placement or search, the digest, the active-count profile
    # and the written schedule all read the parsed instance's one lattice
    builds = []
    original = model._build_lattice

    def counting(jobs):
        builds.append(jobs)
        return original(jobs)

    monkeypatch.setattr(model, "_build_lattice", counting)
    inst_path = tmp_path / "inst.jobs"
    inst_path.write_text(jobs)
    run_cli(*command, "--in", str(inst_path), "--out", str(tmp_path / "report.json"),
            "--schedule-out", str(tmp_path / "sched.json"))
    capsys.readouterr()
    assert len(builds) == 1


def test_run_report_is_byte_reproducible(tmp_path):
    inst_path = tmp_path / "inst.jobs"
    run_cli(
        "gen", "--family", "random-equal-duration",
        "--n", "12", "--seed", "5", "--out", str(inst_path),
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("run", "--alg", "firstfit", "--in", str(inst_path), "--out", str(a))
    run_cli("run", "--alg", "firstfit", "--in", str(inst_path), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_timing_flag_adds_wall_time(tmp_path):
    inst_path = tmp_path / "one.jobs"
    inst_path.write_text("1/2 0 1\n")
    report_path = tmp_path / "report.json"
    argv = ["run", "--alg", "nextfit", "--in", str(inst_path),
            "--out", str(report_path), "--schedule-out", str(tmp_path / "s.json")]
    assert run_cli(*argv, "--timing") == 0
    report = json.loads(report_path.read_text())
    assert report["wall_time_s"] >= 0
    phases = report["phases_s"]
    assert sorted(phases) == ["measure", "parse", "place", "write_schedule"]
    assert all(seconds >= 0 for seconds in phases.values())
    assert sum(phases.values()) <= report["wall_time_s"]
    # the kernel's counters: one server, a one-leaf tree, no rebuild
    assert report["counters"] == {"index_rebuilds": 0, "servers_opened": 1, "tree_steps": 0}
    assert run_cli(*argv) == 0
    report = json.loads(report_path.read_text())
    assert not {"wall_time_s", "phases_s", "counters"} & set(report)
    # opt shares the report path; its search is the "solve" phase
    assert run_cli("opt", *argv[3:], "--timing") == 0
    phases = json.loads(report_path.read_text())["phases_s"]
    assert sorted(phases) == ["measure", "parse", "solve", "write_schedule"]


def test_opt_command(tmp_path):
    inst_path = tmp_path / "three.jobs"
    inst_path.write_text("1/2 0 2\n1/2 0 2\n1/2 1 3\n")
    report_path = tmp_path / "report.json"
    sched_path = tmp_path / "opt.json"
    rc = run_cli(
        "opt", "--in", str(inst_path), "--out", str(report_path),
        "--schedule-out", str(sched_path),
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["cost"]["exact"] == "4"
    assert report["lower_bounds"]["span"]["exact"] == "3"
    assert sched_path.exists()


def test_opt_respects_max_jobs(tmp_path, capsys):
    inst_path = tmp_path / "many.jobs"
    inst_path.write_text("".join("1/10 0 1\n" for _ in range(11)))
    rc = run_cli("opt", "--in", str(inst_path))
    assert rc == 2
    assert "brute-force limit" in capsys.readouterr().err
    rc = run_cli("opt", "--in", str(inst_path), "--max-jobs", "11", "--out",
                 str(tmp_path / "r.json"))
    assert rc == 0
    # a limit below 1 is refused as such, not compared with the job count
    for value in ("-1", "0"):
        assert run_cli("opt", "--in", str(inst_path), "--max-jobs", value) == 2
        assert capsys.readouterr().err == (
            f"error: max_jobs must be at least 1, got {value}\n"
        )


def test_ratio_command(tmp_path):
    report_path = tmp_path / "ratio.json"
    rc = run_cli(
        "ratio", "--alg-cost", "153", "--opt", "82",
        "--kind", "certificate-upper", "--out", str(report_path),
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["ratio"] == "153/82"
    assert report["relation"] == ">="


def test_ratio_rejects_negative_alg_cost(tmp_path, capsys):
    report_path = tmp_path / "ratio.json"
    rc = run_cli(
        "ratio", "--alg-cost", "-3", "--opt", "2", "--kind", "exact-opt",
        "--out", str(report_path),
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: alg cost must be non-negative\n"
    assert not report_path.exists()
    # a zero cost stays a valid ratio
    assert run_cli("ratio", "--alg-cost", "0", "--opt", "2", "--kind", "exact-opt",
                   "--out", str(report_path)) == 0
    assert json.loads(report_path.read_text())["ratio"] == "0"


def test_verify_rejects_flags_the_suite_does_not_take(capsys):
    for suite, extra, named in [
        ("weights", ["--max-jobs", "3", "--n", "5"], "--max-jobs, --n"),
        ("layers", ["--trials", "2", "--seed", "3"], "--trials, --seed"),
        ("recurrence", ["--seed", "1"], "--seed"),
    ]:
        assert run_cli("verify", "--suite", suite, *extra) == 2
        assert capsys.readouterr().err == f"error: suite {suite} does not take {named}\n"


def test_verify_rejects_max_jobs_below_instance_size(capsys):
    # --trials below 1 would check nothing and still pass, so it is refused too
    for suite, name, value, least in [
        ("nextfit-2t", "max_jobs", 0, 1),
        ("strict-ff-2", "max_jobs", 1, 2),
        ("nextfit-2t", "trials", -5, 1),
        ("strict-ff-2", "trials", 0, 1),
        ("weights", "trials", 0, 1),
        ("recurrence", "n", 0, 1),
    ]:
        flag = "--" + name.replace("_", "-")
        assert run_cli("verify", "--suite", suite, flag, str(value)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} must be at least {least}, got {value}\n"


# sha256 of each report as a known-good build wrote it: a suite or report
# change that moves a single byte fails here.
GOLDEN_REPORTS = {
    "verify --suite nextfit-2t --trials 40":
        "e6cc0a3db6930a84ddc9d9c1b66007e3e8a47c499a556a54be6978b8428a6d5a",
    "verify --suite strict-ff-2 --trials 40":
        "be8710505d35c4fcc6692502a6c82b9fa9fbbf1455828e17b7fcd2804f1491d6",
    "verify --suite weights --trials 8":
        "158e7e6a4f1df775ce0e85a1117c1a93c02b49cf63aa0e66afb453ac1bbeb9b1",
    "verify --suite nextfit-2t":
        "1bfd3511de658a673b6917465504b75752f43ffdf5713a13d1de3928ba635043",
    "verify --suite weights":
        "1ca8742673d5d4aae32b4e8f0bbf0d4f8b3b4df98d843913a7918db65fc90ce9",
    "verify --suite layers":
        "0dae32f0d67910c0521cec941cc19d1b87a0b5dc55397adbab91226af8943cb7",
    "verify --suite recurrence":
        "fc99db42205a3816671f0d82943df9a836159ffe611a9a559323c53f0eaeecbd",
    "run --alg firstfit --in inst.jobs":
        "befe8c6434e087a507c6564af3bd2e15e128afe7c3675ae0e9769ae3cfec0712",
    "run --alg nextfit --in inst.jobs":
        "7592bfe0ed3008aba30ea50d92474f87c70d9daba3b1883e08efa27e9369c600",
    "run --alg firstfit --in ggu.jobs":
        "d4ce56743f345cf7d13dbe1f84b11643e802532a606148383c3bcdcdd98d46bf",
    "run --alg nextfit --in ggu.jobs":
        "8b8d189ccf2f8a6cd34a316c543ac0a4c4b9e0de0881023c9dde710a5306ad8d",
    "run --alg firstfit --in merge.jobs":
        "d12a6422492c5959b15bf725a0c2aefe136b30ce7451f873ffc7c71bce54653d",
    "run --alg nextfit --in merge.jobs":
        "d09e63c586247aab0ba2b7595ece55c55936aec3ac43ab0a128d8a0942ea96b6",
    "run --alg firstfit --in wide.jobs":
        "0be0a57487d1c6a5a360f4949db421d30149d12b19ad13a598b56957235e2620",
    "run --alg nextfit --in wide.jobs":
        "107aa66751380284807cc7f63ed5177c98d63dfe50c7705799eed50ff50cb779",
    "opt --in opt.jobs --schedule-out opt.schedule.json":
        "73f23e48e3e1fc1ea3e221464770507f6d8536e6b0478650b64c5b6dbe6d2c9e",
    "run --alg firstfit --in inst.jobs --schedule-out inst.firstfit.json":
        "ab13eaf53c360eb8f14d9043a94ab53921412873ad3f3604b8623aa7ee592b5e",
    "run --alg nextfit --in inst.jobs --schedule-out inst.nextfit.json":
        "6f26eb13d692993de959faa45859f26f06150eaa4a3a89222648ed1d3aa763e3",
    "run --alg firstfit --in ggu.jobs --schedule-out ggu.firstfit.json":
        "98f0bb898976b0de1da304f8e48aa615dad2bceed3fcfbe6c5df50c9678ffe78",
    "run --alg nextfit --in ggu.jobs --schedule-out ggu.nextfit.json":
        "46625ce31603b45c4a792fd469012c84ed3ea7e154bfc0499c5abbae61946e57",
    "run --alg firstfit --in wide.jobs --schedule-out wide.firstfit.json":
        "b81025fb9b201ea96bdb34668d799d5a9d9d52baffcc37e369727a6cb2f3a303",
    "run --alg nextfit --in wide.jobs --schedule-out wide.nextfit.json":
        "78a55a0b012179cd298447b7e65406b34022c991b264a2605ce6c35922e7eb02",
}

# sha256 of the schedule file a GOLDEN_REPORTS command wrote next to its report
GOLDEN_SCHEDULES = {
    "opt --in opt.jobs --schedule-out opt.schedule.json":
        "453c0e866e3a2a6d9872e4cd742a1ae64002061f1117744db95e84c887072f9f",
    "run --alg firstfit --in inst.jobs --schedule-out inst.firstfit.json":
        "c57706b5eadebb7370cafa857a140c599ffb4985471b1b0028066d1c40d84c34",
    "run --alg nextfit --in inst.jobs --schedule-out inst.nextfit.json":
        "e99798bdefa56b89eaae20c2f2ff07042da9f4df741b22cf27ad512d21d572a8",
    "run --alg firstfit --in ggu.jobs --schedule-out ggu.firstfit.json":
        "841c4bc6fe8cfce285465289b6fd77ba14061d455f32eaac6984827ebb914160",
    "run --alg nextfit --in ggu.jobs --schedule-out ggu.nextfit.json":
        "ba7aaa79eb8b1c9903e37daece91dcd5218fd3905e4f323c09b11e460c9694c2",
    "run --alg firstfit --in wide.jobs --schedule-out wide.firstfit.json":
        "ec2318aa75bcb0a8aedce077a875cf073b6779c5cbc3e2f68a2b176d94bdaf0e",
    "run --alg nextfit --in wide.jobs --schedule-out wide.nextfit.json":
        "b39717837b9f5d0d435ecae3aceadd3a4df10e8f2be30da814b55a78556b5393",
}

# Servers whose jobs overlap and touch, so the active-count sweep merges
# intervals, with stretches where no server is active (counts of 0 at 4 and 8).
MERGE_JOBS = """\
1/2 0 1
1/2 0 2
1/2 1 3
1/3 2 3
2/3 2 4
1/4 5/2 7/2
1/2 5 6
1/2 6 7
3/4 6 13/2
1/3 13/2 8
"""


# Eight jobs of mixed durations with an idle stretch from 3 to 4: the optimum
# (12) lies above both lower bounds and below FirstFit (13) and NextFit (14).
OPT_JOBS = """\
1/3 0 3/2
1/3 0 5/2
2/3 1 3
1/2 3/2 3
1/4 4 11/2
1/3 4 13/2
1/2 4 7
1 5 15/2
"""


def write_wide_instance(path):
    """random-equal-duration on 20-bit sizes, its time axis scaled by
    1/(2^61-1) and shifted by 7/3^40, so times carry 127-bit denominators."""
    assert run_cli(
        "gen", "--family", "random-equal-duration", "--n", "40", "--seed", "7",
        "--size-grid", "999983", "--horizon", "8", "--out", str(path),
    ) == 0
    scale, shift = Fraction(1, 2**61 - 1), Fraction(7, 3**40)
    write_instance(path, Instance(tuple(
        Job(jb.size, jb.start * scale + shift, jb.finish * scale + shift)
        for jb in read_instance(path).jobs
    )))


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_golden(command, *extra):
    """Run a GOLDEN_REPORTS command, check its digests, return the report."""
    assert run_cli(*command.split(), *extra, "--out", "report.json") == 0, command
    assert sha256_of("report.json") == GOLDEN_REPORTS[command], command
    if command in GOLDEN_SCHEDULES:
        written = command.split("--schedule-out ")[1].split()[0]
        assert sha256_of(written) == GOLDEN_SCHEDULES[command], command
    return json.loads(Path("report.json").read_bytes())


def test_verify_recurrence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = run_golden("verify --suite recurrence")
    assert report["passed"] is True
    assert report["details"]["n"] == 200


def test_verify_layers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_golden("verify --suite layers")["passed"] is True


def test_verify_sampled_suites_small(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command in [
        "verify --suite nextfit-2t --trials 40",
        "verify --suite strict-ff-2 --trials 40",
        "verify --suite weights --trials 8",
    ]:
        report = run_golden(command, "--counterexample-dir", str(tmp_path))
        assert report["passed"] is True, command


def test_verify_default_reports(tmp_path, monkeypatch):
    # the settings `rentlab verify` runs without flags, on the integer sweeps
    monkeypatch.chdir(tmp_path)
    for command in ["verify --suite nextfit-2t", "verify --suite weights"]:
        report = run_golden(command, "--counterexample-dir", str(tmp_path))
        assert report["passed"] is True, command


def test_reports_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # run reports echo the relative input path
    run_cli(
        "gen", "--family", "random-equal-duration",
        "--n", "30", "--seed", "5", "--out", "inst.jobs",
    )
    # ggu(6, 1/2) brings the 35-bit size denominators of its separations
    run_cli("gen", "--family", "ggu", "--k", "6", "--t", "1/2", "--out", "ggu.jobs")
    Path("merge.jobs").write_text(MERGE_JOBS)
    write_wide_instance("wide.jobs")
    for name in ("inst", "ggu", "merge", "wide"):
        for alg in ("firstfit", "nextfit"):
            run_golden(f"run --alg {alg} --in {name}.jobs")
    for name in ("inst", "ggu", "wide"):
        for alg in ("firstfit", "nextfit"):
            run_golden(f"run --alg {alg} --in {name}.jobs --schedule-out {name}.{alg}.json")


def test_opt_report_and_schedule_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("opt.jobs").write_text(OPT_JOBS)
    report = run_golden("opt --in opt.jobs --schedule-out opt.schedule.json")
    floor = max(Fraction(b["exact"]) for b in report["lower_bounds"].values())
    assert floor < Fraction(report["cost"]["exact"])
    for alg in ("firstfit", "nextfit"):
        assert run_cli("run", "--alg", alg, "--in", "opt.jobs", "--out", "alg.json") == 0
        alg_cost = json.loads(Path("alg.json").read_text())["cost"]["exact"]
        assert Fraction(report["cost"]["exact"]) < Fraction(alg_cost), alg


def test_unknown_subcommand_exits_with_usage_error(capsys):
    rc = run_cli("no-such-command")
    assert rc == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rentlab", "ratio",
         "--alg-cost", "3", "--opt", "2", "--kind", "exact-opt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ratio"] == "3/2"
    assert report["relation"] == "="
