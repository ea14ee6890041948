"""Core data model: jobs, schedules, exact rational measures, file formats."""

import json
import re
from fractions import Fraction

import pytest

from rentlab import (
    Instance,
    Job,
    Server,
    Schedule,
    active_count,
    active_count_integral,
    arrival_mass,
    arrival_mass_at,
    as_rational,
    cost,
    event_times,
    first_fit,
    format_instance,
    format_rational,
    load,
    make_instance,
    make_schedule,
    mu,
    next_fit,
    parse_instance,
    parse_rational,
    read_instance,
    read_schedule,
    scale_time,
    schedule_from_dict,
    span,
    utilization,
    validate,
    check_schedule,
    write_instance,
    write_schedule,
)
from rentlab.generators import long_uniform, random_equal_duration


F = Fraction


# ---------------------------------------------------------------------------
# Rational parsing and coercion
# ---------------------------------------------------------------------------

def test_parse_rational_round_trip():
    for text, expected in [("1/2", F(1, 2)), ("2", F(2)), ("-3/4", F(-3, 4)), ("0", F(0))]:
        value = parse_rational(text)
        assert value == expected
        assert parse_rational(format_rational(value)) == value


def test_parse_rational_reduces():
    # serialization is always in lowest terms
    assert format_rational(parse_rational("3/6")) == "1/2"
    assert format_rational(parse_rational("4/2")) == "2"


def test_parse_rational_rejects_garbage():
    for bad in ["0.5", "1/0", "a/b", "", "1 / 2", "1e-3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError, match="zero denominator: '3/0'"):
        parse_rational("3/0")
    with pytest.raises(ValueError, match="not an integer or p/q rational: '1_000'"):
        parse_rational("1_000")


def test_parse_rational_agrees_with_fraction_parsing():
    big = "123456789012345678901234567890"
    for text in ["+3/4", "-0", "007/014", " 5/10 ", f"{big}/{big}7", f"-{big}"]:
        assert parse_rational(text) == Fraction(text.strip())


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    assert as_rational(3) == F(3)
    assert as_rational("2/4") == F(1, 2)


def test_job_rejects_float_fields():
    with pytest.raises(TypeError):
        Job(0.5, 0, 1)
    with pytest.raises(TypeError):
        Job(F(1, 2), 0.0, 1)
    with pytest.raises(TypeError):
        Job(F(1, 2), F(0), 1.0)


def test_job_keeps_given_fractions_and_coerces_the_rest():
    size, start = F(1, 2), F(1, 3)
    jb = Job(size, start, "5/3")
    assert jb.size is size and jb.start is start
    assert jb.finish == F(5, 3) and type(jb.finish) is Fraction
    assert type(Job(1, 0, 2).size) is Fraction


# ---------------------------------------------------------------------------
# Job / Instance basics
# ---------------------------------------------------------------------------

def test_job_duration_and_active_window():
    jb = Job(F(1, 2), F(1), F(3))
    assert jb.duration == 2
    # active on [start, finish): closed at start, open at finish
    assert jb.active_at(F(1))
    assert jb.active_at(F(2))
    assert not jb.active_at(F(3))
    assert not jb.active_at(F(0))


def test_validate_accepts_well_formed():
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 3)])
    assert validate(inst) == []
    assert validate(Instance(())) == []


def test_validate_flags_each_rule():
    inst = make_instance([(F(3, 2), 0, 1)])
    rules = [v.rule for v in validate(inst)]
    assert rules == ["size must be at most 1"]
    assert validate(make_instance([(F(1, 2), 0, 1)]))  == []

    inst = make_instance([(F(1, 2), 2, 2)])
    assert [v.rule for v in validate(inst)] == ["finish must exceed start"]

    inst = make_instance([(F(1, 2), 1, 2), (F(1, 2), 0, 1)])
    bad = validate(inst)
    assert len(bad) == 1
    assert bad[0].rule == "starts must be non-decreasing"
    assert bad[0].job_index == 1

    inst = make_instance([(F(0), 0, 1)])
    assert [v.rule for v in validate(inst)] == ["size must be positive"]

    inst = make_instance([(F(1, 2), -1, 1)])
    assert [v.rule for v in validate(inst)] == ["start must be non-negative"]


# ---------------------------------------------------------------------------
# Measures on instances
# ---------------------------------------------------------------------------

def test_utilization_examples():
    assert utilization(make_instance([(F(1, 2), 0, 2)])) == 1
    assert utilization(Instance(())) == 0
    # stacked levels: k*(2/3)*(l+2) plus the epsilon jobs contribute 1 extra
    for k, level_count in [(2, 2), (3, 4)]:
        inst = long_uniform(k, level_count)
        assert utilization(inst) == F(2, 3) * k * (level_count + 2) + 1


def test_span_merges_intervals():
    assert span(make_instance([(F(1, 2), 0, 1), (F(1, 2), 2, 3)])) == 2
    assert span(make_instance([(F(1, 2), 0, 2), (F(1, 2), 1, 3)])) == 3
    assert span(Instance(())) == 0


def test_span_ignores_never_active_jobs():
    # a job whose finish is not after its start adds no time
    assert span(make_instance([(F(1, 2), 5, 4)])) == 0
    assert span(make_instance([(F(1, 2), 2, 1), (F(1, 2), 3, 4)])) == 1


def test_mu_duration_ratio():
    # max/min duration ratio; equal-length jobs give exactly 1
    assert mu(make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 3)])) == 1
    assert mu(make_instance([(F(1, 2), 0, 1), (F(1, 2), 0, 3)])) == 3
    with pytest.raises(ValueError):
        mu(Instance(()))


def test_arrival_mass_half_open():
    inst = make_instance([(F(1, 4), 0, 1), (F(1, 4), F(1, 2), 2), (F(1, 4), 1, 2)])
    # (t1, t2] excludes the left endpoint, includes the right
    assert arrival_mass(inst, F(0), F(1)) == F(1, 2)
    assert arrival_mass(inst, F(1), F(2)) == 0
    assert arrival_mass(inst, F(-1), F(0)) == F(1, 4)
    assert arrival_mass_at(inst, F(1, 2)) == F(1, 4)
    with pytest.raises(ValueError):
        arrival_mass(inst, F(1), F(1))


def test_event_times_sorted_unique():
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 2), 0, 1), (F(1, 2), 1, 3)])
    assert event_times(inst) == [F(0), F(1), F(2), F(3)]


# ---------------------------------------------------------------------------
# Schedules: load, counts, cost
# ---------------------------------------------------------------------------

def test_load_examples():
    inst = make_instance([(F(1, 2), 0, 2)])
    sched = make_schedule(inst, [[0]])
    assert load(sched, 0, F(0)) == F(1, 2)
    assert load(sched, 0, F(2)) == 0

    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 3)])
    sched = make_schedule(inst, [[0, 1]])
    assert load(sched, 0, F(1)) == F(5, 6)
    assert load(sched, sched.servers[0], F(1)) == F(5, 6)


def test_active_count_examples():
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 2, 3)])
    sched = make_schedule(inst, [[0], [1]])
    assert active_count(sched, F(1, 2)) == 1
    assert active_count(sched, F(3)) == 0

    inst = make_instance([(F(6, 10), 0, 1)] * 3)
    trace = next_fit(inst)
    assert active_count(trace.schedule, F(1, 2)) == 3


def test_cost_examples():
    inst = make_instance([(F(1, 2), 0, 2)])
    assert cost(make_schedule(inst, [[0]])) == 2
    assert cost(Schedule(Instance(()), ())) == 0


def test_cost_charges_idle_gaps():
    # one server kept across a gap pays for the gap
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 2, 3)])
    gapped = make_schedule(inst, [[0, 1]])
    split = make_schedule(inst, [[0], [1]])
    assert cost(gapped) == 3
    assert cost(split) == 2
    assert active_count_integral(gapped) == 2
    assert active_count_integral(gapped) < cost(gapped)
    assert active_count_integral(split) == cost(split)


def test_make_schedule_rejects_bad_groups():
    inst = make_instance([(F(1, 2), 0, 2)])
    with pytest.raises(ValueError):
        make_schedule(inst, [[0, 0]])
    with pytest.raises(ValueError):
        make_schedule(inst, [[1]])
    with pytest.raises(ValueError):
        make_schedule(inst, [[]])


def test_server_is_a_named_tuple_with_the_dataclass_repr():
    srv = Server(0, (1, 2), F(0), F(3, 2))
    # field for field the frozen dataclass's repr
    assert repr(srv) == (
        "Server(id=0, job_indices=(1, 2), open_time=Fraction(0, 1), "
        "close_time=Fraction(3, 2))"
    )
    with pytest.raises(AttributeError):
        srv.close_time = F(2)
    assert srv.close_time == F(3, 2)
    plain = (0, (1, 2), F(0), F(3, 2))
    assert srv == plain and plain == srv and hash(srv) == hash(plain)
    keyword = Server(id=0, job_indices=(1, 2), open_time=F(0), close_time=F(3, 2))
    assert keyword == srv and repr(keyword) == repr(srv)
    # make_schedule builds its servers by keyword
    inst = make_instance([(F(1, 3), 0, 1), (F(1, 2), 0, F(3, 2)), (F(1, 6), 0, 1)])
    assert make_schedule(inst, [[1, 2], [0]]).servers == (
        Server(0, (1, 2), F(0), F(3, 2)), Server(1, (0,), F(0), F(1))
    )


def test_check_schedule_flags_violations():
    inst = make_instance([(F(6, 10), 0, 2), (F(6, 10), 0, 2)])
    overfull = make_schedule(inst, [[0, 1]])
    rules = [v.rule for v in check_schedule(overfull)]
    assert any("capacity" in r for r in rules)

    # a hand-built schedule missing a job
    partial = Schedule(inst, (Server(0, (0,), F(0), F(2)),))
    rules = [v.rule for v in check_schedule(partial)]
    assert any("never assigned" in r for r in rules)

    # rental window not matching assigned jobs
    wrong = Schedule(
        inst,
        (Server(0, (0,), F(0), F(1)), Server(1, (1,), F(0), F(2))),
    )
    rules = [v.rule for v in check_schedule(wrong)]
    assert any("window" in r for r in rules)


def test_random_schedules_satisfy_global_invariants():
    for seed in range(25):
        inst = random_equal_duration(10, seed=seed)
        for trace in (next_fit(inst), first_fit(inst)):
            sched = trace.schedule
            assert check_schedule(sched) == []
            c = cost(sched)
            assert c >= span(inst)
            assert c >= utilization(inst)
            # online algorithms never hold a server through an idle gap
            assert active_count_integral(sched) == c
            for t in event_times(inst):
                for srv in sched.servers:
                    assert load(sched, srv, t) <= 1


def test_scale_time():
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 3), F(1, 2), 2)])
    doubled = scale_time(inst, F(2))
    assert [jb.size for jb in doubled.jobs] == [F(1, 2), F(1, 3)]
    assert [(jb.start, jb.finish) for jb in doubled.jobs] == [(0, 2), (1, 4)]
    assert validate(doubled) == []
    with pytest.raises(ValueError):
        scale_time(inst, F(0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_instance_file_round_trip(tmp_path):
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), F(1, 2), F(5, 2))])
    path = tmp_path / "jobs.txt"
    write_instance(path, inst, header="two jobs")
    again = read_instance(path)
    assert again == inst
    text = path.read_text()
    assert text.startswith("# two jobs\n")


def test_parse_instance_skips_comments_and_blanks():
    inst = parse_instance("# note\n\n1/2 0 1\n   \n1/3 1 2\n")
    assert len(inst) == 2


def test_parse_instance_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_instance("1/2 0 1\n1/2 0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_instance("0.5 0 1\n")


def test_schedule_json_round_trip(tmp_path):
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 3), (F(3, 4), 1, 3)])
    sched = first_fit(inst).schedule
    path = tmp_path / "sched.json"
    write_schedule(path, sched)
    again = read_schedule(path, inst)
    assert again == sched


def test_read_schedule_checks_instance_consistency(tmp_path):
    inst = make_instance([(F(1, 2), 0, 2)])
    sched = make_schedule(inst, [[0]])
    path = tmp_path / "sched.json"
    write_schedule(path, sched)
    other = make_instance([(F(1, 2), 0, 2), (F(1, 2), 0, 2)])
    with pytest.raises(ValueError):
        read_schedule(path, other)


def test_format_instance_emits_reduced_fractions():
    inst = make_instance([(F(2, 4), 0, 2)])
    assert format_instance(inst) == "1/2 0 2\n"


def test_schedule_from_dict_refuses_wrongly_typed_fields(tmp_path):
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 0, 1)])

    def entry(**changes):
        return {"id": 0, "jobs": [0, 1], "open": "0", "close": "1", **changes}

    assert schedule_from_dict(inst, {"servers": [entry()]}).servers[0].job_indices == (0, 1)
    cases = [
        # True == 1 would cover job 1, and 0.0 or "0" would fail later on
        (entry(jobs=[True, 0]), "server entry 0: job index True is not an integer"),
        (entry(jobs=[0.0, 1]), "server entry 0: job index 0.0 is not an integer"),
        (entry(jobs=["0", 1]), "server entry 0: job index '0' is not an integer"),
        (entry(jobs="01"), "server entry 0: jobs '01' is not a list"),
        (entry(id=True), "server entry 0: id True is not an integer"),
        (entry(id="0"), "server entry 0: id '0' is not an integer"),
        (entry(open=0), "server entry 0: open 0 is not a string"),
        (entry(close=None), "server entry 0: close None is not a string"),
        (entry(close="1.0"), "server entry 0: close: not an integer or p/q"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            schedule_from_dict(inst, {"servers": [bad]})
    # the bad entry is named by its position
    with pytest.raises(ValueError, match=r"^server entry 1: id 1\.5 "):
        schedule_from_dict(inst, {"servers": [entry(jobs=[0]), entry(id=1.5, jobs=[1])]})
    incomplete = {"id": 0, "jobs": [0, 1], "open": "0"}
    for data in ({"servers": [incomplete]}, {"servers": [[0, 1]]}):
        with pytest.raises(ValueError, match="^server entry 0: expected an object"):
            schedule_from_dict(inst, data)
    for data in ({}, {"servers": {}}, [entry()]):
        with pytest.raises(ValueError, match="'servers' list"):
            schedule_from_dict(inst, data)
    # the file that used to be read as jobs (True, 0) and certified at cost 1
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"servers": [entry(jobs=[True, 0])]}))
    with pytest.raises(ValueError, match="job index True is not an integer"):
        read_schedule(path, inst)
