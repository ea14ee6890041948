"""Instance families: adversarial constructions and seeded random generators."""

from fractions import Fraction

import pytest

from rentlab import (
    cost,
    first_fit,
    load,
    make_instance,
    next_fit,
    scale_time,
    utilization,
    validate,
)
from rentlab.generators import (
    FAMILIES,
    family_parameters,
    ggu_extended,
    long_uniform,
    nf_nemesis,
    random_equal_duration,
    random_two_arrival,
)
from rentlab.optimal import brute_force_opt, verify_certificate


F = Fraction


def test_every_family_validates():
    built = [
        ggu_extended(6, F(1, 2))[0],
        long_uniform(2, 4),
        nf_nemesis(3),
        random_two_arrival(10, F(1, 2), seed=5),
        random_equal_duration(10, seed=5),
    ]
    for inst in built:
        assert validate(inst) == []


# ---------------------------------------------------------------------------
# Adversarial family with grouped offsets
# ---------------------------------------------------------------------------

def test_ggu_job_count_and_cost():
    inst, cert = ggu_extended(6, F(1, 2))
    # 10 + 10 jobs per group across 6 groups, 10k half jobs,
    # and 2k + 5k + 10k fillers
    assert len(inst) == 282
    trace = first_fit(inst)
    assert cost(trace.schedule) == 153
    assert verify_certificate(inst, cert) == 82


def test_ggu_server_structure():
    k, t = 6, F(1, 2)
    delta = F(1, 1000 * 18**k)
    inst, _ = ggu_extended(k, t, delta=delta)
    trace = first_fit(inst)
    sched = trace.schedule
    servers = sched.servers

    offsets = [delta * 18 ** (k - g) for g in range(1, k + 1)]

    # first wave: two servers per group, loads just below 5/6 plus offsets
    for g in range(k):
        d = offsets[g]
        assert load(sched, servers[2 * g], F(0)) == F(5, 6) + 3 * d
        assert load(sched, servers[2 * g + 1], F(0)) == F(5, 6) + d

    # second wave: five servers per group (loads measured at time 0,
    # before the fillers arrive at t)
    for g in range(k):
        d = offsets[g]
        base = 2 * k + 5 * g
        seen = sorted(load(sched, servers[base + j], F(0)) for j in range(5))
        assert seen == [F(2, 3) + 2 * d] * 3 + [F(2, 3) + 12 * d] * 2

    # third wave: one job of 1/2 + delta per server
    for i in range(10 * k):
        srv = servers[2 * k + 5 * k + i]
        assert load(sched, srv, F(0)) == F(1, 2) + delta
        assert srv.open_time == 0
        assert srv.close_time == t + 1

    assert len(servers) == 2 * k + 5 * k + 10 * k


def test_ggu_tail_jobs_extend_without_new_servers():
    k, t = 6, F(1, 2)
    inst, _ = ggu_extended(k, t)
    trace = first_fit(inst)
    servers_before_tail = 17 * k
    tail_decisions = [
        d for d in trace.decisions if inst.jobs[d.job_index].start == t + 0
        and inst.jobs[d.job_index].size in (F(1, 12), F(1, 6), F(1, 4))
    ]
    assert len(tail_decisions) == 17 * k
    assert all(not d.opened_new_server for d in tail_decisions)
    hosts = [d.server_id for d in tail_decisions]
    assert sorted(hosts) == list(range(servers_before_tail))


def test_ggu_parameter_validation():
    with pytest.raises(ValueError):
        ggu_extended(5, F(1, 2))
    with pytest.raises(ValueError):
        ggu_extended(6, F(0))
    with pytest.raises(ValueError):
        ggu_extended(6, F(1))
    with pytest.raises(ValueError):
        ggu_extended(6, F(1, 2), delta=F(1, 18**6))


def test_ggu_scales_with_k():
    inst, cert = ggu_extended(12, F(1, 2))
    assert cost(first_fit(inst).schedule) == 306
    assert verify_certificate(inst, cert) == 163


# ---------------------------------------------------------------------------
# Stacked levels over a long horizon
# ---------------------------------------------------------------------------

def test_long_uniform_shape():
    inst = long_uniform(2, 4)
    assert len(inst) == 2 * 1 + 2 * 2 + 2 * 2  # base + odd levels + even levels
    assert validate(inst) == []
    assert utilization(inst) == F(2, 3) * 2 * 6 + 1


def test_long_uniform_first_fit_packs_into_k_servers():
    for k, level_count in [(2, 2), (3, 4), (4, 2)]:
        inst = long_uniform(k, level_count)
        trace = first_fit(inst)
        assert len(trace.schedule.servers) == k
        for srv in trace.schedule.servers:
            assert srv.open_time == 0
            assert srv.close_time == level_count + 2
        assert cost(trace.schedule) == k * (level_count + 2)


def test_long_uniform_parameter_validation():
    with pytest.raises(ValueError):
        long_uniform(1, 2)
    with pytest.raises(ValueError):
        long_uniform(2, 3)
    with pytest.raises(ValueError):
        long_uniform(2, 0)


# ---------------------------------------------------------------------------
# Alternating pairs that defeat a single open server
# ---------------------------------------------------------------------------

def test_nf_nemesis_small():
    inst = nf_nemesis(1)
    assert len(inst) == 4
    assert cost(next_fit(inst).schedule) == 2
    assert brute_force_opt(inst).cost == 2

    inst = nf_nemesis(3)
    assert len(inst) == 12
    assert cost(next_fit(inst).schedule) == 6
    assert brute_force_opt(inst, max_jobs=12).cost == 4


def test_nf_nemesis_structure():
    inst = nf_nemesis(2)
    sizes = [jb.size for jb in inst.jobs]
    assert sizes == [F(1, 2), F(1, 4)] * 4
    assert all(jb.start == 0 and jb.finish == 1 for jb in inst.jobs)
    with pytest.raises(ValueError):
        nf_nemesis(0)


# ---------------------------------------------------------------------------
# Seeded random families
# ---------------------------------------------------------------------------

def test_random_two_arrival_determinism_and_grid():
    a = random_two_arrival(12, F(1, 2), seed=42)
    b = random_two_arrival(12, F(1, 2), seed=42)
    c = random_two_arrival(12, F(1, 2), seed=43)
    assert a == b
    assert a != c
    assert validate(a) == []
    for jb in a.jobs:
        assert jb.size.denominator in (1, 2, 3, 4, 6, 12)
        assert jb.start in (0, F(1, 2))
        assert jb.finish == jb.start + 1
    starts = [jb.start for jb in a.jobs]
    assert starts == sorted(starts)


def test_random_two_arrival_respects_strict_bound_when_rescaled():
    # duration-2 rescaling keeps first fit within twice the optimum
    for seed in range(8):
        base = random_two_arrival(6, F(1, 2), seed=seed, size_grid=8)
        inst = scale_time(base, F(2))
        ff = cost(first_fit(inst).schedule)
        opt = brute_force_opt(inst).cost
        assert ff <= 2 * opt


def test_random_equal_duration_determinism_and_shape():
    a = random_equal_duration(15, seed=3)
    assert a == random_equal_duration(15, seed=3)
    assert validate(a) == []
    for jb in a.jobs:
        assert jb.duration == 1
        assert 0 < jb.size <= 1
    starts = [jb.start for jb in a.jobs]
    assert starts == sorted(starts)


def test_family_dispatch():
    assert set(FAMILIES) == {
        "ggu",
        "long-uniform",
        "nf-nemesis",
        "random-two-arrival",
        "random-equal-duration",
    }
    # each family built by name, its parameters named as the family names them
    built = {}
    for family, given in [
        ("ggu", {"k": 6, "t": F(1, 2)}),
        ("long-uniform", {"k": 2, "l": 4}),
        ("nf-nemesis", {"N": 1}),
    ]:
        parameters = family_parameters(family)
        built[family] = FAMILIES[family](
            **{parameters[name].name: value for name, value in given.items()}
        )
    inst, cert = built.pop("ggu")
    assert len(inst) == 282
    assert verify_certificate(inst, cert) == 82
    assert {family: len(inst) for family, inst in built.items()} == {
        "long-uniform": 10,
        "nf-nemesis": 4,
    }
    assert list(family_parameters("long-uniform")) == ["k", "l"]
    with pytest.raises(ValueError, match="unknown family 'no-such-family'"):
        family_parameters("no-such-family")
