"""Exact reference costs: exhaustive partition search and certificate checks."""

import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

import rentcheck
from rentlab import (
    InfeasibleScheduleError,
    cost,
    first_fit,
    make_instance,
    make_schedule,
    next_fit,
    span,
    utilization,
    active_count,
)
from rentlab.generators import ggu_extended, random_equal_duration
from rentlab.optimal import (
    active_ceil_bound,
    arrival_ceiling_profile,
    brute_force_opt,
    lower_bounds,
    verify_certificate,
)


F = Fraction


# ---------------------------------------------------------------------------
# Exhaustive optimum
# ---------------------------------------------------------------------------

def test_brute_force_examples():
    inst = make_instance([(F(1, 2), 0, 2)])
    assert brute_force_opt(inst).cost == 2

    inst = make_instance([(F(6, 10), 0, 2), (F(6, 10), 0, 2)])
    assert brute_force_opt(inst).cost == 4

    inst = make_instance([(F(1, 2), 0, 2), (F(1, 2), 0, 2), (F(1, 2), 1, 3)])
    assert brute_force_opt(inst).cost == 4


def test_brute_force_empty_instance():
    opt = brute_force_opt(make_instance([]))
    assert opt.cost == 0
    assert opt.partitions_examined == 1


def test_brute_force_respects_job_limit():
    inst = make_instance([(F(1, 10), 0, 1)] * 11)
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force_opt(inst)
    assert brute_force_opt(inst, max_jobs=11).cost == 2
    for limit in (0, -1):
        with pytest.raises(ValueError, match=f"max_jobs must be at least 1, got {limit}"):
            brute_force_opt(make_instance([(F(1, 2), 0, 1)]), max_jobs=limit)


def test_brute_force_refuses_a_search_past_the_recursion_limit():
    # the search recurses once per job, so past the limit it is refused
    # with the job count, not left to end in a RecursionError
    n = sys.getrecursionlimit() + 500
    inst = random_equal_duration(n, seed=3)
    with pytest.raises(ValueError) as refused:
        brute_force_opt(inst, max_jobs=n)
    assert str(refused.value) == f"{n} jobs exceed the exact search's recursion depth"


def test_brute_force_groups_past_a_machine_word():
    # 70 jobs of size 1/70 on one window all share the first server: one
    # partition, on the floor, so 71 calls; its masks pass 63 bits, and the
    # load memo holds only the 69 sets met, never a table of all 2^70
    inst = make_instance([(F(1, 70), 0, 1)] * 70)
    began = time.perf_counter()
    got = brute_force_opt(inst, max_jobs=70)
    assert time.perf_counter() - began < 1
    assert got.cost == span(inst) == 1
    assert got.partitions_examined == 1
    assert [srv.job_indices for srv in got.schedule.servers] == [tuple(range(70))]
    assert got.counters == {
        "nodes": 71, "fit_tests": 69, "load_sums": 69, "incumbent_updates": 1,
        "stopped_at_floor": True,
    }


def test_brute_force_result_is_feasible_and_certified():
    for seed in range(20):
        inst = random_equal_duration(8, seed=seed)
        opt = brute_force_opt(inst)
        assert verify_certificate(inst, opt.schedule) == opt.cost


def test_brute_force_early_stop_at_floor():
    # a perfect packing matches the utilization floor, so search halts
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 2), 0, 2)])
    opt = brute_force_opt(inst)
    assert opt.cost == 2
    assert opt.partitions_examined == 1


def test_brute_force_never_beats_lower_bounds_or_loses_to_online():
    for seed in range(25):
        inst = random_equal_duration(9, seed=seed + 100)
        opt = brute_force_opt(inst)
        util, spn = lower_bounds(inst)
        assert opt.cost >= util
        assert opt.cost >= spn
        assert opt.util_bound == util
        assert opt.span_bound == spn
        assert max(util, spn) <= opt.interval_bound <= opt.cost
        assert opt.cost <= cost(next_fit(inst).schedule)
        assert opt.cost <= cost(first_fit(inst).schedule)


def test_brute_force_matches_bin_packing_on_shared_interval():
    # all jobs alive on one common window: renting cost is
    # duration times the classical minimum bin count
    for seed in range(15):
        rng = random.Random(seed)
        sizes = [F(rng.randint(1, 8), 8) for _ in range(rng.randint(2, 7))]
        inst = make_instance([(s, 0, 3) for s in sizes])
        opt = brute_force_opt(inst)
        assert opt.cost == 3 * rentcheck.bin_packing(sizes)


def effort_instances():
    """24 instances of 10-12 jobs in the exact-small benchmark's shape: sizes
    on the 1/12 grid, starts on the 1/4 grid in [0, 2], durations 1/4 to 2."""
    rng = random.Random(20261018)
    for k in range(24):
        rows = []
        for _ in range(10 + k % 3):
            start = F(rng.randint(0, 8), 4)
            rows.append((F(rng.randint(1, 12), 12), start, start + F(rng.randint(1, 8), 4)))
        rows.sort(key=lambda row: row[1])
        yield make_instance(rows)


# The search effort on effort_instances: nodes are the recursive calls.
# The partitions examined and the schedules were recorded from the Fraction
# solver that the lattice search replaced, and the nodes from the search
# that stops at the interval floor: 14 of the 24 stop there, and the nodes
# fall from 40,395 to 22,892.  A change of search order (seeding, new floors,
# symmetry breaking) changes these on purpose, and is re-pinned with its
# reason.
EFFORT_EXAMINED = [4, 2, 3, 4, 2, 5, 2, 2, 10, 2, 3, 3, 4, 5, 3, 2, 2, 3, 4, 4, 4, 2, 4, 3]
EFFORT_NODES = [
    27, 17, 141, 60, 652, 35, 368, 16, 1271, 19, 61, 59,
    571, 125, 21, 472, 1606, 11492, 53, 90, 800, 12, 4548, 376,
]
# sha256 over the job indices of every optimal schedule's servers
EFFORT_SCHEDULES = "775b3ca2459284b4a9e67c5169a44e123900c451a830bbeab0a10e3ac15b9b5e"


def test_search_effort_is_pinned():
    results = [brute_force_opt(inst, max_jobs=12) for inst in effort_instances()]
    assert [r.partitions_examined for r in results] == EFFORT_EXAMINED
    assert [r.counters["nodes"] for r in results] == EFFORT_NODES
    partitions = [[srv.job_indices for srv in r.schedule.servers] for r in results]
    digest = hashlib.sha256(repr(partitions).encode()).hexdigest()
    assert digest == EFFORT_SCHEDULES


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def test_lower_bounds_examples():
    assert lower_bounds(make_instance([(F(1, 2), 0, 2)])) == (1, 2)
    assert lower_bounds(make_instance([])) == (0, 0)

    from rentlab.generators import long_uniform

    inst = long_uniform(3, 4)
    util, spn = lower_bounds(inst)
    assert util == 13
    assert spn == 6
    assert util == utilization(inst)
    assert spn == span(inst)


# ---------------------------------------------------------------------------
# Per-time bound for unit-duration instances
# ---------------------------------------------------------------------------

def test_active_ceil_bound_examples():
    inst = make_instance([(F(1, 2), 0, 1)] * 3)
    assert active_ceil_bound(inst, F(1, 2)) == 2
    assert active_ceil_bound(inst, F(5)) == 0

    inst = make_instance([(F(1), 0, 1), (F(1), 0, 1)])
    assert active_ceil_bound(inst, F(1, 2)) == 2


def test_active_ceil_bound_requires_unit_durations():
    for finish, shown in [(F(5, 2), "3/2"), (F(4, 3), "1/3")]:
        inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 1, finish)])
        with pytest.raises(ValueError, match=f"job 1 has duration {shown};"):
            active_ceil_bound(inst, F(1))
        with pytest.raises(ValueError, match=f"job 1 has duration {shown};"):
            arrival_ceiling_profile(inst)


def test_active_ceil_bound_lower_bounds_opt_schedule():
    for seed in range(20):
        inst = random_equal_duration(8, seed=seed, horizon=2)
        opt = brute_force_opt(inst)
        times = sorted({jb.start for jb in inst.jobs})
        for t in times:
            assert active_ceil_bound(inst, t) <= active_count(opt.schedule, t)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_verify_certificate_singletons():
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 4)])
    sched = make_schedule(inst, [[0], [1]])
    assert verify_certificate(inst, sched) == 5


def test_verify_certificate_rejects_overload():
    inst = make_instance([(F(6, 10), 0, 2), (F(6, 10), 0, 2)])
    sched = make_schedule(inst, [[0, 1]])
    with pytest.raises(InfeasibleScheduleError):
        verify_certificate(inst, sched)


def test_verify_certificate_rejects_foreign_instance():
    inst = make_instance([(F(1, 2), 0, 2)])
    other = make_instance([(F(1, 3), 0, 2)])
    sched = make_schedule(inst, [[0]])
    with pytest.raises(ValueError):
        verify_certificate(other, sched)


def test_adversarial_certificate_value():
    inst, cert = ggu_extended(6, F(1, 2))
    assert verify_certificate(inst, cert) == 82
