"""Acceptance gate: the nine headline guarantees, checked end to end.

Each test prints exactly one [PASS]/[FAIL] line (run with -s to see them
live; pytest shows them on failure regardless).  All comparisons are exact
rational arithmetic; the stated wall-clock budgets are asserted too.
"""

import time
from fractions import Fraction

from rentlab import cost, first_fit, next_fit
from rentlab.analysis import SUITES, multiplier_sequences, util_ratio_bound
from rentlab.generators import ggu_extended, long_uniform, nf_nemesis
from rentlab.optimal import brute_force_opt, verify_certificate


F = Fraction


def report(number: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, text


def test_criterion_1_adversarial_ratio_climbs_toward_17_9():
    t = F(1, 2)
    expected = {6: (F(153), F(82)), 12: (F(306), F(163)), 18: (F(459), F(244))}
    ratios = []
    ok = True
    for k in (6, 12, 18):
        started = time.perf_counter()
        instance, certificate = ggu_extended(k, t)
        ff_cost = cost(first_fit(instance).schedule)
        cert_cost = verify_certificate(instance, certificate)
        elapsed = time.perf_counter() - started
        ok = ok and (ff_cost, cert_cost) == expected[k] and elapsed < 10
        ratios.append(ff_cost / cert_cost)
    ok = ok and all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = ok and all(r < F(17, 9) for r in ratios)
    report(
        1,
        ok,
        "firstfit vs certificate is exactly "
        + ", ".join(f"{r}" for r in ratios)
        + " over k=6,12,18: strictly climbing below 17/9",
    )


def test_criterion_2_adversarial_server_structure():
    k, t = 6, F(1, 2)
    instance, _ = ggu_extended(k, t)
    trace = first_fit(instance)
    servers = trace.schedule.servers
    ok = len(servers) == 2 * k + 5 * k + 10 * k
    late = [d for d in trace.decisions if instance.jobs[d.job_index].start == t]
    ok = ok and len(late) == 17 * k
    ok = ok and all(not d.opened_new_server for d in late)
    ok = ok and sorted(d.server_id for d in late) == list(range(17 * k))
    report(
        2,
        ok,
        f"firstfit rents exactly {2 * k}+{5 * k}+{10 * k} servers and every "
        "second-round job tops up a distinct existing server",
    )


def test_criterion_3_nextfit_tracks_arrival_ceiling():
    trials, max_jobs, seed = 500, 40, 20240601
    started = time.perf_counter()
    result = SUITES["nextfit-2t"](trials=trials, max_jobs=max_jobs, seed=seed)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 30
    report(
        3,
        ok,
        f"nextfit keeps active servers within twice the arrival ceiling at "
        f"every event time across {trials} random unit-duration instances "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_nemesis_ratio_is_three_halves_and_monotone():
    ratios = []
    for n_pairs in range(1, 7):
        instance = nf_nemesis(n_pairs)
        nf_cost = cost(next_fit(instance).schedule)
        opt = brute_force_opt(instance, max_jobs=4 * n_pairs)
        ratios.append(nf_cost / opt.cost)
    ok = ratios[2] >= F(3, 2)
    ok = ok and all(a <= b for a, b in zip(ratios, ratios[1:]))
    report(
        4,
        ok,
        "nextfit/optimum on alternating pairs is "
        + ", ".join(str(r) for r in ratios)
        + " for N=1..6: non-decreasing and already 3/2 at N=3",
    )


def test_criterion_5_strict_firstfit_within_twice_optimum():
    trials, max_jobs, seed = 500, 8, 7
    started = time.perf_counter()
    result = SUITES["strict-ff-2"](trials=trials, max_jobs=max_jobs, seed=seed)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 120
    report(
        5,
        ok,
        f"firstfit stays within twice the optimum (interval floor, exact search "
        f"where it fails) and the type-1 and mixed-server mass inequalities "
        f"hold on {trials} duration-2 instances ({elapsed:.1f}s)",
    )


def test_criterion_6_long_horizon_layers_and_utilization():
    # The exact ratio over exactly k servers rented for all of [0, l+2] also
    # fixes the utilization at 2/3 * k(l+2) + 1.
    report(
        6,
        SUITES["layers"]().passed,
        "layer masses and the exact utilization/cost value 2/3 + 1/(k(l+2)) "
        "hold for k in {2,4,8} x l in {2,4,10}, always above the floor",
    )


def test_criterion_7_multiplier_recurrence_closed_form_agree():
    seqs = multiplier_sequences(200)
    rebuilt = [F(1)]
    for i in range(1, 201):
        rebuilt.append(rebuilt[-1] + seqs.multipliers[i])
    ok = (
        seqs.partial_sums == seqs.closed_form
        and list(seqs.partial_sums) == rebuilt
    )
    report(
        7,
        ok,
        "step sums, the two-term recurrence and the closed form agree "
        "exactly for all indices up to 200",
    )


def test_criterion_8_weight_ledger_balances():
    trials, seed = 200, 104729
    result = SUITES["weights"](trials=trials, seed=seed)
    report(
        8,
        result.passed,
        f"weight totals balance exactly and per-server bounds hold on the "
        f"adversarial family plus {trials} sampled instances over four t values",
    )


def test_criterion_9_finite_trends_match_asymptotics():
    # adversarial family: gap to 17/9 shrinks as k grows
    t = F(1, 2)
    gaps = []
    for k in (6, 12, 18):
        instance, certificate = ggu_extended(k, t)
        ratio = cost(first_fit(instance).schedule) / verify_certificate(
            instance, certificate
        )
        gaps.append(F(17, 9) - ratio)
    ok = gaps[0] > gaps[1] > gaps[2] > 0

    # alternating pairs: gap to 2 shrinks as N grows
    nem_gaps = []
    for n_pairs in (2, 4, 6):
        instance = nf_nemesis(n_pairs)
        ratio = cost(next_fit(instance).schedule) / brute_force_opt(
            instance, max_jobs=4 * n_pairs
        ).cost
        nem_gaps.append(F(2) - ratio)
    ok = ok and nem_gaps[0] > nem_gaps[1] > nem_gaps[2] > 0

    # long horizon: utilization/cost excess over 2/3 shrinks in both arguments
    excesses = []
    for k, level_count in ((2, 2), (4, 4), (8, 10)):
        trace = first_fit(long_uniform(k, level_count))
        result = util_ratio_bound(trace, k)
        excesses.append(result.ratio - F(2, 3))
    ok = ok and excesses[0] > excesses[1] > excesses[2] > 0
    report(
        9,
        ok,
        "finite runs trend toward the limits: ratio gaps to 17/9 and 2 "
        "shrink with size, and utilization/cost drops toward 2/3 from above",
    )
