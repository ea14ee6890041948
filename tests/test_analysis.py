"""Weight ledgers, server taxonomy, layer inequalities, multiplier sequences."""

import hashlib
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from rentlab import analysis, first_fit, generators, make_instance, server_type_partition
from rentlab.analysis import (
    IGNORED_BUDGET,
    T_MIN,
    LayerProfile,
    ServerType,
    check_layer_inequalities,
    classify_servers,
    find_uniform_two_arrival,
    layer_profile,
    multiplier_sequences,
    ratio_report,
    util_ratio_bound,
    verify_weights,
    weight_w1,
    weight_w2,
)
from rentlab.generators import ggu_extended, long_uniform
from rentlab.optimal import active_ceil_bound, arrival_ceiling_profile, brute_force_opt


F = Fraction
T = F(1, 2)


def count_trial_reads(monkeypatch):
    """The seed of every trial read, recorded at ``generators._units``, the
    seam through which ``generators._grid_trial`` hashes its blocks: a
    trial's first block of lane 0, salt 0, holds its job count."""
    read = []
    units = generators._units

    def counting(seed, salt, width):
        if salt == 0:
            read.append(int.from_bytes(seed, "little", signed=True))
        return units(seed, salt, width)

    monkeypatch.setattr(generators, "_units", counting)
    return read


def two_arrival(rows_at_zero, rows_at_t, t=T):
    rows = [(s, F(0), F(1)) for s in rows_at_zero]
    rows += [(s, t, t + 1) for s in rows_at_t]
    return make_instance(rows)


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

def test_weight_values():
    assert weight_w1(F(1, 2), F(1, 2)) == F(117, 131)
    assert weight_w1(F(3, 4), F(1, 2)) == F(387, 262)
    assert weight_w2(F(1, 2), F(1, 2)) == F(126, 131)
    # a full-size first-arrival item hits the per-time collection cap
    assert weight_w1(F(1), F(1, 2)) == F(168, 131) * F(3, 2)


def test_weight_bonus_threshold_is_strict():
    # no bonus at exactly 1/2; the bonus starts strictly above it
    base = F(156, 131) * (1 + T)
    assert weight_w1(F(1, 2), T) == base / 2
    just_over = F(1, 2) + F(1, 1000)
    assert weight_w1(just_over, T) == base * just_over + F(12, 131) * (1 + T)


def test_weight_domain_errors():
    for bad_x in (F(0), F(5, 4), F(-1, 2)):
        with pytest.raises(ValueError):
            weight_w1(bad_x, T)
        with pytest.raises(ValueError):
            weight_w2(bad_x, T)
    for bad_t in (F(1, 100), F(1), F(3, 2), F(0)):
        with pytest.raises(ValueError):
            weight_w1(F(1, 2), bad_t)
    assert T_MIN == F(1, 28)
    assert weight_w2(F(1), T_MIN) == F(168, 131) * (1 + T_MIN)


def test_weight_w2_is_linear():
    for a, b in [(F(1, 12), F(1, 6)), (F(1, 4), F(1, 3)), (F(5, 12), F(1, 2))]:
        assert weight_w2(a + b, T) == weight_w2(a, T) + weight_w2(b, T)


# ---------------------------------------------------------------------------
# Server taxonomy
# ---------------------------------------------------------------------------

def test_classify_three_reference_servers():
    # first fit splits these into one server per bucket: I, IIb, IIIc
    inst = two_arrival(
        [F(9, 10), F(43, 60), F(11, 20)],
        [F(1, 10), F(1, 6), F(1, 4)],
    )
    infos = classify_servers(first_fit(inst))
    assert [info.label for info in infos] == [
        ServerType.TYPE_I,
        ServerType.TYPE_IIB,
        ServerType.TYPE_IIIC,
    ]
    assert infos[0].load_at_zero == F(9, 10)
    assert infos[0].total_load == 1
    assert infos[0].start_load_gap is None

    assert infos[1].start_load_gap == F(7, 60)   # distance below 5/6
    assert infos[1].total_load_gap == F(1, 30)   # distance below 11/12
    assert infos[2].start_load_gap == F(7, 60)   # distance below 2/3
    assert infos[2].total_load_gap == F(1, 30)   # distance below 5/6


def test_classify_remaining_buckets():
    cases = [
        ([F(2, 3)], [F(1, 4)], ServerType.TYPE_IIA),
        ([F(1, 3), F(1, 3)], [F(1, 5)], ServerType.TYPE_IIC),
        ([F(3, 5)], [F(1, 3)], ServerType.TYPE_IIIA),
        ([F(3, 5)], [F(1, 4)], ServerType.TYPE_IIIB),
        # exactly 1/2 at zero falls below every bucket even when full
        ([F(1, 2)], [F(9, 20)], ServerType.BELOW_THRESHOLD),
        # heavy first arrival but light total
        ([F(5, 6)], [F(1, 60)], ServerType.BELOW_THRESHOLD),
        # two items at zero disqualify the type-III range
        ([F(3, 10), F(3, 10)], [F(1, 3)], ServerType.BELOW_THRESHOLD),
    ]
    for at_zero, at_t, expected in cases:
        inst = two_arrival(at_zero, at_t)
        infos = classify_servers(first_fit(inst))
        assert len(infos) == 1
        assert infos[0].label == expected


def test_classify_is_a_partition():
    for seed in range(15):
        _, trace, _ = find_uniform_two_arrival(T, seed=seed * 1000 + 1)
        infos = classify_servers(trace)
        assert len(infos) == len(trace.schedule.servers)
        assert [i.server_id for i in infos] == [
            s.id for s in trace.schedule.servers
        ]


def test_classify_gap_inequalities():
    # on sampled uniform traces, threshold-gap servers keep eps1 > eps2
    # with eps1 <= 1/6 and eps2 <= 1/12, up to the ignored budget
    bad = 0
    for seed in range(25):
        _, trace, _ = find_uniform_two_arrival(T, seed=seed * 977 + 3)
        for info in classify_servers(trace):
            if info.start_load_gap is None:
                continue
            assert info.start_load_gap <= F(1, 6)
            assert info.total_load_gap <= F(1, 12)
            if not info.start_load_gap > info.total_load_gap:
                bad += 1
    assert bad <= IGNORED_BUDGET


def test_classify_rejects_non_uniform_shapes():
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 2), T, 1 + T)])
    with pytest.raises(ValueError, match="job 0 has duration 2; expected 1"):
        classify_servers(first_fit(inst))

    inst = make_instance(
        [(F(1, 2), 0, 1), (F(1, 2), F(1, 4), F(5, 4)), (F(1, 2), T, 1 + T)]
    )
    with pytest.raises(ValueError, match="expected 0 or 1/2"):
        classify_servers(first_fit(inst))

    # a server that never receives a second-arrival job closes early
    inst = make_instance([(F(9, 10), 0, 1), (F(9, 10), T, 1 + T)])
    with pytest.raises(ValueError, match="server 0 spans"):
        classify_servers(first_fit(inst))


# The two-round ledgers, each called on a trace alone
TWO_ROUND_LEDGERS = {
    "classify_servers": classify_servers,
    "verify_weights": lambda trace: verify_weights(trace, trace.schedule),
}


@pytest.mark.parametrize("ledger", TWO_ROUND_LEDGERS)
def test_two_round_ledgers_refuse_a_latest_start_outside_0_1(ledger):
    # no job after time 0, no job at all, and a latest start of 1 leave no
    # second arrival t in (0, 1)
    for rows in ([(F(1, 2), 0, 1)], [], [(F(1, 2), 0, 1), (F(1, 2), 1, 2)]):
        message = "^second arrival t must lie strictly between 0 and 1$"
        with pytest.raises(ValueError, match=message):
            TWO_ROUND_LEDGERS[ledger](first_fit(make_instance(rows)))


# ---------------------------------------------------------------------------
# Weight ledger
# ---------------------------------------------------------------------------

def test_verify_weights_on_adversarial_family():
    inst, cert = ggu_extended(6, T)
    report = verify_weights(first_fit(inst), cert)
    assert report.t == T
    assert report.passed
    assert report.ff_violations == ()
    assert report.ff_total == report.item_total
    assert report.opt_total == report.item_total
    assert all(chk.ok for chk in report.opt_checks)
    # every certificate server is rented for exactly one time unit
    assert all(chk.bound == F(168, 131) * (1 + T) for chk in report.opt_checks)
    assert report.failure is None


def test_weight_report_failure_names_first_broken_rule():
    inst, cert = ggu_extended(6, T)
    report = verify_weights(first_fit(inst), cert)
    over = replace(report.opt_checks[0], weight=F(3), ok=False)
    cases = [
        (replace(report, ignored_budget=-1), "0 servers below weight 1+t (budget -1)"),
        (
            replace(report, opt_checks=(over,) + report.opt_checks[1:]),
            "reference server 0 weight 3 exceeds 252/131",
        ),
        (replace(report, opt_total=report.opt_total + 1), "weight totals do not balance"),
    ]
    for broken, reason in cases:
        assert broken.failure == reason
        assert not broken.passed


def test_verify_weights_on_sampled_instances():
    for trial in range(12):
        t = [F(1, 28), F(1, 4), F(1, 2), F(3, 4)][trial % 4]
        inst, trace, _ = find_uniform_two_arrival(t, seed=trial * 3571 + 11)
        opt = brute_force_opt(inst, max_jobs=8)
        report = verify_weights(trace, opt.schedule)
        assert report.t == t
        assert report.passed
        assert len(report.ff_violations) <= IGNORED_BUDGET


def test_verify_weights_requires_t_at_least_minimum():
    inst = two_arrival([F(9, 10)], [F(1, 10)], t=F(1, 50))
    trace = first_fit(inst)
    opt = brute_force_opt(inst)
    with pytest.raises(ValueError, match=r"^second arrival 1/50 outside \[1/28, 1\)$"):
        verify_weights(trace, opt.schedule)


# ---------------------------------------------------------------------------
# Layer profiles over the long horizon
# ---------------------------------------------------------------------------

def test_layer_profile_reference_values():
    k, levels = 4, 4
    trace = first_fit(long_uniform(k, levels))
    profile = layer_profile(trace, k)
    assert len(profile.server_ids) == k
    assert profile.layer_mass[0] == F(8, 3)
    assert profile.layer_mass[1] == F(4, 3)
    # even layers carry the small overflow excess 1/levels
    assert profile.layer_mass[2] == F(4, 3) + F(1, 4) * 4 / 4
    assert check_layer_inequalities(profile) == []


def test_layer_inequalities_reported_when_broken():
    # long_uniform(2, 2)'s masses, read as if they were spread over 100 servers
    profile = layer_profile(first_fit(long_uniform(2, 2)), 2)
    profile_like = replace(profile, server_ids=tuple(range(100)))
    failures = check_layer_inequalities(profile_like)
    assert failures
    assert "layer 0" in failures[0]


def test_layer_inequalities_refuse_a_profile_with_no_layer_or_under_two_servers():
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        check_layer_inequalities(LayerProfile((), ()))
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        check_layer_inequalities(LayerProfile((), (F(1),)))  # k = 0
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        check_layer_inequalities(LayerProfile((0,), (F(1),)))
    with pytest.raises(ValueError, match="^profile must have at least one layer$"):
        check_layer_inequalities(LayerProfile((0, 1), ()))
    # the smallest profile it takes
    assert check_layer_inequalities(LayerProfile((0, 1), (F(3, 2),))) == []


def test_layer_profile_errors():
    trace = first_fit(long_uniform(2, 4))
    with pytest.raises(ValueError, match="expected 3 full-horizon"):
        layer_profile(trace, 3)
    # FirstFit opens a second server at 1, and neither spans [0, 3]
    trace = first_fit(make_instance([(F(1), 0, 2), (F(1), 1, 3)]))
    with pytest.raises(ValueError, match="no server spans"):
        layer_profile(trace, 2)
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 2, 4)])
    with pytest.raises(ValueError, match="job 0 has duration 1; expected 2"):
        layer_profile(first_fit(inst), 2)


@pytest.mark.parametrize(
    "check",
    [
        layer_profile,
        util_ratio_bound,
        pytest.param(
            lambda trace, k: check_layer_inequalities(layer_profile(trace, k)),
            id="check_layer_inequalities",
        ),
    ],
)
def test_escalating_checks_refuse_k_then_level_count_then_shape(check):
    # no job after time 0, and no job at all, leave no level to count
    for rows in ([(F(1, 2), 0, 1)], []):
        trace = first_fit(make_instance(rows))
        with pytest.raises(ValueError, match="^k must be at least 2$"):
            check(trace, 1)
        with pytest.raises(ValueError, match="^level_count must be positive$"):
            check(trace, 2)
    trace = first_fit(make_instance([(F(1, 2), 0, 1), (F(1, 2), 1, 3)]))
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        check(trace, 1)
    with pytest.raises(ValueError, match="^job 0 has duration 1; expected 2$"):
        check(trace, 2)


# Every caller of model.require_shape, as (the call, the duration it needs,
# the starts it allows as the message shows them, or None for any start, and
# for a caller that reads its setting from the latest start, that start).
SHAPE_CALLERS = {
    "active_ceil_bound": (lambda inst: active_ceil_bound(inst, F(1)), 1, None, None),
    "arrival_ceiling_profile": (arrival_ceiling_profile, 1, None, None),
    "classify_servers": (
        lambda inst: classify_servers(first_fit(inst)), 1, "0 or 1/2", T
    ),
    "verify_weights": (
        lambda inst: verify_weights(trace := first_fit(inst), trace.schedule),
        1,
        "0 or 1/2",
        T,
    ),
    "layer_profile": (lambda inst: layer_profile(first_fit(inst), 2), 2, "0, 1 or 2", 2),
    "server_type_partition": (
        lambda inst: server_type_partition(first_fit(inst)), 2, "0 or 1", None
    ),
}


@pytest.mark.parametrize("caller", SHAPE_CALLERS)
def test_shape_messages_at_every_caller(caller):
    call, duration, shown, latest = SHAPE_CALLERS[caller]
    # a job at the latest start, last, so that a setting read from it holds;
    # `late` then has three distinct starts, and the message names the first
    # of its two jobs that start off the setting
    tail = [] if latest is None else [(F(1, 2), latest, latest + duration)]
    long = make_instance(
        [(F(1, 2), 0, duration), (F(1, 2), 0, duration + F(1, 3)), *tail]
    )
    message = f"job 1 has duration {duration + F(1, 3)}; expected {duration}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(long)
    off = (F(1, 4), F(1, 3), duration + F(1, 3))
    late = make_instance([(F(1, 2), 0, duration), off, off, *tail])
    if shown is None:
        call(late)
    else:
        message = f"job 1 starts at 1/3; expected {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(late)


def test_util_ratio_bound_values():
    trace = first_fit(long_uniform(2, 2))
    result = util_ratio_bound(trace, 2)
    assert result.bound == F(1, 6)
    assert result.ratio == F(2, 3) + F(1, 2 * 4)
    assert result.passed

    trace = first_fit(long_uniform(100, 100))
    result = util_ratio_bound(trace, 100)
    assert result.bound == F(4999, 7650)
    assert result.ratio == F(2, 3) + F(1, 100 * 102)
    assert result.passed


def test_util_ratio_bound_requires_full_horizon_rentals():
    trace = first_fit(long_uniform(2, 4))
    with pytest.raises(ValueError):
        util_ratio_bound(trace, 3)


# ---------------------------------------------------------------------------
# Multiplier sequences
# ---------------------------------------------------------------------------

def test_multiplier_reference_values():
    seqs = multiplier_sequences(5)
    assert seqs.multipliers[0] == 1
    assert seqs.multipliers[1] == F(1, 2)
    assert seqs.multipliers[2] == F(3, 4)
    assert seqs.partial_sums[2] == F(9, 4)
    assert seqs.closed_form[2] == (12 + F(1, 4) - 4 + 12) / 9
    assert seqs.partial_sums == seqs.closed_form
    assert seqs.partial_sums[:6] == (
        F(1),
        F(3, 2),
        F(9, 4),
        F(23, 8),
        F(57, 16),
        F(135, 32),
    )


def test_multiplier_agreement_long_run():
    seqs = multiplier_sequences(50)
    assert seqs.partial_sums == seqs.closed_form
    # per-step growth settles around 2/3
    assert abs(seqs.partial_sums[50] - seqs.partial_sums[49] - F(2, 3)) < F(1, 2**40)


def test_multiplier_rejects_negative():
    with pytest.raises(ValueError):
        multiplier_sequences(-1)


# ---------------------------------------------------------------------------
# Instance finder and ratio labelling
# ---------------------------------------------------------------------------

def test_find_uniform_two_arrival_is_deterministic():
    a = find_uniform_two_arrival(T, seed=1000)
    b = find_uniform_two_arrival(T, seed=1000)
    assert a == b
    inst, trace, accepted = a
    assert accepted >= 1000
    for srv in trace.schedule.servers:
        assert srv.open_time == 0
        assert srv.close_time == 1 + T


def test_default_weights_sampling_is_pinned(monkeypatch):
    # on pass the weights report echoes only trials and seed, so pin what
    # its sampler accepts over all 200 default trials, and how many trials it reads
    accepted = []

    def recording(t, seed):
        found = find_uniform_two_arrival(t, seed)
        accepted.append((seed, found[2]))
        return found

    monkeypatch.setattr(analysis, "find_uniform_two_arrival", recording)
    made = count_trial_reads(monkeypatch)
    assert analysis.suite_weights().passed
    monkeypatch.undo()
    assert len(accepted) == 200
    assert sum(used - seed + 1 for seed, used in accepted) == 18_314
    digest = hashlib.sha256(",".join(str(used) for _, used in accepted).encode())
    assert digest.hexdigest() == (
        "3c35816df7903121c803a4e526f0fc8d94daca6d51e19682b663e0fed9af5af8"
    )
    # one trial read per attempt
    assert len(made) == 18_314


def test_default_strict_ff_2_seeds_each_trial_once(monkeypatch):
    # the job count and the draws come from one read of each trial seed
    made = count_trial_reads(monkeypatch)
    assert analysis.suite_strict_ff_2().passed
    monkeypatch.undo()
    assert made == [7 * 1_000_003 + trial for trial in range(500)]


def test_default_nextfit_2t_seeds_each_trial_once(monkeypatch):
    # the job count and the draws come from one read of each trial seed
    made = count_trial_reads(monkeypatch)
    assert analysis.suite_nextfit_2t().passed
    monkeypatch.undo()
    assert made == [20240601 * 1_000_003 + trial for trial in range(500)]


def test_nextfit_2t_refuses_profiles_of_unequal_length(monkeypatch):
    # a ceiling profile one event time short must not be truncated away
    real = analysis.arrival_ceiling_profile
    monkeypatch.setattr(
        analysis, "arrival_ceiling_profile", lambda instance: real(instance)[:-1]
    )
    with pytest.raises(ValueError, match="shorter than"):
        analysis.suite_nextfit_2t(trials=1)


def test_ratio_report_examples():
    rep = ratio_report(F(153), F(82), "certificate-upper")
    assert rep.value == F(153, 82)
    assert rep.relation == ">="
    assert rep.as_dict()["ratio"] == "153/82"

    rep = ratio_report(F(4), F(4), "exact-opt")
    assert rep.value == 1
    assert rep.relation == "="

    rep = ratio_report(F(4), F(2), "lower-bound")
    assert rep.value == 2
    assert rep.relation == "<="

    # a zero algorithm cost is a valid ratio of 0; a negative one is not
    assert ratio_report(F(0), F(2), "exact-opt").value == 0
    with pytest.raises(ValueError, match="alg cost must be non-negative"):
        ratio_report(F(-3), F(2), "exact-opt")
    with pytest.raises(ValueError):
        ratio_report(F(1), F(0), "exact-opt")
    with pytest.raises(ValueError):
        ratio_report(F(1), F(1), "no-such-kind")
