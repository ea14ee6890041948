"""Accounting tools behind the competitive-ratio arguments.

Three independent certifying mechanisms live here:

* a weight scheme for the two-arrival, unit-duration setting: every item
  gets a weight, almost every FirstFit server collects weight at least its
  rental length, and no feasible server can collect weight faster than
  168/131 per rented time unit (valid for second arrivals t in [1/28, 1));
* layer mass profiles for the duration-2 escalating families, whose
  pairwise inequalities force utilization to stay near 2/3 of cost;
* the multiplier sequences describing how much new size a chain of
  just-fitting arrivals can add, with matching recurrence and closed form.

``SUITES`` holds the verification suites behind ``rentlab verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .algorithms import (
    AlgorithmTrace,
    _round_split,
    first_fit,
    next_fit,
    server_type_partition,
)
from .generators import (
    _equal_duration_jobs,
    _grid_job_table,
    _grid_jobs,
    _grid_trial,
    _trial_layout,
    _two_arrival_jobs,
    ggu_extended,
    long_uniform,
    second_arrival,
)
from .model import (
    Instance,
    Schedule,
    _active_counts,
    as_rational,
    cost,
    format_rational,
    require_shape,
    utilization,
)
from .optimal import (
    _interval_ticks,
    arrival_ceiling_profile,
    brute_force_opt,
    verify_certificate,
)

T_MIN = Fraction(1, 28)

# Weights in units of (1+t)/131: the weight per unit size of a first-arrival
# item, the flat bonus of one over 1/2, and the weight per unit size of a
# second-arrival item.  The second rate is also the fastest any feasible
# server collects weight per rented time unit, which is what caps the
# optimum's total weight.
_W_UNITS = 131
_W1_RATE = 156
_W1_BONUS = 12
_W2_RATE = 168


def _weight_arrival(t) -> Fraction:
    """t as an exact rational, refused outside the weight scheme's [1/28, 1)."""
    t = as_rational(t)
    if not T_MIN <= t < 1:
        raise ValueError(f"second arrival {format_rational(t)} outside [1/28, 1)")
    return t


def _check_weight_domain(x: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    x = as_rational(x)
    if not 0 < x <= 1:
        raise ValueError(f"size {format_rational(x)} outside (0, 1]")
    return x, _weight_arrival(t)


def weight_w1(x, t) -> Fraction:
    """Weight of a first-arrival item: linear in size, bonus above 1/2."""
    x, t = _check_weight_domain(x, t)
    weight = _W1_RATE * x
    if x > Fraction(1, 2):
        weight += _W1_BONUS
    return weight * (1 + t) / _W_UNITS


def weight_w2(x, t) -> Fraction:
    """Weight of a second-arrival item: purely linear in size."""
    x, t = _check_weight_domain(x, t)
    return _W2_RATE * x * (1 + t) / _W_UNITS


class ServerType(str, Enum):
    """Buckets for FirstFit servers by first-arrival and total load."""

    TYPE_I = "I"
    TYPE_IIA = "IIa"
    TYPE_IIB = "IIb"
    TYPE_IIC = "IIc"
    TYPE_IIIA = "IIIa"
    TYPE_IIIB = "IIIb"
    TYPE_IIIC = "IIIc"
    BELOW_THRESHOLD = "below-threshold"


@dataclass(frozen=True)
class ServerTypeInfo:
    """Classification of one FirstFit server in the two-arrival setting.

    The gap fields measure how far the server sits below its bucket's
    nominal thresholds (first-arrival load, then total load); they are only
    set for the bucket families whose weight argument runs on those gaps.
    """

    server_id: int
    load_at_zero: Fraction
    total_load: Fraction
    items_at_zero: int
    label: ServerType
    start_load_gap: Optional[Fraction] = None
    total_load_gap: Optional[Fraction] = None


def _check_two_arrival_uniform(trace: AlgorithmTrace) -> Fraction:
    """The second arrival t, the trace's latest start, refused outside (0, 1);
    then every job unit-duration starting at 0 or t, every server spanning
    [0, 1+t]."""
    lat = trace.schedule.instance.lattice
    t = second_arrival(Fraction(max(lat.starts, default=0), lat.unit))
    require_shape(trace.schedule.instance, 1, {0, t})
    close = 1 + t
    for srv in trace.schedule.servers:
        if srv.open_time != 0 or srv.close_time != close:
            raise ValueError(
                f"server {srv.id} spans "
                f"[{format_rational(srv.open_time)}, "
                f"{format_rational(srv.close_time)}], expected [0, {format_rational(close)}]"
            )
    return t


def classify_servers(trace: AlgorithmTrace) -> list[ServerTypeInfo]:
    """Bucket every FirstFit server of a uniform two-arrival trace, whose
    second arrival t is its latest start.

    Thresholds are half-open downward: a first-arrival load of exactly 1/2
    falls below the lowest bucket, and type-III buckets require exactly one
    first-arrival item.  Servers matching no bucket come back labelled
    below-threshold rather than raising; the weight argument budgets for a
    bounded number of them.
    """
    _check_two_arrival_uniform(trace)
    lat = trace.schedule.instance.lattice
    out: list[ServerTypeInfo] = []
    for srv in trace.schedule.servers:
        at0, items0, at_t, _ = _round_split(srv.job_indices, lat.sizes, lat.starts)
        x0 = Fraction(at0, lat.capacity)
        total = Fraction(at0 + at_t, lat.capacity)
        label = ServerType.BELOW_THRESHOLD
        gap1: Optional[Fraction] = None
        gap2: Optional[Fraction] = None
        if x0 >= Fraction(5, 6):
            if total >= Fraction(11, 12):
                label = ServerType.TYPE_I
        elif x0 >= Fraction(2, 3):
            if total >= Fraction(11, 12):
                label = ServerType.TYPE_IIA
            elif total >= Fraction(5, 6):
                label = ServerType.TYPE_IIB if items0 == 1 else ServerType.TYPE_IIC
                gap1 = Fraction(5, 6) - x0
                gap2 = Fraction(11, 12) - total
        elif x0 > Fraction(1, 2) and items0 == 1:
            if total >= Fraction(11, 12):
                label = ServerType.TYPE_IIIA
            elif total >= Fraction(5, 6):
                label = ServerType.TYPE_IIIB
            elif total >= Fraction(3, 4):
                label = ServerType.TYPE_IIIC
                gap1 = Fraction(2, 3) - x0
                gap2 = Fraction(5, 6) - total
        out.append(
            ServerTypeInfo(
                server_id=srv.id,
                load_at_zero=x0,
                total_load=total,
                items_at_zero=items0,
                label=label,
                start_load_gap=gap1,
                total_load_gap=gap2,
            )
        )
    return out


# The weight argument brushes aside at most this many servers in total: two
# with total load under 3/4, one per threshold class stuck below its total
# target, and two low-or-crowded stragglers at the bottom bucket.
IGNORED_BUDGET = 7


@dataclass(frozen=True)
class OptServerCheck:
    server_id: int
    weight: Fraction
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class WeightReport:
    """Both sides of the weight ledger for one instance.

    server_weights lists (server id, first-arrival weight, second-arrival
    weight) for the FirstFit schedule; ff_violations are the servers whose
    total falls short of 1+t (at most ignored_budget may, for the argument
    to stand); opt_checks cap every reference server's weight by 168/131 *
    (1+t) * its rental length.  Totals on both sides must agree exactly
    with the per-item total, since weights just move between ledgers.
    """

    t: Fraction
    server_weights: tuple[tuple[int, Fraction, Fraction], ...]
    ff_violations: tuple[int, ...]
    opt_checks: tuple[OptServerCheck, ...]
    ignored_budget: int
    ff_total: Fraction
    opt_total: Fraction
    item_total: Fraction

    @property
    def failure(self) -> Optional[str]:
        """The first broken rule of the ledger, or None when all hold."""
        if len(self.ff_violations) > self.ignored_budget:
            return (
                f"{len(self.ff_violations)} servers below weight 1+t "
                f"(budget {self.ignored_budget})"
            )
        for chk in self.opt_checks:
            if not chk.ok:
                return (
                    f"reference server {chk.server_id} weight "
                    f"{format_rational(chk.weight)} exceeds {format_rational(chk.bound)}"
                )
        if self.ff_total != self.item_total or self.opt_total != self.item_total:
            return "weight totals do not balance"
        return None

    @property
    def passed(self) -> bool:
        return self.failure is None


def _lattice_weights(instance: Instance) -> tuple[int, list[int]]:
    """``(full, weights)``: in the uniform two-arrival setting job i weighs
    ``(1+t) * weights[i] / full``, so ``full`` = 131·C ints weigh 1+t.

    On the lattice a size is s/C for capacity C, so weight_w1 is
    (1+t)/(131·C) · (156·s + 12·C·[2s > C]) and weight_w2 is
    (1+t)/(131·C) · 168·s.  A size outside (0, 1] is refused as those two
    refuse it.
    """
    lat = instance.lattice
    capacity, sizes = lat.capacity, lat.sizes
    if sizes and not (0 < min(sizes) and max(sizes) <= capacity):
        bad = next(s for s in sizes if not 0 < s <= capacity)
        raise ValueError(f"size {format_rational(Fraction(bad, capacity))} outside (0, 1]")
    bonus = _W1_BONUS * capacity
    weights = [
        _W2_RATE * s if start else _W1_RATE * s + (bonus if 2 * s > capacity else 0)
        for s, start in zip(sizes, lat.starts)
    ]
    return _W_UNITS * capacity, weights


def verify_weights(trace: AlgorithmTrace, reference: Schedule) -> WeightReport:
    """Run the full weight ledger against a FirstFit trace and a reference.

    The reference schedule may be a true optimum or any feasible certificate;
    it is checked for feasibility first.  Requires the uniform two-arrival
    setting, with t the trace's latest start, and t in [1/28, 1).

    The ledger runs on the int weights of ``_lattice_weights``: a FirstFit
    server falls short when its ints sum below 131·C, a reference server of
    lattice length ℓ (time 1 is ``unit``) holding R is capped by
    R·unit <= 168·C·ℓ, and the totals are int sums.  Fractions are built
    only for the report's fields.
    """
    t = _weight_arrival(_check_two_arrival_uniform(trace))
    instance = trace.schedule.instance
    verify_certificate(instance, reference)
    lat = instance.lattice
    starts, finishes, unit = lat.starts, lat.finishes, lat.unit
    full, weights = _lattice_weights(instance)
    scale = (1 + t) / full

    server_weights = []
    violations = []
    ff_total = 0
    for srv in trace.schedule.servers:
        w1, _, w2, _ = _round_split(srv.job_indices, weights, starts)
        server_weights.append((srv.id, w1 * scale, w2 * scale))
        ff_total += w1 + w2
        if w1 + w2 < full:
            violations.append(srv.id)

    opt_checks = []
    opt_total = 0
    cap_rate = _W2_RATE * lat.capacity
    for srv in reference.servers:
        members = srv.job_indices
        weight = sum(map(weights.__getitem__, members))
        length = max(map(finishes.__getitem__, members)) - min(
            map(starts.__getitem__, members)
        )
        cap = cap_rate * length
        opt_checks.append(
            OptServerCheck(
                server_id=srv.id,
                weight=weight * scale,
                bound=Fraction(cap, unit) * scale,
                ok=weight * unit <= cap,
            )
        )
        opt_total += weight

    item_total = sum(weights)
    return WeightReport(
        t=t,
        server_weights=tuple(server_weights),
        ff_violations=tuple(violations),
        opt_checks=tuple(opt_checks),
        ignored_budget=IGNORED_BUDGET,
        ff_total=ff_total * scale,
        opt_total=opt_total * scale,
        item_total=item_total * scale,
    )


@dataclass(frozen=True)
class LayerProfile:
    """Arrival-time mass per layer over a designated set of busy servers."""

    server_ids: tuple[int, ...]
    layer_mass: tuple[Fraction, ...]  # index u = total size arriving at time u


def _check_escalating(trace: AlgorithmTrace, k: int) -> int:
    """The level count l, the integer part of the trace's latest start, once
    k >= 2, l >= 1 and every job has duration 2 and starts at 0, 1, ..., l."""
    if k < 2:
        raise ValueError("k must be at least 2")
    lat = trace.schedule.instance.lattice
    level_count = max(lat.starts, default=0) // lat.unit
    if level_count <= 0:
        raise ValueError("level_count must be positive")
    require_shape(trace.schedule.instance, 2, range(level_count + 1))
    return level_count


def layer_profile(trace: AlgorithmTrace, k: int) -> LayerProfile:
    """Mass per arrival layer over the servers rented for the whole horizon.

    The level count is the trace's latest start.  The designated set is
    every server opened at 0 and closed at level_count + 2; there must be
    exactly k >= 2 of them.
    """
    level_count = _check_escalating(trace, k)
    designated = [
        srv
        for srv in trace.schedule.servers
        if srv.open_time == 0 and srv.close_time == level_count + 2
    ]
    if not designated:
        raise ValueError("no server spans the full horizon")
    if len(designated) != k:
        raise ValueError(
            f"expected {k} full-horizon servers, found {len(designated)}"
        )
    jobs = trace.schedule.instance.jobs
    mass = [Fraction(0)] * (level_count + 1)
    for srv in designated:
        for i in srv.job_indices:
            mass[int(jobs[i].start)] += jobs[i].size
    return LayerProfile(
        server_ids=tuple(srv.id for srv in designated), layer_mass=tuple(mass)
    )


def check_layer_inequalities(profile: LayerProfile) -> list[str]:
    """The busy-server mass inequalities; returns the failures (none expected).

    For k the number of the profile's servers, layer 0 must exceed k/2, and
    every adjacent pair must satisfy mass[u] + mass[u-1]/2 > (k-1)/2; both
    follow from each arrival wave nearly filling k already-loaded servers.
    A profile of fewer than two servers or of no layer, which
    ``layer_profile`` never builds, raises ValueError.
    """
    k = len(profile.server_ids)
    mass = profile.layer_mass
    if k < 2:
        raise ValueError("k must be at least 2")
    if not mass:
        raise ValueError("profile must have at least one layer")
    failures = []
    if not mass[0] > Fraction(k, 2):
        failures.append(
            f"layer 0 mass {format_rational(mass[0])} not above {format_rational(Fraction(k, 2))}"
        )
    for u in range(1, len(mass)):
        lhs = mass[u] + mass[u - 1] / 2
        if not lhs > Fraction(k - 1, 2):
            failures.append(
                f"layers {u - 1},{u}: {format_rational(lhs)} not above "
                f"{format_rational(Fraction(k - 1, 2))}"
            )
    return failures


@dataclass(frozen=True)
class UtilRatioBound:
    ratio: Fraction
    bound: Fraction
    passed: bool


def util_ratio_bound(trace: AlgorithmTrace, k: int) -> UtilRatioBound:
    """Utilization-to-cost ratio against its guaranteed floor.

    Applies when FirstFit rented exactly k servers, each for the whole
    horizon [0, l + 2], where the level count l is the trace's latest start.
    The floor 2/3 - 2/(3k) - 2/(3(l+2)) tends to 2/3 as both grow.
    """
    level_count = _check_escalating(trace, k)
    servers = trace.schedule.servers
    if len(servers) != k or any(
        srv.open_time != 0 or srv.close_time != level_count + 2 for srv in servers
    ):
        raise ValueError(
            f"trace must rent exactly {k} servers over the full horizon"
        )
    ratio = utilization(trace.schedule.instance) / cost(trace.schedule)
    bound = (
        Fraction(2, 3)
        - Fraction(2, 3 * k)
        - Fraction(2, 3 * (level_count + 2))
    )
    return UtilRatioBound(ratio=ratio, bound=bound, passed=ratio > bound)


@dataclass(frozen=True)
class MultiplierSequences:
    """How much size a chain of just-fitting arrivals can stack per server.

    multipliers[i] is the fraction of capacity a fresh arrival wave can add
    after i waves (each wave must overflow the previous load); partial_sums
    accumulates them, and closed_form is the same sequence in closed form.
    """

    multipliers: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...]
    closed_form: tuple[Fraction, ...]


def multiplier_sequences(n: int) -> MultiplierSequences:
    """Sequences up to index n: step multipliers, their sums, closed form.

    The multipliers halve away from 2/3 (each wave fills what the previous
    one left over half-empty); the sums then grow by 2/3 per step around a
    damped oscillation.  The partial sums are cross-checked against their
    own two-term recurrence before returning.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    mult = [Fraction(1)]
    for _ in range(n):
        mult.append(1 - mult[-1] / 2)
    sums = [Fraction(1)]
    for i in range(1, n + 1):
        sums.append(sums[-1] + mult[i])
    recur = [Fraction(1), Fraction(3, 2)]
    for j in range(2, n + 1):
        recur.append(1 + recur[j - 1] / 2 + recur[j - 2] / 2)
    recur = recur[: n + 1]
    if sums != recur:
        raise RuntimeError("partial sums disagree with their recurrence")
    closed = [
        (6 * j + 8 + Fraction(-1, 2) ** j) / 9
        for j in range(n + 1)
    ]
    return MultiplierSequences(
        multipliers=tuple(mult),
        partial_sums=tuple(sums),
        closed_form=tuple(closed),
    )


# find_uniform_two_arrival's draws: job count range, size grid, attempt cap
_UNIFORM_N_RANGE = (4, 8)
_UNIFORM_SIZE_GRID = 12
_UNIFORM_MAX_ATTEMPTS = 50000

def _uniform_first_fit(draws: list[tuple[int, int]], capacity: int) -> bool:
    """Whether FirstFit rents every server over [0, 1+t] for these draws.

    Sizes are ints on the size grid, capacity its denominator, and a draw's
    key is 1 when it arrives at t.  Nothing expires before t < 1, so
    FirstFit is bin packing of the time-0 sizes and then the time-t sizes
    into the same loads: every server opens at 0 and runs to 1+t iff some
    job opens one at 0, none opens one at t, and every server takes a
    time-t job.
    """
    loads: list[int] = []
    topped: list[int] = []
    # time-0 draws first, then time-t ones, each in draw order
    for late in (0, 1):
        for size, key in draws:
            if key != late:
                continue
            for i, load in enumerate(loads):
                if load + size <= capacity:
                    loads[i] += size
                    topped[i] |= late
                    break
            else:
                if late:
                    return False
                loads.append(size)
                topped.append(0)
    return bool(loads) and all(topped)


def find_uniform_two_arrival(t, seed: int):
    """Rejection-sample a two-arrival instance whose FF servers are uniform.

    Draws seeded random instances until FirstFit rents every server over the
    whole [0, 1+t] window (so the weight scheme's setting applies), then
    returns (instance, trace, accepted seed).  Candidate seed ``seed + i``
    reads n in [4, 8] from lane 0 and ``random_two_arrival(n, t, seed + i)``'s
    draws from lane 1, by ``_grid_trial`` as strict-ff-2 reads its trials;
    a seed and its negation read different streams.

    Each draw is tested on the integer size grid, which never reads t: the
    accepted seed depends on ``seed`` alone, and t only sets the second
    start of the accepted instance.  Only that draw is built as an Instance,
    from random_two_arrival's job table, and run through first_fit.
    """
    t = second_arrival(t)
    layout = _trial_layout(*_UNIFORM_N_RANGE, _UNIFORM_SIZE_GRID, 2)
    for cand_seed in range(seed, seed + _UNIFORM_MAX_ATTEMPTS):
        draws = _grid_trial(cand_seed, layout)
        if _uniform_first_fit(draws, _UNIFORM_SIZE_GRID):
            instance = _grid_jobs(draws, _two_arrival_jobs(_UNIFORM_SIZE_GRID, t))
            return instance, first_fit(instance), cand_seed
    raise RuntimeError(
        f"no uniform-server instance found in {_UNIFORM_MAX_ATTEMPTS} attempts"
    )


# Each ratio kind and its relation: 'true ratio <relation> value'
RATIO_RELATIONS = {"exact-opt": "=", "certificate-upper": ">=", "lower-bound": "<="}
RATIO_KINDS = tuple(RATIO_RELATIONS)


@dataclass(frozen=True)
class RatioReport:
    """A cost ratio plus how it relates to the true algorithm/optimum ratio.

    relation is read as 'true ratio <relation> value': an exact optimum
    gives '=', dividing by a certificate's cost gives '>=' (certificates
    only overestimate the optimum), and dividing by a lower bound gives '<='.
    """

    value: Fraction
    kind: str
    relation: str

    @property
    def decimal(self) -> float:
        return float(self.value)

    def as_dict(self) -> dict:
        return {
            "ratio": format_rational(self.value),
            "ratio_decimal": self.decimal,
            "kind": self.kind,
            "relation": self.relation,
        }


def ratio_report(alg_cost, reference_cost, kind: str) -> RatioReport:
    """Form alg_cost / reference_cost and label what the quotient means."""
    if kind not in RATIO_KINDS:
        raise ValueError(f"kind must be one of {RATIO_KINDS}")
    alg_cost = as_rational(alg_cost)
    reference_cost = as_rational(reference_cost)
    if alg_cost < 0:
        raise ValueError("alg cost must be non-negative")
    if reference_cost <= 0:
        raise ValueError("reference cost must be positive")
    relation = RATIO_RELATIONS[kind]
    return RatioReport(value=alg_cost / reference_cost, kind=kind, relation=relation)


# ---------------------------------------------------------------------------
# Verification suites.  Each is deterministic in its arguments, whose
# defaults are the settings `rentlab verify` runs without flags.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    """A suite's verdict.

    details echo the settings, or a failing trial's locator and check details;
    counterexample is that trial's Instance, on which the check re-fails, or None.
    """

    passed: bool
    details: dict
    counterexample: Optional[Instance] = None


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _first_failure(trials, check) -> Optional[SuiteResult]:
    """The first ``(locator, instance, *args)`` trial that
    ``check(instance, *args)`` fails, or None."""
    for locator, instance, *args in trials:
        failure = check(instance, *args)
        if failure is not None:
            return SuiteResult(False, {**locator, **failure}, instance)
    return None


def _grid_trials(trials: int, seed: int, layout, job):
    """Trial i's locator and instance, read from trial seed
    ``seed * 1_000_003 + i``: the job count from lane 0, the draws from lane 1."""
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        draws = _grid_trial(trial_seed, layout)
        yield {"trial": trial, "seed": trial_seed}, _grid_jobs(draws, job)


def suite_recurrence(n: int = 200) -> SuiteResult:
    """Partial sums of the multipliers agree with their closed form up to n."""
    _check_at_least("n", n, 1)
    seqs = multiplier_sequences(n)
    agree = seqs.partial_sums == seqs.closed_form
    details = {
        "n": n,
        "closed_form_matches": agree,
        "last_term": format_rational(seqs.partial_sums[-1]),
    }
    return SuiteResult(agree, details)


# nextfit-2t's trials: random_equal_duration's default size grid, start grid
# and horizon
_NEXTFIT_GRIDS = (8, 4, 3)


def _nextfit_2t_failure(instance: Instance) -> Optional[dict]:
    counts = _active_counts(next_fit(instance).schedule)
    ceilings = arrival_ceiling_profile(instance)
    for (tau, got), bound in zip(counts, ceilings, strict=True):
        if got > 2 * bound:
            time = format_rational(Fraction(tau, instance.lattice.unit))
            return {"time": time, "active": got, "arrival_ceiling": bound}
    return None


def suite_nextfit_2t(
    trials: int = 500, max_jobs: int = 40, seed: int = 20240601
) -> SuiteResult:
    """NextFit stays within twice the arrival ceiling at every event time.

    Trial seed s reads n in [1, max_jobs] from lane 0 and
    ``random_equal_duration(n, s)``'s draws from lane 1, by ``_grid_trial``;
    s and -s read different streams.  The run builds each distinct job once,
    in one table that all its trials share.
    """
    _check_at_least("trials", trials, 1)
    _check_at_least("max_jobs", max_jobs, 1)
    size_grid, start_grid, horizon = _NEXTFIT_GRIDS
    layout = _trial_layout(1, max_jobs, size_grid, horizon * start_grid + 1)
    job = _equal_duration_jobs(size_grid, start_grid)
    settings = {"trials": trials, "max_jobs": max_jobs, "seed": seed}
    source = _grid_trials(trials, seed, layout, job)
    return _first_failure(source, _nextfit_2t_failure) or SuiteResult(True, settings)


def _strict_ff_2_failure(instance: Instance) -> Optional[dict]:
    trace = first_fit(instance)  # validates the trial
    ff_cost = cost(trace.schedule)
    lat = instance.lattice
    ticks = _interval_ticks(lat)
    # FirstFit's cost against twice the floor, cross-multiplied on ints
    if ff_cost.numerator * lat.unit > 2 * ticks * ff_cost.denominator:
        # the floor does not settle it: search, within the search's own limit
        try:
            opt = brute_force_opt(instance).cost
        except ValueError as error:
            floor = Fraction(ticks, lat.unit)
            return {
                "reason": f"unsettled: firstfit cost {format_rational(ff_cost)} "
                f"exceeds twice the interval floor {format_rational(floor)}, "
                f"and {error}"
            }
        if ff_cost > 2 * opt:
            return {
                "reason": f"firstfit cost {format_rational(ff_cost)} exceeds twice "
                f"the optimum {format_rational(opt)}"
            }
    part = server_type_partition(trace)
    k1, k2, k3 = part.counts
    if ff_cost != 2 * k1 + 3 * k2 + 2 * k3:
        return {"reason": "cost does not decompose as 2*k1 + 3*k2 + 2*k3"}
    # 2*A > k, cross-multiplied on the mass's ints
    mass1, mass2 = part.start0_mass_type1, part.start0_mass_type2
    if k1 >= 2 and not 2 * mass1.numerator > k1 * mass1.denominator:
        return {"reason": "type-1 first-arrival mass fails 2*A > k"}
    if k2 >= 2 and not 2 * mass2.numerator > k2 * mass2.denominator:
        return {"reason": "type-2 first-arrival mass fails 2*A > k"}
    return None


# strict-ff-2's job window by draw key (arrives late): duration 2, at 0 or 1
_STRICT_WINDOWS = ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(3)))


def suite_strict_ff_2(
    trials: int = 500, max_jobs: int = 8, seed: int = 7
) -> SuiteResult:
    """FirstFit stays within twice the optimum, arrivals {0, 1}, duration 2.

    A trial is settled by FirstFit's cost at most twice ``interval_floor``,
    a lower bound on the optimum, and searched by ``brute_force_opt`` only
    when that fails.  ``max_jobs`` bounds the trials' job counts, not the
    search: a trial the floor leaves open past the search's own limit of 10
    jobs fails as unsettled.  Every trial also checks the server-type cost
    split and both mass inequalities 2*A > k.
    Trial seed s reads n in [2, max_jobs] from lane 0 and random_two_arrival's
    n draws from lane 1, by ``_grid_trial``; s and -s read different
    streams.  The run builds each distinct job once, in one table that all
    its trials share.
    """
    _check_at_least("trials", trials, 1)
    _check_at_least("max_jobs", max_jobs, 2)
    layout = _trial_layout(2, max_jobs, 12, 2)
    job = _grid_job_table(12, _STRICT_WINDOWS.__getitem__)
    return _first_failure(
        _grid_trials(trials, seed, layout, job),
        _strict_ff_2_failure,
    ) or SuiteResult(True, {"trials": trials, "max_jobs": max_jobs, "seed": seed})


_WEIGHT_T_VALUES = (Fraction(1, 28), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _weights_failure(instance: Instance, reference=None, trace=None) -> Optional[dict]:
    """The weight ledger's failure on ``instance``, against ``reference``
    (by default the searched optimum) and ``trace``, its FirstFit trace
    (by default run here, so that a dumped instance re-fails alone)."""
    if reference is None:
        reference = brute_force_opt(instance, max_jobs=_UNIFORM_N_RANGE[1]).schedule
    if trace is None:
        trace = first_fit(instance)
    reason = verify_weights(trace, reference).failure
    return None if reason is None else {"reason": reason}


def suite_weights(trials: int = 200, seed: int = 104729) -> SuiteResult:
    """The weight ledger holds on ggu(6, 1/2) and on sampled uniform instances."""
    _check_at_least("trials", trials, 1)
    # too large to search, ggu(6, 1/2) is weighed against its certificate
    ggu, certificate = ggu_extended(6, Fraction(1, 2))
    ggu_case = [({"case": "ggu k=6 t=1/2"}, ggu, certificate)]

    def sampled():
        for trial in range(trials):
            t = _WEIGHT_T_VALUES[trial % len(_WEIGHT_T_VALUES)]
            first_seed = seed * 1_000_003 + trial * 10_007
            instance, trace, used_seed = find_uniform_two_arrival(t, first_seed)
            locator = {"trial": trial, "seed": used_seed, "t": format_rational(t)}
            # the sampler's FirstFit trace is checked, not run again
            yield locator, instance, None, trace

    return (
        _first_failure(ggu_case, _weights_failure)
        or _first_failure(sampled(), _weights_failure)
        or SuiteResult(True, {"trials": trials, "seed": seed})
    )


def _layers_failure(instance: Instance) -> Optional[dict]:
    """The layer checks on ``instance``, for k its jobs at time 0.  The
    ledgers read l from the trace, and the profile holds the l + 1 layers,
    so the horizon l + 2 is the profile's length + 1."""
    k = sum(jb.start == 0 for jb in instance.jobs)
    trace = first_fit(instance)
    profile = layer_profile(trace, k)
    failures = check_layer_inequalities(profile)
    bound = util_ratio_bound(trace, k)
    expected = Fraction(2, 3) + Fraction(1, k * (len(profile.layer_mass) + 1))
    if bound.ratio != expected:
        failures.append("utilization/cost misses its exact value")
    if not bound.passed:
        failures.append("utilization/cost not above its floor")
    return {"failures": failures} if failures else None


def suite_layers() -> SuiteResult:
    """Layer inequalities and exact utilization/cost on long_uniform(k, l)."""
    source = (
        ({"k": k, "l": level_count}, long_uniform(k, level_count))
        for k in (2, 4, 8)
        for level_count in (2, 4, 10)
    )
    settings = {"k": [2, 4, 8], "l": [2, 4, 10]}
    return _first_failure(source, _layers_failure) or SuiteResult(True, settings)


SUITES = {
    "nextfit-2t": suite_nextfit_2t,
    "strict-ff-2": suite_strict_ff_2,
    "weights": suite_weights,
    "layers": suite_layers,
    "recurrence": suite_recurrence,
}
