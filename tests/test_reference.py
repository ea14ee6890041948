"""Fast paths against the plain Fraction loops they replaced.

The instance and schedule files, cost, validate, utilization, span, mu,
check_schedule, the active-count profile and integral, the arrival ceilings
and interval_floor are compared with checker/rentcheck.py, a plain Fraction
model that imports nothing from rentlab, through ``plain``, which reads
rentlab's records as the model's tuples.  check_schedule tests the chained
job indices of all servers at once, walks them one by one only to name a
membership fault, and sweeps only servers whose members' total size exceeds
capacity; schedule_from_dict reads the entries as columns and walks them
only to name a fault; the measures and interval_floor sweep lattice ints.

The references kept here are what a checker does not need.  The linear
placement scan with Fraction loads counts the kernel's work as its
max-free tree would do it: a rebuild at each arrival that drops a
candidate, and ceil(log2 c) steps for a FirstFit query over c candidates;
the kernel's returns of capacity, grouped by finish, are checked on jobs
that share a finish, end at an arrival or all end apart.  brute_force_opt
searches with member bitmasks and a memo of live-member loads and stops at
the interval floor; its reference is the same partition search with
Fraction loads and costs, reads its bounds from the model before the search
rather than at its first incumbent, and counts the same search effort, so
the two walk one tree.  The lattice maps each distinct Job object once,
checked against the lattice of distinct copies and against one scaled by
the lcm of every position's denominators.  make_schedule returns the very
window objects of its reference, min or max over the group's Fractions;
ggu_extended's reference sums one Fraction per job, each job its own Job,
for k up to 36 and deltas whose numerator is not 1.

The random families read their draws through the trial reader and share
one Job per distinct row, one Fraction per size and one window per start
key, checked against Fraction draws of the reference reader sorted by
start, for up to 2000 jobs, size grids up to 2^32 - 1, start ranges past
2^31 and seeds below 0 and past 2^64.  A trial, as the weights sampler,
strict-ff-2 and nextfit-2t draw it, reads its job count from lane 0 of its
seed's blake2b stream and its draws from lane 1, each lane in units of 1,
2 or 4 bytes by top-bit rejection, with a block decoded in place and a
draw read again past a block's end.  Its reference reads one value at a
time and hashes one block per unit, on wide inputs, across many blocks,
with each block cut to as few as one unit and on generated inputs; the
count and the first size are independent on each suite's layout.  The sampler's reference builds every draw and runs
first_fit on it.  The weight ledger and classify_servers sum lattice ints,
as server_type_partition does; their references sum each server's Fraction
weights or sizes, take t explicitly and check that it is the trace's latest
start, which the ledgers read as t.
"""

import heapq
import json
import math
import random
from _blake2 import blake2b
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import count, product
from types import SimpleNamespace

import pytest

import rentcheck
from rentlab import (
    Instance,
    Job,
    OptResult,
    Schedule,
    Server,
    Violation,
    active_count_integral,
    active_count_profile,
    arrival_ceiling_profile,
    brute_force_opt,
    check_schedule,
    cost,
    first_fit,
    format_instance,
    interval_floor,
    lower_bounds,
    make_instance,
    make_schedule,
    mu,
    next_fit,
    parse_instance,
    parse_rational,
    read_schedule,
    require_valid,
    scale_time,
    schedule_from_dict,
    span,
    utilization,
    validate,
    verify_certificate,
    write_schedule,
)
from rentlab import analysis, generators, model, optimal
from rentlab.algorithms import (
    AlgorithmTrace,
    Decision,
    ServerTypePartition,
    server_type_partition,
)
from rentlab.analysis import (
    _WEIGHT_T_VALUES,
    IGNORED_BUDGET,
    T_MIN,
    OptServerCheck,
    ServerType,
    ServerTypeInfo,
    WeightReport,
    classify_servers,
    find_uniform_two_arrival,
    verify_weights,
    weight_w1,
    weight_w2,
)
from rentlab.model import Lattice, _schedule_text
from rentlab.generators import (
    _grid_trial,
    _trial_layout,
    ggu_extended,
    long_uniform,
    nf_nemesis,
    random_equal_duration,
    random_two_arrival,
)

F = Fraction


def plain(value):
    """rentlab's records as the reference model's plain data: an Instance
    as its (size, start, finish) rows, a Schedule as (rows, servers), a
    Violation as its five fields; lists are mapped, the rest passed as is."""
    if isinstance(value, Instance):
        return tuple((jb.size, jb.start, jb.finish) for jb in value.jobs)
    if isinstance(value, Schedule):
        return plain(value.instance), tuple(map(tuple, value.servers))
    if isinstance(value, Violation):
        return value.rule, value.job_index, value.server_id, value.time, value.load
    if isinstance(value, list):
        return list(map(plain, value))
    return value


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class _RefServer:
    def __init__(self, sid, open_time):
        self.id, self.open_time = sid, open_time
        self.indices, self.pending = [], []
        self.termination, self.load_now = None, F(0)

    def expire(self, t):
        while self.pending and self.pending[0][0] <= t:
            self.load_now -= heapq.heappop(self.pending)[1]


def reference_scan(instance, keep_earlier):
    """The linear scan's trace and its own Decision records, whose opened
    flags come from the scan, not from the trace's columns.  The counters
    are the kernel's in the scan's terms: the tree is rebuilt at each
    arrival that drops a candidate, and a FirstFit query walks ceil(log2 c)
    levels of a tree over c candidates; NextFit's has one leaf."""
    servers, candidates, decisions = [], [], []
    rebuilds = steps = 0
    for i, jb in enumerate(instance.jobs):
        live = [srv for srv in candidates if srv.termination >= jb.start]
        rebuilds += len(live) < len(candidates)
        candidates = live
        if keep_earlier:
            steps += (max(len(candidates), 1) - 1).bit_length()
        target, scanned = None, 0
        for srv in candidates:
            scanned += 1
            srv.expire(jb.start)
            if srv.load_now + jb.size <= 1:
                target = srv
                break
        opened = target is None
        if opened:
            target = _RefServer(len(servers), jb.start)
            servers.append(target)
            candidates = candidates + [target] if keep_earlier else [target]
        if not keep_earlier:
            scanned = min(i, 1)
        target.indices.append(i)
        target.load_now += jb.size
        heapq.heappush(target.pending, (jb.finish, jb.size))
        if target.termination is None or jb.finish > target.termination:
            target.termination = jb.finish
        decisions.append(Decision(i, target.id, opened, scanned))
    frozen = tuple(
        Server(b.id, tuple(b.indices), b.open_time, b.termination) for b in servers
    )
    counters = {
        "index_rebuilds": rebuilds,
        "tree_steps": steps,
        "servers_opened": len(servers),
    }
    ids = tuple(d.server_id for d in decisions)
    scanned = tuple(d.servers_scanned for d in decisions)
    trace = AlgorithmTrace(Schedule(instance, frozen), ids, scanned, counters)
    return trace, tuple(decisions)


def reference_place(instance, keep_earlier):
    return reference_scan(instance, keep_earlier)[0]


def reference_lane(seed, lane, width, block=64):
    """Lane ``lane`` of trial ``seed``'s stream, unit by unit.  Block b of a
    lane is the blake2b digest of the seed's signed little-endian bytes,
    salted by 2b + lane, read as big-endian units of ``width`` bytes (at most
    ``block`` of them); unit k is unit k of the lane's blocks laid end to end."""
    data = seed.to_bytes(seed.bit_length() // 8 + 1, "little", signed=True)
    for k in count():
        b, offset = divmod(k, min(block, 64 // width))
        digest = blake2b(data, salt=(2 * b + lane).to_bytes(16, "little")).digest()
        yield int.from_bytes(digest[offset * width : (offset + 1) * width], "big")


def reference_width(*ranges):
    """The unit width of a lane that reads values below each of ``ranges``:
    the fewest bytes of 1, 2 or 4 that hold the widest."""
    bits = max((values - 1).bit_length() for values in ranges)
    return next(width for width in (1, 2, 4) if bits <= 8 * width)


def reference_value(units, values, width):
    """A value below ``values``: the top (values - 1).bit_length() bits of
    the first unit whose top bits fall below ``values``."""
    shift = 8 * width - (values - 1).bit_length()
    return next(unit >> shift for unit in units if unit >> shift < values)


def reference_count(seed, low, high, block=64):
    """A trial's job count in [low, high], read from lane 0."""
    width = reference_width(high - low + 1)
    units = reference_lane(seed, 0, width, block)
    return low + reference_value(units, high - low + 1, width)


def reference_draws(seed, n, size_grid, key_values, block=64):
    """A trial's n draws from lane 1: a size in [1, size_grid], then a key
    below ``key_values``, n times."""
    width = reference_width(size_grid, key_values)
    units = reference_lane(seed, 1, width, block)
    draws = []
    for _ in range(n):
        size = 1 + reference_value(units, size_grid, width)
        draws.append((size, reference_value(units, key_values, width)))
    return draws


def reference_trial_draws(seed, low, high, size_grid, key_values, block=64):
    """A trial's draws, for a job count in [low, high]."""
    n = reference_count(seed, low, high, block)
    return reference_draws(seed, n, size_grid, key_values, block)


def drawn_instance(draws, size_grid, start_of):
    """The unit-duration jobs of ``(size, key)`` draws, stably sorted by start."""
    drawn = [(start_of(key), F(size, size_grid)) for size, key in draws]
    drawn.sort(key=lambda pair: pair[0])
    return Instance(tuple(Job(size, start, start + 1) for start, size in drawn))


def reference_two_arrival(n, t, seed, size_grid=12):
    draws = reference_draws(seed, n, size_grid, 2)
    return drawn_instance(draws, size_grid, (F(0), t).__getitem__)


def reference_equal_duration(n, seed, size_grid=8, start_grid=4, horizon=3):
    draws = reference_draws(seed, n, size_grid, horizon * start_grid + 1)
    return drawn_instance(draws, size_grid, lambda key: F(key, start_grid))


def reference_find_uniform(t, seed):
    """(instance, accepted seed) of the sampler that runs first_fit on every draw."""
    for attempt in range(50000):
        cand_seed = seed + attempt
        instance = reference_two_arrival(reference_count(cand_seed, 4, 8), t, cand_seed)
        servers = reference_place(instance, keep_earlier=True).schedule.servers
        if servers and all(
            srv.open_time == 0 and srv.close_time == 1 + t for srv in servers
        ):
            return instance, cand_seed
    raise RuntimeError("no uniform-server instance found")


def reference_verify_weights(trace, opt_schedule, t):
    """The weight ledger on per-job Fraction weights, summed per server, at
    the second arrival t, which must be the trace's latest start."""
    assert analysis._check_two_arrival_uniform(trace) == t
    t = analysis._weight_arrival(t)
    instance = trace.schedule.instance
    verify_certificate(instance, opt_schedule)
    jobs = instance.jobs
    weights = [
        weight_w1(jb.size, t) if jb.start == 0 else weight_w2(jb.size, t)
        for jb in jobs
    ]
    server_weights = []
    violations = []
    ff_total = F(0)
    for srv in trace.schedule.servers:
        w1 = sum((weights[i] for i in srv.job_indices if jobs[i].start == 0), F(0))
        w2 = sum((weights[i] for i in srv.job_indices if jobs[i].start != 0), F(0))
        server_weights.append((srv.id, w1, w2))
        ff_total += w1 + w2
        if w1 + w2 < 1 + t:
            violations.append(srv.id)
    opt_checks = []
    opt_total = F(0)
    for srv in opt_schedule.servers:
        weight = sum((weights[i] for i in srv.job_indices), F(0))
        bound = F(168, 131) * (1 + t) * (srv.close_time - srv.open_time)
        opt_checks.append(
            OptServerCheck(server_id=srv.id, weight=weight, bound=bound, ok=weight <= bound)
        )
        opt_total += weight
    return WeightReport(
        t=t,
        server_weights=tuple(server_weights),
        ff_violations=tuple(violations),
        opt_checks=tuple(opt_checks),
        ignored_budget=IGNORED_BUDGET,
        ff_total=ff_total,
        opt_total=opt_total,
        item_total=sum(weights, F(0)),
    )


def reference_classify_servers(trace, t):
    """The server buckets from per-job Fraction sizes summed per server, at
    the second arrival t, which must be the trace's latest start."""
    assert analysis._check_two_arrival_uniform(trace) == t
    jobs = trace.schedule.instance.jobs
    out = []
    for srv in trace.schedule.servers:
        at_zero = [jobs[i].size for i in srv.job_indices if jobs[i].start == 0]
        x0 = sum(at_zero, F(0))
        total = sum((jobs[i].size for i in srv.job_indices), F(0))
        items0 = len(at_zero)
        label = ServerType.BELOW_THRESHOLD
        gap1 = gap2 = None
        if x0 >= F(5, 6):
            if total >= F(11, 12):
                label = ServerType.TYPE_I
        elif x0 >= F(2, 3):
            if total >= F(11, 12):
                label = ServerType.TYPE_IIA
            elif total >= F(5, 6):
                label = ServerType.TYPE_IIB if items0 == 1 else ServerType.TYPE_IIC
                gap1 = F(5, 6) - x0
                gap2 = F(11, 12) - total
        elif x0 > F(1, 2) and items0 == 1:
            if total >= F(11, 12):
                label = ServerType.TYPE_IIIA
            elif total >= F(5, 6):
                label = ServerType.TYPE_IIIB
            elif total >= F(3, 4):
                label = ServerType.TYPE_IIIC
                gap1 = F(2, 3) - x0
                gap2 = F(5, 6) - total
        out.append(ServerTypeInfo(srv.id, x0, total, items0, label, gap1, gap2))
    return out


def reference_scale_time(instance, factor):
    return Instance(
        tuple(Job(jb.size, jb.start * factor, jb.finish * factor) for jb in instance.jobs)
    )


def reference_server_type_partition(trace):
    instance = trace.schedule.instance
    type1, type2, type3 = [], [], []
    mass0_t1 = F(0)
    mass0_t2 = F(0)
    mass1 = F(0)
    jobs = instance.jobs
    for srv in trace.schedule.servers:
        at0 = sum((jobs[i].size for i in srv.job_indices if jobs[i].start == 0), F(0))
        at1 = sum((jobs[i].size for i in srv.job_indices if jobs[i].start == 1), F(0))
        has0 = any(jobs[i].start == 0 for i in srv.job_indices)
        has1 = any(jobs[i].start == 1 for i in srv.job_indices)
        if has0 and has1:
            type2.append(srv)
            mass0_t2 += at0
            mass1 += at1
        elif has0:
            type1.append(srv)
            mass0_t1 += at0
        else:
            type3.append(srv)
            mass1 += at1
    return ServerTypePartition(
        type1=tuple(type1),
        type2=tuple(type2),
        type3=tuple(type3),
        start0_mass_type1=mass0_t1,
        start0_mass_type2=mass0_t2,
        start1_mass=mass1,
    )


def reference_make_schedule(instance, groups):
    """Windows as min and max over the group's Fractions (no index checks)."""
    jobs = instance.jobs
    return Schedule(instance, tuple(
        Server(
            sid, tuple(group),
            min(jobs[i].start for i in group), max(jobs[i].finish for i in group),
        )
        for sid, group in enumerate(groups)
    ))


def reference_ggu_extended(k, t, delta=None):
    """ggu_extended from per-job Fraction sums, each job its own Job, and
    the certificate's windows from reference_make_schedule."""
    t = F(t)
    if delta is None:
        delta = F(1, 1000 * 18**k)
    offsets = [delta * 18 ** (k - g) for g in range(1, k + 1)]
    jobs = []

    def emit(size, start, finish):
        jobs.append(Job(size, start, finish))
        return len(jobs) - 1

    wave1 = [
        [emit(F(1, 6) + m * d, F(0), F(1)) for m in generators._WAVE1_MULTIPLES]
        for d in offsets
    ]
    wave2 = [
        [emit(F(1, 3) + m * d, F(0), F(1)) for m in generators._WAVE2_MULTIPLES]
        for d in offsets
    ]
    wave3 = [emit(F(1, 2) + delta, F(0), F(1)) for _ in range(10 * k)]
    fill12 = [emit(F(1, 12), t, t + 1) for _ in range(2 * k)]
    fill6 = [emit(F(1, 6), t, t + 1) for _ in range(5 * k)]
    fill4 = [emit(F(1, 4), t, t + 1) for _ in range(10 * k)]
    instance = Instance(tuple(jobs))
    pairs = []
    for g in range(k):
        pairs.append((wave1[g][0], wave2[g][1]))
        for j in range(2, 10):
            pairs.append((wave1[g][j], wave2[g][j]))
    for g in range(k - 1):
        pairs.append((wave1[g][1], wave2[g + 1][0]))
    groups = [[big, *pairs[m]] if m < len(pairs) else [big] for m, big in enumerate(wave3)]
    groups.append([wave1[k - 1][1], wave2[0][0]])
    for filler, width in ((fill12, 12), (fill6, 6), (fill4, 4)):
        groups += [filler[i : i + width] for i in range(0, len(filler), width)]
    return instance, reference_make_schedule(instance, groups)


class _RefGroup:
    __slots__ = ("indices", "members", "max_finish")

    def __init__(self, index, finish, size):
        self.indices = [index]
        self.members = [(finish, size)]
        self.max_finish = finish

    def load_at(self, t):
        # Earlier members all started at or before t, so only departures matter.
        return sum((size for fin, size in self.members if fin > t), F(0))


def reference_brute_force_opt(instance, max_jobs=10, stop_at_interval=True):
    if max_jobs < 1:
        raise ValueError(f"max_jobs must be at least 1, got {max_jobs}")
    rows = plain(instance)
    broken = rentcheck.validate(rows)
    if broken:
        raise ValueError("invalid instance: " + "; ".join(map(str, broken)))
    jobs = instance.jobs
    n = len(jobs)
    if n > max_jobs:
        raise ValueError(f"{n} jobs exceeds brute-force limit of {max_jobs}")
    util_b, span_b = rentcheck.utilization(rows), rentcheck.span(rows)
    # at least max(util_b, span_b), and at most the optimum
    interval_b = rentcheck.interval_bounds(rows)[1]
    floor = interval_b if stop_at_interval else max(util_b, span_b)

    best_cost = None
    best_groups = None
    examined = nodes = fit_tests = updates = 0
    finished = False
    groups = []

    def descend(i, acc):
        nonlocal best_cost, best_groups, examined, nodes, fit_tests, updates, finished
        nodes += 1
        if finished:
            return
        if i == n:
            examined += 1
            if best_cost is None or acc < best_cost:
                best_cost = acc
                best_groups = [list(g.indices) for g in groups]
                updates += 1
                if best_cost <= floor:
                    finished = True
            return
        jb = jobs[i]
        for g in groups:
            fit_tests += 1
            if g.load_at(jb.start) + jb.size <= 1:
                old_max = g.max_finish
                grown = acc + (jb.finish - old_max if jb.finish > old_max else 0)
                if best_cost is None or grown < best_cost:
                    g.indices.append(i)
                    g.members.append((jb.finish, jb.size))
                    if jb.finish > g.max_finish:
                        g.max_finish = jb.finish
                    descend(i + 1, grown)
                    g.indices.pop()
                    g.members.pop()
                    g.max_finish = old_max
                if finished:
                    return
        grown = acc + jb.duration
        if best_cost is None or grown < best_cost:
            groups.append(_RefGroup(i, jb.finish, jb.size))
            descend(i + 1, grown)
            groups.pop()

    descend(0, F(0))
    counters = {
        "nodes": nodes,
        "fit_tests": fit_tests,
        "incumbent_updates": updates,
        "stopped_at_floor": finished,
    }
    return OptResult(
        make_schedule(instance, best_groups), best_cost, examined, util_b, span_b,
        interval_b, counters,
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def general_instance(rng, n, size_grid=12, start_grid=4, horizon=6):
    """Sorted grid starts, sizes and durations of 1/4 to 3: idle gaps possible."""
    rows = sorted(
        (F(rng.randint(0, horizon * start_grid), start_grid),
         F(rng.randint(1, size_grid), size_grid),
         F(rng.randint(1, 12), 4))
        for _ in range(n)
    )
    return Instance(tuple(Job(size, start, start + d) for start, size, d in rows))


def online_instances():
    for seed in range(40):
        # starts up to 4n apart on an integer grid: servers expire between arrivals
        n = 5 + seed
        yield random_equal_duration(n, seed=seed, start_grid=1, horizon=4 * n)
        yield random_equal_duration(n, seed=seed, size_grid=7, start_grid=3, horizon=n)
    for t in (F(1, 28), F(1, 3), F(1, 2), F(3, 4)):
        yield ggu_extended(6, t)[0]
    # huge time denominators as well as huge size denominators
    yield scale_time(ggu_extended(6, F(1, 2))[0], F(10**40 + 1, 3**50))
    for pairs in range(1, 9):
        yield nf_nemesis(pairs)
    rng = random.Random(17)
    for _ in range(40):
        yield general_instance(rng, rng.randint(1, 30))


def unit_instances():
    """Unit-duration instances with dense, sparse and huge-denominator starts."""
    for start_grid in (1, 3, 4, 7):
        for horizon in range(1, 10):
            for seed in range(6):
                n = 1 + (7 * seed + horizon) % 40
                instance = random_equal_duration(
                    n, seed=seed, size_grid=5 + seed, start_grid=start_grid,
                    horizon=horizon,
                )
                yield instance
                # the same arrivals on a stretched, shifted time axis with
                # 80-bit denominators; durations stay 1
                stretch, shift = F(10**20 + 1, 3**45), F(7, 2**70)
                yield Instance(tuple(
                    Job(jb.size, jb.start * stretch + shift, jb.start * stretch + shift + 1)
                    for jb in instance.jobs
                ))
    rng = random.Random(31)
    big = 3**40
    for _ in range(20):
        # sizes on a 64-bit grid, starts on the 1/5 grid
        rows = sorted((F(rng.randint(0, 30), 5), F(rng.randint(1, big), big))
                      for _ in range(rng.randint(0, 30)))
        yield Instance(tuple(Job(size, s, s + 1) for s, size in rows))


def stretch(t, bits=100):
    """t on a time axis scaled and shifted by denominators of more than
    ``bits`` bits; order-preserving, and non-negative times stay so."""
    return t * F(10**40 + 1, 2**bits + 1) + F(5, 3**(bits // 3) + 2)


def stretched(instance, bits=100):
    """The instance with every time stretched; sizes are untouched."""
    return Instance(tuple(
        Job(jb.size, stretch(jb.start, bits), stretch(jb.finish, bits))
        for jb in instance.jobs
    ))


def invalid_instances():
    """Instances breaking each validity rule, alone and together."""
    ok = (F(1, 2), F(1), F(2))
    bad_jobs = [
        (F(0), F(1), F(2)), (F(-1, 3), F(1), F(2)),  # size not positive
        (F(4, 3), F(1), F(2)), (F(1) + F(1, 2**90), F(1), F(2)),  # size above 1
        (F(1, 2), F(-1, 5), F(2)), (F(1, 2), F(-1, 2**101), F(1)),  # start negative
        (F(1, 2), F(1), F(1)), (F(1, 2), F(2), F(1, 2**100)),  # finish not after start
        (F(2), F(-1), F(-3)), (F(0), F(-1, 7), F(-1, 7)),  # several at once
    ]
    for jb in bad_jobs:
        yield Instance((Job(*jb),))
        yield Instance((Job(*ok), Job(*jb), Job(*ok)))
    # starts that go back, alone and with other broken rules
    yield make_instance([ok, (F(1, 2), F(1, 2), F(3)), ok])
    yield make_instance([(F(1, 2), F(1, 3**70), F(1)), (F(1, 2), F(1, 3**71), F(1))])
    yield make_instance([(F(3, 2), F(5), F(4)), (F(0), F(-1), F(-1)), (F(1), F(0), F(1))])


def arbitrary_instances():
    """Rows drawn from a few small, huge-denominator and out-of-range values."""
    rng = random.Random(41)
    values = (F(-1), F(0), F(1, 3), F(1), F(7, 5), F(3), F(1, 2**100), F(-2**90 - 1, 2**90))
    for _ in range(200):
        yield make_instance(
            [tuple(rng.choice(values) for _ in range(3)) for _ in range(rng.randint(1, 8))]
        )


def check_instance_measures(instance):
    rows = plain(instance)
    violations = validate(instance)
    assert plain(violations) == rentcheck.validate(rows)
    assert [str(v) for v in violations] == [str(v) for v in rentcheck.validate(rows)]
    assert utilization(instance) == rentcheck.utilization(rows)
    assert span(instance) == rentcheck.span(rows)
    try:
        expected = rentcheck.mu(rows)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            mu(instance)
    else:
        assert mu(instance) == expected
    return violations


def check_measures(schedule):
    model = plain(schedule)
    assert active_count_profile(schedule) == rentcheck.active_count_profile(model)
    assert active_count_integral(schedule) == rentcheck.active_count_integral(model)
    assert plain(check_schedule(schedule)) == rentcheck.check_schedule(model)


def check_trace(trace, keep_earlier):
    """The kernel's trace equals the linear scan's, either way round, and
    its Decision records equal the scan's own."""
    reference, expected = reference_scan(trace.schedule.instance, keep_earlier)
    assert trace == reference and reference == trace
    assert hash(trace) == hash(reference) and repr(trace) == repr(reference)
    assert trace.counters == reference.counters
    # the opened flags, derived from the server ids on read, are checked
    # against the scan's
    assert type(trace.decisions) is tuple and trace.decisions == expected


def check_policies(instance):
    for policy, keep_earlier in ((first_fit, True), (next_fit, False)):
        trace = policy(instance)
        check_trace(trace, keep_earlier)
        check_measures(trace.schedule)
        jobs = instance.jobs
        for srv in trace.schedule.servers:
            # the rental window reuses the jobs' own Fractions
            assert srv.open_time is jobs[srv.job_indices[0]].start
            assert any(srv.close_time is jobs[i].finish for i in srv.job_indices)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def test_placement_matches_fraction_reference():
    expired = 0
    for instance in online_instances():
        check_policies(instance)
        expired += next_fit(instance).counters["index_rebuilds"] > 0
    # NextFit meets expired servers on some of these instances
    assert expired > 0
    check_policies(Instance(()))


def placed(policy, keep_earlier, rows):
    """The policy's trace on ``rows``, checked against the reference."""
    instance = make_instance(rows)
    trace = policy(instance)
    reference = reference_place(instance, keep_earlier)
    assert trace == reference and trace.counters == reference.counters
    return trace


def test_server_ending_at_an_arrival_stays_a_candidate():
    # at 1 the candidates are rebuilt, as server 1's first job ended at 1/2;
    # server 1's last job ends exactly at 1, so it stays a candidate, and
    # the job arriving then fits there, after full server 0: rank 2
    rows = [(F(3, 4), 0, 3), (F(1, 2), 0, F(1, 2)), (F(1, 2), 0, 1), (F(1, 2), 1, 2)]
    trace = placed(first_fit, True, rows)
    assert trace.decisions[3] == Decision(3, 1, False, 2)
    # NextFit reuses its open server 1 the same way
    trace = placed(next_fit, False, rows)
    assert trace.decisions[3] == Decision(3, 1, False, 1)


def test_server_ended_before_an_arrival_is_dropped():
    # at 2 server 1 has ended, so only full server 0 is a candidate
    rows = [(F(3, 4), 0, 3), (F(3, 4), 0, 1), (F(1, 2), 2, 3)]
    trace = placed(first_fit, True, rows)
    assert trace.decisions[2] == Decision(2, 2, True, 1)
    # NextFit's open server expired before the arrival: a new server opens,
    # and the expired one still counts as scanned
    trace = placed(next_fit, False, [(F(3, 4), 0, 1), (F(1, 4), 2, 3), (F(1, 4), 2, 3)])
    assert trace.decisions[1:] == (Decision(1, 1, True, 1), Decision(2, 1, False, 1))


@pytest.mark.parametrize("m", [33, 65, 130])
def test_index_grows_past_powers_of_two(m):
    # m jobs above 1/2 open m servers at once, with free room 2/5, 3/10,
    # 1/5 and 1/10 in turn, so FirstFit's tree doubles past 32, 64 or 128
    # leaves that differ; jobs of 3/10 then fill the servers with room for
    # one in opening order, and at 1 two thirds of the first jobs leave
    rows = (
        [(F(1, 2) + F(k % 4 + 1, 10), 0, 1 + (k % 3 == 0)) for k in range(m)]
        + [(F(3, 10), 0, 2)] * m
        + [(F(1, 2), 1, 2)] * m
    )
    trace = placed(first_fit, True, rows)
    assert [d.server_id for d in trace.decisions[:m]] == list(range(m))
    roomy = [k for k in range(m) if k % 4 < 2]
    for j, k in enumerate(roomy):
        assert trace.decisions[m + j] == Decision(m + j, k, False, k + 1)
    # every query after the first m walks at least the depth of m leaves
    assert trace.counters["tree_steps"] >= 2 * m * (m - 1).bit_length()
    assert trace.counters["servers_opened"] == len(trace.schedule.servers)
    placed(next_fit, False, rows)


def test_placement_matches_reference_with_many_live_candidates():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # large sizes and long durations keep 64 or more servers live at once
    rows = st.lists(
        st.tuples(
            st.integers(4, 12),  # size /12
            st.integers(0, 20),  # start /4
            st.integers(1, 60),  # duration /4
        ),
        min_size=100,
        max_size=300,
    )
    peak = 0

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(rows)
    def check(drawn):
        nonlocal peak
        jobs = sorted((F(s, 4), F(p, 12), F(d, 4)) for p, s, d in drawn)
        instance = make_instance([(size, s, s + d) for s, size, d in jobs])
        for policy, keep_earlier in ((first_fit, True), (next_fit, False)):
            # trace equality covers every decision as well as the schedule
            check_trace(policy(instance), keep_earlier)
        profile = active_count_profile(first_fit(instance).schedule)
        peak = max(peak, max(count for _, count in profile))

    check()
    assert peak >= 64


@pytest.mark.parametrize("m", [1, 40])
def test_jobs_sharing_a_finish_return_capacity_to_each_server(m):
    # m jobs of 3/5 open m servers and end together at 2; jobs of 2/5 fill
    # the servers until 5; at 2 all m returns come before the first fit
    # test, so the m new jobs of 3/5 fill the servers in opening order
    rows = [(F(3, 5), 0, 2)] * m + [(F(2, 5), 0, 5)] * m + [(F(3, 5), 2, 4)] * m
    trace = placed(first_fit, True, rows)
    for k in range(m):
        assert trace.decisions[2 * m + k] == Decision(2 * m + k, k, False, k + 1)
    assert trace.counters["servers_opened"] == m
    placed(next_fit, False, rows)


def test_capacity_returns_at_an_arrival_equal_to_the_finish():
    # job 0 ends exactly at 1, so its 3/4 is back for the job arriving then
    rows = [(F(3, 4), 0, 1), (F(1, 4), 0, 3), (F(3, 4), 1, 2)]
    for policy, keep_earlier in ((first_fit, True), (next_fit, False)):
        trace = placed(policy, keep_earlier, rows)
        assert trace.decisions[2] == Decision(2, 0, False, 1)


def test_rebuild_in_the_arrival_that_returns_capacity():
    # at 2 the jobs ending at 1 leave servers 0 and 1 together, and server
    # 0, whose last job was among them, is then dropped from the candidates
    rows = [(F(1, 2), 0, 1), (F(1, 2), 0, 1), (F(3, 4), 0, 1), (F(1, 4), 0, 3),
            (F(3, 4), 2, 3)]
    trace = placed(first_fit, True, rows)
    assert trace.decisions[4] == Decision(4, 1, False, 1)
    assert trace.counters["index_rebuilds"] == 1
    # NextFit left server 0 when job 2 opened server 1
    trace = placed(next_fit, False, rows)
    assert trace.decisions[4] == Decision(4, 1, False, 1)


def test_placement_matches_reference_on_distinct_finishes():
    # general durations, with every finish its own: each bucket holds one job
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 40)
        starts = sorted(rng.randint(0, 2 * n) for _ in range(n))
        instance = make_instance(
            (F(rng.randint(1, 12), 12), s, s + rng.randint(1, 8) + F(i + 1, n + 1))
            for i, s in enumerate(starts)
        )
        assert len(set(instance.lattice.finishes)) == n
        check_policies(instance)


def test_placement_matches_reference_on_shared_finishes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # few starts and durations, so many jobs leave at each finish, often
    # at an arrival, and servers terminate between arrivals
    rows = st.lists(
        st.tuples(
            st.integers(1, 6),  # size /6
            st.integers(0, 12),  # start /2
            st.integers(1, 3),  # duration
        ),
        max_size=60,
    )
    shared = rebuilt = 0

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(rows)
    def check(drawn):
        nonlocal shared, rebuilt
        jobs = sorted((F(s, 2), F(p, 6), d) for p, s, d in drawn)
        instance = make_instance([(size, s, s + d) for s, size, d in jobs])
        for policy, keep_earlier in ((first_fit, True), (next_fit, False)):
            check_trace(policy(instance), keep_earlier)
        finishes = instance.lattice.finishes
        shared += len(set(finishes)) < len(finishes)
        rebuilt += first_fit(instance).counters["index_rebuilds"] > 0

    check()
    assert shared > 0 and rebuilt > 0


def test_sweeps_match_reference_on_random_partitions():
    # arbitrary groupings overfill servers and hold them through idle gaps
    rng = random.Random(29)
    gapped = 0
    for _ in range(300):
        instance = general_instance(rng, rng.randint(1, 14))
        n = len(instance.jobs)
        labels = [rng.randrange(max(1, n // 3)) for _ in range(n)]
        groups = [[i for i in range(n) if labels[i] == g] for g in sorted(set(labels))]
        rng.shuffle(groups)
        for group in groups:
            rng.shuffle(group)
        schedule = make_schedule(instance, groups)
        check_measures(schedule)
        gapped += rentcheck.active_count_integral(plain(schedule)) < sum(
            (srv.close_time - srv.open_time for srv in schedule.servers), F(0)
        )
    assert gapped > 0


SEVEN_JOBS = Instance(tuple(Job(*row) for row in [
    (F(1, 2), 0, 2), (F(2, 3), 0, 1), (F(1, 3), 1, 3), (F(3, 4), 1, 2),
    (F(1, 2), 2, 4), (F(1, 2), 2, 3), (F(1, 4), 5, 6),
]))


def spanning(instance, sid, *idx):
    """Server ``sid`` holding ``idx``, rented from its in-range members'
    min start to their max finish."""
    members = [instance.jobs[i] for i in idx if 0 <= i < len(instance.jobs)]
    return Server(sid, idx, min(jb.start for jb in members),
                  max(jb.finish for jb in members))


def with_stretched_copy(instance, servers):
    """The schedule, and its copy on a stretched time axis in which each
    window object is stretched once, so shared windows stay shared."""
    windows = {}
    for srv in servers:
        for w in (srv.open_time, srv.close_time):
            windows.setdefault(id(w), stretch(F(w)))
    yield Schedule(instance, servers)
    yield Schedule(stretched(instance), tuple(
        Server(srv.id, srv.job_indices,
               windows[id(srv.open_time)], windows[id(srv.close_time)])
        for srv in servers
    ))


def broken_schedules():
    """Schedules that overfill servers, duplicate, drop or invent job
    indices and misstate windows, each also on a stretched time axis."""
    instance = SEVEN_JOBS

    def server(sid, *idx):
        return spanning(instance, sid, *idx)

    # jobs that never run (finish <= start), and a negative size that lets a
    # server overfill although its members' total fits
    never = make_instance([(F(3, 4), 0, 2), (F(3, 4), 1, 1), (F(1, 2), 1, 3), (F(1, 2), 3, 2)])
    negative = make_instance([(F(1), 0, 3), (F(-1, 2), 0, 1), (F(1, 2), 1, 3)])
    cases = [
        # overfull at 0, 1 and 2 on one server, idle from 4 to 5
        (instance, (server(0, 6, 0, 1, 2, 3, 4, 5),)),
        # duplicates, out-of-range indices, an empty server, a missing job
        (instance, (server(0, 0, 1, 1), Server(1, (), F(0), F(1)),
                    server(2, 9, 3, -8, 2), server(3, 4, 5))),
        # a wrong window and a job on two servers
        (instance, (Server(0, (0, 2, 3), F(0), F(5)), server(1, 1, 4, 5, 6, 3))),
        # every job once: a window fault and a capacity fault on one server
        (instance, (Server(0, (0, 1), F(0), F(3)), server(1, 2, 3), server(2, 4, 5, 6))),
        # membership faults, each before the window and capacity faults of
        # its server, and a server overfull by a repeated job
        (instance, (server(0, 1, 0), Server(1, (2, 9, 3), F(1), F(2)),
                    Server(2, (), F(0), F(1)), server(3, 4, 5, 4))),
        (never, (spanning(never, 0, 0, 2), spanning(never, 1, 1, 3))),
        (never, (spanning(never, 0, 0, 1, 2, 3),)),
        (negative, (spanning(negative, 0, 0, 1, 2),)),
    ]
    for owner, servers in cases:
        yield from with_stretched_copy(owner, servers)


def check_against_reference(schedule):
    """check_schedule's violations equal the reference's, in order, and
    print as the reference's: time and load come back as Fractions."""
    violations = check_schedule(schedule)
    expected = rentcheck.check_schedule(plain(schedule))
    assert plain(violations) == expected
    assert [str(v) for v in violations] == [str(v) for v in expected]
    return violations


def test_check_schedule_matches_reference_on_broken_schedules():
    for schedule in broken_schedules():
        violations = check_against_reference(schedule)
        assert any(v.rule == "capacity exceeded" for v in violations)


def covering_schedules():
    """Schedules of SEVEN_JOBS that hold every job once on non-empty
    servers, with the number of window faults each has; none is overfull."""
    instance = SEVEN_JOBS

    def servers(*groups):
        return tuple(spanning(instance, sid, *g) for sid, g in enumerate(groups))

    two = F(2)
    yield 0, servers((0, 5), (1, 2), (3, 6), (4,))  # totals of exactly 1
    yield 0, servers((1, 4, 6), (0, 2), (3,), (5,))  # over 1 in total, never at once
    yield 3, (Server(0, (0, 2), F(0), F(4)), Server(1, (1,), F(1, 2), F(1)),
              spanning(instance, 2, 3, 5), Server(3, (4, 6), F(2), F(5)))
    # equal windows as distinct objects; one object as one server's close
    # and another's open, right for both and then wrong for the second
    yield 0, (Server(0, (0,), F(0), two), Server(1, (4, 5), two, F(4)),
              Server(2, (1,), F(0), F(1)), Server(3, (2,), F(1), F(3)),
              Server(4, (3, 6), F(1), F(6)))
    four = F(4)
    yield 1, (Server(0, (0, 4), F(0), four), Server(1, (2, 5), four, F(3)),
              Server(2, (1, 3), F(0), F(2)), Server(3, (6,), F(5), F(6)))
    yield 2, (Server(0, (0, 4), F(0), F(4)), Server(1, (2, 5), F(1), two),
              Server(2, (1, 3), F(0), two), Server(3, (6,), two, F(6)))
    # int and float windows, on and off the lattice
    yield 0, (Server(0, (0, 5), 0, 3), Server(1, (1, 2), 0.0, 3.0),
              Server(2, (3, 6), 1, 6.0), Server(3, (4,), 2.0, 4))
    yield 2, (Server(0, (0, 5), 0.1, 3), Server(1, (1, 2), 0, 3),
              Server(2, (3, 6), 1, 6), Server(3, (4,), 2, 4.5))


def test_check_schedule_matches_reference_on_covering_schedules():
    for faults, servers in covering_schedules():
        for schedule in with_stretched_copy(SEVEN_JOBS, servers):
            violations = check_against_reference(schedule)
            assert {v.rule for v in violations} <= {
                "rental window must span min start to max finish"
            }
        assert len(check_schedule(Schedule(SEVEN_JOBS, servers))) == faults


def test_check_schedule_sweeps_only_servers_that_can_overfill(monkeypatch):
    # a server whose members' total size fits in one server is not swept;
    # one over 1 in total is, even when it never overfills
    pushed = []

    def counting(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(model, "heapq", SimpleNamespace(heappush=counting, heappop=heapq.heappop))
    (_, exact), (_, apart), *_ = covering_schedules()
    assert check_schedule(Schedule(SEVEN_JOBS, exact)) == []
    assert pushed == []
    assert check_schedule(Schedule(SEVEN_JOBS, apart)) == []
    assert len(pushed) == 3
    # a negative size voids the total's bound, so every server is swept
    negative = make_instance([(F(1, 2), 0, 1), (F(-1, 2), 0, 1)])
    assert check_schedule(make_schedule(negative, [[0], [1]])) == []
    assert len(pushed) == 5


def test_check_schedule_matches_reference_on_invalid_instances():
    # one server holding every job, and a random split: the total-size
    # bound must not skip a sweep where a size is zero or negative
    rng = random.Random(59)
    for instance in (*invalid_instances(), *arbitrary_instances()):
        n = len(instance.jobs)
        labels = [rng.randrange(3) for _ in range(n)]
        for groups in ([list(range(n))], [
            [i for i in range(n) if labels[i] == g] for g in sorted(set(labels))
        ]):
            check_against_reference(make_schedule(instance, groups))


def test_check_schedule_matches_reference_on_generated_schedules():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    value = st.sampled_from(
        [F(-1, 2), F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(7, 3)]
    )
    edit = st.tuples(
        st.sampled_from(["add", "drop", "open", "close", "empty"]),
        st.integers(0, 20), st.integers(-2, 12), value,
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(st.tuples(value, value, value), min_size=1, max_size=10),
        st.randoms(use_true_random=False), st.lists(edit, max_size=3),
    )
    def check(rows, rng, edits):
        instance = make_instance(rows)
        n = len(rows)
        labels = [rng.randrange(4) for _ in range(n)]
        groups = [[i for i in range(n) if labels[i] == g] for g in sorted(set(labels))]
        for group in groups:
            rng.shuffle(group)
        servers = [list(spanning(instance, sid, *g)) for sid, g in enumerate(groups)]
        check_against_reference(Schedule(instance, tuple(map(Server._make, servers))))
        # perturbed: an index added (maybe out of range or repeated) or
        # dropped, a window changed, an empty server put in
        for kind, k, index, time in edits:
            srv = servers[k % len(servers)]
            if kind == "add":
                srv[1] = (*srv[1], index)
            elif kind == "drop" and len(srv[1]) > 1:
                srv[1] = srv[1][1:]
            elif kind in ("open", "close"):
                srv[2 if kind == "open" else 3] = time
            elif kind == "empty":
                servers.insert(k % len(servers), [len(servers), (), time, time])
        check_against_reference(Schedule(instance, tuple(map(Server._make, servers))))

    check()


def with_members_shuffled(schedule, rng):
    """The schedule with each server's job indices in a random order."""
    servers = []
    for srv in schedule.servers:
        indices = list(srv.job_indices)
        rng.shuffle(indices)
        servers.append(Server(srv.id, tuple(indices), srv.open_time, srv.close_time))
    return Schedule(schedule.instance, tuple(servers))


def test_check_schedule_ignores_the_order_of_members():
    # the policies list members in start order; check_schedule sorts them
    # whatever their order, so a shuffle finds the same violations
    rng = random.Random(53)
    for instance in online_instances():
        for policy in (first_fit, next_fit):
            schedule = policy(instance).schedule
            for _ in range(3):
                assert check_schedule(with_members_shuffled(schedule, rng)) == []
    for schedule in broken_schedules():
        violations = check_schedule(schedule)
        for _ in range(10):
            shuffled = with_members_shuffled(schedule, rng)
            found = check_schedule(shuffled)
            # a bad index is reported where the shuffle put it; the rest in
            # server and time order
            assert Counter(found) == Counter(violations)
            assert plain(found) == rentcheck.check_schedule(plain(shuffled))


def test_check_schedule_matches_reference_on_window_types_and_order():
    # time unit 2 on the lattice; all three jobs overlap on [1, 2)
    instance = make_instance([(F(1, 2), 0, 2), (F(1, 2), F(1, 2), 3), (F(1, 4), 1, F(5, 2))])
    cases = [
        # members out of start order, with the right window and with a wrong one
        (Server(0, (2, 0, 1), F(0), F(3)),),
        (Server(0, (1, 0), F(1, 2), F(3)), Server(1, (2,), F(1), F(5, 2))),
        # int and float windows
        (Server(0, (0, 1, 2), 0, 3),),
        (Server(0, (0, 2), 0.0, 2.5), Server(1, (1,), 0.5, 3)),
        (Server(0, (0, 2), 0.1, 2.5), Server(1, (1,), 0.5, 3)),
        # windows off the lattice: denominators 3 and 7 do not divide the unit
        (Server(0, (0, 1, 2), F(1, 3), F(3)),),
        (Server(0, (0, 2), F(0), F(18, 7)), Server(1, (1,), F(1, 2), F(3))),
    ]
    for servers in cases:
        for schedule in (
            Schedule(instance, servers),
            Schedule(stretched(instance), tuple(
                Server(srv.id, srv.job_indices,
                       stretch(F(srv.open_time)), stretch(F(srv.close_time)))
                for srv in servers
            )),
        ):
            assert plain(check_schedule(schedule)) == rentcheck.check_schedule(plain(schedule))
    windows = [check_schedule(Schedule(instance, servers)) for servers in cases]
    assert [len(found) for found in windows] == [1, 1, 1, 0, 1, 2, 1]


def copies(instance):
    """The instance with every position its own Job object."""
    return Instance(tuple(Job(jb.size, jb.start, jb.finish) for jb in instance.jobs))


def lattice_of_copies(instance):
    """The lattice of the instance with every position its own Job object."""
    return copies(instance).lattice


def test_lattice_of_shared_jobs_matches_distinct_copies():
    shared = [
        long_uniform(4, 6),
        parse_instance(MESSY_TEXT),
        random_equal_duration(300, seed=5, horizon=20),
        random_two_arrival(50, F(1, 3), seed=8),
        nf_nemesis(5),
        ggu_extended(6, F(1, 2))[0],
        make_instance([(F(1, 2), 0, 1)] * 3),  # equal rows, distinct objects
    ]
    for instance in shared:
        assert instance.lattice == lattice_of_copies(instance)
    # nf_nemesis repeats one Job per distinct row, one row at N = 1
    for n_pairs in (1, 5):
        assert_shared_rows(nf_nemesis(n_pairs))
    # a Job at positions far apart, and rows that no validity rule allows
    job, bad = Job(F(1, 6), F(1, 4), F(9, 4)), Job(F(-3, 5), F(7, 2), F(1, 3))
    instance = Instance((job, bad, Job(F(1, 6), F(1, 4), F(9, 4)), bad, job))
    assert instance.lattice == lattice_of_copies(instance)
    assert instance.lattice.sizes == (5, -18, 5, -18, 5)
    assert len({id(jb) for jb in long_uniform(4, 6).jobs}) == 7


def reference_lattice(jobs):
    """The lattice from every position's Fractions, with no dedupe: sizes
    over the lcm of all size denominators, times over that of all times'."""

    def scaled(value, scale):
        tick = value * scale
        assert tick.denominator == 1
        return tick.numerator

    capacity = math.lcm(*(jb.size.denominator for jb in jobs))
    unit = math.lcm(*(x.denominator for jb in jobs for x in (jb.start, jb.finish)))
    return Lattice(
        capacity,
        tuple(scaled(jb.size, capacity) for jb in jobs),
        unit,
        tuple(scaled(jb.start, unit) for jb in jobs),
        tuple(scaled(jb.finish, unit) for jb in jobs),
    )


def test_lattice_matches_reference_on_both_builder_branches():
    ggu = ggu_extended(36, F(1, 2))[0]
    job, bad = Job(F(1, 6), F(1, 4), F(9, 4)), Job(F(-3, 5), F(7, 2), F(1, 3))
    cases = [
        Instance(()),
        make_instance([(F(2, 7), F(1, 3), F(5, 2))]),
        make_instance([(F(1, 2), 0, 1), (F(1, 3), F(1, 5), 2), (F(3, 4), F(7, 6), 3)]),
        make_instance([(F(1, 2), 0, 1)] * 3),  # equal rows, distinct objects
        long_uniform(4, 6),  # shared rows
        random_two_arrival(50, F(1, 3), seed=8),
        random_equal_duration(300, seed=5, horizon=20),
        # denominators up to 1000 * 18**36: ggu shares one Job per distinct
        # row, so its copy keeps the huge denominators on the own-rows branch
        ggu,
        copies(ggu),
        Instance(ggu.jobs + ggu.jobs[::97]),
        Instance((job, bad, Job(F(1, 6), F(1, 4), F(9, 4)))),  # a negative size
        Instance((job, bad, job, bad)),
    ]
    # each position its own Job: the rows are the lattice; else expanded
    own_rows = Counter(len({id(jb) for jb in c.jobs}) == len(c.jobs) for c in cases)
    assert own_rows == {True: 6, False: 6}
    for instance in cases:
        # columns compare equal only as tuples
        assert instance.lattice == reference_lattice(instance.jobs)
    assert cases[-1].lattice.sizes == (5, -18, 5, -18)


@pytest.mark.parametrize("k", [6, 12, 36])
def test_ggu_matches_per_job_fraction_reference(k):
    deltas = [None, F(7, 1000 * 18**k), F(3, 10**5 * 18**k + 1)]  # numerators 1, 7, 3
    for t, delta in product((F(1, 28), F(1, 2), F(99, 100)), deltas):
        instance, certificate = ggu_extended(k, t, delta)
        expected, expected_certificate = reference_ggu_extended(k, t, delta)
        assert instance == expected
        assert certificate == expected_certificate
        # one Job per distinct size of each wave-1 and wave-2 group, one for
        # wave 3, one per filler kind: equal rows share one Job
        assert len({id(jb) for jb in instance.jobs}) == 12 * k + 4
        assert_shared_rows(instance)
    # equal sizes within a group share one Job, where the reference's are distinct
    jobs = ggu_extended(6, F(1, 2))[0].jobs
    assert jobs[6] == jobs[7] and jobs[6] is jobs[7]


def test_lattice_of_shared_jobs_matches_copies_on_generated_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rational = st.builds(F, st.integers(-(2**20), 2**20), st.integers(1, 2**40))
    rows = st.lists(st.builds(Job, rational, rational, rational), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(rows, st.lists(st.integers(0, 7), max_size=30))
    def check(jobs, picks):
        instance = Instance(tuple(jobs[k % len(jobs)] for k in picks))
        assert instance.lattice == lattice_of_copies(instance)

    check()


def test_instance_checks_and_measures_match_reference():
    empty = Instance(())
    assert check_instance_measures(empty) == []
    with pytest.raises(ValueError, match="undefined on empty instance"):
        mu(empty)
    for instance in online_instances():
        for copy in (instance, stretched(instance), stretched(instance, bits=140)):
            assert check_instance_measures(copy) == []
    rules = set()
    for instance in invalid_instances():
        violations = check_instance_measures(instance)
        assert violations
        rules |= {v.rule for v in violations}
    assert len(rules) == 5
    for instance in arbitrary_instances():
        check_instance_measures(instance)


def test_span_is_the_active_time_of_one_server():
    # span and active_count_integral read one segment merge: one server
    # holding every job is active exactly on the span, never-active jobs
    # adding nothing to either
    for instance in (Instance(()), *invalid_instances(), *arbitrary_instances()):
        n = len(instance.jobs)
        schedule = make_schedule(instance, [list(range(n))] if n else [])
        assert span(instance) == active_count_integral(schedule)


def test_fast_paths_match_reference_on_generated_instances():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rows = st.lists(
        st.tuples(
            st.integers(1, 16), st.integers(1, 16),  # size p/q, kept <= 1
            st.integers(0, 40), st.integers(1, 7),  # start s/d
            st.integers(1, 30), st.integers(1, 5),  # duration p/q
        ),
        max_size=25,
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(rows)
    def check(drawn):
        jobs = sorted(
            (F(s, d), F(min(p, q), q), F(a, b))
            for p, q, s, d, a, b in drawn
        )
        check_policies(Instance(tuple(Job(size, s, s + dur) for s, size, dur in jobs)))

    check()


def test_arrival_ceilings_match_point_queries():
    for instance in unit_instances():
        expected = rentcheck.arrival_ceiling_profile(plain(instance))
        assert arrival_ceiling_profile(instance) == expected


def assert_shared_rows(instance):
    """Equal rows share one Job, equal sizes one Fraction, equal starts one
    start and one finish."""
    jobs = instance.jobs
    assert len({id(jb) for jb in jobs}) == len(set(jobs))
    for field in ("size", "start", "finish"):
        values = [getattr(jb, field) for jb in jobs]
        assert len({id(v) for v in values}) == len(set(values))


# Wide inputs of the random families: job counts that read past the first
# blocks, size grids read from 1-, 2- and 4-byte units, and seeds far below
# 0 and past 2**64
WIDE_COUNTS = (0, 1, 7, 40, 300, 2000)
WIDE_SIZE_GRIDS = (1, 12, 256, 257, 999_983, 2**32 - 1)
WIDE_SEEDS = (-(2**70) - 3, -1, 2**64 + 1, 2**80 + 7)


def test_two_arrival_draws_match_reference():
    for seed in range(60):
        for t in _WEIGHT_T_VALUES:
            for size_grid in (1, 7, 12):
                n = seed % 11
                instance = random_two_arrival(n, t, seed, size_grid)
                assert instance == reference_two_arrival(n, t, seed, size_grid)
                assert_shared_rows(instance)
    for i, (n, size_grid) in enumerate(product(WIDE_COUNTS, WIDE_SIZE_GRIDS)):
        seed, t = WIDE_SEEDS[i % 4], _WEIGHT_T_VALUES[i % 3]
        instance = random_two_arrival(n, t, seed, size_grid)
        assert instance == reference_two_arrival(n, t, seed, size_grid), (n, seed, size_grid)
        assert_shared_rows(instance)


def test_equal_duration_draws_match_reference():
    for seed in range(60):
        for n in (0, 1, 7, 40):
            for grids in ((8, 4, 3), (5, 3, 7)):
                instance = random_equal_duration(n, seed, *grids)
                assert instance == reference_equal_duration(n, seed, *grids)
                assert_shared_rows(instance)
    # start ranges of one value (horizon 0), of 8 bits, and of 2**31 + 1
    # values, just past 2**31: each count and each size grid meets all three
    starts = ((5, 0), (4, 50), (2**16, 2**15))
    for k, n in enumerate(WIDE_COUNTS):
        for g, size_grid in enumerate(WIDE_SIZE_GRIDS):
            seed, grids = WIDE_SEEDS[(k + g) % 4], (size_grid, *starts[(k + g) % 3])
            instance = random_equal_duration(n, seed, *grids)
            assert instance == reference_equal_duration(n, seed, *grids), (n, seed, grids)
            assert_shared_rows(instance)


def test_uniform_sampler_matches_fraction_reference():
    # the first 100 trials of the default weights suite, 25 per value of t
    for trial in range(100):
        t = _WEIGHT_T_VALUES[trial % len(_WEIGHT_T_VALUES)]
        seed = 104729 * 1_000_003 + trial * 10_007
        instance, trace, accepted = find_uniform_two_arrival(t, seed)
        assert (instance, accepted) == reference_find_uniform(t, seed)
        assert trace == reference_place(instance, keep_earlier=True)


def test_uniform_sampler_refuses_t_before_drawing():
    with pytest.raises(
        ValueError, match="second arrival t must lie strictly between 0 and 1"
    ):
        find_uniform_two_arrival(F(3, 2), 1)


def read_blocks(monkeypatch):
    """The ``(seed, salt)`` of every block the trial reader hashes, in order."""
    read, units = [], generators._units

    def counting(seed, salt, width):
        read.append((int.from_bytes(seed, "little", signed=True), salt))
        return units(seed, salt, width)

    monkeypatch.setattr(generators, "_units", counting)
    return read


@contextmanager
def short_blocks(block):
    """Cut each block the trial reader hashes to its first ``block`` units."""
    with pytest.MonkeyPatch.context() as patch:
        units = generators._units
        patch.setattr(generators, "_units", lambda *args: units(*args)[:block])
        yield


def replayed(seed, low=4, high=8, size_grid=12, key_values=2):
    """A trial's draws from the trial reader; by default the weights
    sampler's, 4 to 8 jobs of twelfths, each start a coin."""
    return _grid_trial(seed, _trial_layout(low, high, size_grid, key_values))


def test_uniform_draws_replay_two_seedings():
    # the sampler's trials: the count from lane 0 and the draws from lane 1,
    # each lane read apart by the reference
    seeds = [
        *range(-5_000, 5_000),
        *range(2**32 - 2_500, 2**32 + 2_500),
        *range(2**64 - 5_000, 2**64 + 5_000),
    ]
    for seed in seeds:
        assert replayed(seed) == reference_trial_draws(seed, 4, 8, 12, 2), seed


def test_uniform_draws_read_on_past_any_block():
    # with blocks cut short, counts and draws run past a block's end at every place
    for block in (1, 2, 3, 7, 40, 41):
        with short_blocks(block):
            for seed in range(-200, 200):
                expected = reference_trial_draws(seed, 4, 8, 12, 2, block)
                assert replayed(seed) == expected, (block, seed)


def test_strict_ff_2_ranges_replay_two_seedings():
    # the job count ranges (2, max_jobs) of strict-ff-2 on its default
    # seed's trial seeds; max_jobs 2 is a one-value range, 258 reads lane 0
    # in 2-byte units and 5000 jobs read lane 1 on through many blocks
    for high in (2, 3, 8, 257, 258, 5000):
        for trial in range(300 if high < 5000 else 60):
            seed = 7 * 1_000_003 + trial
            expected = reference_trial_draws(seed, 2, high, 12, 2)
            assert replayed(seed, 2, high) == expected, (high, seed)


def test_equal_duration_trials_replay_two_seedings():
    # nextfit-2t's trials: counts up to 256 read lane 0 in 1-byte units, past
    # that in 2-byte units; 5000 jobs read lane 1 on through many blocks
    for high in (1, 2, 40, 255, 256, 257, 5000):
        for trial in range(300 if high < 5000 else 40):
            seed = 20240601 * 1_000_003 + trial
            expected = reference_trial_draws(seed, 1, high, 8, 13)
            assert replayed(seed, 1, high, 8, 13) == expected, (high, seed)
    jobs = generators._equal_duration_jobs(8, 4)
    for seed in range(100):
        instance = generators._grid_jobs(replayed(seed, 1, 40, 8, 13), jobs)
        assert instance == random_equal_duration(reference_count(seed, 1, 40), seed)


def test_equal_duration_trials_read_on_past_any_block():
    for block in (1, 2, 3, 7, 40, 41):
        with short_blocks(block):
            for high in (1, 40, 257):
                for seed in range(-100, 100):
                    expected = reference_trial_draws(seed, 1, high, 8, 13, block)
                    assert replayed(seed, 1, high, 8, 13) == expected, (block, high, seed)


# start key ranges read in 1-, 2- and 4-byte units
WIDE_KEYS = (2, 13, 2**16 + 1, 2**31 + 1)


def test_trial_reader_matches_reference_on_wide_inputs():
    # each count, size grid and seed, with a one-value count range or one
    # of about n/2 values, and start keys of each unit width
    for i, (n, size_grid, seed) in enumerate(product(WIDE_COUNTS, WIDE_SIZE_GRIDS, WIDE_SEEDS)):
        low, key_values = (n, n // 2)[i % 2], WIDE_KEYS[i % 4]
        expected = reference_trial_draws(seed, low, n, size_grid, key_values)
        assert replayed(seed, low, n, size_grid, key_values) == expected, i


def test_trials_past_the_first_blocks_match_plain_draws(monkeypatch):
    # nextfit-2t's grids with counts up to 5000, and 2- and 4-byte units,
    # read on through several blocks of lane 1
    read = read_blocks(monkeypatch)
    for grids in ((40, 8, 13), (5000, 8, 13), (600, 999_983, 3), (600, 300, 2)):
        for trial in range(40):
            seed = 20240601 * 1_000_003 + trial
            expected = reference_trial_draws(seed, 1, *grids)
            assert replayed(seed, 1, *grids) == expected, (grids, seed)
    assert max(salt for _, salt in read) > 2 * 100  # lane 1 read past block 100
    # a count range of 2**16 + 1 values reads lane 0 in 4-byte units
    for seed in WIDE_SEEDS:
        assert len(replayed(seed, 0, 2**16, 1, 1)) == reference_count(seed, 0, 2**16), seed


def test_uniform_draws_replay_on_generated_seeds():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(-(2**80), 2**80), st.integers(1, 64))
    def check(seed, block):
        with short_blocks(block):
            assert replayed(seed) == reference_trial_draws(seed, 4, 8, 12, 2, block)

    check()


def test_equal_duration_trials_replay_on_generated_seeds():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(-(2**80), 2**80), st.integers(1, 600), st.integers(1, 64))
    def check(seed, high, block):
        with short_blocks(block):
            expected = reference_trial_draws(seed, 1, high, 8, 13, block)
            assert replayed(seed, 1, high, 8, 13) == expected

    check()


def test_trial_reader_matches_reference_on_generated_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.integers(-(2**80), 2**80), st.integers(0, 300), st.integers(0, 300),
        *[st.one_of(st.integers(1, 300), st.integers(1, 2**32 - 1))] * 2,
    )
    def check(seed, low, span, size_grid, key_values):
        expected = reference_trial_draws(seed, low, low + span, size_grid, key_values)
        assert replayed(seed, low, low + span, size_grid, key_values) == expected

    check()


def test_trial_refuses_ranges_it_cannot_decode(monkeypatch):
    # a range of 2**32 values or more would take several 4-byte units a value
    def no_reading(seed, salt, width):
        raise AssertionError("read before refusing the range")

    monkeypatch.setattr(generators, "_units", no_reading)
    refused = [
        ((2, 1, 12, 2), r"job counts \[2, 1\]"),
        ((2, 2**32 + 2, 12, 2), r"job counts \[2, 4294967298\]"),
        ((1, 2**32, 12, 2), r"job counts \[1, 4294967296\]"),
        ((4, 8, 0, 2), r"grid sizes \[1, 0\]"),
        ((1, 3, 8, 2**32 + 1), r"grid starts \[0, 4294967296\]"),
        ((1, 3, 8, 2**32), r"grid starts \[0, 4294967295\]"),
    ]
    for args, name in refused:
        with pytest.raises(ValueError, match=name + r" must range over 1 to 2\*\*32 - 1 values"):
            _trial_layout(*args)
    monkeypatch.undo()
    # the widest size grid and key range it takes, 2**32 - 1 values each,
    # read as the reference reads them
    for seed in range(100):
        wide = (seed, 1, 3, 2**32 - 1, 2**32 - 1)
        assert _grid_trial(seed, _trial_layout(*wide[1:])) == reference_trial_draws(*wide), seed


# Each suite's trial layout and default seed: (job counts, size grid, start keys)
SUITE_LAYOUTS = {
    "nextfit-2t": ((1, 40, 8, 13), 20240601),
    "strict-ff-2": ((2, 8, 12, 2), 7),
    "weights": ((4, 8, 12, 2), 104729),
}


def test_job_count_and_first_size_are_independent():
    # every (job count, first size) pair occurs in 20,000 trial seeds of
    # each suite's layout: the count reads lane 0 and the sizes lane 1
    for suite, ((low, high, size_grid, key_values), seed) in SUITE_LAYOUTS.items():
        layout = _trial_layout(low, high, size_grid, key_values)
        pairs = set()
        for trial in range(20_000):
            draws = _grid_trial(seed * 1_000_003 + trial, layout)
            pairs.add((len(draws), draws[0][0]))
        assert pairs == set(product(range(low, high + 1), range(1, size_grid + 1))), suite


def test_seeds_of_opposite_sign_read_different_streams():
    half = F(1, 2)
    for seed in range(1, 21):
        assert random_two_arrival(6, half, seed) != random_two_arrival(6, half, -seed), seed
        assert random_equal_duration(6, seed) != random_equal_duration(6, -seed), seed


# the check each grid-trial suite runs on one trial's instance
GRID_CHECKS = {"nextfit-2t": "_nextfit_2t_failure", "strict-ff-2": "_strict_ff_2_failure"}


def recorded_trials(monkeypatch, suite, checked=True, **settings):
    """The instances ``suite`` runs its trials on, in order, read from the
    calls it makes to its check; unless ``checked``, every trial passes."""
    seen = []
    real = getattr(analysis, GRID_CHECKS[suite])

    def recording(instance, *args, **kwargs):
        seen.append(instance)
        return real(instance, *args, **kwargs) if checked else None

    with monkeypatch.context() as patch:
        patch.setattr(analysis, GRID_CHECKS[suite], recording)
        assert analysis.SUITES[suite](**settings).passed
    return seen


def test_nextfit_2t_trials_match_equal_duration_draws(monkeypatch):
    # the default run and one more: n from lane 0, the jobs from lane 1
    for seed in (20240601, 99):
        seen = recorded_trials(monkeypatch, "nextfit-2t", seed=seed)
        assert len(seen) == 500
        for trial, instance in enumerate(seen):
            trial_seed = seed * 1_000_003 + trial
            n = reference_count(trial_seed, 1, 40)
            assert instance == random_equal_duration(n, trial_seed), (seed, trial)


def test_suite_runs_share_jobs_across_trials(monkeypatch):
    # one table per run: equal rows of different trials share one Job, one
    # size Fraction and one window
    for suite in GRID_CHECKS:
        seen = recorded_trials(monkeypatch, suite, trials=60)
        rows = [jb for instance in seen for jb in instance.jobs]
        assert len(rows) > 4 * len(set(rows))  # rows recur across trials
        assert_shared_rows(Instance(tuple(rows)))


def test_texts_and_grid_jobs_are_built_once(monkeypatch):
    # one parse per distinct text, across lines and across server entries,
    # and one Job per distinct (size, key) draw of a suite run
    texts = []

    def counting_parse(text):
        texts.append(text)
        return parse_rational(text)

    monkeypatch.setattr(model, "parse_rational", counting_parse)
    instance = parse_instance(
        "1/2 0 1\n 1/2 0 1\n1/3 0 1/2\n1/3 1/2 3/2\n# c\n\n1/2 0 1\n"
    )
    assert sorted(texts) == ["0", "1", "1/2", "1/3", "3/2"]
    assert len(instance.jobs) == 5
    texts.clear()
    entries = [
        {"id": 0, "jobs": [0, 1], "open": "0", "close": "1"},
        {"id": 1, "jobs": [2], "open": "0", "close": "1/2"},
        {"id": 2, "jobs": [3], "open": "1/2", "close": "3/2"},
        {"id": 3, "jobs": [4], "open": "0", "close": "1"},
    ]
    schedule = schedule_from_dict(instance, {"servers": entries})
    assert sorted(texts) == ["0", "1", "1/2", "3/2"]
    assert schedule.servers[3].close_time is schedule.servers[0].close_time

    built = []

    def counting_job(*fields):
        built.append(fields)
        return Job(*fields)

    monkeypatch.setattr(generators, "Job", counting_job)
    assert analysis.suite_strict_ff_2().passed
    assert len(built) == 24  # 12 sizes x 2 windows
    built.clear()
    assert analysis.suite_nextfit_2t().passed
    assert len(built) == 104  # 8 sizes x 13 start keys


def test_passing_nextfit_2t_checks_build_no_fraction(monkeypatch):
    # the check compares lattice ints, where the public profile builds one
    # Fraction per event time
    seen = recorded_trials(monkeypatch, "nextfit-2t", trials=50)
    built = []
    real_new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert [analysis._nextfit_2t_failure(instance) for instance in seen] == [None] * 50
    assert built == []
    profile = active_count_profile(next_fit(seen[-1]).schedule)
    monkeypatch.undo()
    assert len(built) == len(profile) > 1


def test_cost_builds_one_fraction(monkeypatch):
    # window numerators are summed over the lcm of their denominators; on
    # strict-ff-2's trials, mixed denominators, int and float windows and
    # an empty schedule alike, the one Fraction is the result
    seen = recorded_trials(monkeypatch, "strict-ff-2", trials=20)
    schedules = [first_fit(instance).schedule for instance in seen]
    instance = make_instance([(F(1, 2), 0, 1)])
    windows = [
        [],
        [(F(1, 3), F(5, 2)), (F(1, 6), F(7, 4)), (0, F(1, 2)), (F(2, 7), F(9, 14))],
        [(0, 3), (F(1, 2), 2.75), (1.5, F(9, 4)), (0.25, 1)],
    ]
    for rows in windows:
        servers = (Server(k, (0,), s, f) for k, (s, f) in enumerate(rows))
        schedules.append(Schedule(instance, tuple(servers)))
    expected = [rentcheck.cost(plain(schedule)) for schedule in schedules]
    built = []
    real_new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    got = [cost(schedule) for schedule in schedules]
    monkeypatch.undo()
    assert got == expected
    assert all(type(value) is F for value in got)
    assert len(built) == len(schedules)


def check_int_weights(instance, t):
    """Each job's int weight, times (1+t)/full, is its Fraction weight."""
    full, weights = analysis._lattice_weights(instance)
    assert len(weights) == len(instance.jobs)
    for jb, weight in zip(instance.jobs, weights):
        rule = weight_w1 if jb.start == 0 else weight_w2
        assert weight * (1 + t) / full == rule(jb.size, t)


def test_weight_ledger_matches_reference_on_default_cases(monkeypatch):
    # ggu(6, 1/2) and the 200 sampled cases of the default weights run, each
    # at its latest start, which the ledgers read as t
    cases = []
    real = analysis.verify_weights

    def checking(trace, reference):
        report = real(trace, reference)
        t = max(jb.start for jb in trace.schedule.instance.jobs)
        assert report == reference_verify_weights(trace, reference, t)
        assert classify_servers(trace) == reference_classify_servers(trace, t)
        check_int_weights(trace.schedule.instance, t)
        cases.append(t)
        return report

    monkeypatch.setattr(analysis, "verify_weights", checking)
    assert analysis.suite_weights().passed
    assert len(cases) == 201


def test_weight_ledger_matches_reference_on_ggu():
    for k in (6, 12, 18):
        for t in _WEIGHT_T_VALUES:
            instance, certificate = ggu_extended(k, t)
            trace = first_fit(instance)
            report = verify_weights(trace, certificate)
            assert report == reference_verify_weights(trace, certificate, t), (k, t)
            infos = classify_servers(trace)
            assert infos == reference_classify_servers(trace, t), (k, t)
            assert report.passed
            check_int_weights(instance, t)


def test_weight_ledger_matches_reference_on_generated_servers():
    # FirstFit's side is any grouping whose servers each hold jobs at 0 and
    # at t, over capacity or not; the reference side is that grouping where
    # it is feasible and one job per server otherwise.  Sizes are sevenths
    # and twelfths, size 0 included, and t may lie below 1/28.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    size = st.sampled_from((7, 12)).flatmap(
        lambda den: st.integers(0, den).map(lambda num: F(num, den))
    )
    sizes = st.lists(size, min_size=1, max_size=3)
    groups = st.lists(st.tuples(sizes, sizes), min_size=1, max_size=4)
    times = st.sampled_from((F(1, 50), T_MIN, F(1, 4), F(1, 2), F(3, 4), F(27, 28)))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(groups, times, st.booleans())
    def check(groups, t, pack_reference):
        early = [x for at_zero, _ in groups for x in at_zero]
        late = [x for _, at_t in groups for x in at_t]
        instance = make_instance([(x, 0, 1) for x in early] + [(x, t, t + 1) for x in late])
        indices, first, second = [], 0, len(early)
        for at_zero, at_t in groups:
            indices.append(
                [*range(first, first + len(at_zero)), *range(second, second + len(at_t))]
            )
            first, second = first + len(at_zero), second + len(at_t)
        trace = AlgorithmTrace(make_schedule(instance, indices), (), ())
        reference = trace.schedule
        if not pack_reference or check_schedule(reference):
            reference = make_schedule(instance, [[i] for i in range(len(instance))])
        report = same_outcome(
            lambda trace, reference, t: verify_weights(trace, reference),
            reference_verify_weights, trace, reference, t,
        )
        if report is not None:
            check_int_weights(instance, t)

    check()


def test_scale_time_matches_reference():
    shared = Job(F(1, 3), F(1, 2), F(3, 2))
    rng = random.Random(5)
    cases = [
        Instance(()),
        # one shared Job, and an equal Job that is a distinct object
        Instance((shared, shared, Job(F(1, 3), F(1, 2), F(3, 2)), shared)),
        # equal rows as distinct Jobs with distinct time objects
        make_instance([(F(1, 2), 0, 1)] * 3 + [(F(1, 4), F(1, 3), F(4, 3))] * 2),
        random_two_arrival(40, F(1, 3), seed=8),
        random_equal_duration(60, seed=2, size_grid=5, start_grid=7, horizon=4),
        long_uniform(4, 4),
        ggu_extended(6, F(1, 2))[0],
        general_instance(rng, 30),
    ]
    for instance in cases:
        for factor in (2, F(1, 3), F(7, 2), F(10**40 + 1, 3**50)):
            scaled = scale_time(instance, factor)
            assert scaled == reference_scale_time(instance, F(factor))


def test_strict_ff_2_trials_match_stretched_two_arrival_draws(monkeypatch):
    # the suite draws each trial at arrivals {0, 1} with duration 2; the
    # reference draws it at {0, 1/2} with duration 1 and stretches it by 2
    for seed in range(7, 18):  # the default seed and ten more
        seen = recorded_trials(monkeypatch, "strict-ff-2", checked=False, seed=seed)
        assert len(seen) == 500
        for trial, instance in enumerate(seen):
            trial_seed = seed * 1_000_003 + trial
            n = reference_count(trial_seed, 2, 8)
            base = random_two_arrival(n, F(1, 2), trial_seed, 12)
            assert instance == scale_time(base, 2), (seed, trial)


def partition_instances():
    """Duration-2 instances with arrivals {0, 1} on several size grids."""
    for size_grid in (1, 7, 12):
        for seed in range(40):
            yield scale_time(random_two_arrival(seed % 11, F(1, 2), seed, size_grid), 2)
    # the same draws with sizes nudged onto a 127-bit denominator
    huge = 3**80
    for seed in range(20):
        base = scale_time(random_two_arrival(10, F(1, 2), seed), 2)
        yield Instance(tuple(
            Job(jb.size - F(i + 1, huge), jb.start, jb.finish)
            for i, jb in enumerate(base.jobs)
        ))


def test_server_type_partition_matches_fraction_reference():
    for instance in partition_instances():
        for policy in (first_fit, next_fit):
            trace = policy(instance)
            assert server_type_partition(trace) == reference_server_type_partition(trace)


def test_classify_servers_matches_fraction_reference():
    # ggu(6, 1/2) and 40 sampled uniform traces, ten at each weights t
    cases = [(first_fit(ggu_extended(6, F(1, 2))[0]), F(1, 2))]
    for k in range(40):
        t = _WEIGHT_T_VALUES[k % len(_WEIGHT_T_VALUES)]
        _, trace, _ = find_uniform_two_arrival(t, seed=k * 7919 + 5)
        cases.append((trace, t))
    labels = set()
    for trace, t in cases:
        infos = classify_servers(trace)
        assert infos == reference_classify_servers(trace, t)
        for info in infos:
            assert type(info.load_at_zero) is F and type(info.total_load) is F
        labels |= {info.label for info in infos}
    assert labels == set(ServerType)  # every bucket is met


def test_sweeps_match_reference_on_generated_unit_instances():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rows = st.lists(
        st.tuples(
            st.integers(1, 16), st.integers(1, 16),  # size p/q, kept <= 1
            st.integers(0, 40), st.integers(1, 7),  # start s/d
        ),
        max_size=25,
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(rows)
    def check_ceilings(drawn):
        jobs = sorted((F(s, d), F(min(p, q), q)) for p, q, s, d in drawn)
        instance = Instance(tuple(Job(size, s, s + 1) for s, size in jobs))
        expected = rentcheck.arrival_ceiling_profile(plain(instance))
        assert arrival_ceiling_profile(instance) == expected

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.integers(1, 40), st.integers(2, 41), st.integers(0, 10**9))
    def check_sampler(p, q, seed):
        t = F(min(p, q - 1), q)
        instance, _, accepted = find_uniform_two_arrival(t, seed)
        assert (instance, accepted) == reference_find_uniform(t, seed)

    check_ceilings()
    check_sampler()


def test_instance_measures_match_reference_on_generated_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # any rationals, so every rule can break, on denominators up to 2^110
    rational = st.builds(
        F, st.integers(-(2**40), 2**40), st.integers(1, 2**110)
    ) | st.integers(-3, 3).map(F)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.tuples(rational, rational, rational), max_size=12))
    def check(rows):
        check_instance_measures(make_instance(rows))

    check()


# ---------------------------------------------------------------------------
# File paths: instance text, schedule text and cost
# ---------------------------------------------------------------------------

def same_outcome(fast, reference, *args, adapt=lambda value: value):
    """fast(*args), read through ``adapt``, is what reference returns on the
    args read through ``adapt``, or fails with its message."""
    try:
        expected = reference(*map(adapt, args))
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            fast(*args)
        assert str(caught.value) == str(exc)
        return None
    got = fast(*args)
    assert adapt(got) == expected
    return got


def check_schedule_file(schedule):
    text = _schedule_text(schedule)
    assert text == rentcheck.schedule_text(plain(schedule))
    assert cost(schedule) == rentcheck.cost(plain(schedule))
    same_outcome(
        schedule_from_dict, rentcheck.schedule_from_dict,
        schedule.instance, json.loads(text), adapt=plain,
    )


def file_instances():
    yield Instance(())
    for instance in online_instances():
        yield instance
        yield stretched(instance)


def test_instance_text_matches_reference():
    for instance in file_instances():
        text = format_instance(instance, header="provenance\nsecond line")
        parsed = same_outcome(parse_instance, rentcheck.parse_instance, text, adapt=plain)
        assert parsed == instance


def test_instance_text_of_shared_jobs_matches_copies():
    shared = [
        long_uniform(4, 6),
        nf_nemesis(1),
        nf_nemesis(5),
        ggu_extended(6, F(1, 2))[0],
        parse_instance(MESSY_TEXT),  # repeated lines share one Job
    ]
    for instance in shared:
        assert len({id(jb) for jb in instance.jobs}) < len(instance)
        for header in (None, "provenance\nsecond line"):
            text = format_instance(instance, header)
            assert text == format_instance(copies(instance), header)
            assert text == rentcheck.format_instance(plain(instance), header)
    assert format_instance(Instance(()), "h") == rentcheck.format_instance((), "h")


def test_make_schedule_windows_are_the_reference_objects():
    # equal starts and finishes held by distinct Fraction objects: "1/3" and
    # "2/6" parse apart, as do "2" and "4/2"
    text = "1/4 1/3 2\n1/4 2/6 4/2\n1/4 1/3 4/2\n1/4 2/6 2\n1/2 1/2 2\n1/2 3/6 4/2\n"
    instance = parse_instance(text)
    assert len({id(jb.start) for jb in instance.jobs}) == 4
    rng = random.Random(5)
    for _ in range(50):
        order = list(range(len(instance)))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, 3)))
        groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
        got = make_schedule(instance, groups)
        expected = reference_make_schedule(instance, groups)
        assert got == expected
        for server, want in zip(got.servers, expected.servers):
            assert server.open_time is want.open_time
            assert server.close_time is want.close_time
    certificate = ggu_extended(6, F(1, 2))[1]
    groups = [server.job_indices for server in certificate.servers]
    expected = reference_make_schedule(certificate.instance, groups)
    for server, want in zip(certificate.servers, expected.servers):
        assert server.open_time is want.open_time
        assert server.close_time is want.close_time


def test_schedule_files_match_reference(tmp_path):
    certificate = ggu_extended(6, F(1, 2))[1]
    schedules = [Schedule(Instance(()), ()), certificate]
    for instance in file_instances():
        schedules += [first_fit(instance).schedule, next_fit(instance).schedule]
    for schedule in schedules:
        check_schedule_file(schedule)
        assert schedule_from_dict(
            schedule.instance, json.loads(_schedule_text(schedule))
        ) == schedule
    # an empty server, negative ids and indices, windows of any sign: claims
    # that schedule_from_dict refuses, written and summed all the same
    odd = Schedule(Instance(()), (
        Server(-3, (), F(-1, 2), F(0)),
        Server(7, (-1, 0, 12), F(5, 3), F(-2**70, 3**41)),
    ))
    check_schedule_file(odd)
    path = tmp_path / "certificate.json"
    write_schedule(path, certificate)
    assert path.read_text() == rentcheck.schedule_text(plain(certificate))
    assert read_schedule(path, certificate.instance) == certificate


MESSY_TEXT = (
    "# header, then a blank line\n"
    "\n"
    "1/2 0 1\r\n"
    "  1/2\t0   1  \n"
    "\t# an indented comment\n"
    "1/3 0\t2 \r\n"
    "1/2 0 1\n"
    "   \n"
    "2/4 0/5 3/3\n"
    "1/3 0\t2 \r\n"
    "+1/3 -0 2\n"
)


def test_parse_instance_matches_reference_on_messy_text():
    for text in (MESSY_TEXT, MESSY_TEXT.replace("\n", "\r\n"), MESSY_TEXT.rstrip("\n")):
        instance = same_outcome(parse_instance, rentcheck.parse_instance, text, adapt=plain)
        assert len(instance) == 7
        jobs = instance.jobs
        # lines that read the same after stripping share one Job
        assert jobs[0] is jobs[3]
        assert jobs[2] is jobs[5]
        # equal values written differently are parsed apart, and still equal
        for i, j in ((1, 0), (4, 0), (6, 2)):
            assert jobs[i] == jobs[j] and jobs[i] is not jobs[j]


@pytest.mark.parametrize("bad", [
    "1/2 0", "1/2 0 1 2", "0.5 0 1", "1/2 0 1/0", "1/0 0 1", "1/2 x 1", "1 / 2 0 1",
])
def test_parse_errors_match_reference(bad):
    # the malformed line sits at lines 3 and 7; the error names line 3
    lines = ["# c", "1/2 0 1", bad, "1/2 0 1", "", "1/3 0 1", bad, "1/2 0 1"]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match="^line 3: "):
        parse_instance(text)
    same_outcome(parse_instance, rentcheck.parse_instance, text, adapt=plain)


def test_bad_field_is_reported_at_its_first_line():
    # distinct lines that share one malformed field: each distinct field text
    # is parsed once, and the bad one is named at the first line holding it
    text = "1/2 0 1\n1/3 1/0 2\n1/3 0 1\n1/4 2 1/0\n1/0 0 1\n"
    with pytest.raises(ValueError, match=r"^line 2: zero denominator: '1/0'$"):
        parse_instance(text)
    same_outcome(parse_instance, rentcheck.parse_instance, text, adapt=plain)
    # fields read fine on one line and badly on none: shared, and equal
    jobs = parse_instance("1/2 0 1\n1/3 0 1/2\n").jobs
    assert jobs[1].start is jobs[0].start and jobs[1].finish == F(1, 2)


def test_schedule_from_dict_errors_match_reference():
    instance = make_instance([(F(1, 2), 0, 1), (F(1, 2), 0, 2), (F(1, 3), 1, 2)])

    def entry(sid, jobs, open_text="0", close_text="2"):
        return {"id": sid, "jobs": jobs, "open": open_text, "close": close_text}

    good = [entry(0, [0, 1]), entry(1, [2], "1", "2")]
    cases = [
        {"servers": good},
        # the same bad window text in entries 1 and 2: entry 1 is named
        {"servers": [good[0], entry(1, [2], "1/0"), entry(2, [], "1/0")]},
        {"servers": [entry(0, [0, 1], "0", "x/2"), entry(1, [2], "0", "x/2")]},
        {"servers": [entry(0, [0, 1], "0", 2), good[1]]},
        {"servers": [entry(0, [0, 1], "0", "2.0"), good[1]]},
        {"servers": [entry(0, [0, 1]), {"id": 1, "jobs": [2]}]},
        {"servers": [entry(True, [0, 1]), good[1]]},
        {"servers": [entry(0, [0, 1.0]), good[1]]},
        {"servers": [entry(0, [0, 1]), entry(1, [2, 3], "1", "2")]},
        {"servers": [entry(0, [0, 1]), entry(1, [2, 1], "1", "2")]},
        {"servers": [entry(0, [0, 1])]},
        {"servers": None},
        [],
        # the first bad entry is named, whatever a later one's fault
        {"servers": [good[0], entry(1, [2], "1", 2), {"id": 2}]},
        {"servers": [entry(0, [0, 0]), entry(1, [2], "x")]},
        {"servers": [entry(0, [0, 1]), entry(1, [2], "1", "2"), entry("2", [])]},
        # a bool id or index in an entry otherwise valid
        {"servers": [good[0], entry(False, [2], "1", "2")]},
        {"servers": [entry(0, [0, True]), good[1]]},
        {"servers": [entry(0, [False, 1]), good[1]]},
        # entries that are not objects
        {"servers": [good[0], [1, [2], "1", "2"]]},
        {"servers": [good[0], "entry"]},
        {"servers": [None, good[1]]},
        # jobs that are not a list
        {"servers": [entry(0, (0, 1)), good[1]]},
        {"servers": [entry(0, "01"), good[1]]},
        {"servers": [good[0], entry(1, 2, "1", "2")]},
        # a missing key after an earlier type fault
        {"servers": [entry(0, [0, 1], "0", None), {"id": 1, "jobs": [2], "open": "1"}]},
    ]
    failures = 0
    for data in cases:
        failures += same_outcome(schedule_from_dict, rentcheck.schedule_from_dict,
                                 instance, data, adapt=plain) is None
    assert failures == len(cases) - 1
    with pytest.raises(ValueError, match=r"^server entry 1: open: zero denominator"):
        schedule_from_dict(instance, cases[1])
    # no fault: an empty server, repeated ids and window texts, ids in any order
    valid = {"servers": [entry(5, []), entry(-1, [2, 1], "0", "2"), entry(5, [0])]}
    schedule = same_outcome(
        schedule_from_dict, rentcheck.schedule_from_dict, instance, valid, adapt=plain
    )
    assert [srv.id for srv in schedule.servers] == [5, -1, 5]
    assert schedule.servers[1].open_time is schedule.servers[2].open_time


def test_schedule_from_dict_matches_reference_on_generated_entries():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    instance = make_instance([(F(1, 2), 0, 1)] * 4)
    index = st.integers(-1, 4) | st.sampled_from([True, False, 1.0, "2", None])
    value = {
        "id": st.integers(-2, 3) | st.sampled_from([True, 1.0, "1"]),
        "jobs": st.lists(index, max_size=3) | st.sampled_from([(0, 1), "01", 3, None]),
        "open": st.sampled_from(["0", "1/2", "3", "1/0", "x", 0, None]),
    }
    value["close"] = value["open"]
    key = st.sampled_from(sorted(value))
    # each edit changes an index, sets or deletes a field, or puts in an
    # entry that is not an object; with none, the entries are valid
    edit = st.one_of(
        st.tuples(st.just("index"), st.integers(0, 7), index),
        key.flatmap(lambda k: st.tuples(st.just("field"), st.integers(0, 3), st.just(k), value[k])),
        st.tuples(st.just("delete"), st.integers(0, 3), key),
        st.tuples(st.just("insert"), st.integers(0, 3), st.sampled_from([None, [], "entry", 7])),
    )

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.permutations(range(4)), st.integers(0, 4), st.lists(edit, max_size=3))
    def check(order, cut, edits):
        entries = [
            {"id": 0, "jobs": order[:cut], "open": "0", "close": "1"},
            {"id": 1, "jobs": order[cut:], "open": "0", "close": "1"},
        ]
        for kind, k, *args in edits:
            target = entries[k % len(entries)]
            if kind == "index" and type(target) is dict and type(target.get("jobs")) is list:
                jobs = target["jobs"] = list(target["jobs"])
                if jobs:
                    jobs[k % len(jobs)] = args[0]
            elif kind == "field" and type(target) is dict:
                target[args[0]] = args[1]
            elif kind == "delete" and type(target) is dict:
                target.pop(args[0], None)
            elif kind == "insert":
                entries.insert(k % (len(entries) + 1), args[0])
        same_outcome(schedule_from_dict, rentcheck.schedule_from_dict,
                     instance, {"servers": entries}, adapt=plain)

    check()


def test_file_paths_match_reference_on_generated_text():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    field = st.sampled_from(
        ["0", "1", "-1", "+2", "1/2", "2/4", "1/3", "7/5", "1/0", "0.5", "x", "3/1"]
    ) | st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(0, 9))
    space = st.sampled_from([" ", "\t", "  ", " \t"])
    line = st.one_of(
        st.tuples(field, space, field, space, field).map("".join),
        st.lists(field, max_size=4).map(" ".join),
        st.sampled_from(["", "#", "# note", "   ", "\t#x"]),
    )
    padded = st.tuples(st.sampled_from(["", " ", "\t"]), line,
                       st.sampled_from(["", " ", "\t", "\r"])).map("".join)
    ending = st.sampled_from(["\n", "\r\n"])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(padded, max_size=12), ending)
    def check_text(lines, eol):
        # repeat the drawn lines so that every line also comes back later
        same_outcome(parse_instance, rentcheck.parse_instance, eol.join(lines * 2), adapt=plain)

    rational = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
    server = st.builds(
        Server, st.integers(-5, 50), st.lists(st.integers(-3, 40), max_size=5).map(tuple),
        rational, rational,
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(server, max_size=8))
    def check_schedule_text(servers):
        check_schedule_file(Schedule(Instance(()), tuple(servers)))

    check_text()
    check_schedule_text()


# ---------------------------------------------------------------------------
# Exact optimum
# ---------------------------------------------------------------------------

def with_effort(solve):
    """solve's result paired with its search effort, which OptResult's
    equality skips; load_sums counts a memo that the reference has not."""
    def solved(instance, max_jobs):
        result = solve(instance, max_jobs)
        effort = {k: v for k, v in result.counters.items() if k != "load_sums"}
        return result, effort
    return solved


def check_opt(instance, max_jobs=10):
    """brute_force_opt matches the reference in every field and in its search
    effort, so it walks the same tree, or it fails with the same error."""
    solved = same_outcome(
        with_effort(brute_force_opt), with_effort(reference_brute_force_opt),
        instance, max_jobs,
    )
    if solved is None:
        return None
    got, _ = solved
    counters = got.counters
    assert counters["load_sums"] <= counters["fit_tests"]
    assert got.partitions_examined <= counters["nodes"]
    assert 1 <= counters["incumbent_updates"] <= got.partitions_examined
    # the cost never beats a floor, so it stops there only by meeting it
    assert got.interval_bound == interval_floor(instance)
    assert counters["stopped_at_floor"] == (got.cost == got.interval_bound)
    return got


def opt_instances():
    yield Instance(())
    rng = random.Random(43)
    for k in range(30):
        # a short horizon keeps more jobs running together: a longer search
        instance = general_instance(rng, rng.randint(1, 9), horizon=2 + 4 * (k % 2))
        yield instance
        yield stretched(instance)
    # the strict-ff-2 setting: arrivals at 0 and 1, duration 2
    for seed in range(12):
        yield scale_time(random_two_arrival(rng.randint(1, 9), F(1, 2), seed), F(2))


def test_opt_matches_fraction_reference():
    for instance in opt_instances():
        check_opt(instance)


def test_opt_stops_at_a_first_partition_on_the_floor():
    # one server holds every job for the span: the first partition is optimal
    instance = make_instance([(F(1, 3), 0, 2), (F(1, 3), F(1, 2), 2), (F(1, 3), 1, 2)])
    got = check_opt(instance)
    assert got.partitions_examined == 1
    # jobs 1 and 2 are tested against {0} and {0, 1}, each summed once
    assert got.counters == {
        "fit_tests": 2, "incumbent_updates": 1, "load_sums": 2, "nodes": 4,
        "stopped_at_floor": True,
    }
    got = check_opt(stretched(instance))
    assert got.counters["stopped_at_floor"]
    # job 1 needs a server of its own, and job 2 joins job 0 on the first of
    # the two: that meets the floor 4 before the second is tested
    instance = make_instance([(F(1, 2), 0, 2), (F(1), 0, 2), (F(1, 2), 0, 2)])
    got = check_opt(instance)
    assert got.cost == 4
    assert got.counters == {
        "fit_tests": 2, "incumbent_updates": 1, "load_sums": 1, "nodes": 4,
        "stopped_at_floor": True,
    }


def test_opt_matches_reference_past_the_default_limit():
    # 14 jobs, past the default limit of 10, in three clusters of
    # overlapping windows and two short ones
    instance = make_instance([
        (F(1, 2), 0, 2), (F(1, 3), 0, 2), (F(1, 4), 0, F(3, 2)), (F(1, 6), 0, 1),
        (F(5, 12), F(1, 2), 2), (F(1, 2), 1, 3), (F(1, 3), 1, 3),
        (F(7, 12), 1, F(5, 2)), (F(1, 12), 1, 2), (F(1, 4), F(3, 2), 4),
        (F(2, 3), F(3, 2), 4), (F(1, 3), 2, 4), (F(1, 6), F(5, 2), 3),
        (F(3, 4), 3, F(7, 2)),
    ])
    got = check_opt(instance, 14)
    assert got.cost == 11
    assert not got.counters["stopped_at_floor"]


def test_opt_stop_at_the_interval_floor_keeps_the_result():
    # a floor at most the optimum can end the search only once the first
    # optimal partition is the incumbent, so the schedule, cost and
    # partitions examined are those of the search that stops only at
    # max(utilization, span), and only the search effort falls
    for instance in opt_instances():
        got = brute_force_opt(instance)
        expected = reference_brute_force_opt(instance, stop_at_interval=False)
        assert got == expected
        assert got.counters["nodes"] <= expected.counters["nodes"]


def test_opt_reads_the_interval_floor_exactly_once(monkeypatch):
    reads = []
    real = optimal._interval_ticks

    def counting(lattice):
        reads.append(lattice)
        return real(lattice)

    monkeypatch.setattr(optimal, "_interval_ticks", counting)
    for instance in opt_instances():
        reads.clear()
        brute_force_opt(instance)
        assert reads == [instance.lattice]
    # also for the empty instance, and when the first incumbent meets
    # max(utilization, span): one server holds every job for the span
    for instance in (
        Instance(()),
        make_instance([(F(1, 3), 0, 2), (F(1, 3), F(1, 2), 2), (F(1, 3), 1, 2)]),
    ):
        reads.clear()
        assert brute_force_opt(instance).counters["stopped_at_floor"]
        assert reads == [instance.lattice]
    # an instance past the limit is refused before the floor is read
    reads.clear()
    with pytest.raises(ValueError):
        brute_force_opt(make_instance([(F(1, 2), 0, 1)] * 4), 3)
    assert reads == []


def test_opt_errors_match_reference():
    # check_opt gives None only when both raise a ValueError with one message
    for instance in invalid_instances():
        for limit in (10, 1, 0):
            assert check_opt(instance, limit) is None
    one = make_instance([(F(1, 2), 0, 1)])
    for limit in (0, -1):
        assert check_opt(one, limit) is None
    assert check_opt(make_instance([(F(1, 2), 0, 1)] * 4), 3) is None


def grid_instances(st):
    """A hypothesis strategy of instances of up to 8 jobs, with sizes on the
    1/12 grid and starts and durations on the 1/4 grid."""
    rows = st.lists(
        st.tuples(
            st.integers(1, 12),  # size /12
            st.integers(0, 12),  # start /4
            st.integers(1, 12),  # duration /4
        ),
        max_size=8,
    )

    def instance(drawn):
        jobs = sorted((F(s, 4), F(p, 12), F(d, 4)) for p, s, d in drawn)
        return make_instance([(size, s, s + d) for s, size, d in jobs])

    return rows.map(instance)


def test_opt_matches_reference_on_generated_instances():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(grid_instances(st), st.booleans())
    def check(instance, stretch_times):
        check_opt(stretched(instance) if stretch_times else instance)

    check()


# ---------------------------------------------------------------------------
# The interval floor
# ---------------------------------------------------------------------------

def check_interval_floor(instance):
    """max(util, span) <= integral of ceil(mass) <= interval_floor, which is
    the reference's max(ceil(mass), L2) integral, <= integral of BP <= OPT."""
    ceil_mass, floor, packed = rentcheck.interval_bounds(plain(instance))
    got = interval_floor(instance)
    assert max(lower_bounds(instance)) <= ceil_mass <= got == floor <= packed
    assert packed <= reference_brute_force_opt(instance).cost
    return got


def floor_instances():
    yield Instance(())
    rng = random.Random(29)
    for k in range(40):
        yield general_instance(rng, rng.randint(1, 8), horizon=2 + 4 * (k % 2))
    # the strict-ff-2 setting, and sizes just over and under a half
    for seed in range(12):
        yield scale_time(random_two_arrival(rng.randint(2, 8), F(1, 2), seed), F(2))
    yield make_instance(
        [(F(7, 12), 0, 2), (F(5, 12), 0, 2), (F(1, 2), 0, 3), (F(1, 2), 1, 3)]
        + [(F(1, 3), 1, 2)] * 3
    )


def test_interval_floor_sits_between_reference_bounds():
    for instance in floor_instances():
        check_interval_floor(instance)


def test_interval_floor_refuses_invalid_instances():
    for instance in invalid_instances():
        with pytest.raises(ValueError) as caught:
            interval_floor(instance)
        with pytest.raises(ValueError) as expected:
            require_valid(instance)
        assert str(caught.value) == str(expected.value)


def test_interval_floor_scales_with_time():
    for instance in floor_instances():
        floor = interval_floor(instance)
        for factor in (2, F(1, 3), F(10**40 + 1, 3**50)):
            assert interval_floor(scale_time(instance, factor)) == floor * factor


def test_interval_floor_matches_reference_on_generated_instances():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(grid_instances(st))
    def check(instance):
        check_interval_floor(instance)

    check()


def test_interval_floor_builds_one_fraction(monkeypatch):
    # the sweep adds lattice ints; only the result is a Fraction
    instance = general_instance(random.Random(3), 30)
    instance.lattice
    built = []
    real_new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    floor = interval_floor(instance)
    monkeypatch.undo()
    assert len(built) == 1 and floor > 0


def test_strict_ff_2_validates_each_trial_once(monkeypatch):
    # first_fit validates the trial, and the floor reads its lattice as is
    seen = recorded_trials(monkeypatch, "strict-ff-2", checked=False, trials=50)
    validated = []
    real = model.validate

    def counting(instance):
        validated.append(instance)
        return real(instance)

    monkeypatch.setattr(model, "validate", counting)
    assert [analysis._strict_ff_2_failure(instance) for instance in seen] == [None] * 50
    assert validated == seen


def test_default_strict_ff_2_is_settled_by_the_floor(monkeypatch):
    # no default trial reaches the search, and each is still compared with
    # the exact optimum here: the floor stays below it, and meets it on 490
    searched = []
    monkeypatch.setattr(analysis, "brute_force_opt", lambda *args, **kwargs: searched.append(args))
    seen = recorded_trials(monkeypatch, "strict-ff-2")
    monkeypatch.undo()
    assert len(seen) == 500 and searched == []
    floors = [interval_floor(instance) for instance in seen]
    optima = [brute_force_opt(instance).cost for instance in seen]
    ff_costs = [cost(first_fit(instance).schedule) for instance in seen]
    assert all(floor <= opt for floor, opt in zip(floors, optima))
    assert all(ff <= 2 * opt for ff, opt in zip(ff_costs, optima))
    assert sum(floor == opt for floor, opt in zip(floors, optima)) == 490
    assert max(ff / floor for ff, floor in zip(ff_costs, floors)) == F(11, 8)
