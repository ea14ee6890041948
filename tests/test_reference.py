"""Fast paths against the plain Fraction loops they replaced.

The placement kernel, validate, utilization, span, mu,
active_count_profile, check_schedule and arrival_ceiling_profile all work
on the instance's integer lattice, the sweeps in one pass each, and the
kernel finds each job's server through a max-free tree over the
candidates; find_uniform_two_arrival tests its draws on the integer size
grid.  The references below are the direct Fraction versions, kept here
only: the linear placement scan with Fraction loads, the instance checks
and measures on the jobs' Fractions, a per-time count over every job, a
capacity check that re-sums each server's load at each of its starts, a
point query of the arrival ceiling at each event time, and a sampler that
builds every draw and runs first_fit on it.

The file paths keep their plain versions here too: parse_instance parses
every line, the schedule text comes from ``json.dumps(indent=2)``, cost sums
Fraction windows and schedule_from_dict parses every window text.
"""

import heapq
import json
import random
from fractions import Fraction

import pytest

from rentlab import (
    Instance,
    Job,
    Schedule,
    Server,
    Violation,
    active_ceil_bound,
    active_count_integral,
    active_count_profile,
    arrival_ceiling_profile,
    check_schedule,
    cost,
    event_times,
    first_fit,
    format_instance,
    make_instance,
    make_schedule,
    mu,
    next_fit,
    parse_instance,
    parse_rational,
    read_schedule,
    scale_time,
    schedule_from_dict,
    schedule_to_dict,
    span,
    utilization,
    validate,
    write_schedule,
)
from rentlab.algorithms import AlgorithmTrace, Decision
from rentlab.analysis import _WEIGHT_T_VALUES, find_uniform_two_arrival
from rentlab.model import _schedule_text
from rentlab.generators import (
    ggu_extended,
    nf_nemesis,
    random_equal_duration,
    random_two_arrival,
)

F = Fraction


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


def reference_place(instance, keep_earlier):
    servers, candidates, decisions = [], [], []
    for i, jb in enumerate(instance.jobs):
        candidates = [srv for srv in candidates if srv.termination >= jb.start]
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
    return AlgorithmTrace(Schedule(instance, frozen), tuple(decisions))


def reference_validate(instance):
    violations = []
    prev_start = None
    for i, jb in enumerate(instance.jobs):
        if not 0 < jb.size:
            violations.append(Violation("size must be positive", job_index=i))
        if jb.size > 1:
            violations.append(Violation("size must be at most 1", job_index=i))
        if jb.start < 0:
            violations.append(Violation("start must be non-negative", job_index=i))
        if jb.finish <= jb.start:
            violations.append(Violation("finish must exceed start", job_index=i))
        if prev_start is not None and jb.start < prev_start:
            violations.append(Violation("starts must be non-decreasing", job_index=i))
        prev_start = jb.start
    return violations


def reference_utilization(instance):
    return sum((jb.size * (jb.finish - jb.start) for jb in instance.jobs), F(0))


def reference_span(instance):
    total, cur = F(0), None
    for s, f in sorted((jb.start, jb.finish) for jb in instance.jobs):
        if cur is None or s > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [s, f]
        elif f > cur[1]:
            cur[1] = f
    return total + (cur[1] - cur[0] if cur is not None else 0)


def reference_mu(instance):
    if not instance.jobs:
        raise ValueError("undefined on empty instance")
    durations = [jb.finish - jb.start for jb in instance.jobs]
    return max(durations) / min(durations)


def reference_profile(schedule):
    jobs = schedule.instance.jobs
    return [
        (t, sum(
            any(jobs[i].start <= t < jobs[i].finish for i in srv.job_indices)
            for srv in schedule.servers
        ))
        for t in event_times(schedule.instance)
    ]


def reference_integral(schedule):
    profile = reference_profile(schedule)
    return sum(
        (n * (right - left) for (left, n), (right, _) in zip(profile, profile[1:])),
        F(0),
    )


def reference_check_schedule(schedule):
    violations = []
    jobs = schedule.instance.jobs
    n = len(jobs)
    assigned = {}
    for server in schedule.servers:
        if not server.job_indices:
            violations.append(Violation("server holds no jobs", server_id=server.id))
            continue
        for i in server.job_indices:
            if not 0 <= i < n:
                violations.append(
                    Violation("job index out of range", job_index=i, server_id=server.id)
                )
                continue
            if i in assigned:
                violations.append(
                    Violation("job assigned twice", job_index=i, server_id=server.id)
                )
            assigned[i] = server.id
        members = [jobs[i] for i in server.job_indices if 0 <= i < n]
        if not members:
            continue
        if (server.open_time, server.close_time) != (
            min(jb.start for jb in members), max(jb.finish for jb in members)
        ):
            violations.append(
                Violation(
                    "rental window must span min start to max finish",
                    server_id=server.id,
                )
            )
        for s in sorted({jb.start for jb in members}):
            here = sum((jb.size for jb in members if jb.active_at(s)), F(0))
            if here > 1:
                violations.append(
                    Violation("capacity exceeded", server_id=server.id, time=s, load=here)
                )
    violations += [Violation("job never assigned", job_index=i)
                   for i in range(n) if i not in assigned]
    return violations


def reference_ceilings(instance):
    return [active_ceil_bound(instance, t) for t in event_times(instance)]


def reference_two_arrival(n, t, seed, size_grid=12):
    rng = random.Random(seed)
    drawn = []
    for _ in range(n):
        size = F(rng.randint(1, size_grid), size_grid)
        start = F(0) if rng.random() < 0.5 else t
        drawn.append((start, size))
    drawn.sort(key=lambda pair: pair[0])
    return Instance(tuple(Job(size, start, start + 1) for start, size in drawn))


def reference_find_uniform(t, seed):
    """(instance, accepted seed) of the sampler that runs first_fit on every draw."""
    for attempt in range(50000):
        cand_seed = seed + attempt
        n = random.Random(cand_seed).randint(4, 8)
        instance = reference_two_arrival(n, t, cand_seed)
        servers = reference_place(instance, keep_earlier=True).schedule.servers
        if servers and all(
            srv.open_time == 0 and srv.close_time == 1 + t for srv in servers
        ):
            return instance, cand_seed
    raise RuntimeError("no uniform-server instance found")


def reference_parse_instance(text):
    jobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(
                f"line {lineno}: expected 'size start finish', got {raw!r}"
            )
        try:
            size, start, finish = (parse_rational(f) for f in fields)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        jobs.append(Job(size, start, finish))
    return Instance(tuple(jobs))


def reference_schedule_text(schedule):
    return json.dumps(schedule_to_dict(schedule), indent=2) + "\n"


def reference_cost(schedule):
    return sum((srv.close_time - srv.open_time for srv in schedule.servers), F(0))


def reference_server_from_entry(k, entry):
    try:
        sid, indices = entry["id"], entry["jobs"]
        windows = (("open", entry["open"]), ("close", entry["close"]))
    except (KeyError, TypeError):
        raise ValueError(
            f"server entry {k}: expected an object with id, jobs, open and "
            f"close, got {entry!r}"
        ) from None
    if type(sid) is not int:
        raise ValueError(f"server entry {k}: id {sid!r} is not an integer")
    if type(indices) is not list:
        raise ValueError(f"server entry {k}: jobs {indices!r} is not a list")
    for i in indices:
        if type(i) is not int:
            raise ValueError(f"server entry {k}: job index {i!r} is not an integer")
    times = []
    for name, text in windows:
        if type(text) is not str:
            raise ValueError(f"server entry {k}: {name} {text!r} is not a string")
        try:
            times.append(parse_rational(text))
        except ValueError as exc:
            raise ValueError(f"server entry {k}: {name}: {exc}") from None
    return Server(sid, tuple(indices), *times)


def reference_schedule_from_dict(instance, data):
    entries = data.get("servers") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise ValueError("schedule must be an object with a 'servers' list")
    servers = tuple(
        reference_server_from_entry(k, entry) for k, entry in enumerate(entries)
    )
    n = len(instance.jobs)
    seen = set()
    for server in servers:
        for i in server.job_indices:
            if not 0 <= i < n:
                raise ValueError(f"job index {i} out of range for this instance")
            if i in seen:
                raise ValueError(f"job index {i} assigned twice")
            seen.add(i)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"schedule does not cover jobs {missing}")
    return Schedule(instance=instance, servers=servers)


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
    violations = validate(instance)
    assert violations == reference_validate(instance)
    assert [str(v) for v in violations] == [str(v) for v in reference_validate(instance)]
    assert utilization(instance) == reference_utilization(instance)
    assert span(instance) == reference_span(instance)
    try:
        expected = reference_mu(instance)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            mu(instance)
    else:
        assert mu(instance) == expected
    return violations


def check_measures(schedule):
    assert active_count_profile(schedule) == reference_profile(schedule)
    assert active_count_integral(schedule) == reference_integral(schedule)
    assert check_schedule(schedule) == reference_check_schedule(schedule)


def check_policies(instance):
    for policy, keep_earlier in ((first_fit, True), (next_fit, False)):
        trace = policy(instance)
        assert trace == reference_place(instance, keep_earlier)
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
    for instance in online_instances():
        check_policies(instance)


def placed(policy, keep_earlier, rows):
    """The policy's trace on ``rows``, checked against the reference."""
    instance = make_instance(rows)
    trace = policy(instance)
    assert trace == reference_place(instance, keep_earlier)
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
            assert policy(instance) == reference_place(instance, keep_earlier)
        profile = active_count_profile(first_fit(instance).schedule)
        peak = max(peak, max(count for _, count in profile))

    check()
    assert peak >= 64


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
        gapped += reference_integral(schedule) < sum(
            (srv.close_time - srv.open_time for srv in schedule.servers), F(0)
        )
    assert gapped > 0


def test_check_schedule_matches_reference_on_broken_schedules():
    jobs = [
        (F(1, 2), 0, 2), (F(2, 3), 0, 1), (F(1, 3), 1, 3), (F(3, 4), 1, 2),
        (F(1, 2), 2, 4), (F(1, 2), 2, 3), (F(1, 4), 5, 6),
    ]
    instance = Instance(tuple(Job(*row) for row in jobs))

    def server(sid, *idx):
        members = [instance.jobs[i] for i in idx if 0 <= i < len(instance.jobs)]
        return Server(sid, idx, min(jb.start for jb in members),
                      max(jb.finish for jb in members))

    cases = [
        # overfull at 0, 1 and 2 on one server, idle from 4 to 5
        (server(0, 6, 0, 1, 2, 3, 4, 5),),
        # duplicates, out-of-range indices, an empty server, a missing job
        (server(0, 0, 1, 1), Server(1, (), F(0), F(1)),
         server(2, 9, 3, -8, 2), server(3, 4, 5)),
        # a wrong window and a job on two servers
        (Server(0, (0, 2, 3), F(0), F(5)), server(1, 1, 4, 5, 6, 3)),
    ]
    for servers in cases:
        for schedule in (
            Schedule(instance, servers),
            Schedule(stretched(instance), tuple(
                Server(srv.id, srv.job_indices,
                       stretch(srv.open_time), stretch(srv.close_time))
                for srv in servers
            )),
        ):
            violations = check_schedule(schedule)
            expected = reference_check_schedule(schedule)
            assert violations == expected
            # time and load come back as Fractions, printed as the reference's
            assert [str(v) for v in violations] == [str(v) for v in expected]
            assert any(v.rule == "capacity exceeded" for v in violations)


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
        assert arrival_ceiling_profile(instance) == reference_ceilings(instance)


def test_two_arrival_draws_match_reference():
    for seed in range(60):
        for t in _WEIGHT_T_VALUES:
            for size_grid in (1, 7, 12):
                n = seed % 11
                assert random_two_arrival(n, t, seed, size_grid) == (
                    reference_two_arrival(n, t, seed, size_grid)
                )


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
        assert arrival_ceiling_profile(instance) == reference_ceilings(instance)

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

def same_outcome(fast, reference, *args):
    """fast(*args) returns what reference(*args) does, or fails with its message."""
    try:
        expected = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            fast(*args)
        assert str(caught.value) == str(exc)
        return None
    got = fast(*args)
    assert got == expected
    return got


def check_schedule_file(schedule):
    text = _schedule_text(schedule)
    assert text == reference_schedule_text(schedule)
    assert cost(schedule) == reference_cost(schedule)
    same_outcome(
        schedule_from_dict, reference_schedule_from_dict,
        schedule.instance, json.loads(text),
    )


def file_instances():
    yield Instance(())
    for instance in online_instances():
        yield instance
        yield stretched(instance)


def test_instance_text_matches_reference():
    for instance in file_instances():
        text = format_instance(instance, header="provenance\nsecond line")
        assert same_outcome(parse_instance, reference_parse_instance, text) == instance


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
    assert path.read_text() == reference_schedule_text(certificate)
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
        instance = same_outcome(parse_instance, reference_parse_instance, text)
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
    same_outcome(parse_instance, reference_parse_instance, text)


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
    ]
    failures = 0
    for data in cases:
        failures += same_outcome(schedule_from_dict, reference_schedule_from_dict,
                                 instance, data) is None
    assert failures == len(cases) - 1
    with pytest.raises(ValueError, match=r"^server entry 1: open: zero denominator"):
        schedule_from_dict(instance, cases[1])


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
        same_outcome(parse_instance, reference_parse_instance, eol.join(lines * 2))

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
