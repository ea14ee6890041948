"""Exact-arithmetic model of jobs, instances, servers and schedules.

Every size, time and cost in this package is a ``fractions.Fraction``.  The
adversarial families in :mod:`rentlab.generators` separate servers by gaps far
below float resolution, so fit tests and cost comparisons must be exact.
Floats are rejected at the boundary rather than silently converted.  Inside,
each instance keeps one integer lattice (``Instance.lattice``), on which the
checks and measures below compare ints before turning results back into
Fractions.

Conventions:

* a job is a triple ``(size, start, finish)`` with ``0 < size <= 1``,
  ``start >= 0`` and ``finish > start``; it is active on the half-open
  interval ``[start, finish)``;
* jobs in an instance are ordered by non-decreasing start (arrival order);
* a server is rented from the earliest start to the latest finish of the
  jobs assigned to it, so idle gaps inside that window are still paid for;
* schedule cost is the total rented time over all servers.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain
from operator import eq, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, Union

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string into an exact rational.

    Floats are refused: 0.1 is not 1/10, and a silent conversion would
    poison every downstream comparison.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"refusing {value!r}: pass int, Fraction or a 'p/q' string"
        )
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (no decimals, no whitespace inside) exactly."""
    matched = _RATIONAL_RE.match(text.strip())
    if not matched:
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    numerator, denominator = matched.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render in lowest terms, as 'p' when the denominator is 1, else 'p/q'."""
    return str(value if type(value) is Fraction else Fraction(value))


@dataclass(frozen=True)
class Job:
    """One job: ``size`` of server capacity held on ``[start, finish)``."""

    size: Fraction
    start: Fraction
    finish: Fraction

    def __post_init__(self):
        for name in ("size", "start", "finish"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, as_rational(value))

    @property
    def duration(self) -> Fraction:
        return self.finish - self.start

    def active_at(self, t: Fraction) -> bool:
        return self.start <= t < self.finish


def _on_lattice(values: list[Fraction]) -> tuple[int, list[int]]:
    """(L, [v * L]) for L the lcm of the denominators: exact ints, in order.

    Each value is read once, as its ``(numerator, denominator)`` pair.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*{den for _, den in ratios})
    return scale, [num * (scale // den) for num, den in ratios]


@dataclass(frozen=True)
class Lattice:
    """An instance's jobs as exact ints, in presentation order.

    Sizes are scaled by the lcm of their denominators, so capacity 1 becomes
    ``capacity``; starts and finishes by the lcm of theirs, so time 1 becomes
    ``unit``.  Both maps are exact and order-preserving: every comparison,
    sum and difference decides on the ints as it would on the Fractions,
    and an int ``v`` on an axis is ``Fraction(v, capacity)`` or
    ``Fraction(v, unit)``.

    Each distinct ``Job`` object is mapped once and its ints are shared by
    every position that holds it; equal values of distinct ``Job``s are not
    merged into one int object.  ``parse_instance`` shares one ``Job`` per
    distinct line and every generated family one per distinct row, so a
    10,100-job ``long_uniform`` file maps 101 jobs and ggu(k, t) maps
    12k + 4 of its 47k.
    """

    capacity: int
    sizes: tuple[int, ...]
    unit: int
    starts: tuple[int, ...]
    finishes: tuple[int, ...]


def _build_lattice(jobs: tuple[Job, ...]) -> Lattice:
    """The lattice of ``jobs``, mapping each distinct ``Job`` object once.

    When every position holds its own ``Job``, the rows' int columns are
    the lattice.  Otherwise, as for parsed files and every generated
    family, each column is expanded to the positions by one ``itemgetter``
    over the rows' slots.
    """
    # keyed by identity: the jobs tuple keeps every object, and so its id, alive
    distinct = dict(zip(map(id, jobs), jobs))
    rows = jobs if len(distinct) == len(jobs) else distinct.values()
    capacity, sizes = _on_lattice([jb.size for jb in rows])
    unit, times = _on_lattice([jb.start for jb in rows] + [jb.finish for jb in rows])
    starts, finishes = times[: len(rows)], times[len(rows) :]
    if rows is jobs:
        # tuples of lists: a tuple built from an iterator is resized as it
        # grows, which raised peak RSS by about 2% on runs of many small
        # instances
        return Lattice(capacity, tuple(sizes), unit, tuple(starts), tuple(finishes))
    # two or more positions, so the getter returns a tuple, sized once
    slot = dict(zip(distinct, range(len(rows))))
    expand = itemgetter(*map(slot.__getitem__, map(id, jobs)))
    return Lattice(capacity, expand(sizes), unit, expand(starts), expand(finishes))


@dataclass(frozen=True)
class Instance:
    """An ordered sequence of jobs, presented to the algorithms one by one."""

    jobs: tuple[Job, ...]

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def __len__(self) -> int:
        return len(self.jobs)

    @cached_property
    def lattice(self) -> Lattice:
        """The jobs on their integer lattice, built on first use and kept.

        The cache lives in the instance's ``__dict__``; it is not a field,
        so equality, hashing and repr ignore it.
        """
        return _build_lattice(self.jobs)


def make_instance(rows: Iterable[Sequence]) -> Instance:
    """Build an instance from (size, start, finish) triples."""
    return Instance(tuple(Job(*row) for row in rows))


class Server(NamedTuple):
    """A rented server: which jobs it holds and its rental window.

    A named tuple, as ``algorithms.Decision`` is: read-only, and equal to
    (and hashed as) the plain tuple of its four values.
    """

    id: int
    job_indices: tuple[int, ...]
    open_time: Fraction
    close_time: Fraction


@dataclass(frozen=True)
class Schedule:
    """An assignment of every job of an instance to rented servers."""

    instance: Instance
    servers: tuple[Server, ...]


@dataclass(frozen=True)
class Violation:
    """One broken rule, pointing at the offending job and/or server."""

    rule: str
    job_index: int | None = None
    server_id: int | None = None
    time: Fraction | None = None
    load: Fraction | None = None

    def __str__(self) -> str:
        parts = [self.rule]
        if self.job_index is not None:
            parts.append(f"job {self.job_index}")
        if self.server_id is not None:
            parts.append(f"server {self.server_id}")
        if self.time is not None:
            parts.append(f"time {format_rational(self.time)}")
        if self.load is not None:
            parts.append(f"load {format_rational(self.load)}")
        return ": ".join([parts[0], ", ".join(parts[1:])]) if len(parts) > 1 else parts[0]


class InfeasibleScheduleError(ValueError):
    """Raised when a claimed schedule breaks capacity or completeness."""


def validate(instance: Instance) -> list[Violation]:
    """Check instance well-formedness; returns every broken rule.

    Rules: 0 < size <= 1, start >= 0, finish > start, and starts
    non-decreasing in presentation order.  Empty instances are valid.
    """
    lat = instance.lattice
    capacity = lat.capacity
    violations: list[Violation] = []
    prev_start: int | None = None
    for i, (size, start, finish) in enumerate(zip(lat.sizes, lat.starts, lat.finishes)):
        if not 0 < size:
            violations.append(Violation("size must be positive", job_index=i))
        if size > capacity:
            violations.append(Violation("size must be at most 1", job_index=i))
        if start < 0:
            violations.append(Violation("start must be non-negative", job_index=i))
        if finish <= start:
            violations.append(Violation("finish must exceed start", job_index=i))
        if prev_start is not None and start < prev_start:
            violations.append(Violation("starts must be non-decreasing", job_index=i))
        prev_start = start
    return violations


def require_valid(instance: Instance) -> None:
    """Raise ValueError naming every broken rule unless the instance is valid."""
    violations = validate(instance)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(str(v) for v in violations))


def require_shape(instance: Instance, duration: int, starts=None) -> None:
    """Raise ValueError at the first job whose duration is not ``duration``
    or, when ``starts`` (a collection of rationals) is given, whose start is
    not among them: the setting each of the paper's bounds holds in.  Both
    tests compare lattice ints, where a time ``x`` is ``x * unit``.
    """
    lat = instance.lattice
    unit = lat.unit
    length = duration * unit
    # a start off the lattice scales to a non-integer, which no job's equals
    allowed = None if starts is None else {s * unit for s in starts}
    for i, (start, finish) in enumerate(zip(lat.starts, lat.finishes)):
        if finish - start != length:
            shown = format_rational(Fraction(finish - start, unit))
            raise ValueError(f"job {i} has duration {shown}; expected {duration}")
        if allowed is not None and start not in allowed:
            *others, last = map(format_rational, sorted(starts))
            expected = f"{', '.join(others)} or {last}" if others else last
            shown = format_rational(Fraction(start, unit))
            raise ValueError(f"job {i} starts at {shown}; expected {expected}")


def utilization(instance: Instance) -> Fraction:
    """Total work: sum of size * duration over all jobs."""
    lat = instance.lattice
    work = sum(
        size * (finish - start)
        for size, start, finish in zip(lat.sizes, lat.starts, lat.finishes)
    )
    return Fraction(work, lat.capacity * lat.unit)


def span(instance: Instance) -> Fraction:
    """Total length of time during which at least one job is active."""
    lat = instance.lattice
    total = sum(f - s for s, f in _segments(zip(lat.starts, lat.finishes)))
    return Fraction(total, lat.unit)


def _segments(intervals: Iterable[tuple[int, int]]):
    """The disjoint union of (start, finish) lattice intervals, in time
    order; an interval with finish <= start is never active and skipped."""
    start = end = None
    for s, f in sorted(intervals):
        if f <= s:
            continue  # never active
        if end is None or s > end:
            if end is not None:
                yield start, end
            start, end = s, f
        elif f > end:
            end = f
    if end is not None:
        yield start, end


def _active_sizes(lattice: Lattice):
    """(t, active) at each sorted distinct lattice event time t, where
    ``active``, one dict updated in place, counts by lattice size the jobs
    running on [t, next event).  Every job must finish after it starts."""
    entering: dict[int, list[int]] = {}
    leaving: dict[int, list[int]] = {}
    for size, start, finish in zip(lattice.sizes, lattice.starts, lattice.finishes):
        entering.setdefault(start, []).append(size)
        leaving.setdefault(finish, []).append(size)
    active: dict[int, int] = {}
    for t in sorted(entering.keys() | leaving.keys()):
        for size in leaving.get(t, ()):
            if active[size] == 1:
                del active[size]
            else:
                active[size] -= 1
        for size in entering.get(t, ()):
            active[size] = active.get(size, 0) + 1
        yield t, active


def mu(instance: Instance) -> Fraction:
    """Max-to-min duration ratio; 1 means equal-length jobs."""
    if not instance.jobs:
        raise ValueError("undefined on empty instance")
    lat = instance.lattice
    durations = [f - s for s, f in zip(lat.starts, lat.finishes)]
    return Fraction(max(durations), min(durations))


def arrival_mass(instance: Instance, t1: Fraction, t2: Fraction) -> Fraction:
    """Total size of jobs whose start falls in the half-open window (t1, t2]."""
    t1 = as_rational(t1)
    t2 = as_rational(t2)
    if t1 >= t2:
        raise ValueError("window must satisfy t1 < t2")
    return sum(
        (jb.size for jb in instance.jobs if t1 < jb.start <= t2), Fraction(0)
    )


def arrival_mass_at(instance: Instance, t: Fraction) -> Fraction:
    """Total size of jobs arriving exactly at time t."""
    t = as_rational(t)
    return sum((jb.size for jb in instance.jobs if jb.start == t), Fraction(0))


def event_times(instance: Instance) -> list[Fraction]:
    """Sorted distinct job starts and finishes; loads are constant between them."""
    points = {jb.start for jb in instance.jobs} | {jb.finish for jb in instance.jobs}
    return sorted(points)


def load(schedule: Schedule, server: Union[Server, int], t: Fraction) -> Fraction:
    """Total size of the server's jobs active at time t."""
    if isinstance(server, int):
        server = schedule.servers[server]
    t = as_rational(t)
    jobs = schedule.instance.jobs
    return sum(
        (jobs[i].size for i in server.job_indices if jobs[i].active_at(t)),
        Fraction(0),
    )


def active_count(schedule: Schedule, t: Fraction) -> int:
    """Number of servers with at least one active job at time t.

    A point query; active_count_profile gives every event time in one sweep.
    """
    t = as_rational(t)
    jobs = schedule.instance.jobs
    count = 0
    for server in schedule.servers:
        if any(jobs[i].active_at(t) for i in server.job_indices):
            count += 1
    return count


def cost(schedule: Schedule) -> Fraction:
    """Total rented time: sum over servers of close - open.

    Window ends are summed as int numerators, one running sum per
    denominator; those sums are then put over the lcm of the denominators,
    so the one Fraction built is the result.
    """
    by_denominator: dict[int, int] = {}
    for srv in schedule.servers:
        numerator, denominator = srv.close_time.as_integer_ratio()
        by_denominator[denominator] = by_denominator.get(denominator, 0) + numerator
        numerator, denominator = srv.open_time.as_integer_ratio()
        by_denominator[denominator] = by_denominator.get(denominator, 0) - numerator
    common = math.lcm(*by_denominator)
    return Fraction(
        sum(n * (common // d) for d, n in by_denominator.items()), common
    )


def _active_counts(schedule: Schedule) -> list[tuple[int, int]]:
    """(lattice time, active-server count) at every lattice event time.

    Each server's ``_segments`` add +1 at their starts and -1 at their
    ends, and a running sum of those deltas over the event times gives the
    count.
    """
    lat = schedule.instance.lattice
    starts, finishes = lat.starts, lat.finishes
    delta: dict[int, int] = {}
    for server in schedule.servers:
        for s, f in _segments((starts[i], finishes[i]) for i in server.job_indices):
            delta[s] = delta.get(s, 0) + 1
            delta[f] = delta.get(f, 0) - 1
    times = sorted({*starts, *finishes})
    return list(zip(times, accumulate(delta.get(t, 0) for t in times)))


def active_count_profile(schedule: Schedule) -> list[tuple[Fraction, int]]:
    """(t, active_count(schedule, t)) for every t in event_times."""
    unit = schedule.instance.lattice.unit
    return [(Fraction(t, unit), count) for t, count in _active_counts(schedule)]


def active_count_integral(schedule: Schedule) -> Fraction:
    """Integral of the active-server count over time.

    Equals cost(schedule) exactly when no server has an idle gap inside its
    rental window; in general cost is at least this integral.
    """
    profile = _active_counts(schedule)
    pairs = zip(profile, profile[1:])
    total = sum(count * (right - left) for (left, count), (right, _) in pairs)
    return Fraction(total, schedule.instance.lattice.unit)


def make_schedule(instance: Instance, groups: Sequence[Sequence[int]]) -> Schedule:
    """Assemble a schedule from groups of job indices.

    Rental windows are derived (min start to max finish per group).  Groups
    must reference valid, distinct job indices; capacity is not checked here,
    see check_schedule.

    Each window is the start (finish) of the group's first job with the
    least lattice start (greatest lattice finish): the same Fraction object
    that ``min`` (``max``) over the jobs' Fractions returns, found by
    comparing ints.
    """
    servers = []
    seen: set[int] = set()
    jobs = instance.jobs
    n = len(jobs)
    lat = instance.lattice
    earliest, latest = lat.starts.__getitem__, lat.finishes.__getitem__
    for sid, group in enumerate(groups):
        if not group:
            raise ValueError("empty server group")
        for i in group:
            if not 0 <= i < n:
                raise ValueError(f"job index {i} out of range")
            if i in seen:
                raise ValueError(f"job index {i} assigned twice")
            seen.add(i)
        servers.append(
            Server(
                id=sid,
                job_indices=tuple(group),
                open_time=jobs[min(group, key=earliest)].start,
                close_time=jobs[max(group, key=latest)].finish,
            )
        )
    return Schedule(instance=instance, servers=tuple(servers))


def _tick(value, scale: int) -> int | None:
    """``value * scale`` when that is an int, else None.

    The ratio of a rational ``value`` is in lowest terms, so it is a
    fraction of ``scale`` only when its denominator divides ``scale``.
    """
    numerator, denominator = value.as_integer_ratio()
    return None if scale % denominator else numerator * (scale // denominator)


def _covers(chained: list, n: int) -> bool:
    """Whether ``chained`` holds each of ``0 .. n-1`` exactly once.

    The sorted indices are compared with ``range(n)`` one by one, which
    builds no list of n ints.
    """
    return len(chained) == n and all(map(eq, sorted(chained), range(n)))


def _members_walk(servers, n: int, violations: list[Violation]):
    """(id, members, open, close) of each server with an in-range member.

    Before each server is yielded, its empty-server, out-of-range and
    repeated-index faults are appended to ``violations``, in index order;
    once the servers are exhausted, one fault per job never assigned.  So a
    caller that appends a server's other faults before asking for the next
    one keeps every fault in server order.
    """
    assigned = [False] * n
    for sid, indices, opened, closed in servers:
        if not indices:
            violations.append(Violation("server holds no jobs", server_id=sid))
            continue
        members = []
        for i in indices:
            if not 0 <= i < n:
                violations.append(
                    Violation("job index out of range", job_index=i, server_id=sid)
                )
                continue
            if assigned[i]:
                violations.append(
                    Violation("job assigned twice", job_index=i, server_id=sid)
                )
            assigned[i] = True
            members.append(i)
        if members:
            yield sid, members, opened, closed
    violations += [
        Violation("job never assigned", job_index=i)
        for i, seen in enumerate(assigned)
        if not seen
    ]


def check_schedule(schedule: Schedule) -> list[Violation]:
    """Check completeness, rental-window consistency and capacity.

    One whole-schedule test comes first: when the servers' job indices,
    chained, are each job index exactly once and no server is empty, no
    membership rule can break.  Otherwise ``_members_walk`` visits the
    indices one by one to name each such fault in order, and passes on each
    server's in-range members.  Either way every server with members then
    gets the same window test and capacity sweep, on the instance's lattice.

    The window test compares the min start and the max finish of the
    members with the window's ticks; each distinct window object becomes its
    lattice tick once per call (keyed by ``id``: the servers keep every
    window alive).  When no size is negative, a server whose members' total
    size fits in one server cannot be overloaded, and is not swept.  Only
    the others are sorted by start and swept: capacity is tested at each
    distinct start, since once a job is running the load can only drop
    until the next start.  The sweep adds the jobs that arrive at each start
    and drops, from a heap ordered by finish, those that have left.
    """
    violations: list[Violation] = []
    lat = schedule.instance.lattice
    starts, finishes, sizes = lat.starts, lat.finishes, lat.sizes
    capacity, unit = lat.capacity, lat.unit
    servers = schedule.servers
    index_lists = list(map(itemgetter(1), servers))
    if all(index_lists) and _covers(list(chain.from_iterable(index_lists)), len(starts)):
        checked = servers
    else:
        checked = _members_walk(servers, len(starts), violations)
    nonnegative = min(sizes, default=0) >= 0
    start_of, finish_of = starts.__getitem__, finishes.__getitem__
    size_of = sizes.__getitem__
    ticks: dict[int, int | None] = {}  # lattice tick by window id
    for sid, members, opened, closed in checked:
        if nonnegative and sum(map(size_of, members)) <= capacity:
            begins = None
            first = min(map(start_of, members))
        else:
            members = sorted(members, key=start_of)
            begins = list(map(start_of, members))
            first = begins[0]
        if (low := ticks.get(id(opened))) is None:
            low = ticks[id(opened)] = _tick(opened, unit)
        if (high := ticks.get(id(closed))) is None:
            high = ticks[id(closed)] = _tick(closed, unit)
        if low != first or high != max(map(finish_of, members)):
            violations.append(
                Violation("rental window must span min start to max finish", server_id=sid)
            )
        if begins is None:
            continue
        running: list[tuple[int, int]] = []  # (finish, size) heap
        here = 0
        k = 0
        while k < len(members):
            s = begins[k]
            while running and running[0][0] <= s:
                here -= heapq.heappop(running)[1]
            while k < len(members) and begins[k] == s:
                i = members[k]
                k += 1
                if finishes[i] > s:
                    here += sizes[i]
                    heapq.heappush(running, (finishes[i], sizes[i]))
            if here > capacity:
                violations.append(
                    Violation(
                        "capacity exceeded",
                        server_id=sid,
                        time=Fraction(s, unit),
                        load=Fraction(here, capacity),
                    )
                )
    return violations


def scale_time(instance: Instance, factor: Fraction) -> Instance:
    """Stretch the time axis by a positive factor; sizes are untouched.

    Fit decisions are invariant under this map, so it converts between
    unit-duration and duration-k variants of the same packing behaviour.
    """
    factor = as_rational(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    return Instance(
        tuple(
            Job(jb.size, jb.start * factor, jb.finish * factor)
            for jb in instance.jobs
        )
    )


# ---------------------------------------------------------------------------
# Plain-text instance files and JSON schedule reports.
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse an instance file: one 'size start finish' line per job.

    Fields are integers or p/q rationals; '#' starts a comment line and
    blank lines are skipped.  Each distinct line is parsed once, and each
    distinct field text within the lines: jobs whose lines read the same
    (after stripping) share one frozen ``Job``, and a malformed line or
    field is reported at its first occurrence.
    """
    jobs = []
    parsed: dict[str, Job] = {}
    rational = cache(parse_rational)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        job = parsed.get(line)
        if job is None:
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(
                    f"line {lineno}: expected 'size start finish', got {raw!r}"
                )
            try:
                size, start, finish = map(rational, fields)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            job = parsed[line] = Job(size, start, finish)
        jobs.append(job)
    return Instance(tuple(jobs))


def format_instance(instance: Instance, header: str | None = None) -> str:
    """Render an instance file; optional '#' header for provenance notes.

    Each distinct ``Job`` object is formatted once, and its line is written
    at every position that holds it (keyed by ``id``: the instance keeps
    every job alive), so a file of many shared rows formats few Fractions.
    """
    lines = [f"# {h}" for h in header.splitlines()] if header else []
    keys = list(map(id, instance.jobs))
    shown = {
        key: f"{format_rational(jb.size)} {format_rational(jb.start)} {format_rational(jb.finish)}"
        for key, jb in dict(zip(keys, instance.jobs)).items()
    }
    lines += map(shown.__getitem__, keys)
    return "\n".join(lines) + "\n"


def read_instance(path) -> Instance:
    return parse_instance(Path(path).read_text())


def write_instance(path, instance: Instance, header: str | None = None) -> None:
    Path(path).write_text(format_instance(instance, header=header))


def schedule_to_dict(schedule: Schedule) -> dict:
    """JSON-ready form: job indices plus open/close times as p/q strings."""
    return {
        "servers": [
            {
                "id": sid,
                "jobs": list(indices),
                "open": format_rational(opened),
                "close": format_rational(closed),
            }
            for sid, indices, opened, closed in schedule.servers
        ]
    }


def _server_from_entry(k: int, entry, rational) -> Server:
    """Server entry k of a stored schedule; refuses a field of the wrong type.

    ``rational``, a cached ``parse_rational``, is shared by the entries, so
    a window text that many of them hold is parsed once.
    """
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
            times.append(rational(text))
        except ValueError as exc:
            raise ValueError(f"server entry {k}: {name}: {exc}") from None
    return Server(sid, tuple(indices), *times)


def _servers_at_once(entries: list, n: int, rational) -> tuple[Server, ...] | None:
    """The servers of ``entries`` read column by column, or None when any
    entry or the coverage of ``0 .. n-1`` is at fault, without naming it."""
    try:
        ids, index_lists, opens, closes = [
            list(map(itemgetter(key), entries)) for key in ("id", "jobs", "open", "close")
        ]
    except (KeyError, TypeError):
        return None
    if not (
        {*map(type, ids)} <= {int}
        and {*map(type, index_lists)} <= {list}
        and {*map(type, opens), *map(type, closes)} <= {str}
    ):
        return None
    chained = list(chain.from_iterable(index_lists))
    if not ({*map(type, chained)} <= {int} and _covers(chained, n)):
        return None
    try:
        open_times, close_times = list(map(rational, opens)), list(map(rational, closes))
    except ValueError:
        return None
    return tuple(map(Server, ids, map(tuple, index_lists), open_times, close_times))


def schedule_from_dict(instance: Instance, data: dict) -> Schedule:
    """Rebuild a schedule against its instance.

    Strict on structure: ids and job indices must be integers (not bools,
    floats or strings) and windows 'p/q' strings, every job of the instance
    must appear exactly once and indices must be in range (stored schedules
    are claims about a known instance; a silent partial read would hide a
    mismatched file).

    The entries are read in whole-file passes: their fields as columns,
    each column's types tested at once, each distinct window text parsed
    once, and the chained job indices tested to be each job exactly once.
    Only when one of those fails are the entries walked one by one, to name
    the first fault.
    """
    entries = data.get("servers") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise ValueError("schedule must be an object with a 'servers' list")
    rational = cache(parse_rational)
    n = len(instance.jobs)
    servers = _servers_at_once(entries, n, rational)
    if servers is not None:
        return Schedule(instance=instance, servers=servers)
    servers = tuple(
        _server_from_entry(k, entry, rational) for k, entry in enumerate(entries)
    )
    covered = [False] * n
    for server in servers:
        for i in server.job_indices:
            if not 0 <= i < n:
                raise ValueError(f"job index {i} out of range for this instance")
            if covered[i]:
                raise ValueError(f"job index {i} assigned twice")
            covered[i] = True
    if not all(covered):
        missing = [i for i, seen in enumerate(covered) if not seen]
        raise ValueError(f"schedule does not cover jobs {missing}")
    return Schedule(instance=instance, servers=servers)


def read_schedule(path, instance: Instance) -> Schedule:
    return schedule_from_dict(instance, json.loads(Path(path).read_text()))


def _schedule_text(schedule: Schedule) -> str:
    """The schedule file's text, built without ``json``'s indenting encoder.

    It equals ``json.dumps(schedule_to_dict(schedule), indent=2)`` plus a
    newline, byte for byte: ``json.dumps`` indents with its pure-Python
    encoder, and this is its layout for this one shape of document.  Ids and
    job indices are ints and windows 'p/q' strings, which need no escaping.
    Each window object is formatted once: the policies' windows are the
    jobs' own Fractions, which jobs read from one line share.
    """
    entries = []
    shown: dict[int, str] = {}  # window text by id; the schedule keeps each alive
    for sid, indices, opened, closed in schedule.servers:
        jobs = ",\n        ".join(map(str, indices))
        jobs = f"[\n        {jobs}\n      ]" if jobs else "[]"
        if (open_text := shown.get(id(opened))) is None:
            open_text = shown[id(opened)] = format_rational(opened)
        if (close_text := shown.get(id(closed))) is None:
            close_text = shown[id(closed)] = format_rational(closed)
        entries.append(
            f'    {{\n      "id": {sid},\n      "jobs": {jobs},\n'
            f'      "open": "{open_text}",\n'
            f'      "close": "{close_text}"\n    }}'
        )
    if not entries:
        return '{\n  "servers": []\n}\n'
    return '{\n  "servers": [\n' + ",\n".join(entries) + "\n  ]\n}\n"


def write_schedule(path, schedule: Schedule) -> None:
    """Write ``schedule`` as indented JSON, one line per job index.

    The bytes are those of ``json.dumps(schedule_to_dict(schedule),
    indent=2)`` plus a newline; the schedule files of ``rentlab run``,
    ``opt`` and ``gen`` are pinned to them.
    """
    Path(path).write_text(_schedule_text(schedule))
