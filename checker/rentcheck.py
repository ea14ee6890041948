"""A plain Fraction model of server rental that imports nothing from rentlab.

Each function here is the direct version of a rentlab fast path: it loops
over Fractions where rentlab compares lattice ints, sweeps columns or
skips work it can prove needless.  rentlab's tests compare the two through
plain data, and a checker of rentlab's claims needs nothing but this
module and the standard library.

Plain data:

* an instance is a sequence of ``(size, start, finish)`` rows of rationals
  (``Row`` is one such row; any 3-tuple will do);
* a server is ``(id, job indices, open, close)``;
* a schedule is ``(rows, servers)``;
* a broken rule is a ``Violation``, whose text is rentlab's.

The event sweep, ``sweep``, lists each distinct start and finish
(``event_times``) with the rows running from it to the next; the
active-count profile and integral, ``span`` and the interval bounds read
it, and the arrival ceilings its times.

Run as a script, it checks a schedule file against an instance file,
printing the schedule's cost, or each broken rule and exit status 1 (2 when
a file cannot be read)::

    python checker/rentcheck.py INSTANCE SCHEDULE
"""

import json
import math
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple


class Row(NamedTuple):
    """One job: ``size`` of a server's capacity 1, held on [start, finish)."""

    size: Fraction
    start: Fraction
    finish: Fraction


class Violation(NamedTuple):
    """One broken rule, naming the job, server, time and load it concerns."""

    rule: str
    job_index: int | None = None
    server_id: int | None = None
    time: Fraction | None = None
    load: Fraction | None = None

    def __str__(self):
        where = [
            f"{name} {value}"
            for name, value in zip(("job", "server", "time", "load"), self[1:])
            if value is not None
        ]
        return f"{self.rule}: {', '.join(where)}" if where else self.rule


# ---------------------------------------------------------------------------
# Text: rationals, instance files and schedule files
# ---------------------------------------------------------------------------

def parse_rational(text):
    """'p' or 'p/q', with an optional sign on p and no space inside."""
    numerator, slash, denominator = text.strip().partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    if not digits.isdecimal() or (slash and not denominator.isdecimal()):
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    if slash and int(denominator) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(numerator), int(denominator) if slash else 1)


def format_rational(value):
    """'p' when the denominator is 1, else 'p/q', in lowest terms."""
    return str(Fraction(value))


def parse_instance(text):
    """The rows of an instance file, one 'size start finish' line each;
    blank lines and lines starting with '#' are skipped."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'size start finish', got {raw!r}")
        try:
            rows.append(Row(*map(parse_rational, fields)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return tuple(rows)


def format_instance(rows, header=None):
    """The instance file of ``rows``, under an optional '#' header."""
    lines = [f"# {h}" for h in header.splitlines()] if header else []
    for row in rows:
        lines.append(" ".join(map(format_rational, row)))
    return "\n".join(lines) + "\n"


def schedule_text(schedule):
    """The schedule file: indented JSON with windows as 'p/q' strings."""
    _, servers = schedule
    entries = [
        {
            "id": sid,
            "jobs": list(indices),
            "open": format_rational(opened),
            "close": format_rational(closed),
        }
        for sid, indices, opened, closed in servers
    ]
    return json.dumps({"servers": entries}, indent=2) + "\n"


def server_from_entry(k, entry):
    """Server entry ``k`` of a schedule file, refusing a field of the wrong
    type: ids and job indices are ints, windows 'p/q' strings."""
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
    return (sid, tuple(indices), *times)


def schedule_from_dict(rows, data):
    """The schedule a decoded schedule file claims for ``rows``: every
    entry well formed, and every job on exactly one server."""
    entries = data.get("servers") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise ValueError("schedule must be an object with a 'servers' list")
    servers = tuple(server_from_entry(k, entry) for k, entry in enumerate(entries))
    seen = set()
    for _, indices, _, _ in servers:
        for i in indices:
            if not 0 <= i < len(rows):
                raise ValueError(f"job index {i} out of range for this instance")
            if i in seen:
                raise ValueError(f"job index {i} assigned twice")
            seen.add(i)
    if len(seen) != len(rows):
        missing = sorted(set(range(len(rows))) - seen)
        raise ValueError(f"schedule does not cover jobs {missing}")
    return rows, servers


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def validate(rows):
    """Every broken rule of the instance: 0 < size <= 1, start >= 0,
    finish > start, and starts non-decreasing."""
    violations = []
    prev_start = None
    for i, (size, start, finish) in enumerate(rows):
        if not 0 < size:
            violations.append(Violation("size must be positive", job_index=i))
        if size > 1:
            violations.append(Violation("size must be at most 1", job_index=i))
        if start < 0:
            violations.append(Violation("start must be non-negative", job_index=i))
        if finish <= start:
            violations.append(Violation("finish must exceed start", job_index=i))
        if prev_start is not None and start < prev_start:
            violations.append(Violation("starts must be non-decreasing", job_index=i))
        prev_start = start
    return violations


def check_schedule(schedule):
    """Every broken rule of the schedule, server by server: no empty
    server, every index in range and on one server, each window from its
    members' min start to their max finish, and each server's load, summed
    anew at each of its members' starts, at most 1; then each job never
    assigned."""
    rows, servers = schedule
    violations = []
    assigned = set()
    for sid, indices, opened, closed in servers:
        if not indices:
            violations.append(Violation("server holds no jobs", server_id=sid))
            continue
        for i in indices:
            if not 0 <= i < len(rows):
                violations.append(Violation("job index out of range", job_index=i, server_id=sid))
                continue
            if i in assigned:
                violations.append(Violation("job assigned twice", job_index=i, server_id=sid))
            assigned.add(i)
        members = [rows[i] for i in indices if 0 <= i < len(rows)]
        if not members:
            continue
        if (opened, closed) != (min(r[1] for r in members), max(r[2] for r in members)):
            violations.append(
                Violation("rental window must span min start to max finish", server_id=sid)
            )
        for s in sorted({start for _, start, _ in members}):
            running = [size for size, start, finish in members if start <= s < finish]
            here = sum(running, Fraction(0))
            if here > 1:
                violations.append(Violation("capacity exceeded", server_id=sid, time=s, load=here))
    violations += [
        Violation("job never assigned", job_index=i) for i in range(len(rows)) if i not in assigned
    ]
    return violations


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def cost(schedule):
    """Total rented time: close - open summed over the servers."""
    _, servers = schedule
    return sum((closed - opened for _, _, opened, closed in servers), Fraction(0))


def utilization(rows):
    """Total work: size * duration summed over the jobs."""
    return sum((size * (finish - start) for size, start, finish in rows), Fraction(0))


def mu(rows):
    """The longest duration over the shortest."""
    if not rows:
        raise ValueError("undefined on empty instance")
    durations = [finish - start for _, start, finish in rows]
    return max(durations) / min(durations)


def event_times(rows):
    """Each distinct start and finish, in order."""
    return sorted({t for _, start, finish in rows for t in (start, finish)})


def sweep(rows):
    """[(t, active)] for each event time t, where ``active`` lists the
    indices of the rows running on [t, next t): start <= t < finish.  None
    runs from the last t on."""
    times = event_times(rows)
    active = [[] for _ in times]
    for i, (_, start, finish) in enumerate(rows):
        # the times t with start <= t < finish
        for k in range(bisect_left(times, start), bisect_left(times, finish)):
            active[k].append(i)
    return list(zip(times, active))


def span(rows):
    """Total time during which at least one job runs."""
    events = sweep(rows)
    return sum(
        (right - left for (left, active), (right, _) in zip(events, events[1:]) if active),
        Fraction(0),
    )


def active_count_profile(schedule):
    """(t, number of servers with a member running at t) at each event time."""
    rows, servers = schedule
    return [
        (t, sum(any(i in active for i in indices) for _, indices, _, _ in servers))
        for t, active in sweep(rows)
    ]


def active_count_integral(schedule):
    """The integral over time of the active-server count."""
    profile = active_count_profile(schedule)
    return sum(
        (count * (right - left) for (left, count), (right, _) in zip(profile, profile[1:])),
        Fraction(0),
    )


def arrival_ceiling_profile(rows):
    """ceil of the size arriving in (t - 1, t], at each event time t.

    When every job lasts 1, all those jobs run at t, so any schedule keeps
    that many servers rented at t.
    """
    if any(finish - start != 1 for _, start, finish in rows):
        raise ValueError("every job must last 1")
    return [
        math.ceil(sum((size for size, start, _ in rows if low < start <= t), Fraction(0)))
        for t in event_times(rows)
        for low in [t - 1]
    ]


# ---------------------------------------------------------------------------
# Floors of the optimum
# ---------------------------------------------------------------------------

def bin_packing(sizes):
    """The fewest capacity-1 bins that hold ``sizes``, by enumerating every
    assignment of each size to a bin already open or a new one."""
    best = len(sizes)

    def place(i, loads):
        nonlocal best
        if len(loads) >= best:
            return
        if i == len(sizes):
            best = len(loads)
            return
        for j, load in enumerate(loads):
            if load + sizes[i] <= 1:
                loads[j] += sizes[i]
                place(i + 1, loads)
                loads[j] -= sizes[i]
        loads.append(sizes[i])
        place(i + 1, loads)
        loads.pop()

    place(0, [])
    return best


def l2(sizes):
    """Martello and Toth's L2 of ``sizes``, each alpha's sets built apart."""
    half = Fraction(1, 2)
    best = 0
    for alpha in {Fraction(0), *(s for s in sizes if s <= half)}:
        j1 = [s for s in sizes if s > 1 - alpha]
        j2 = [s for s in sizes if half < s <= 1 - alpha]
        j3 = [s for s in sizes if alpha <= s <= half]
        spill = sum(j3, Fraction(0)) - (len(j2) - sum(j2, Fraction(0)))
        best = max(best, len(j1) + len(j2) + max(0, math.ceil(spill)))
    return best


def interval_bounds(rows):
    """The integrals over time of ceil(running mass), of max(ceil(mass),
    L2) and of the bin-packing number of the running sizes, interval by
    interval between event times."""
    events = sweep(rows)
    ceil_mass = floor = packed = Fraction(0)
    for (t, active), (next_t, _) in zip(events, events[1:]):
        sizes = [rows[i][0] for i in active]
        ceiling = math.ceil(sum(sizes, Fraction(0)))
        ceil_mass += (next_t - t) * ceiling
        floor += (next_t - t) * max(ceiling, l2(sizes))
        packed += (next_t - t) * bin_packing(sizes)
    return ceil_mass, floor, packed


# ---------------------------------------------------------------------------
# Script
# ---------------------------------------------------------------------------

def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: rentcheck.py INSTANCE SCHEDULE", file=sys.stderr)
        return 2
    try:
        rows = parse_instance(Path(args[0]).read_text())
        schedule = schedule_from_dict(rows, json.loads(Path(args[1]).read_text()))
    except (OSError, ValueError) as exc:
        print(f"rentcheck: {exc}", file=sys.stderr)
        return 2
    violations = validate(rows) + check_schedule(schedule)
    for violation in violations:
        print(violation)
    if violations:
        return 1
    print(f"cost {format_rational(cost(schedule))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
