"""Ground-truth optima for small instances, plus cheap certified bounds.

The exact solver enumerates set partitions of the job indices in
restricted-growth order (each job joins an existing group or opens the next
fresh one), so every partition is visited exactly once and the first minimum
found is the canonical tie-break.  Groups pay for their full window from
first start to last finish, idle gaps included.

Two prunings keep this usable: a group extension is rejected as soon as the
accumulated cost reaches the incumbent, and the search stops outright when
the incumbent meets the utilization/span lower bound, since nothing can beat
a proven floor.

The search runs on the instance's integer lattice: sizes, loads, times and
costs are ints, so every fit test, cost step and comparison decides exactly
as it would on the Fractions, and only the result goes back to a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    Instance,
    InfeasibleScheduleError,
    Schedule,
    arrival_mass,
    as_rational,
    check_schedule,
    cost,
    make_schedule,
    require_shape,
    require_valid,
    span,
    utilization,
)


@dataclass(frozen=True)
class OptResult:
    """Outcome of the exact search.

    ``counters`` holds the search's work: ``nodes`` (calls of the
    recursion, one per partial partition extended), ``incumbent_updates``
    (the times a complete partition beat the best so far) and
    ``stopped_at_floor`` (whether the incumbent met the lower bound and
    ended the search early).  It takes no part in equality or repr.
    """

    schedule: Schedule
    cost: Fraction
    partitions_examined: int
    util_bound: Fraction
    span_bound: Fraction
    counters: dict = field(default_factory=dict, compare=False, repr=False)


def lower_bounds(instance: Instance) -> tuple[Fraction, Fraction]:
    """(utilization, span): every feasible schedule costs at least each."""
    return (utilization(instance), span(instance))


def brute_force_opt(instance: Instance, max_jobs: int = 10) -> OptResult:
    """Exhaustively find a cheapest feasible schedule.

    Raises ValueError when the instance exceeds ``max_jobs`` (the default 10
    keeps worst-case enumeration around the 115975 partitions of ten items),
    or has more jobs than Python's recursion limit lets the search descend.
    partitions_examined counts complete partitions reached; pruned branches
    never produce one.

    Each group keeps its members' lattice (finish, size) ints and its
    latest finish; a job fits when the group's load at its start, the sizes
    of the members still running then, is at most ``capacity`` minus its
    size.  The running cost is an int in lattice time units (``unit`` is
    time 1), so the floor max(utilization, span) becomes the int
    ``floor(max(utilization, span) * unit)``: for an int cost ``c``,
    ``c / unit <= bound`` holds exactly when ``c <= floor(bound * unit)``.
    """
    if max_jobs < 1:
        raise ValueError(f"max_jobs must be at least 1, got {max_jobs}")
    require_valid(instance)
    n = len(instance.jobs)
    if n > max_jobs:
        raise ValueError(f"{n} jobs exceeds brute-force limit of {max_jobs}")
    util_b, span_b = lower_bounds(instance)
    lat = instance.lattice
    capacity, sizes = lat.capacity, lat.sizes
    starts, finishes = lat.starts, lat.finishes
    floor = math.floor(max(util_b, span_b) * lat.unit)

    best: int | None = None
    best_groups: list[list[int]] = []
    examined = nodes = updates = 0
    finished = False
    indices: list[list[int]] = []  # per group, its job indices in order
    members: list[list[tuple[int, int]]] = []  # per group, (finish, size)
    max_finish: list[int] = []  # per group, its latest finish

    def descend(i: int, acc: int) -> None:
        nonlocal best, best_groups, examined, nodes, updates, finished
        nodes += 1
        if i == n:
            examined += 1
            if best is None or acc < best:
                best = acc
                best_groups = [list(g) for g in indices]
                updates += 1
                if best <= floor:
                    finished = True
            return
        start, finish, size = starts[i], finishes[i], sizes[i]
        room = capacity - size
        for g, group in enumerate(members):
            # earlier members all started at or before this start, so only
            # departures lower the load
            if sum(s for f, s in group if f > start) <= room:
                old_max = max_finish[g]
                grown = acc + finish - old_max if finish > old_max else acc
                if best is None or grown < best:
                    indices[g].append(i)
                    group.append((finish, size))
                    if finish > old_max:
                        max_finish[g] = finish
                    descend(i + 1, grown)
                    indices[g].pop()
                    group.pop()
                    max_finish[g] = old_max
                if finished:
                    return
        grown = acc + finish - start
        if best is None or grown < best:
            indices.append([i])
            members.append([(finish, size)])
            max_finish.append(finish)
            descend(i + 1, grown)
            indices.pop()
            members.pop()
            max_finish.pop()

    try:
        descend(0, 0)
    except RecursionError:  # descend recurses once per job
        raise ValueError(f"{n} jobs exceed the exact search's recursion depth") from None
    # a partition into singletons always exists, and the empty instance has
    # the empty partition, so best is set
    return OptResult(
        schedule=make_schedule(instance, best_groups),
        cost=Fraction(best, lat.unit),
        partitions_examined=examined,
        util_bound=util_b,
        span_bound=span_b,
        counters={
            "nodes": nodes,
            "incumbent_updates": updates,
            "stopped_at_floor": finished,
        },
    )


def active_ceil_bound(instance: Instance, t: Fraction) -> int:
    """Ceiling of the size mass arriving in (t-1, t]; needs unit durations.

    Any schedule must keep that many servers running at time t, because every
    job arriving in the window is still active then and sizes are at most 1.
    A point query; arrival_ceiling_profile gives every event time in one sweep.
    """
    require_shape(instance, 1)
    t = as_rational(t)
    return math.ceil(arrival_mass(instance, t - 1, t))


def arrival_ceiling_profile(instance: Instance) -> list[int]:
    """active_ceil_bound(instance, t) for every t in event_times, in one sweep.

    On the instance's lattice capacity 1 is ``capacity`` and a unit of time
    is ``unit``, so each finish is its start plus ``unit``.  Two pointers
    over the sorted starts keep the integer mass arriving in (t-1, t].
    """
    require_shape(instance, 1)
    lat = instance.lattice
    capacity, unit = lat.capacity, lat.unit
    arrivals = sorted(zip(lat.starts, lat.sizes))
    ceilings = []
    mass = entered = left = 0
    for t in sorted({*lat.starts, *lat.finishes}):
        while entered < len(arrivals) and arrivals[entered][0] <= t:
            mass += arrivals[entered][1]
            entered += 1
        while left < entered and arrivals[left][0] <= t - unit:
            mass -= arrivals[left][1]
            left += 1
        ceilings.append(-(-mass // capacity))
    return ceilings


def verify_certificate(instance: Instance, claimed: Schedule) -> Fraction:
    """Check a claimed schedule against its instance; return its exact cost.

    The claim must cover every job exactly once, respect capacity at every
    moment, and rent each server for exactly its jobs' min-start-to-max-finish
    window.  The first broken rule is raised as InfeasibleScheduleError.
    """
    if claimed.instance != instance:
        raise InfeasibleScheduleError("schedule was built for a different instance")
    violations = check_schedule(claimed)
    if violations:
        raise InfeasibleScheduleError(str(violations[0]))
    return cost(claimed)
