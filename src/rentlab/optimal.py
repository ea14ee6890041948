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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    require_valid,
    span,
    utilization,
)


@dataclass(frozen=True)
class OptResult:
    """Outcome of the exact search."""

    schedule: Schedule
    cost: Fraction
    partitions_examined: int
    util_bound: Fraction
    span_bound: Fraction


def lower_bounds(instance: Instance) -> tuple[Fraction, Fraction]:
    """(utilization, span): every feasible schedule costs at least each."""
    return (utilization(instance), span(instance))


class _Group:
    __slots__ = ("indices", "members", "max_finish")

    def __init__(self, index: int, finish: Fraction, size: Fraction):
        self.indices = [index]
        self.members: list[tuple[Fraction, Fraction]] = [(finish, size)]
        self.max_finish = finish

    def load_at(self, t: Fraction) -> Fraction:
        # Earlier members all started at or before t, so only departures matter.
        return sum((size for fin, size in self.members if fin > t), Fraction(0))


def brute_force_opt(instance: Instance, max_jobs: int = 10) -> OptResult:
    """Exhaustively find a cheapest feasible schedule.

    Raises ValueError when the instance exceeds ``max_jobs`` (the default 10
    keeps worst-case enumeration around the 115975 partitions of ten items).
    partitions_examined counts complete partitions reached; pruned branches
    never produce one.
    """
    if max_jobs < 1:
        raise ValueError(f"max_jobs must be at least 1, got {max_jobs}")
    require_valid(instance)
    jobs = instance.jobs
    n = len(jobs)
    if n > max_jobs:
        raise ValueError(f"{n} jobs exceeds brute-force limit of {max_jobs}")
    util_b, span_b = lower_bounds(instance)
    if n == 0:
        return OptResult(Schedule(instance, ()), Fraction(0), 1, util_b, span_b)
    floor = max(util_b, span_b)

    best_cost: Fraction | None = None
    best_groups: list[list[int]] | None = None
    examined = 0
    finished = False
    groups: list[_Group] = []

    def descend(i: int, acc: Fraction) -> None:
        nonlocal best_cost, best_groups, examined, finished
        if finished:
            return
        if i == n:
            examined += 1
            if best_cost is None or acc < best_cost:
                best_cost = acc
                best_groups = [list(g.indices) for g in groups]
                if best_cost <= floor:
                    finished = True
            return
        jb = jobs[i]
        for g in groups:
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
            groups.append(_Group(i, jb.finish, jb.size))
            descend(i + 1, grown)
            groups.pop()

    descend(0, Fraction(0))
    assert best_groups is not None  # a partition into singletons always exists
    schedule = make_schedule(instance, best_groups)
    return OptResult(
        schedule=schedule,
        cost=best_cost,
        partitions_examined=examined,
        util_bound=util_b,
        span_bound=span_b,
    )


def _require_unit_durations(instance: Instance) -> None:
    lat = instance.lattice
    for i, (start, finish) in enumerate(zip(lat.starts, lat.finishes)):
        if finish - start != lat.unit:
            raise ValueError(
                f"job {i} has duration {instance.jobs[i].duration}; "
                "bound requires unit durations"
            )


def active_ceil_bound(instance: Instance, t: Fraction) -> int:
    """Ceiling of the size mass arriving in (t-1, t]; needs unit durations.

    Any schedule must keep that many servers running at time t, because every
    job arriving in the window is still active then and sizes are at most 1.
    A point query; arrival_ceiling_profile gives every event time in one sweep.
    """
    _require_unit_durations(instance)
    t = as_rational(t)
    return math.ceil(arrival_mass(instance, t - 1, t))


def arrival_ceiling_profile(instance: Instance) -> list[int]:
    """active_ceil_bound(instance, t) for every t in event_times, in one sweep.

    On the instance's lattice capacity 1 is ``capacity`` and a unit of time
    is ``unit``, so each finish is its start plus ``unit``.  Two pointers
    over the sorted starts keep the integer mass arriving in (t-1, t].
    """
    _require_unit_durations(instance)
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
