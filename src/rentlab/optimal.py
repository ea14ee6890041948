"""Ground-truth optima for small instances, plus cheap certified bounds.

The exact solver enumerates set partitions of the job indices in
restricted-growth order (each job joins an existing group or opens the next
fresh one), so every partition is visited exactly once and the first minimum
found is the canonical tie-break.  Groups pay for their full window from
first start to last finish, idle gaps included.

Two prunings keep this usable: a group extension is rejected as soon as the
accumulated cost reaches the incumbent, and the search stops outright when
the incumbent meets the interval floor, read once before the search, since
nothing can beat a proven floor.  Costs never fall along a branch, so the
first partition of optimal cost is recorded before the incumbent can prune
it, and a stop at any floor at most the optimum leaves the result and the
partitions examined as an exhaustive walk gives them.

The search runs on the instance's integer lattice: sizes, loads, times and
costs are ints, so every fit test, cost step and comparison decides exactly
as it would on the Fractions, and only the result goes back to a Fraction.
Each group is an int bitmask of its member job indices.  Starts never
decrease, so the members still running at job i's start are the group's
bits in ``alive[i]``, the earlier jobs that finish after it starts, and the
group's load there is the summed size of that live-member set.  Those sums
sit in one memo filled as the search meets each set: a key is a set of
jobs and its value their total size, whatever job asked for it, so one
entry serves every later fit test on the same set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .model import (
    Instance,
    InfeasibleScheduleError,
    Lattice,
    Schedule,
    _active_sizes,
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

    ``util_bound``, ``span_bound`` and ``interval_bound`` are the
    instance's utilization, span and ``interval_floor``, each at most
    ``cost``; the search stops only at ``interval_bound``.

    ``counters`` holds the search's work: ``nodes`` (calls of the
    recursion, one per partial partition extended), ``fit_tests`` (the
    comparisons of a group's load with the room a job leaves),
    ``load_sums`` (the live-member sets whose load was summed, each once),
    ``incumbent_updates`` (the times a complete partition beat the best so
    far) and ``stopped_at_floor`` (whether the incumbent met the interval
    floor and ended the search early; it is true exactly when the cost
    equals ``interval_bound``).  It takes no part in equality or repr.
    """

    schedule: Schedule
    cost: Fraction
    partitions_examined: int
    util_bound: Fraction
    span_bound: Fraction
    interval_bound: Fraction
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

    Each group is a bitmask of its job indices, kept with its latest
    finish.  ``alive[i]`` holds the earlier jobs that finish after job
    ``i`` starts, so a group's load at that start is the summed size of
    ``mask & alive[i]``, read from a memo of such sums that fills as the
    search runs (never a table of all 2^n sets); a job fits when that load
    is at most ``capacity`` minus its size.  The running cost is an int in
    lattice time units (``unit`` is time 1), as is the interval floor, which
    is read once, after the job limit is checked, and is at least
    max(utilization, span) and at most the optimum; the search stops when
    an incumbent meets it.
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
    floor = _interval_ticks(lat)

    # a job that ends by a start has a lower index, since its own start came
    # first, so alive[i] is every earlier job but those ended by starts[i]
    by_finish = sorted(range(n), key=finishes.__getitem__)
    alive: list[int] = []
    ended = k = 0
    for i, start in enumerate(starts):
        while k < n and finishes[by_finish[k]] <= start:
            ended |= 1 << by_finish[k]
            k += 1
        alive.append(((1 << i) - 1) ^ ended)
    loads = {0: 0}  # live-member set -> its summed size

    best: int | None = None
    best_masks: list[int] = []
    examined = nodes = fit_tests = updates = 0
    finished = False
    masks: list[int] = []  # per group, its job indices as bits
    max_finish: list[int] = []  # per group, its latest finish

    def descend(i: int, acc: int) -> None:
        nonlocal best, best_masks, examined, nodes, fit_tests, updates, finished
        nodes += 1
        if i == n:
            examined += 1
            if best is None or acc < best:
                best = acc
                best_masks = masks.copy()
                updates += 1
                finished = best <= floor
            return
        finish, live, bit = finishes[i], alive[i], 1 << i
        room = capacity - sizes[i]
        for g, mask in enumerate(masks):
            key = mask & live
            load = loads.get(key)
            if load is None:
                load = loads[key] = sum(sizes[j] for j in _bits(key))
            if load <= room:
                old_max = max_finish[g]
                grown = acc + finish - old_max if finish > old_max else acc
                if best is None or grown < best:
                    masks[g] = mask | bit
                    if finish > old_max:
                        max_finish[g] = finish
                    descend(i + 1, grown)
                    masks[g] = mask
                    max_finish[g] = old_max
                if finished:
                    fit_tests += g + 1
                    return
        fit_tests += len(masks)
        grown = acc + finish - starts[i]
        if best is None or grown < best:
            masks.append(bit)
            max_finish.append(finish)
            descend(i + 1, grown)
            masks.pop()
            max_finish.pop()

    try:
        descend(0, 0)
    except RecursionError:  # descend recurses once per job
        raise ValueError(f"{n} jobs exceed the exact search's recursion depth") from None
    # a partition into singletons always exists, and the empty instance has
    # the empty partition, so best is set
    return OptResult(
        schedule=make_schedule(instance, [list(_bits(m)) for m in best_masks]),
        cost=Fraction(best, lat.unit),
        partitions_examined=examined,
        util_bound=util_b,
        span_bound=span_b,
        interval_bound=Fraction(floor, lat.unit),
        counters={
            "nodes": nodes,
            "fit_tests": fit_tests,
            "load_sums": len(loads) - 1,
            "incumbent_updates": updates,
            "stopped_at_floor": finished,
        },
    )


def _bits(mask: int):
    """The set bits of ``mask``, as indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def interval_floor(instance: Instance) -> Fraction:
    """A lower bound on the optimum: the integral over time of a bin-packing
    floor of the sizes active at each moment.

    Why it is a floor: a server holds its jobs active at a time t within
    capacity 1, and it is rented at t, so at least BP(t) servers are rented
    at t, where BP(t) is the bin-packing number of the sizes active at t.
    Every schedule's cost is the integral of its rented-server count, so it
    is at least the integral of BP(t).  Between consecutive event times the
    active sizes do not change, and on each such interval this takes
    max(ceil(mass), L2) in place of BP, which is at most BP.  ceil(mass) is
    the MinUsageTime bound of Li, Tang and Cai (SPAA 2014), and L2 the
    bound of Martello and Toth (1990), under which, for 0 <= alpha <= C/2,
    each size above C/2 needs a bin of its own, no size of at least alpha
    fits beside one above C - alpha, and the sizes in [alpha, C/2] fill the
    room beside those in (C/2, C - alpha] before they open a bin.  Between
    two sizes of at most C/2 the sizes in [alpha, C/2] stay the same and the
    count never falls as alpha rises, so its maximum over [0, C/2] is at
    alpha = 0 or at an active size of at most C/2.  At alpha = 0 it is
    max(#sizes above C/2, ceil(mass)).

    It reads ``model._active_sizes``, the active sizes counted per lattice
    size at each event time; masses, bins and interval lengths are ints,
    and only the result is a ``Fraction``.
    """
    require_valid(instance)
    lat = instance.lattice
    return Fraction(_interval_ticks(lat), lat.unit)


def _interval_ticks(lat: Lattice) -> int:
    """``interval_floor`` in lattice time units, on a lattice its callers
    have validated."""
    total = bins = last = 0
    for t, active in _active_sizes(lat):
        total += bins * (t - last)
        bins = _bin_floor(active, lat.capacity)
        last = t
    return total


def _bin_floor(active: dict[int, int], capacity: int) -> int:
    """max(ceil(mass), L2) of the sizes that ``active`` counts, in bins of
    ``capacity``.

    alpha runs up over the sizes of at most half the capacity.  As it
    rises, the big sizes above ``capacity - alpha`` stop leaving room for
    the small ones, largest first, and the small mass to place drops the
    sizes below alpha.
    """
    small: list[tuple[int, int]] = []  # (size, count), ascending
    big: list[tuple[int, int]] = []
    big_count = room = rest = 0  # room: left beside the big sizes
    for size, count in sorted(active.items()):
        if 2 * size <= capacity:
            small.append((size, count))
            rest += size * count
        else:
            big.append((size, count))
            big_count += count
            room += (capacity - size) * count
    mass = big_count * capacity - room + rest
    best = max(big_count, -(-mass // capacity))
    for alpha, count in small:
        while big and big[-1][0] + alpha > capacity:
            size, n = big.pop()
            room -= (capacity - size) * n
        best = max(best, big_count - (room - rest) // capacity)
        rest -= alpha * count
    return best


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

    Under unit durations the jobs arriving in (t-1, t] are those active at
    t, so on the instance's lattice the mass is a running sum of +size at
    each start and -size at each finish over the sorted event times.
    """
    require_shape(instance, 1)
    lat = instance.lattice
    delta: dict[int, int] = {}  # lattice time -> change in active mass
    for size, start, finish in zip(lat.sizes, lat.starts, lat.finishes):
        delta[start] = delta.get(start, 0) + size
        delta[finish] = delta.get(finish, 0) - size
    masses = accumulate(map(delta.__getitem__, sorted(delta)))
    return [-(-mass // lat.capacity) for mass in masses]


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
