"""Online assignment policies with full decision traces.

Both policies see jobs in arrival order and must place each one before the
next arrives.  A placement is feasible when the server's load at the job's
start, plus the job's size, stays within capacity 1; because earlier jobs
start no later, the concurrent load after that start can only shrink, so a
single test at the start time is exact.

One placement kernel serves both.  Its candidates are the servers that have
not terminated before the arrival, in opening order; the job goes into the
first candidate that fits, and a new server opens only when none does.  The
policies differ only in what a new server does to the candidates: under
FirstFit it joins them, so every server that has not terminated stays a
candidate; under NextFit it replaces them, so a server closed on overflow or
expiry is never reused, even if a later job would fit.

The kernel finds that first candidate without testing the others.  A tree
over the candidates, in opening order, holds at each node the largest free
capacity of any candidate below it (Johnson's tree-based FirstFit, with
departures raising free capacity), so each placement walks one path from
the root.  A trace's ``servers_scanned`` is therefore not a measure of
work: it is the chosen server's 1-based rank among the live candidates, the
count a linear scan in opening order would test.  The kernel's own work is
in ``AlgorithmTrace.counters``.  A trace keeps each job's server id and
rank as two int columns, and builds ``Decision`` records only when read.

Departures are kept by finish time.  Jobs of equal duration, the paper's
setting, leave in large groups, so an arrival takes each finish it has
reached off a heap once and returns the capacity of every job that ends
then.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from operator import gt
from typing import NamedTuple

from .model import Instance, Schedule, Server, require_shape, require_valid


class Decision(NamedTuple):
    """What happened when one job was placed.

    ``servers_scanned`` is the chosen server's 1-based rank among the live
    candidates in opening order, or their count when a new server opens:
    the servers a linear FirstFit scan would test.  The kernel reaches the
    server through an index, so this is the policy's choice, not its work.
    NextFit's one open server counts as scanned for every job after the
    first, even once it has expired.

    The kernel builds none (see ``AlgorithmTrace.decisions``).  A record is
    read-only and equals (and hashes as) the plain tuple of its values.
    """

    job_index: int
    server_id: int
    opened_new_server: bool
    servers_scanned: int


@dataclass(frozen=True)
class AlgorithmTrace:
    """The resulting schedule plus each job's placement, as two columns.

    ``server_ids[i]`` is the server job i went to and ``servers_scanned[i]``
    its ``Decision.servers_scanned``; a trace compares, hashes and prints by
    these columns.  ``decisions`` builds one ``Decision`` per job from them
    on first read and keeps the tuple.  ``counters`` holds the kernel's
    work: ``index_rebuilds`` (the times an arrival outlived a candidate and
    the tree was rebuilt over the survivors), ``tree_steps`` (the tree
    depth, added once per job) and ``servers_opened``.  It takes no part in
    equality or repr.
    """

    schedule: Schedule
    server_ids: tuple[int, ...]
    servers_scanned: tuple[int, ...]
    counters: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def decisions(self) -> tuple[Decision, ...]:
        # ids are handed out in opening order, so job i opened its server
        # exactly when its id exceeds every earlier job's
        chosen = self.server_ids
        opened = map(gt, chosen, accumulate(chosen[:-1], max, initial=-1))
        # the records take their fields in order: keyword calls cost more
        return tuple(
            map(Decision, range(len(chosen)), chosen, opened, self.servers_scanned)
        )


def _max_tree(
    sids: list[int], free: list[int], leaf: list[int]
) -> tuple[list[int], int]:
    """A max tree over the free capacities of servers ``sids``, in order, and
    its leaf count (a power of 2); ``leaf[sid]`` is set to each one's leaf.

    Node ``v`` has children ``2v`` and ``2v + 1``; the root is node 1 and
    leaf ``k`` is node ``width + k``.  Unused leaves hold 0, which no job
    fits, since every size is positive.
    """
    width = 1 << (len(sids) - 1).bit_length() if sids else 1
    tree = [0] * (2 * width)
    for k, sid in enumerate(sids, width):
        tree[k] = free[sid]
        leaf[sid] = k - width
    for node in range(width - 1, 0, -1):
        left, right = tree[2 * node], tree[2 * node + 1]
        tree[node] = left if left > right else right
    return tree, width


def _raise_leaf(tree: list[int], node: int, value: int) -> None:
    """Raise leaf ``node`` to ``value``, and each ancestor lower than that.

    The walk up stops at the first ancestor already at ``value`` or more:
    every node above it is at least as high.
    """
    tree[node] = value
    node >>= 1
    while node and tree[node] < value:
        tree[node] = value
        node >>= 1


def _place(instance: Instance, keep_earlier: bool) -> AlgorithmTrace:
    """The kernel both policies share; keep_earlier selects FirstFit.

    Sizes, free capacities and times are the instance's lattice ints
    (capacity 1 is ``lattice.capacity``), so each test decides as it would
    on the Fractions.  Servers live in parallel lists indexed by id.
    ``leaving`` maps each finish to the jobs that end then, and a heap holds
    its distinct finishes: an arrival pops every finish it has reached and
    returns each of those jobs' sizes to its server, if still a candidate,
    before its fit test.

    The tree's leaves are the candidates in opening order.  It is rebuilt
    over the survivors only when an arrival outlives a candidate, so
    between rebuilds every leaf is live and leaf ``k`` has rank ``k + 1``.
    FirstFit adds a new server as the next leaf, building the tree anew at
    twice the width when it is full; NextFit replaces the tree with a
    one-leaf tree, so it stays O(1) per job.
    """
    require_valid(instance)
    jobs = instance.jobs
    lat = instance.lattice
    capacity, sizes = lat.capacity, lat.sizes
    starts, finishes = lat.starts, lat.finishes
    free: list[int] = []
    termination: list[int] = []
    members: list[list[int]] = []
    open_times: list[Fraction] = []
    close_times: list[Fraction] = []
    leaving: dict[int, list[int]] = {}  # by lattice finish, the jobs ending then
    ends: list[int] = []  # a heap of the finishes in ``leaving``
    candidates: list[int] = []  # server ids in opening order, one per leaf
    leaf: list[int] = []  # per server, its leaf, or -1 once not a candidate
    tree, width, depth = [0, 0], 1, 0
    # At most every candidate's termination: terminations only grow, so the
    # candidates need rebuilding only once an arrival passes this bound.
    earliest = math.inf
    rebuilds = steps = 0
    chosen: list[int] = []
    scanned: list[int] = []
    for i, start in enumerate(starts):
        size, finish = sizes[i], finishes[i]
        while ends and ends[0] <= start:
            # the order of one finish's returns does not matter: all of them
            # come before this arrival's fit test; a server that is no longer
            # a candidate never is again, so its free capacity is not kept
            for j in leaving.pop(heappop(ends)):
                sid = chosen[j]
                if (k := leaf[sid]) >= 0:
                    value = free[sid] = free[sid] + sizes[j]
                    _raise_leaf(tree, width + k, value)
        if start > earliest:
            # a server whose last job ends exactly at this start stays
            live = [sid for sid in candidates if termination[sid] >= start]
            earliest = min(map(termination.__getitem__, live), default=math.inf)
            if len(live) < len(candidates):
                for sid in candidates:
                    leaf[sid] = -1
                candidates = live
                tree, width = _max_tree(live, free, leaf)
                depth = width.bit_length() - 1
                rebuilds += 1
        steps += depth
        if tree[1] >= size:
            node = 1
            while node < width:
                node <<= 1
                if tree[node] < size:
                    node += 1
            k = node - width
            sid = candidates[k]
            scanned.append(k + 1)
            value = free[sid] = free[sid] - size
            tree[node] = value
            node >>= 1
            while node:
                left, right = tree[2 * node], tree[2 * node + 1]
                value = left if left > right else right
                if tree[node] == value:
                    break
                tree[node] = value
                node >>= 1
            members[sid].append(i)
            if finish > termination[sid]:
                termination[sid] = finish
                close_times[sid] = jobs[i].finish
        else:
            scanned.append(len(candidates))
            sid = len(free)
            value = capacity - size
            free.append(value)
            termination.append(finish)
            members.append([i])
            open_times.append(jobs[i].start)
            close_times.append(jobs[i].finish)
            if keep_earlier:
                k = len(candidates)
                leaf.append(k)
                candidates.append(sid)
                if finish < earliest:
                    earliest = finish
                if k == width:
                    # the same candidates in the same order on twice the
                    # leaves, so no leaf moves
                    tree, width = _max_tree(candidates, free, leaf)
                    depth += 1
                else:
                    _raise_leaf(tree, width + k, value)
            else:
                if candidates:
                    leaf[candidates[0]] = -1
                leaf.append(0)
                candidates = [sid]
                tree, width, depth = [0, value], 1, 0
                earliest = finish
        chosen.append(sid)
        bucket = leaving.get(finish)
        if bucket is None:
            leaving[finish] = [i]
            heappush(ends, finish)
        else:
            bucket.append(i)
    if not keep_earlier:
        # NextFit's one open server counts as scanned even once expired; the
        # first job found no server, so its 0 stands
        scanned[1:] = [1] * (len(jobs) - 1)
    servers = tuple(
        map(Server, range(len(members)), map(tuple, members), open_times, close_times)
    )
    counters = {
        "index_rebuilds": rebuilds,
        "tree_steps": steps,
        "servers_opened": len(servers),
    }
    return AlgorithmTrace(
        Schedule(instance, servers), tuple(chosen), tuple(scanned), counters
    )


def next_fit(instance: Instance) -> AlgorithmTrace:
    """Run NextFit over the instance and record every placement."""
    return _place(instance, keep_earlier=False)


def first_fit(instance: Instance) -> AlgorithmTrace:
    """Run FirstFit over the instance and record every placement."""
    return _place(instance, keep_earlier=True)


@dataclass(frozen=True)
class ServerTypePartition:
    """FirstFit servers split by which of the two arrival rounds they serve.

    Applies to instances where every job has duration 2 and starts at 0 or 1.
    Type-1 servers hold jobs from time 0 only (rented 2 units), type-2 hold
    jobs from both times (rented 3), type-3 from time 1 only (rented 2), so
    the schedule cost is 2*k1 + 3*k2 + 2*k3.
    """

    type1: tuple[Server, ...]
    type2: tuple[Server, ...]
    type3: tuple[Server, ...]
    start0_mass_type1: Fraction  # total size arriving at 0 on type-1 servers
    start0_mass_type2: Fraction  # total size arriving at 0 on type-2 servers
    start1_mass: Fraction  # total size arriving at 1 (type-2 and type-3 servers)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.type1), len(self.type2), len(self.type3))


def _round_split(
    members: Sequence[int], values: Sequence[int], starts: Sequence[int]
) -> tuple[int, int, int, int]:
    """``(first, n_first, rest, n_rest)`` for one server of the two-round
    setting: ``values`` summed over the members of the first round (lattice
    start 0) and over the rest, and how many members each round holds."""
    first = rest = n_first = 0
    for i in members:
        if starts[i]:
            rest += values[i]
        else:
            first += values[i]
            n_first += 1
    return first, n_first, rest, len(members) - n_first


def server_type_partition(trace: AlgorithmTrace) -> ServerTypePartition:
    """Partition a trace's servers for the two-round, duration-2 setting."""
    instance = trace.schedule.instance
    require_shape(instance, 2, {0, 1})
    # every start is now 0 or 1, so a lattice start is 0 or unit; masses are
    # summed as lattice sizes and turned into Fractions at the end
    lat = instance.lattice
    type1, type2, type3 = [], [], []
    mass0_t1 = mass0_t2 = mass1 = 0
    for srv in trace.schedule.servers:
        at0, n0, at1, n1 = _round_split(srv.job_indices, lat.sizes, lat.starts)
        if n0 and n1:
            type2.append(srv)
            mass0_t2 += at0
        elif n0:
            type1.append(srv)
            mass0_t1 += at0
        else:
            type3.append(srv)
        mass1 += at1
    return ServerTypePartition(
        type1=tuple(type1),
        type2=tuple(type2),
        type3=tuple(type3),
        start0_mass_type1=Fraction(mass0_t1, lat.capacity),
        start0_mass_type2=Fraction(mass0_t2, lat.capacity),
        start1_mass=Fraction(mass1, lat.capacity),
    )
