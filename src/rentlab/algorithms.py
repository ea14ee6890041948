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
the root.  A Decision's ``servers_scanned`` is therefore not a measure of
work: it is the chosen server's 1-based rank among the live candidates, the
count a linear scan in opening order would test.  The kernel's own work is
in ``AlgorithmTrace.counters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush

from .model import Instance, Schedule, Server, require_valid


@dataclass(frozen=True)
class Decision:
    """What happened when one job was placed.

    ``servers_scanned`` is the chosen server's 1-based rank among the live
    candidates in opening order, or their count when a new server opens:
    the servers a linear FirstFit scan would test.  The kernel reaches the
    server through an index, so this is the policy's choice, not its work.
    NextFit's one open server counts as scanned for every job after the
    first, even once it has expired.
    """

    job_index: int
    server_id: int
    opened_new_server: bool
    servers_scanned: int


@dataclass(frozen=True)
class AlgorithmTrace:
    """The resulting schedule plus one decision record per job.

    ``counters`` holds the kernel's work: ``index_rebuilds`` (the times an
    arrival outlived a candidate and the tree was rebuilt over the
    survivors), ``tree_steps`` (the tree depth, added once per job) and
    ``servers_opened``.  It takes no part in equality or repr.
    """

    schedule: Schedule
    decisions: tuple[Decision, ...]
    counters: dict[str, int] = field(default_factory=dict, compare=False, repr=False)


def _max_tree(values: list[int]) -> tuple[list[int], int]:
    """A max tree over ``values`` as leaves, and its leaf count (a power of 2).

    Node ``v`` has children ``2v`` and ``2v + 1``; the root is node 1 and
    leaf ``k`` is node ``width + k``.  Unused leaves hold 0, which no job
    fits, since every size is positive.
    """
    width = 1
    while width < len(values):
        width *= 2
    tree = [0] * width + values + [0] * (width - len(values))
    for node in range(width - 1, 0, -1):
        left, right = tree[2 * node], tree[2 * node + 1]
        tree[node] = left if left > right else right
    return tree, width


def _doubled(tree: list[int], width: int) -> list[int]:
    """The tree with twice the leaves, the old tree its root's left subtree.

    Each level is copied as one slice (node ``v`` of the level that starts
    at ``level`` moves to ``v + level``); the new right half holds 0s.
    """
    grown = [0] * (4 * width)
    grown[1] = tree[1]
    level = 1
    while level <= width:
        grown[2 * level:3 * level] = tree[level:2 * level]
        level *= 2
    return grown


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
    on the Fractions.  Servers live in parallel lists indexed by id; one
    heap of (finish, id, size) returns each job's size to its server once
    an arrival reaches its finish.

    The tree's leaves are the candidates in opening order.  It is rebuilt
    over the survivors only when an arrival outlives a candidate, so
    between rebuilds every leaf is live and leaf ``k`` has rank ``k + 1``.
    FirstFit adds a new server as the next leaf, doubling the tree when it
    is full; NextFit replaces the tree with a one-leaf tree, so it stays
    O(1) per job.
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
    departures: list[tuple[int, int, int]] = []
    candidates: list[int] = []  # server ids in opening order, one per leaf
    slot: dict[int, int] = {}  # leaf of each candidate
    tree, width, depth = [0, 0], 1, 0
    # At most every candidate's termination: terminations only grow, so the
    # candidates need rebuilding only once an arrival passes this bound.
    earliest = math.inf
    rebuilds = steps = 0
    chosen: list[int] = []
    opened: list[bool] = []
    scanned: list[int] = []
    for i, start in enumerate(starts):
        size, finish = sizes[i], finishes[i]
        while departures and departures[0][0] <= start:
            _, sid, returned = heappop(departures)
            value = free[sid] = free[sid] + returned
            if (k := slot.get(sid)) is not None:
                _raise_leaf(tree, width + k, value)
        if start > earliest:
            # a server whose last job ends exactly at this start stays
            live = [sid for sid in candidates if termination[sid] >= start]
            earliest = min(map(termination.__getitem__, live), default=math.inf)
            if len(live) < len(candidates):
                candidates = live
                slot = {sid: k for k, sid in enumerate(live)}
                tree, width = _max_tree([free[sid] for sid in live])
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
            opened.append(False)
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
            opened.append(True)
            scanned.append(len(candidates))
            sid = len(free)
            value = capacity - size
            free.append(value)
            termination.append(finish)
            members.append([i])
            open_times.append(jobs[i].start)
            close_times.append(jobs[i].finish)
            if keep_earlier:
                k = slot[sid] = len(candidates)
                candidates.append(sid)
                if finish < earliest:
                    earliest = finish
                if k == width:
                    tree, width, depth = _doubled(tree, width), 2 * width, depth + 1
                _raise_leaf(tree, width + k, value)
            else:
                candidates, slot = [sid], {sid: 0}
                tree, width, depth = [0, value], 1, 0
                earliest = finish
        chosen.append(sid)
        heappush(departures, (finish, sid, size))
    if not keep_earlier:
        # NextFit's one open server counts as scanned even once expired; the
        # first job found no server, so its 0 stands
        scanned[1:] = [1] * (len(jobs) - 1)
    # the dataclasses take their fields in order: keyword calls cost more
    decisions = tuple(map(Decision, range(len(jobs)), chosen, opened, scanned))
    servers = tuple(
        map(Server, range(len(members)), map(tuple, members), open_times, close_times)
    )
    counters = {
        "index_rebuilds": rebuilds,
        "tree_steps": steps,
        "servers_opened": len(servers),
    }
    return AlgorithmTrace(Schedule(instance, servers), decisions, counters)


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


def server_type_partition(trace: AlgorithmTrace) -> ServerTypePartition:
    """Partition a trace's servers for the two-round, duration-2 setting."""
    instance = trace.schedule.instance
    for i, jb in enumerate(instance.jobs):
        if jb.duration != 2 or jb.start not in (0, 1):
            raise ValueError(
                f"job {i} must have duration 2 and start in {{0, 1}}, "
                f"got ({jb.size}, {jb.start}, {jb.finish})"
            )
    type1, type2, type3 = [], [], []
    mass0_t1 = Fraction(0)
    mass0_t2 = Fraction(0)
    mass1 = Fraction(0)
    jobs = instance.jobs
    for srv in trace.schedule.servers:
        at0 = sum((jobs[i].size for i in srv.job_indices if jobs[i].start == 0), Fraction(0))
        at1 = sum((jobs[i].size for i in srv.job_indices if jobs[i].start == 1), Fraction(0))
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
