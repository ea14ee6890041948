"""Online assignment policies with full decision traces.

Both policies see jobs in arrival order and must place each one before the
next arrives.  A placement is feasible when the server's load at the job's
start, plus the job's size, stays within capacity 1; because earlier jobs
start no later, the concurrent load after that start can only shrink, so a
single test at the start time is exact.

One placement loop serves both.  It drops the candidate servers that
terminated strictly before the arrival, places the job into the first
candidate that fits, in opening order, and opens a new server only when
none does.  The policies differ only in what a new server does to the
candidates: under FirstFit it joins them, so every server that has not
terminated stays a candidate; under NextFit it replaces them, so a server
closed on overflow or expiry is never reused, even if a later job would fit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Instance, Schedule, Server, require_valid


@dataclass(frozen=True)
class Decision:
    """What happened when one job was placed."""

    job_index: int
    server_id: int
    opened_new_server: bool
    servers_scanned: int


@dataclass(frozen=True)
class AlgorithmTrace:
    """The resulting schedule plus one decision record per job."""

    schedule: Schedule
    decisions: tuple[Decision, ...]


class _ServerBuild:
    """Mutable server under construction, on the instance's integer lattice.

    Loads, finishes and the termination are ints on the instance's lattice
    (see model.Lattice).  Keeps the running load and a min-heap of (finish,
    size) so departed jobs can be expired lazily as arrivals advance; each
    job is expired once, so fit tests stay O(1) amortised.  The rental
    window keeps the jobs' own Fractions.
    """

    __slots__ = (
        "id", "indices", "open_time", "close_time", "termination", "load_now",
        "pending",
    )

    def __init__(self, sid: int, open_time: Fraction):
        self.id = sid
        self.indices: list[int] = []
        self.open_time = open_time
        self.close_time: Fraction | None = None
        self.termination = -1
        self.load_now = 0
        self.pending: list[tuple[int, int]] = []

    def expire(self, t: int) -> None:
        while self.pending and self.pending[0][0] <= t:
            _, size = heapq.heappop(self.pending)
            self.load_now -= size

    def assign(self, index: int, size: int, finish: int, close_time: Fraction) -> None:
        self.indices.append(index)
        self.load_now += size
        heapq.heappush(self.pending, (finish, size))
        if finish > self.termination:
            self.termination = finish
            self.close_time = close_time

    def freeze(self) -> Server:
        return Server(
            id=self.id,
            job_indices=tuple(self.indices),
            open_time=self.open_time,
            close_time=self.close_time,
        )


def _place(instance: Instance, keep_earlier: bool) -> AlgorithmTrace:
    """The loop both policies share; keep_earlier selects FirstFit.

    Fit tests and expiries compare the instance's lattice ints (capacity 1
    is ``lattice.capacity``), so each decides as it would on the Fractions.
    """
    require_valid(instance)
    jobs = instance.jobs
    lat = instance.lattice
    capacity, sizes = lat.capacity, lat.sizes
    starts, finishes = lat.starts, lat.finishes
    servers: list[_ServerBuild] = []
    candidates: list[_ServerBuild] = []
    # At most every candidate's termination: terminations only grow, so the
    # list needs rebuilding only once an arrival passes this bound.
    earliest = math.inf
    decisions: list[Decision] = []
    for i, jb in enumerate(jobs):
        start, size = starts[i], sizes[i]
        if start > earliest:
            candidates = [srv for srv in candidates if srv.termination >= start]
            earliest = min((srv.termination for srv in candidates), default=math.inf)
        target = None
        scanned = 0
        for srv in candidates:
            scanned += 1
            srv.expire(start)
            if srv.load_now + size <= capacity:
                target = srv
                break
        opened = target is None
        if opened:
            target = _ServerBuild(len(servers), jb.start)
            servers.append(target)
            if keep_earlier:
                candidates.append(target)
            else:
                candidates = [target]
            earliest = min(earliest, finishes[i])
        if not keep_earlier:
            # NextFit's one open server counts as scanned even once expired
            scanned = min(i, 1)
        target.assign(i, size, finishes[i], jb.finish)
        decisions.append(
            Decision(
                job_index=i,
                server_id=target.id,
                opened_new_server=opened,
                servers_scanned=scanned,
            )
        )
    schedule = Schedule(instance=instance, servers=tuple(b.freeze() for b in servers))
    return AlgorithmTrace(schedule=schedule, decisions=tuple(decisions))


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
