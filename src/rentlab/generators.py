"""Instance families: adversarial constructions and seeded random batches.

All generators emit jobs sorted by start, use exact rationals, and are
deterministic functions of their parameters (including the seed).  The
adversarial families come with tightly tuned size perturbations; the scale
separation between groups is why everything downstream runs on Fractions.

Seeded draws read a counter-based stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): block b of lane l is the blake2b
digest of the seed's signed bytes, salted by 2b + l.  Lane 0 holds a
trial's job count and lane 1 its draws, read in units of 1, 2 or 4 bytes,
the fewest that hold the lane's widest range; a value below v is the top
(v - 1).bit_length() bits of the first unit whose top bits fall below v.
"""

from __future__ import annotations

from _blake2 import blake2b
from fractions import Fraction
from functools import cache
from inspect import Parameter, signature
from itertools import starmap
from operator import index, itemgetter
from typing import Sequence

from .model import Instance, Job, Schedule, as_rational, make_schedule

SIXTH = Fraction(1, 6)
THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)

# Per-group perturbation multiples for the two opening waves of the
# first-fit adversary.  Within a group with offset d, the first wave packs
# pairwise into two servers of load 5/6+3d and 5/6+d; the second wave packs
# into five servers of load 2/3+12d (twice) and 2/3+2d (three times).
_WAVE1_MULTIPLES = (33, -3, -7, -7, -13, 9, -2, -2, -2, -2)
_WAVE2_MULTIPLES = (46, -34, 6, 6, 12, -10, 1, 1, 1, 1)


def second_arrival(t) -> Fraction:
    """t as an exact rational, refused unless it lies strictly in (0, 1)."""
    t = as_rational(t)
    if not 0 < t < 1:
        raise ValueError("second arrival t must lie strictly between 0 and 1")
    return t


def ggu_extended(
    k: int, t, delta=None
) -> tuple[Instance, Schedule]:
    """Adversarial two-round family driving FirstFit to cost 17k(1+t).

    Round one (time 0) presents k groups of ten near-1/6 jobs, then k groups
    of ten near-1/3 jobs, then 10k jobs just over 1/2.  Group g's sizes are
    perturbed by multiples of d_g = delta * 18**(k-g), a geometric separation
    that stops any job from fitting into an earlier group's servers.
    FirstFit opens 2k + 5k + 10k servers.  Round two (time t < 1) tops every
    one of those servers up with a single filler job (1/12, 1/6 or 1/4), so
    all 17k servers stay rented until t+1.

    Returns the instance together with a feasible certificate schedule that
    instead pairs pathological jobs across waves and costs 27k/2 + 1,
    putting the cost ratio on a path toward 34/27 * (1+t).

    Each wave size is one Fraction built from ints on the scale of
    delta = p/q, and the windows 0, 1, t and t+1 are built once.  A group's
    positions of one wave share one ``Job`` per distinct multiple, six of
    the ten; the 10k wave-3 positions share one, and so does each filler
    kind, so the instance holds 12k + 4 distinct ``Job``s, and so as many
    lattice rows.

    Requires k a positive multiple of 6 (so the filler jobs tile whole
    certificate servers) and 0 < delta < 18**-k / 100 (default 18**-k / 1000).
    """
    if k <= 0 or k % 6 != 0:
        raise ValueError("k must be a positive multiple of 6")
    t = second_arrival(t)
    ceiling = Fraction(1, 100 * 18**k)
    if delta is None:
        delta = Fraction(1, 1000 * 18**k)
    delta = as_rational(delta)
    if not 0 < delta < ceiling:
        raise ValueError(f"delta must lie in (0, 1/{100 * 18**k})")

    # sizes on the integer scale of delta = p/q: 1/6 + m * d_g is
    # (q + 6*m*p*18**(k-g)) / 6q, and 1/3 + m * d_g has 2q in place of q
    p, q = delta.as_integer_ratio()
    zero, one, late = Fraction(0), Fraction(1), t + 1
    jobs: list[Job] = []

    def wave(sixths: int, multiples: tuple[int, ...]) -> list[range]:
        """Each group's ten positions near sixths/6, one ``Job`` per
        distinct multiple."""
        positions = []
        for g in range(1, k + 1):
            step = 6 * p * 18 ** (k - g)
            sized = {
                m: Job(Fraction(sixths * q + m * step, 6 * q), zero, one)
                for m in set(multiples)
            }
            first = len(jobs)
            jobs.extend(map(sized.__getitem__, multiples))
            positions.append(range(first, len(jobs)))
        return positions

    def shared(job: Job, count: int) -> range:
        """``count`` positions that all hold ``job``, and so one lattice row."""
        first = len(jobs)
        jobs.extend([job] * count)
        return range(first, len(jobs))

    wave1 = wave(1, _WAVE1_MULTIPLES)
    wave2 = wave(2, _WAVE2_MULTIPLES)
    wave3 = shared(Job(Fraction(q + 2 * p, 2 * q), zero, one), 10 * k)  # 1/2 + delta
    fill12 = shared(Job(Fraction(1, 12), t, late), 2 * k)
    fill6 = shared(Job(SIXTH, t, late), 5 * k)
    fill4 = shared(Job(Fraction(1, 4), t, late), 10 * k)

    instance = Instance(tuple(jobs))

    # Certificate: each just-over-1/2 job shares a server with one
    # cross-wave pair summing to just under 1/2; the two leftover jobs share
    # one extra server; the fillers tile servers of their own exactly.
    pairs: list[tuple[int, int]] = []
    for g in range(k):
        pairs.append((wave1[g][0], wave2[g][1]))  # sums to 1/2 - d_g
        for j in range(2, 10):
            pairs.append((wave1[g][j], wave2[g][j]))  # sums to 1/2 - d_g
    for g in range(k - 1):
        pairs.append((wave1[g][1], wave2[g + 1][0]))  # sums to 1/2 - 8*d_{g+1}
    groups: list[Sequence[int]] = []
    for m, big in enumerate(wave3):
        group = [big]
        if m < len(pairs):
            group.extend(pairs[m])
        groups.append(group)
    groups.append([wave1[k - 1][1], wave2[0][0]])
    for chunk_start in range(0, len(fill12), 12):
        groups.append(fill12[chunk_start : chunk_start + 12])
    for chunk_start in range(0, len(fill6), 6):
        groups.append(fill6[chunk_start : chunk_start + 6])
    for chunk_start in range(0, len(fill4), 4):
        groups.append(fill4[chunk_start : chunk_start + 4])
    certificate = make_schedule(instance, groups)
    return instance, certificate


def long_uniform(k: int, level_count: int) -> Instance:
    """Duration-2 jobs over arrivals 0..level_count keeping k servers busy.

    Time 0 brings k jobs of size 2/3; every later time u brings k jobs of
    size 1/3 (u odd) or 1/3 + eps (u even) with eps = 1/(k*level_count).
    FirstFit settles into exactly k servers rented over [0, level_count+2],
    while utilization stays near two thirds of that cost.  Requires k >= 2
    and an even, positive level_count.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if level_count <= 0 or level_count % 2 != 0:
        raise ValueError("level_count must be a positive even integer")
    eps = Fraction(1, k * level_count)
    # the k jobs of a level share one Job, and so one lattice row
    jobs = [Job(Fraction(2, 3), Fraction(0), Fraction(2))] * k
    for u in range(1, level_count + 1):
        size = THIRD if u % 2 == 1 else THIRD + eps
        jobs += [Job(size, Fraction(u), Fraction(u + 2))] * k
    return Instance(tuple(jobs))


def nf_nemesis(n_pairs_half: int) -> Instance:
    """Alternating halves and slivers that waste every NextFit server.

    Emits 2N pairs (1/2 then 1/(2N)), all unit duration at time 0.  NextFit
    burns one server per pair (2N total); packing halves together and all
    slivers into one server costs N+1, so the ratio 2N/(N+1) climbs toward 2
    as N grows.
    """
    n = n_pairs_half
    if n < 1:
        raise ValueError("N must be at least 1")
    # every pair repeats two Jobs, and so two lattice rows (one at N = 1)
    half = Job(HALF, Fraction(0), Fraction(1))
    sliver = half if n == 1 else Job(Fraction(1, 2 * n), half.start, half.finish)
    return Instance((half, sliver) * (2 * n))


def _grid_job_table(size_grid: int, window_at):
    """The ``Job`` of a ``(size * size_grid, key)`` draw, built on its first
    call: ``Fraction(size, size_grid)`` over the ``(start, finish)`` that
    ``window_at(key)`` returns.

    The table keeps one Fraction per size and one window per key, so every
    job it builds shares them, and every instance drawn through it holds one
    ``Job``, and so one lattice row, per distinct draw.
    """
    size_at = cache(lambda size: Fraction(size, size_grid))
    window_at = cache(window_at)
    return cache(lambda size, key: Job(size_at(size), *window_at(key)))


def _grid_jobs(draws: list[tuple[int, int]], job) -> Instance:
    """The jobs of ``(size * size_grid, key)`` draws, looked up in the table
    ``job`` and stably sorted by the int ``key`` (starts rise with ``key``).
    """
    draws.sort(key=itemgetter(1))
    # through a list: a tuple built from an iterator is resized as it grows
    return Instance(tuple(list(starmap(job, draws))))


def _units(seed: bytes, salt: int, width: int):
    """Block ``salt // 2`` of lane ``salt % 2``, as big-endian units of ``width`` bytes."""
    digest = blake2b(seed, salt=salt.to_bytes(16, "little")).digest()
    return digest if width == 1 else [int.from_bytes(digest[i : i + width], "big")
                                      for i in range(0, 64, width)]


def _trial_layout(low: int, high: int, size_grid: int, key_values: int) -> tuple:
    """How ``_grid_trial`` reads counts in [low, high], sizes in [1, size_grid] and
    keys below ``key_values``; refuses a range of no values, or of 2**32 or more."""
    for name, first, last in (("job counts", low, high), ("grid sizes", 1, size_grid),
                              ("grid starts", 0, key_values - 1)):
        if not 0 <= last - first < 2**32 - 1:
            raise ValueError(f"{name} [{first}, {last}] must range over 1 to 2**32 - 1 values")
    layout = [low]
    for lane in ((high - low + 1,), (size_grid, key_values)):  # lane 0, then lane 1
        width = next(w for w in (1, 2, 4) if 8 * w >= (max(lane) - 1).bit_length())
        layout.append(width)
        for values in lane:
            # a unit below values << shift is accepted, and its value is unit >> shift
            shift = 8 * width - (values - 1).bit_length()
            layout += values << shift, shift
    return tuple(layout)


def _grid_trial(seed: int, layout: tuple) -> list[tuple[int, int]]:
    """Trial ``seed``'s n ``(size, start key)`` draws, n read from lane 0; a draw
    that runs past the units read is read again once the lane's next block is in."""
    low, n_width, n_limit, n_shift, width, size_limit, size_shift, key_limit, key_shift = layout
    seed, salt = seed.to_bytes(seed.bit_length() // 8 + 1, "little", signed=True), 0
    while (n := next(filter(n_limit.__gt__, _units(seed, salt, n_width)), None)) is None:
        salt += 2
    n, units, salt, draws, pos = low + (n >> n_shift), _units(seed, 1, width), 1, [], 0
    while len(draws) < n:
        try:
            while units[pos] >= size_limit:
                pos += 1
            end = pos + 1
            while units[end] >= key_limit:
                end += 1
            draws.append(((units[pos] >> size_shift) + 1, units[end] >> key_shift))
            pos = end + 1
        except IndexError:
            units += _units(seed, salt := salt + 2, width)
    return draws


def _two_arrival_jobs(size_grid: int, t: Fraction):
    """random_two_arrival's table: key 0 starts at 0, key 1 at t, for one unit."""
    windows = ((Fraction(0), Fraction(1)), (t, t + 1))
    return _grid_job_table(size_grid, windows.__getitem__)


def random_two_arrival(n: int, t, seed: int, size_grid: int = 12) -> Instance:
    """n unit-duration jobs arriving at 0 or t, sizes uniform on the grid.

    Sizes are drawn from {1/D, ..., D/D} and each start is a fair coin over
    {0, t}, size then coin for each job, from lane 1 of the int seed's
    stream (see the module docstring), read by the suites' ``_grid_trial``;
    seeds s and -s read different streams.  D must lie below 2**32.
    Deterministic in (n, t, seed, size_grid); jobs come out sorted by start.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if size_grid < 1:
        raise ValueError("size_grid must be at least 1")
    layout = _trial_layout(n, n, size_grid, 2)
    t = second_arrival(t)
    return _grid_jobs(_grid_trial(index(seed), layout), _two_arrival_jobs(size_grid, t))


def _equal_duration_jobs(size_grid: int, start_grid: int):
    """random_equal_duration's table: key k starts at k/start_grid, for one unit."""
    return _grid_job_table(
        size_grid,
        lambda key: (Fraction(key, start_grid), Fraction(key + start_grid, start_grid)),
    )


def random_equal_duration(
    n: int, seed: int, size_grid: int = 8, start_grid: int = 4, horizon: int = 3
) -> Instance:
    """n unit-duration jobs with grid starts anywhere in [0, horizon].

    Starts land on multiples of 1/start_grid, sizes on multiples of
    1/size_grid, size then start for each job, from lane 1 of the int
    seed's stream (see the module docstring), read by the suites'
    ``_grid_trial``; seeds s and -s read different streams.  size_grid and
    horizon * start_grid + 1 must lie below 2**32.  Deterministic in the
    parameters, sorted by start.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if size_grid < 1 or start_grid < 1 or horizon < 0:
        raise ValueError("grids must be positive and horizon non-negative")
    layout = _trial_layout(n, n, size_grid, horizon * start_grid + 1)
    jobs = _equal_duration_jobs(size_grid, start_grid)
    return _grid_jobs(_grid_trial(index(seed), layout), jobs)


# Every family by its generator, whose signature gives the family's
# parameters: which are required, and the defaults of the rest.
FAMILIES = {
    "ggu": ggu_extended,
    "long-uniform": long_uniform,
    "nf-nemesis": nf_nemesis,
    "random-two-arrival": random_two_arrival,
    "random-equal-duration": random_equal_duration,
}

# The family's name for a generator parameter, where the two differ
ALIASES = {"level_count": "l", "n_pairs_half": "N"}


def family_parameters(family: str) -> dict[str, Parameter]:
    """The family's parameters by their family name, in signature order."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(FAMILIES)}")
    parameters = signature(FAMILIES[family]).parameters.values()
    return {ALIASES.get(p.name, p.name): p for p in parameters}
