"""Seeded simulation of the three packet-management disciplines.

One run draws the whole packet stream up front from Philox counter-based
streams keyed (seed, source).  It builds the arrival and value streams, and a
service stream only for exponential service: dependent and deterministic
service draw nothing.  The server then fixes who is served and when each
leaves; every discipline serves in arrival order.  Without a buffer, each
served arrival hands the server on to the first arrival after its departure,
so the served arrivals are the orbit of the first one under that map,
expanded by pointer doubling.  With a buffer, one pass of Lindley's recursion
writes each departure at its packet's arrival position.  VoI, age, state
occupancies and their batch-means standard errors all follow from those
service intervals, as array operations over the whole run; the five
standard errors are one row-wise reduction over a stack of batch totals.
Sampled VoI sums the alive packets' values on a time grid that is indexed,
never built.  An untraced run keeps each per-packet array only until its
last reader; a trace keeps them all.  Identical config and seed give
bit-identical reports.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import MG11, MG12, Scenario, q_area_batch, sample_service_times

# Substream indices for the counter-based generator: the key is
# (seed, stream), so arrivals, values and services stay decoupled no matter
# how many draws each consumes.
_STREAM_ARRIVALS = 0
_STREAM_VALUES = 1
_STREAM_SERVICES = 2

# Most (packet, sample) pairs ``_sampled_voi_mean`` evaluates at once: the
# memory of one block, whatever the run length and sampling step.
_SAMPLE_PAIRS_PER_BLOCK = 1 << 16

# Most samples on a sampled-VoI grid: up to it a sample's rounding stays
# within half a step, which ``_samples_below`` relies on to count exactly.
_MAX_SAMPLES = 2.0**52

# Batches of every batch-means standard error (one per packet in shorter runs).
_N_BATCHES = 100


@functools.cache
def _key_type() -> type:
    """A Philox key handed over as the seed sequence it is read from:
    ``Philox(key=...)`` builds a ``SeedSequence`` from OS entropy first and
    then discards it.  Defined on first use, so that importing voilab does
    not import numpy.random (about 5 MB and 15 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """The counter-based stream keyed (seed, stream): ``Philox(key=[seed, stream])``."""
    key = _key_type()(np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario
    n_packets: int = 1_000_000
    seed: int = 0
    sample_voi_every: Optional[float] = None
    trace: bool = False   # keep the per-packet and per-delivery arrays in ``detail``

    def __post_init__(self) -> None:
        for name in ("n_packets", "seed"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {x!r}")
            # A numpy integer runs as its int, and the report shows that int.
            object.__setattr__(self, name, int(x))
        if self.n_packets < 1:
            raise ValueError("need at least one packet")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.sample_voi_every is not None and not (0.0 < self.sample_voi_every < math.inf):
            raise ValueError("sampling interval must be finite and > 0")


@dataclass(frozen=True)
class SimReport:
    """What one seeded run of n_generated arrivals estimates, as time averages
    over [0, elapsed], elapsed the later of the last arrival and departure:

    avg_voi           the delivered packets' value areas over elapsed
    avg_aoi           the age at the receiver
    occupancy         the time fractions p_idle, p_busy1 (busy with the
                      buffer empty, or no buffer) and p_busy2 (buffer full)
    sampled_voi_mean  the instantaneous VoI on the grid 0, step, ... < elapsed
    n_expired         deliveries with system time >= deadline, worth zero

    stderr_voi, stderr_aoi and occupancy_stderr are batch-means errors over
    n_batches batches of consecutive generation indices; a packet's area
    counts in the batch of its generation.
    """

    n_generated: int
    n_delivered: int
    n_expired: int
    elapsed: float
    avg_voi: float
    stderr_voi: float
    avg_aoi: float
    stderr_aoi: float
    occupancy: tuple[float, float, float]
    occupancy_stderr: tuple[float, float, float]
    sampled_voi_mean: Optional[float]
    seed: int
    n_batches: int
    # The run's arrays (trace only); excluded from equality.
    detail: Optional[dict] = field(default=None, compare=False)


def simulate(config: SimConfig) -> SimReport:
    """Run one seeded simulation of the configured scenario."""
    sc = config.scenario
    n = config.n_packets
    n_batches = min(_N_BATCHES, n)

    seed = config.seed
    with np.errstate(over="ignore"):
        t_gen = np.cumsum(rng_stream(seed, _STREAM_ARRIVALS).exponential(1.0 / sc.lam, n))
    if not math.isfinite(t_gen[-1]):
        raise ArithmeticError(f"arrival times overflow at lambda = {sc.lam:g} over {n} packets")
    values, classes = sc.value_dist.sample(rng_stream(seed, _STREAM_VALUES), n)
    services = sample_service_times(sc.service, values, classes, lambda: rng_stream(seed, _STREAM_SERVICES))

    keep_cls = sc.admitted_class()
    admitted = None if keep_cls is None else (classes == keep_cls)
    # Index only when admission filters: serve-all runs on the whole stream.
    pos = None if admitted is None else np.flatnonzero(admitted)
    disc = {MG11: 0, MG12: 1}.get(sc.discipline, 2)
    # The server sees the admitted arrivals only; their copies die right after.
    t_adm, s_adm = (t_gen, services) if pos is None else (t_gen[pos], services[pos])
    served, d_t = _serve_bufferless(t_adm, s_adm) if disc == 0 else _serve(t_adm, s_adm, disc)
    del t_adm, s_adm
    d_idx = served if pos is None else pos[served]
    elapsed = float(max(t_gen[-1], d_t[-1]) if d_t.size else t_gen[-1])
    if not math.isfinite(elapsed):
        raise ArithmeticError(f"departure times overflow at lambda = {sc.lam:g} over {n} packets")

    # One batch partition by generation index for every batch-means error;
    # renewal-reward batching assigns each packet's area to the batch of its
    # generation epoch.  Batch b starts at index firsts[b] and time edges_t[b].
    firsts = (np.arange(n_batches) * n) // n_batches
    edges_t = np.empty(n_batches + 1)
    edges_t[0], edges_t[-1] = 0.0, elapsed
    np.take(t_gen, firsts[1:], out=edges_t[1:-1])
    spans = np.subtract(edges_t[1:], edges_t[:-1])
    # Rows: VoI, age (scaled by 2^-e_age, so its error scales back by 4^e_age)
    # and the three occupancies; the last four are differences of ``at_edges``,
    # their running totals at the batch edges.
    batch_totals = np.empty((5, n_batches))
    at_edges = np.empty((4, n_batches + 1))

    # A trace keeps every array it reports; an untraced run holds each
    # per-packet array only until its last reader, so the VoI, age and
    # buffer passes run in turn and none holds another's arrays.
    detail = None
    if config.trace:
        detail = {"t_gen": t_gen, "values": values, "classes": classes, "services": services, "admitted": admitted}
    t_sys, v_d = services[d_idx], values[d_idx]
    del values, classes, services
    gen = t_gen[d_idx]
    busy_at = _add_waits(t_sys, gen, d_t, disc, edges_t, detail)
    step = config.sample_voi_every
    sampled = None if step is None else _sampled_voi_mean(sc.descend, gen, v_d, d_t, t_sys, elapsed, step)
    q = q_area_batch(sc.descend, v_d, t_sys)
    n_expired = int(np.count_nonzero(t_sys >= sc.descend.deadline))
    _voi_batch_sums(q, d_idx, n, firsts, batch_totals[0])
    avg_voi = float(q.sum() / elapsed)
    if detail is not None:
        detail.update(system_times=t_sys, q_areas=q)
    del v_d, t_sys, q
    avg_aoi, e_age = _age_statistics(gen, d_t, elapsed, edges_t, at_edges[0])
    del gen

    # A served packet's buffer is filled from the first admitted arrival after
    # its service starts, if that comes by its departure, until the departure.
    occ_at = at_edges[1:]
    if disc == 0:
        fills = np.zeros(d_t.size, dtype=bool)
        occ_at[2] = 0.0
    else:
        t_next, fills = _buffer_fills(t_gen if pos is None else t_gen[pos], served, d_t, disc)[1:]
        np.copyto(t_next, d_t, where=~fills)
        occ_at[2] = _covered(t_next, d_t, edges_t)
    # Time spent idle, busy with an empty buffer and busy with a full buffer.
    np.subtract(edges_t, busy_at, out=occ_at[0])
    np.subtract(busy_at, occ_at[2], out=occ_at[1])
    occupancy = tuple((occ_at[:, -1] / elapsed).tolist())
    np.subtract(at_edges[:, 1:], at_edges[:, :-1], out=batch_totals[1:])
    errors = _batch_stderrs(batch_totals, spans)
    stderr_voi, stderr_age, *occupancy_stderr = errors.tolist()
    stderr_aoi = math.ldexp(stderr_age, 2 * e_age)

    if detail is not None:
        # State at each completion just before it (1 busy, 2 busy with a full buffer).
        detail.update(delivered_ids=d_idx, delivered_times=d_t, completion_states=1 + fills)

    return SimReport(
        n_generated=n,
        n_delivered=int(d_idx.size),
        n_expired=n_expired,
        elapsed=elapsed,
        avg_voi=avg_voi,
        stderr_voi=stderr_voi,
        avg_aoi=avg_aoi,
        stderr_aoi=stderr_aoi,
        occupancy=occupancy,
        occupancy_stderr=tuple(occupancy_stderr),
        sampled_voi_mean=sampled,
        seed=seed,
        n_batches=n_batches,
        detail=detail,
    )


def _serve_bufferless(t_arr, s_arr):
    """Positions served without a buffer, in service order, and their departure times.

    Once arrival i is served, the next one served is ``jump[i]``, the first
    arrival after i departs (an arrival at that instant still finds the
    server busy), so ``jump[i] > i``.  The served positions are the orbit of
    0 under ``jump`` up to the sentinel ``jump[n] = n``, which it reaches
    within n + 1 steps.  Each round writes ``jump[path]`` after the known
    prefix ``path`` of the orbit, doubling it, and squares the map until the
    orbit reaches n, so ⌈log2(served + 1)⌉ rounds of gathers replace a pass
    over every arrival.
    """
    n = t_arr.size
    jump = np.empty(n + 1, dtype=np.int64)
    jump[:n], jump[n] = np.searchsorted(t_arr, t_arr + s_arr, side="right"), n
    path, k = np.zeros(n + 1, dtype=np.int64), 1
    while path[k - 1] < n:
        if k > 1:
            jump = jump[jump]
        # Every index is in range, and "clip" writes out without a temporary.
        np.take(jump, path[: min(k, n + 1 - k)], out=path[k : 2 * k], mode="clip")
        k = min(2 * k, n + 1)
    del jump
    path = path[: np.searchsorted(path[:k], n)].copy()
    return path, t_arr[path] + s_arr[path]


def _serve(t_arr, s_arr, disc):
    """Positions served with a buffer and their departure times, both in arrival order.

    ``t_arr`` and ``s_arr`` are the admitted arrivals' times and service times;
    ``disc`` is 1 (FCFS buffer) or 2 (LCFS buffer with replacement).  One pass
    of Lindley's recursion: ``c`` is when the server next falls free and
    ``buf`` the buffered position (-1: none).  An arrival at the instant the
    server falls free still finds it busy.  A buffered packet arrived after
    the one in service, so packets leave in arrival order: each departure is
    written at its packet's arrival position, which is marked.  Departures
    are running sums of services that decide who is served next, so this
    loop does not vectorise the way ``_serve_bufferless`` does.
    """
    departs, mark = np.empty(t_arr.size), np.zeros(t_arr.size, dtype=bool)
    dv, mv, sv = memoryview(departs), memoryview(mark), memoryview(s_arr)
    c = -math.inf
    buf = -1
    for i, t in enumerate(memoryview(t_arr)):
        if t > c and buf >= 0:
            c += sv[buf]
            dv[buf] = c
            mv[buf] = True
            buf = -1
        if t > c:
            c = t + sv[i]
            dv[i] = c
            mv[i] = True
        elif disc == 2 or buf < 0:
            buf = i
    if buf >= 0:
        dv[buf] = c + sv[buf]
        mv[buf] = True
    served = np.flatnonzero(mark)
    return served, departs[served]


def _buffer_fills(t_arr, served, d_t, disc):
    """Per buffered service: the first admitted arrival after it starts (n:
    none), its time (inf: none) and whether it comes by the departure.  An
    arrival at a departure instant finds the server busy, so it belongs to the
    service that ends there.  Under FCFS an arrival between two served
    positions found the buffer holding the earlier one, so came no later than
    that one's start: the first arrival after a start is served next.  Under
    LCFS with replacement a packet leaves the buffer as the last arrival up to
    then, so the first arrival after a start is ``served + 1``."""
    n = t_arr.size
    first = np.append(served, n)[1:] if disc == 1 else served + 1
    t_next = np.where(first < n, t_arr[np.minimum(first, n - 1)], np.inf)
    return first, t_next, t_next <= d_t


def _add_waits(t_sys, gen, d_t, disc, edges_t, detail):
    """Add the waits to the service times ``t_sys`` in place; return the busy time up to each batch edge.

    Packets leave in service order, so each starts service at its generation
    time or at the previous departure, whichever is later.  System time is
    wait + service, so a packet served on arrival gets exactly ``s`` and one
    whose service reaches the deadline never keeps a rounding-sized area.
    Without a buffer only arrivals after the previous departure are served,
    so every wait is exactly 0.0.
    """
    if disc == 0:
        start = gen
    else:
        start = gen.copy()
        np.maximum(gen[1:], d_t[:-1], out=start[1:])
        t_sys += start - gen
    if detail is not None:
        detail["service_start_times"] = start
    return _covered(start, d_t, edges_t)


def _covered(lo, hi, x):
    """Length of the disjoint sorted intervals [lo, hi] that lies below each ``x >= 0``."""
    # cum[k], k = 0..m: the total length of the first k intervals, of which
    # the k-th (ending at hi[k - 1]) may reach past x.
    cum = np.zeros(lo.size + 1)
    np.cumsum(np.subtract(hi, lo, out=cum[1:]), out=cum[1:])
    k = np.searchsorted(lo, x, side="right")
    over = np.maximum(hi[k - 1] - x, 0.0) if hi.size else 0.0
    return cum[k] - np.where(k > 0, over, 0.0)


def _voi_batch_sums(q, d_idx, n, firsts, out):
    """Write the VoI area of each batch, over all n generation indices, to
    ``out``: ``reduceat`` sums pairwise, so the zeros of undelivered packets
    fix its rounding."""
    q_full = np.zeros(n)
    q_full[d_idx] = q
    np.add.reduceat(q_full, firsts, out=out)


def _batch_stderrs(batch_totals: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the time average of each row of
    ``batch_totals``, over the batches of positive length."""
    keep = spans > 0.0
    # Boolean indexing along the columns yields a Fortran-ordered array, whose
    # row reductions would sum in another order than a one-row ``std``.
    m = np.ascontiguousarray(batch_totals[:, keep] / spans[keep])
    k = m.shape[1]
    if k < 2:
        return np.zeros(m.shape[0])
    # Each row is scaled into [-1, 1] by a power of two (exact), so that
    # squares cannot overflow.
    e = np.frexp(np.maximum.reduce(np.abs(m), axis=1))[1]
    # ``std(ddof=1, axis=1)``, step by step as numpy takes it.
    x = np.ldexp(m, -e[:, None])
    dev = np.square(np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / k, out=x), out=x)
    std = np.sqrt(np.add.reduce(dev, axis=1) / (k - 1))
    return np.ldexp(std / math.sqrt(k), e)


def _age_statistics(gen, d_t, elapsed, edges_t, out):
    """Time-average age and e; writes the age integral up to each batch
    edge, scaled by 4^-e, to ``out``.

    The age process starts at zero, grows with slope one, and drops to
    (delivery time - generation time) at every delivery: ``_serve`` serves
    admitted arrivals in arrival order, so each delivery is the freshest yet.
    """
    if d_t.size == 0:
        out[:] = 0.0
        return float(elapsed / 2.0), 0
    # Times scaled into [0, 1] by a power of two (exact), so that their
    # squares cannot overflow; the age integral scales back by 4^e.
    e = math.frexp(elapsed)[1]
    # Segment k runs from reset time r_k to the next (or the end) with age
    # t - u_k.  Three buffers, each can reuse a freed per-packet array: r then
    # the end, u (read at the batch edges x, then (r_k - u_k)^2), the integral.
    ru, u, cum = (np.zeros(d_t.size + 2) for _ in range(3))
    end = ru[-1] = math.ldexp(elapsed, -e)
    np.ldexp(d_t, -e, out=ru[1:-1])
    np.ldexp(gen, -e, out=u[1:-1])
    r, u = ru[:-1], u[:-1]
    x = np.ldexp(edges_t, -e)
    # The segment each edge lies in; r[0] = 0 <= x, so k >= 0.
    k = np.searchsorted(r, x, side="right") - 1
    u_k = u[k]
    seg = np.square(np.subtract(ru[1:], u, out=cum[1:]), out=cum[1:])
    sq = np.square(np.subtract(r, u, out=u), out=u)
    np.cumsum(np.multiply(np.subtract(seg, sq, out=seg), 0.5, out=seg), out=seg)
    np.add(cum[k], 0.5 * ((x - u_k) ** 2 - sq[k]), out=out)
    return math.ldexp(float(out[-1]) / end, e), e


def _sampled_voi_mean(descend, gen, v_d, d_t, t_sys, elapsed, step):
    """Mean of instantaneous VoI sampled on the grid 0, step, 2 step, ... < elapsed.

    VoI is additive: at each sample it is the sum of the current values of
    the packets the receiver holds.  A delivered packet counts while alive,
    i.e. when its system time ``t_sys`` is below the deadline (the same test
    as ``n_expired``), on the samples t with t_on <= t < gen + D: one
    contiguous run of sample indices.  The runs are expanded in blocks of at
    most _SAMPLE_PAIRS_PER_BLOCK (packet, sample) pairs, each evaluated with
    ``DescendFunction.value`` and summed.

    The grid is never built.  It is ``np.arange(0.0, elapsed, step)``, whose
    sample m is exactly ``m * step``, so a run's bounds are counts of
    samples below a time (``_samples_below``) and a pair's sample is formed
    from its index.  Memory is that of the alive packets and of one block,
    however long the run and however fine the step.
    """
    n_s = _grid_length(elapsed, step)
    alive = t_sys < descend.deadline
    gen, v0 = gen[alive], v_d[alive]
    # starts holds each run's first sample, then its length, then its first pair.
    starts = _samples_below(d_t[alive], step, n_s)
    hi = _samples_below(gen + descend.deadline, step, n_s)
    np.maximum(np.subtract(hi, starts, out=starts), 0, out=starts)
    ends = np.cumsum(starts)
    np.subtract(ends, starts, out=starts)
    n_pairs = int(ends[-1]) if ends.size else 0
    total = 0.0
    for first in range(0, n_pairs, _SAMPLE_PAIRS_PER_BLOCK):
        last = min(first + _SAMPLE_PAIRS_PER_BLOCK, n_pairs)
        pair = np.arange(first, last)
        # The packets whose runs meet the block, each repeated over its share
        # of it; a run that holds a pair is never empty, so it ends at hi,
        # and the pair's sample counts back from there.
        k0, k1 = np.searchsorted(ends, (first, last - 1), side="right")
        share = np.minimum(ends[k0 : k1 + 1], last) - np.maximum(starts[k0 : k1 + 1], first)
        k = np.repeat(np.arange(k0, k1 + 1), share)
        tau = (pair - ends[k] + hi[k]) * step - gen[k]
        total += float(descend.value(v0[k], tau).sum())
    return total / n_s


def _grid_length(elapsed, step):
    """Length of ``np.arange(0.0, elapsed, step)`` for ``elapsed > 0``:
    ``ceil(elapsed / step)``, or one sample when that quotient underflows."""
    ratio = elapsed / step
    if not ratio < _MAX_SAMPLES:
        raise ValueError(f"sampling grid of {ratio:g} points exceeds {_MAX_SAMPLES:g}")
    return max(math.ceil(ratio), 1)


def _samples_below(x, step, n_s):
    """Number of samples ``m * step``, 0 <= m < n_s, below each ``x``: what
    ``np.searchsorted(np.arange(0.0, elapsed, step), x)`` returns.

    The samples are nondecreasing in m, so the count is the first m with
    ``m * step >= x``, capped at n_s.  ``x / step`` and ``m * step`` are
    each rounded once, by at most a relative 2^-53; up to 2^52 samples (hence
    ``_MAX_SAMPLES``) that moves either by at most half a sample, so
    ``ceil(x / step)``, clipped to [0, n_s], is within one of the count,
    and one test each way settles it.
    """
    m = np.divide(x, step)
    np.ceil(m, out=m)
    np.minimum(np.maximum(m, 0.0, out=m), n_s, out=m)
    m -= (m > 0.0) & ((m - 1.0) * step >= x)
    m += (m < n_s) & (m * step < x)
    return m.astype(np.int64)
