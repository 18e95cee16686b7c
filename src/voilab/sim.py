"""Seeded simulation of the three packet-management disciplines.

One run draws the whole packet stream up front (Philox counter-based streams,
one per random source).  The server then fixes who is served and when each
leaves.  Without a buffer, each served arrival hands the server on to the
first arrival after its departure, so the served arrivals are the orbit of
the first one under that map, expanded by pointer doubling.  With a buffer,
one pass of Lindley's single-server recursion walks the admitted arrivals.
VoI, age, state occupancies, the states arrivals find and their batch-means
standard errors all follow from those service intervals, as array
operations over the whole run.  Identical config and seed give
bit-identical reports.
"""

from __future__ import annotations

import math
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

# Batches of every batch-means standard error (one per packet in shorter runs).
_N_BATCHES = 100


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario
    n_packets: int = 1_000_000
    seed: int = 0
    sample_voi_every: Optional[float] = None
    trace: bool = False   # keep the per-packet and per-delivery arrays in ``detail``

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ValueError("need at least one packet")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.sample_voi_every is not None and not (0.0 < self.sample_voi_every < math.inf):
            raise ValueError("sampling interval must be finite and > 0")


@dataclass(frozen=True)
class SimReport:
    n_generated: int
    n_delivered: int
    n_expired: int    # delivered with system time >= deadline, i.e. worth zero on reception
    elapsed: float
    avg_voi: float
    stderr_voi: float
    avg_aoi: float
    stderr_aoi: float
    occupancy: tuple[float, float, float]          # time fractions of I, B1, B2
    occupancy_stderr: tuple[float, float, float]
    arrival_seen: tuple[float, float, float]       # state fractions seen by arrivals
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

    rng_a = rng_stream(config.seed, _STREAM_ARRIVALS)
    rng_v = rng_stream(config.seed, _STREAM_VALUES)
    rng_s = rng_stream(config.seed, _STREAM_SERVICES)

    t_gen = np.cumsum(rng_a.exponential(1.0 / sc.lam, n))
    values, classes = sc.value_dist.sample(rng_v, n)
    services = sample_service_times(sc.service, values, classes, rng_s)

    keep_cls = sc.admitted_class()
    admitted = None if keep_cls is None else (classes == keep_cls)
    # Index only when admission filters: serve-all runs on the whole stream.
    pos = None if admitted is None else np.flatnonzero(admitted)
    t_adm = t_gen if pos is None else t_gen[pos]
    disc = {MG11: 0, MG12: 1}.get(sc.discipline, 2)
    s_adm = services if pos is None else services[pos]
    served, d_t = _serve_bufferless(t_adm, s_adm) if disc == 0 else _serve(t_adm, s_adm, disc)
    d_idx = served if pos is None else pos[served]
    elapsed = float(max(t_gen[-1], d_t[-1]) if d_t.size else t_gen[-1])

    # Packets leave in service order, so each starts service at its generation
    # time or at the previous departure, whichever is later.  System time is
    # wait + service, so a packet served on arrival gets exactly ``s`` and one
    # whose service reaches the deadline never keeps a rounding-sized area.
    gen = t_gen[d_idx]
    d_prev = np.concatenate(([-np.inf], d_t[:-1]))
    start = np.maximum(gen, d_prev)
    t_sys = (start - gen) + services[d_idx]
    q = q_area_batch(sc.descend, values[d_idx], t_sys)
    n_expired = int(np.count_nonzero(t_sys >= sc.descend.deadline))

    # One batch partition by generation index for every batch-means error;
    # renewal-reward batching assigns each packet's area to the batch of its
    # generation epoch.
    edges_idx = (np.arange(1, n_batches) * n) // n_batches
    edges_t = np.concatenate(([0.0], t_gen[edges_idx], [elapsed]))
    spans = np.diff(edges_t)

    q_full = np.zeros(n)
    q_full[d_idx] = q
    batch_sums = np.add.reduceat(q_full, np.concatenate(([0], edges_idx)))
    avg_voi = float(q.sum() / elapsed)
    stderr_voi = _batch_stderr(batch_sums, spans)

    avg_aoi, stderr_aoi = _age_statistics(t_gen, d_idx, d_t, elapsed, edges_t, spans)

    # Time busy cumulated up to each batch edge, and the state each arrival
    # finds: busy while a served packet that arrived earlier has not left.
    busy_at = _covered(start, d_t, edges_t)
    seen = _found_open(d_idx, d_t, t_gen).astype(np.int64)
    if disc == 0:
        # The bufferless discipline drops every arrival it finds busy.
        fills = np.zeros(d_t.size, dtype=bool)
        full_at = np.zeros_like(edges_t)
    else:
        # The buffer of a served packet is filled by the first admitted
        # arrival after its service starts, if that arrives by its departure,
        # and stays full until the departure.  An arrival finds it full while
        # the service during which an earlier arrival filled it has not ended.
        first = np.maximum(served + 1, np.searchsorted(t_adm, d_prev, side="right"))
        t_next = np.where(first < t_adm.size, t_adm[np.minimum(first, t_adm.size - 1)], np.inf)
        fills = t_next <= d_t
        full_at = _covered(np.where(fills, t_next, d_t), d_t, edges_t)
        fill_ids = first[fills] if pos is None else pos[first[fills]]
        seen += _found_open(fill_ids, d_t[fills], t_gen)
    # Time spent idle, busy with an empty buffer and busy with a full buffer.
    occ_at = np.stack((edges_t - busy_at, busy_at - full_at, full_at))
    occupancy = tuple((occ_at[:, -1] / elapsed).tolist())
    occupancy_stderr = tuple(_batch_stderr(row, spans) for row in np.diff(occ_at, axis=1))
    arrival_seen = tuple((np.bincount(seen, minlength=3) / n).tolist())

    sampled = None
    if config.sample_voi_every is not None:
        sampled = _sampled_voi_mean(
            sc.descend, t_gen, values, d_idx, d_t, t_sys, elapsed, config.sample_voi_every
        )

    detail = None
    if config.trace:
        detail = {
            "t_gen": t_gen,
            "values": values,
            "classes": classes,
            "services": services,
            "admitted": admitted,
            "delivered_ids": d_idx,
            "delivered_times": d_t,
            "system_times": t_sys,
            "q_areas": q,
            "service_start_times": start,
            # State each arrival finds, and state at each completion just
            # before it (1 busy, 2 busy with a full buffer).
            "arrival_states": seen,
            "completion_states": 1 + fills,
        }

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
        occupancy_stderr=occupancy_stderr,
        arrival_seen=arrival_seen,
        sampled_voi_mean=sampled,
        seed=config.seed,
        n_batches=n_batches,
        detail=detail,
    )


def _serve_bufferless(t_arr, s_arr):
    """Positions served without a buffer, in service order, and their departure times.

    Once arrival i is served, the next one served is ``jump[i]``, the first
    arrival after i departs (an arrival at that instant still finds the
    server busy), so ``jump[i] > i``.  The served positions are the orbit of
    0 under ``jump`` up to the sentinel ``jump[n] = n``.  Each round appends
    ``jump[path]`` to the known prefix ``path`` of the orbit, doubling it,
    and squares the map, so ⌈log2(served + 1)⌉ rounds of gathers replace a
    pass over every arrival.
    """
    n = t_arr.size
    end = t_arr + s_arr
    jump = np.append(np.searchsorted(t_arr, end, side="right"), n)
    path = np.zeros(min(n, 1), dtype=np.int64)
    while path.size and path[-1] < n:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    path = path[: np.searchsorted(path, n)]
    return path, end[path]


def _serve(t_arr, s_arr, disc):
    """Positions served with a buffer, in service order, and their departure times.

    ``t_arr`` and ``s_arr`` are the admitted arrivals' times and service times;
    ``disc`` is 1 (FCFS buffer) or 2 (LCFS buffer with replacement).  One pass
    of Lindley's recursion: ``c`` is when the server next falls free and
    ``buf`` the buffered position (-1: none).  An arrival at the instant the
    server falls free still finds it busy.  A buffered packet departs at a
    running sum of services that decides which arrival is served next, so
    this loop does not vectorise the way ``_serve_bufferless`` does.
    """
    served, departs = [], []
    c = -math.inf
    buf = -1
    sv = memoryview(s_arr)
    for i, t in enumerate(memoryview(t_arr)):
        if t > c and buf >= 0:
            c += sv[buf]
            served.append(buf)
            departs.append(c)
            buf = -1
        if t > c:
            c = t + sv[i]
            served.append(i)
            departs.append(c)
        elif disc == 2 or buf < 0:
            buf = i
    if buf >= 0:
        served.append(buf)
        departs.append(c + sv[buf])
    return np.array(served, dtype=np.int64), np.array(departs)


def _found_open(first_ids, ends, t_gen):
    """Whether each arrival i comes after some arrival ``first_ids[k]`` and no
    later than ``ends[k]`` (both increasing, so the last k with
    ``first_ids[k] < i`` decides; arrivals precede departures at equal times)."""
    opened = np.zeros(t_gen.size + 1, dtype=np.int64)
    opened[first_ids + 1] = 1
    np.cumsum(opened, out=opened)  # opened[i]: intervals opened before arrival i
    return np.concatenate(([-np.inf], ends))[opened[:-1]] >= t_gen


def _covered(lo, hi, x):
    """Length of the disjoint sorted intervals [lo, hi] that lies below each ``x >= 0``."""
    lo = np.concatenate(([0.0], lo))
    hi = np.concatenate(([0.0], hi))
    cum = np.cumsum(hi - lo)
    k = np.searchsorted(lo, x, side="right") - 1
    return cum[k] - np.maximum(hi[k] - x, 0.0)


def _batch_stderr(batch_totals: np.ndarray, spans: np.ndarray) -> float:
    """Batch-means standard error of a time average, over the batches of positive length."""
    keep = spans > 0.0
    m = batch_totals[keep] / spans[keep]
    if m.size < 2:
        return 0.0
    # Scaled into [-1, 1] by a power of two (exact), so that squares cannot overflow.
    e = math.frexp(float(np.abs(m).max()))[1]
    return math.ldexp(float(np.ldexp(m, -e).std(ddof=1) / math.sqrt(m.size)), e)


def _age_statistics(t_gen, d_idx, d_t, elapsed, edges_t, spans):
    """Time-average age and its batch-means standard error.

    The age process starts at zero, grows with slope one, and drops to
    (delivery time - generation time) at every delivery: ``_serve`` serves
    admitted arrivals in arrival order, so each delivery is the freshest yet.
    """
    if d_idx.size == 0:
        return float(elapsed / 2.0), 0.0
    # Segment k (starting at reset time r_k) has age t - u_k.
    r = np.concatenate(([0.0], d_t))
    u = np.concatenate(([0.0], t_gen[d_idx]))
    seg_end = np.concatenate((r[1:], [elapsed]))
    seg_int = 0.5 * ((seg_end - u) ** 2 - (r - u) ** 2)
    cum = np.concatenate(([0.0], np.cumsum(seg_int)))

    def age_integral_at(x):
        k = np.clip(np.searchsorted(r, x, side="right") - 1, 0, r.size - 1)
        return cum[k] + 0.5 * ((x - u[k]) ** 2 - (r[k] - u[k]) ** 2)

    at_edges = age_integral_at(edges_t)
    return float(at_edges[-1]) / elapsed, _batch_stderr(np.diff(at_edges), spans)


def _sampled_voi_mean(descend, t_gen, values, d_idx, d_t, t_sys, elapsed, step):
    """Mean of instantaneous VoI sampled on the grid 0, step, 2 step, ... < elapsed.

    VoI is additive: at each sample it is the sum of the current values of
    the packets the receiver holds.  A delivered packet counts while alive,
    i.e. when its system time ``t_sys`` is below the deadline (the same test
    as ``n_expired``), on the samples t with t_on <= t < gen + D: one
    contiguous run of sample indices.  The runs are expanded in blocks of at
    most _SAMPLE_PAIRS_PER_BLOCK (packet, sample) pairs, each evaluated with
    ``DescendFunction.value`` and summed.
    """
    samples = np.arange(0.0, elapsed, step)
    alive = t_sys < descend.deadline
    gen = t_gen[d_idx][alive]
    v0 = values[d_idx][alive]
    lo = np.searchsorted(samples, d_t[alive])
    hi = np.searchsorted(samples, gen + descend.deadline)
    runs = np.maximum(hi - lo, 0)
    ends = np.cumsum(runs)
    starts = ends - runs
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
        tau = samples[pair - ends[k] + hi[k]] - gen[k]
        total += float(descend.value(v0[k], tau).sum())
    return total / samples.size
