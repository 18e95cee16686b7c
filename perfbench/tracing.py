"""Span tracing at voilab's module boundaries, installed from outside the package.

The engines bind ``integrate``, ``q_area_batch``, ``sample_service_times``
and the service transforms by name at import, so each traced function is
replaced in every voilab module that holds it, not only in its home module.
Spans stay in memory while a pass runs and are summarised (and written)
after it.  A span's self time is its duration minus its child spans; the
self times of all spans plus the glue between them add up to the pass.

The integrand passed to ``integrate`` is wrapped to count and time its
evaluations.  Integrand code belongs to the module that built it, so its
time (minus the spans it opens) is charged to the nearest enclosing span
outside ``quadrature``; ``quadrature`` keeps only the adaptive Simpson
bookkeeping between evaluations.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from pathlib import Path

from voilab import analytics, model, quadrature, sim
from voilab.quadrature import QuadratureError

LAYERS = ("quadrature", "model", "analytics", "sim")
TRANSFORMS = ("mean_service_time", "mgf_service", "one_minus_mgf_service")
STATIONARY = ("stationary_mg11", "stationary_mg12")

# Span fields.  INTEGRAND is the time spent in the integrand of an ``integrate`` span.
LAYER, NAME, START, END, PARENT, ERROR, INTEGRAND = range(7)


def _targets():
    return (
        quadrature.integrate,
        model.mean_service_time,
        model.mgf_service,
        model.one_minus_mgf_service,
        model.q_area_batch,
        model.sample_service_times,
        analytics.analyze,
        analytics.closed_form_report,
        analytics.stationary_mg11,
        analytics.stationary_mg12,
        sim.simulate,
    )


class Tracer:
    """Wraps the traced functions for the life of a ``with`` block.

    Calls record spans only while ``recording`` is true; otherwise the
    wrappers pass straight through.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.evals = [0]
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "voilab" or n.startswith("voilab.")]
        for fn in _targets():
            wrapper = self._wrap(fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def take(self) -> tuple[list[list], int]:
        """Spans and integrand evaluations recorded since the last take."""
        spans, evals = self.spans, self.evals[0]
        self.spans, self.evals[0] = [], 0
        return spans, evals

    def _counted(self, f, span):
        cell = self.evals
        clock = time.perf_counter_ns

        def counted(x):
            cell[0] += 1
            start = clock()
            y = f(x)
            span[INTEGRAND] += clock() - start
            return y

        return counted

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        count_evals = fn is quadrature.integrate
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            spans = self.spans
            span = [layer, name, 0, 0, stack[-1] if stack else -1, False, 0]
            if count_evals:
                args = (self._counted(args[0], span),) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except QuadratureError:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper


def summarise(spans: list[list]) -> dict:
    """Per-layer and per-function totals of one pass's spans, in ns."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0] * n
    in_quad = [False] * n
    owner = [-1] * n  # nearest span outside quadrature, enclosing or equal
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        in_quad[i] = s[LAYER] == "quadrature" or (p >= 0 and in_quad[p])
        owner[i] = i if s[LAYER] != "quadrature" else (owner[p] if p >= 0 else -1)
    out = {
        "layer_self": dict.fromkeys(LAYERS, 0),
        "fn_self": {},
        "fn_incl": {},
        "fn_calls": {},
        "quad_busy": 0,
        "quad_errors": 0,
        "top_level": 0,
        "spans": n,
    }
    for i, s in enumerate(spans):
        p = s[PARENT]
        self_ns = dur[i] - child[i]
        if s[INTEGRAND] and p >= 0 and owner[p] >= 0:
            # Evaluations enclose all child spans; what remains of them is the owner's code.
            o = spans[owner[p]]
            moved = s[INTEGRAND] - child[i]
            self_ns -= moved
            out["layer_self"][o[LAYER]] += moved
            out["fn_self"][o[NAME]] = out["fn_self"].get(o[NAME], 0) + moved
        out["layer_self"][s[LAYER]] += self_ns
        out["fn_self"][s[NAME]] = out["fn_self"].get(s[NAME], 0) + self_ns
        out["fn_incl"][s[NAME]] = out["fn_incl"].get(s[NAME], 0) + dur[i]
        out["fn_calls"][s[NAME]] = out["fn_calls"].get(s[NAME], 0) + 1
        if p < 0:
            out["top_level"] += dur[i]
        if s[LAYER] == "quadrature" and not (p >= 0 and in_quad[p]):
            out["quad_busy"] += dur[i]
            out["quad_errors"] += s[ERROR]
    return out


def write_spans(spans: list[list], path: Path) -> None:
    """One CSV line per span: id, parent, layer, function, start, end and integrand time in ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "parent", "layer", "function", "start_ns", "end_ns", "integrand_ns"))
        for i, s in enumerate(spans):
            w.writerow((i, s[PARENT], s[LAYER], s[NAME], s[START], s[END], s[INTEGRAND]))
