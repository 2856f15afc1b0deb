"""Span tracing of wittenlab's layers, installed from outside the library.

wittenlab's modules import their collaborators by name
(``from .determinants import det2``), so a layer is traced by replacing
the name in the namespace that calls it, not in the module that defines
it.  Each call becomes a span (name, start, end, parent, job) with the
size of the work it did; spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional

# The package modules that jobs run, in pipeline order.  ``profiles`` works
# only during set-up and ``cli`` is not driven; ``setup_s`` covers both.
# ``bench`` is the job span itself: the time between layer calls.
LAYERS = ("kernels", "discretize", "determinants", "ssf", "witten")
REFUSAL_REASONS = ("jump", "settle", "anchor", "near_singular")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    job: Optional[int]
    name: str
    start: float
    end: float = 0.0
    error: Optional[str] = None  # exception class name, or the refusal reason
    size: int = 0  # N of a matrix or det2 call, M of a Fourier pair


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[int] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A sweep worker thread starts with an empty stack; its spans belong
        # to the span the calling thread holds open (ssf_mollified), since
        # the benchmark runs one job at a time.
        outer = stack or self._main_stack
        with self._lock:
            span = Span(next(self._ids), outer[-1].id if outer else None, self.job, name,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def job_span(self, job: int):
        self.job = job
        span = self.open("bench.job")
        try:
            yield span
        finally:
            self.close(span)
            self.job = None

    def wrap(self, fn, name: str, size=None, reason=None):
        """fn traced as span ``name``; size(args, result) records the work size,
        reason(exc) names a refusal."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = reason(exc) if reason else type(exc).__name__
                raise
            finally:
                self.close(span)
            if size is not None:
                span.size = int(size(args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def phase_refusal_reason(exc: Exception) -> str:
    """The phase-tracking contract a refusal broke, read from the library's message."""
    if type(exc).__name__ == "NearSingularError":
        return "near_singular"
    message = str(exc)
    if message.startswith("phase jump"):
        return "jump"
    if message.startswith("anchor phase"):
        return "anchor"
    if message.startswith(("|det2 - 1|", "far-end phase")):
        return "settle"
    return type(exc).__name__


@contextlib.contextmanager
def instrument(tracer: Tracer, lib):
    """Replace each traced name in the namespaces that call it, and restore them."""
    ssf, witten = lib.ssf, lib.witten
    wrap = tracer.wrap
    family = ssf.MollifiedBSFamily
    traced_family = type(
        family.__name__,
        (family,),
        {
            "__init__": wrap(family.__init__, "discretize.family_init"),
            "matrix": wrap(family.matrix, "discretize.matrix",
                           size=lambda a, r: r.entries.shape[0]),
        },
    )
    ssf_mollified = wrap(ssf.ssf_mollified, "ssf.ssf_mollified")
    pushnitski = wrap(ssf.pushnitski, "ssf.pushnitski")
    patches = {
        ssf: {
            "MollifiedBSFamily": traced_family,
            "det2": wrap(ssf.det2, "determinants.det2", size=lambda a, r: len(a[0])),
            "phase_curve": wrap(ssf.phase_curve, "determinants.phase_curve",
                                reason=phase_refusal_reason),
            "build_grid": wrap(ssf.build_grid, "discretize.build_grid"),
            "ensure_oscillation_resolved": wrap(
                ssf.ensure_oscillation_resolved, "discretize.ensure_oscillation_resolved"
            ),
            "fourier_pair": wrap(ssf.fourier_pair, "discretize.fourier_pair",
                                 size=lambda a, r: r.M),
            "trace_gz_diff": wrap(ssf.trace_gz_diff, "discretize.trace_gz_diff"),
            "eta_n_im": wrap(ssf.eta_n_im, "kernels.eta_n_im"),
            "ssf_mollified": ssf_mollified,
            "pushnitski": pushnitski,
            "ssf_2d_curve": wrap(ssf.ssf_2d_curve, "ssf.ssf_2d_curve"),
            "krein_check_trn": wrap(ssf.krein_check_trn, "ssf.krein_check_trn"),
            "trace_identity_eq1": wrap(ssf.trace_identity_eq1, "ssf.trace_identity_eq1"),
        },
        witten: {
            "ssf_mollified": ssf_mollified,
            "pushnitski": pushnitski,
            "delta_r": wrap(witten.delta_r, "witten.delta_r"),
            "witten_index": wrap(witten.witten_index, "witten.witten_index"),
        },
    }
    originals = [(module, name, getattr(module, name))
                 for module, names in patches.items() for name in names]
    try:
        for module, names in patches.items():
            for name, value in names.items():
                setattr(module, name, value)
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall time during which each span is a leaf of the open-span tree.

    A span's self time is its duration minus the part of it its children
    cover.  Where sweep threads run children concurrently, the open leaves
    share each instant evenly, so the self times of one job add up to its
    wall time exactly.
    """
    events = sorted(
        [(s.start, 1, s) for s in spans] + [(s.end, 0, s) for s in spans],
        key=lambda e: (e[0], e[1]),
    )
    own = {s.id: 0.0 for s in spans}
    open_children = defaultdict(int)
    opened: set[int] = set()
    leaves: set[int] = set()
    last = None
    for t, starts, span in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        parent = span.parent if span.parent in opened else None
        if starts:
            opened.add(span.id)
            leaves.add(span.id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            opened.discard(span.id)
            leaves.discard(span.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, summed over its jobs."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    m: dict[str, float] = {}
    for name in (
        "discretize.build_grid", "discretize.family_init", "discretize.matrix",
        "discretize.fourier_pair", "discretize.trace_gz_diff", "determinants.det2",
        "determinants.phase_curve", "kernels.eta_n_im", "ssf.ssf_mollified",
        "ssf.pushnitski", "ssf.ssf_2d_curve", "witten.delta_r",
    ):
        m[name + ".calls"] = len(by_name[name])
        m[name + ".busy_s"] = busy(name)
    m["discretize.matrix.bytes_computed"] = sum(16 * s.size**2 for s in by_name["discretize.matrix"])
    m["determinants.det2.flops_computed"] = 8 * sum(s.size**3 for s in by_name["determinants.det2"]) / 3
    m["discretize.fourier_pair.M"] = max((s.size for s in by_name["discretize.fourier_pair"]), default=0)
    for name in ("ssf.ssf_mollified", "ssf.krein_check_trn", "ssf.trace_identity_eq1",
                 "witten.witten_index"):
        m[name + ".self_s"] = self_s(name)

    sweep_wall = busy("ssf.ssf_mollified")
    sweep_busy = busy("discretize.matrix") + busy("determinants.det2")
    m["ssf.sweep.busy_over_wall"] = sweep_busy / sweep_wall if sweep_wall else 0.0

    m["discretize.oscillation_refusals"] = sum(
        1 for s in by_name["discretize.ensure_oscillation_resolved"] if s.error
    )
    refused = [s for s in by_name["determinants.phase_curve"] if s.error]
    m["determinants.phase_curve.refusals"] = len(refused)
    for reason in REFUSAL_REASONS:
        m[f"determinants.phase_curve.refusals.{reason}"] = sum(
            1 for s in refused if s.error == reason
        )
    refused_sweeps = {s.id for s in by_name["ssf.ssf_mollified"] if s.error}
    det2_calls = by_name["determinants.det2"]
    wasted = sum(1 for s in det2_calls if s.parent in refused_sweeps)
    m["determinants.wasted_det2_share"] = wasted / len(det2_calls) if det2_calls else 0.0

    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.name.startswith(layer + "."))
    return m
