"""Spans around the package's layer functions, recorded from outside.

:func:`traced` replaces each layer function named in :data:`TARGETS` by a
wrapper that records a span (name, start, end, parent span, solve id and a
few attributes) and restores every original on exit, so the package's
source is left untouched.  Spans stay in memory until :meth:`Tracer.dump`.
"""

import contextlib
import functools
from collections import Counter, defaultdict
import importlib
import json
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _lanczos_attrs(args, kwargs, result):
    return {"k": int(_arg(args, kwargs, 1, "k"))}


def _psd_attrs(args, kwargs, result):
    """Rank cap, and the factor's rank and truncation (None after a raise)."""
    attrs = {"max_rank": int(_arg(args, kwargs, 1, "max_rank"))}
    if result is not None:
        attrs.update(rank=int(result.rank), truncated=bool(result.truncated))
    return attrs


# (module, class or None, attribute, span name, attribute extractor called
# with the call's args, kwargs and result, the result being None on a raise).
# sdp imports the eig and crf functions by name, so they are wrapped in its
# namespace; eig.leading_psd_part calls leading_eigpairs in eig's namespace.
TARGETS = [
    ("lrsdcut.generate", None, "gen_grid", "generate", None),
    ("lrsdcut.generate", None, "gen_clusters", "generate", None),
    ("lrsdcut.kernels", None, "select_landmarks", "kernels.landmarks", None),
    ("lrsdcut.kernels", None, "nystrom_factor", "kernels.nystrom", None),
    ("lrsdcut.kernels", "LowRankKernel", "matvec", "kernels.matvec", None),
    ("lrsdcut.sdp", None, "lifted_energy", "crf.lifted_energy", None),
    ("lrsdcut.sdp", None, "lifted_energy_general", "crf.lifted_energy", None),
    ("lrsdcut.sdp", None, "leading_psd_part", "eig.psd", _psd_attrs),
    ("lrsdcut.sdp", None, "leading_eigpairs", "eig.lanczos", _lanczos_attrs),
    ("lrsdcut.eig", None, "leading_eigpairs", "eig.lanczos", _lanczos_attrs),
    ("lrsdcut.sdp", "PottsSdp", "c_matvec", "sdp.c_matvec", None),
    ("lrsdcut.sdp", "GeneralSdp", "c_matvec", "sdp.c_matvec", None),
    ("lrsdcut.sdp", "PottsSdp", "dual_gradient", "sdp.gradient", None),
    ("lrsdcut.sdp", "GeneralSdp", "dual_gradient", "sdp.gradient", None),
    ("lrsdcut.sdp", None, "spectral_shift_init", "sdp.shift", None),
    ("lrsdcut.sdp", None, "round_solution", "sdp.round", None),
    ("lrsdcut.meanfield", None, "mf_update", "meanfield.update", None),
    ("lrsdcut.meanfield", None, "mf_free_energy", "meanfield.free_energy", None),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "solve", "attrs")

    def __init__(self, span_id, name, start, parent, solve):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.solve = solve
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "solve": self.solve,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve = None

    @contextlib.contextmanager
    def span(self, name, solve=None):
        """Record a span around a block; ``solve`` tags it and its children."""
        outer = self.solve
        if solve is not None:
            self.solve = solve
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)
            self.solve = outer

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent,
                      self.solve)
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record):
        record.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                record.attrs = {"error": type(exc).__name__,
                                **(attrs(args, kwargs, None) if attrs else {})}
                raise
            self._close(record)
            if attrs is not None:
                record.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_dict()) + "\n")


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def originals():
    """The currently installed objects of every wrap target, in order."""
    return [_owner(m, c).__dict__[attr] for m, c, attr, _, _ in TARGETS]


@contextlib.contextmanager
def traced(tracer):
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module_name, class_name, attr, name, attrs in TARGETS:
            owner = _owner(module_name, class_name)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(spans):
    """Per-name call counts, total and self times, and eigensolver details.

    A span's self time is its duration minus that of its direct children
    among ``spans``.  A Lanczos call is a cap hit when it requests as many
    pairs as the rank cap of the positive-part call that made it.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s.parent in by_id:
            children[s.parent] += s.duration
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_time[s.name] += s.duration - children[s.id]
    psd = [s for s in spans if s.name == "eig.psd"]
    lanczos = [s for s in spans if s.name == "eig.lanczos"]
    cap_hits = 0
    for s in lanczos:
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "eig.psd":
            cap_hits += s.attrs["k"] == parent.attrs["max_rank"]
    found = [s.attrs for s in psd if "rank" in s.attrs]
    return {
        "calls": calls, "total": total, "self": self_time,
        "psd_ms": [1e3 * s.duration for s in psd],
        "requested_k": sum(s.attrs["k"] for s in lanczos),
        "cap_hits": cap_hits,
        "ranks": [a["rank"] for a in found],
        "truncated": sum(a["truncated"] for a in found),
        "stalls": sum(1 for s in psd if "error" in s.attrs),
    }
