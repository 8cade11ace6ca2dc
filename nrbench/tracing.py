"""Span tracing from outside the program.

A :class:`Tracer` replaces public nrreg functions with timing wrappers in
every ``nrreg`` module that holds a reference to them, so a call is traced
wherever the caller looks the name up (``nrreg.solver.factorize_system`` as
well as ``nrreg.operators.factorize_system``). Spans are kept in memory,
written out when the run ends, and the originals are restored on exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# (defining module, function name) for every traced layer boundary; the span
# name is "<layer>.<function>" with the module's last component as the layer
TRACED = [
    ("nrreg.geometry", "build_edge_graph"),
    ("nrreg.geometry", "compute_vertex_normals"),
    ("nrreg.geometry", "load_shape"),
    ("nrreg.geometry", "save_shape"),
    ("nrreg.correspondence", "closest_point_refresh"),
    ("nrreg.operators", "assemble_system"),
    ("nrreg.operators", "factorize_system"),
    ("nrreg.operators", "project_rotations"),
    ("nrreg.operators", "solve_X"),
    ("nrreg.solver", "register"),
    ("nrreg.solver", "admm_solve"),
    ("nrreg.solver", "solve_l2_baseline"),
    ("nrreg.solver", "evaluate_energy"),
    ("nrreg.metrics", "fitting_error"),
    ("nrreg.cli", "main"),
    ("nrreg.cli", "save_transforms"),
    ("nrreg.cli", "write_manifest"),
    ("nrreg.synthesis", "make_strip"),
    ("nrreg.synthesis", "synth_deformation"),
    ("nrreg.synthesis", "perturb_noise"),
    ("nrreg.synthesis", "perturb_outliers"),
    ("nrreg.synthesis", "landmark_subset"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    run: str

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Context manager that patches the TRACED functions for its lifetime.

    ``observers`` maps a span name to a callback ``f(result)`` run after each
    successful call, for counts that need the return value (matches,
    converged inner solves).
    """

    def __init__(self, observers=None):
        self.spans: list[Span | None] = []
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._observers = observers or {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.run)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for mod_name, _ in TRACED:
            importlib.import_module(mod_name)
        modules = [m for k, m in sys.modules.items()
                   if (k == "nrreg" or k.startswith("nrreg.")) and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name.split('.')[-1]}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    ``spans`` is the full list in creation order (indices are span ids);
    children of one parent run sequentially, so their durations add.
    """
    child = defaultdict(float)
    for s in spans:
        if s is not None and s.parent is not None:
            child[s.parent] += s.duration
    return {i: s.duration - child[i] for i, s in enumerate(spans) if s is not None}


def summarize(spans, run):
    """For one run id: inclusive seconds, self seconds and call counts per
    span name, and the seconds covered by top-level spans."""
    selfs = self_times(spans)
    incl, excl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    top = 0.0
    for i, s in enumerate(spans):
        if s is None or s.run != run:
            continue
        incl[s.name] += s.duration
        excl[s.name] += selfs[i]
        calls[s.name] += 1
        if s.parent is None:
            top += s.duration
    return incl, excl, calls, top
