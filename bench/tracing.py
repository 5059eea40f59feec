"""Spans around the calls into each layer, recorded from outside the package.

A :class:`Tracer` replaces each traced function at every ``prodbmo.*``
module attribute bound to it (``from .core import haar_forward_2d`` gives
each importing module its own binding), so calls between layers and from
the workloads are all seen.  Spans stay in memory as tuples and are
reduced to per-layer numbers, or written out, once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _closure_sizes(inst, *args, **kwargs):
    active = np.flatnonzero(inst.rect_weights > 0.0)
    return {
        "cells": inst.n_cells,
        "rects": len(active),
        "arcs": sum(len(inst.rect_cells[r]) for r in active),
    }


def _assemble_sizes(op, depth, *args, **kwargs):
    return {"columns": 1 << (depth[0] + depth[1])}


def _mc_sizes(f, xs, n_samples, *args, **kwargs):
    return {"sample_points": n_samples * len(xs)}


#: traced functions per layer, with the sizes each call adds to its counters
TRACED = {
    "core": {"haar_forward_2d": None, "haar_inverse_2d": None, "apply_projection": None},
    "paraproducts": {"paraproduct": None, "sigma_k": None},
    "linop": {"assemble": _assemble_sizes, "operator_norm": None},
    "closure": {"best_ratio": _closure_sizes},
    "norms": {
        "grid_closure_instance": None,
        "bmo_d_norm_sq": None,
        "bmo_rect_norm_sq": None,
        "lmo_d_norm": None,
        "lmo_char_norm": None,
    },
    "shifts": {"iterated_commutator_apply": None},
    "hilbert": {"mc_hilbert": _mc_sizes, "shift_evaluate": None, "analytic_hilbert_step": None},
}

#: counters reported beside calls and self time, per traced function
SIZE_COUNTERS = {
    "closure.best_ratio": ("cells", "rects", "arcs", "errors"),
    "linop.assemble": ("columns",),
    "hilbert.mc_hilbert": ("sample_points",),
}


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """In-memory span recorder; use as a context manager to install it."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, item id, ok)
        self.sizes = defaultdict(int)
        self.item = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, sizer):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizer is not None:
                for key, n in sizer(*args, **kwargs).items():
                    sizes[f"{name}.{key}"] += n
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, ok)

        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "prodbmo" or k.startswith("prodbmo."))]
        for layer, fns in TRACED.items():
            mod = importlib.import_module(f"prodbmo.{layer}")
            for fn_name, sizer in fns.items():
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig, sizer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()
        return False

    def layer_totals(self):
        """Per span name: calls, self time in seconds, and failed calls.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        errors = defaultdict(int)
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            errors[name] += not ok
        return {name: (calls[name], self_ns[name] * 1e-9, errors[name]) for name in calls}

    def layer_shares(self, wall_s):
        """(self-time share, inclusive share) per layer.

        The self share divides a layer's self time by all traced self time.
        The inclusive share divides the time inside a layer's outermost
        spans (children included, nested spans of the same layer counted
        once) by ``wall_s``, the wall time of the traced items and their checks.
        """
        self_s = defaultdict(float)
        for name, (_, s, _) in self.layer_totals().items():
            self_s[name.split(".", 1)[0]] += s
        layers = [s[0].split(".", 1)[0] for s in self.spans]
        incl_ns = defaultdict(int)
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            while parent >= 0 and layers[parent] != layers[i]:
                parent = self.spans[parent][3]
            if parent < 0:
                incl_ns[layers[i]] += end - start
        total_self = sum(self_s.values()) or 1.0
        return {layer: (self_s[layer] / total_self, incl_ns[layer] * 1e-9 / wall_s)
                for layer in sorted(self_s, key=lambda k: -self_s[k])}
