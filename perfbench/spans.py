"""Span tracer: times calls into fbmdelay's layers from outside the package.

Each traced function is replaced, at the module attribute its caller
resolves (``fbmdelay.integrator.causal_conv``, ``fbmdelay.experiments.
generate_noise_batch``, an integrand class's ``values_on_cells`` ...), by a
wrapper that records one span: name, layer, parent span, start, end, self
time and the work counts derived from the argument shapes.  The wrappers
call the original with the same arguments and return its result untouched,
and they are installed only around traced ops (``Tracer.installed``), so an
untraced op runs the unmodified package.

Spans stay in memory; ``Tracer.write`` stores them as JSON lines and
``layer_metrics`` folds them into the per-layer metrics of BENCHMARK.json.
A name the package no longer has is skipped and listed in ``missing``, so
later refactors degrade the per-layer view instead of breaking the run.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import fft as _fft

# layer keys of the spans
DRAW, CONV, SYNTH, TABLE, BUDGET, KERNELS = "draw", "conv", "synth", "table", "budget", "kernels"
CELLS, TRANSFORMS, ASSEMBLY, DRIVER = "cells", "transforms", "assembly", "driver"
DISPATCH, WRITE, OP = "dispatch", "write", "op"

# (module, attribute, layer) for every module-level function that is traced
MODULE_TARGETS = [
    ("noise", "causal_conv", CONV),
    ("noise", "avg_kernel_table", TABLE),
    ("noise", "dr_kernel_table", TABLE),
    ("noise", "fbm_values", SYNTH),
    ("noise", "dr_values", SYNTH),
    ("noise", "w_values", SYNTH),
    ("noise", "r_values", SYNTH),
    ("noise", "truncation_tail_bound", KERNELS),
    ("integrator", "causal_conv", CONV),
    ("integrator", "_segment_corr", CONV),
    ("integrator", "avg_kernel_table", TABLE),
    ("integrator", "noise_transforms", TRANSFORMS),
    ("integrator", "declared_truncation_budget", BUDGET),
    ("integrator", "fbm_values", SYNTH),
    ("integrands", "causal_conv", CONV),
    ("integrands", "avg_kernel_table", TABLE),
    ("integrands", "hurst_constant", KERNELS),
    ("experiments", "generate_noise_batch", DRAW),
    ("experiments", "fbm_values", SYNTH),
    ("experiments", "dr_values", SYNTH),
    ("experiments", "noise_transforms", TRANSFORMS),
    ("experiments", "delayed_parts_for_cells", ASSEMBLY),
    ("experiments", "discrete_dr_energy", BUDGET),
    ("experiments", "discrete_dr_second_moment", BUDGET),
    ("experiments", "discrete_fbm_cov", BUDGET),
    ("experiments", "dr_pointwise_closed_form", BUDGET),
    ("experiments", "dr_energy_closed_form", BUDGET),
    ("experiments", "hurst_constant", KERNELS),
    ("experiments", "verify_dr_moments", DRIVER),
    ("experiments", "fbm_law_check", DRIVER),
    ("experiments", "continuity_study", DRIVER),
    ("experiments", "cauchy_decay_study", DRIVER),
    ("cli", "parse_and_dispatch", DISPATCH),
    ("cli", "hurst_constant", KERNELS),
    ("cli", "generate_noise", DRAW),
    ("cli", "process_path", SYNTH),
    ("cli", "delayed_integral_xd", ASSEMBLY),
    ("cli", "write_path_csv", WRITE),
    ("cli", "write_manifest", WRITE),
]
CELL_METHODS = ("values_on_cells", "frozen_values_on_cells")

# assembly self time is also keyed by log2 of the segment count
ASSEMBLY_LEVELS = (0, 3, 5, 6, 7, 8, 9, 10)
# the layer a conv span is charged to, by the layer of its nearest non-conv ancestor
CONV_ISSUERS = {SYNTH: "synth", BUDGET: "budget", TRANSFORMS: "transforms",
                ASSEMBLY: "assembly", CELLS: "integrands"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(a) -> int:
    return int(math.prod(np.shape(a)[:-1]))


def _row0_nonzero(a) -> int:
    a = np.asarray(a)
    return int(np.count_nonzero(a[(0,) * (a.ndim - 1)]))


def _batch_counts(args, kwargs):
    grid, reps = _arg(args, kwargs, 1, "grid"), _arg(args, kwargs, 2, "reps")
    return {"reps": int(reps), "cells": int(grid.cell_count)}


def _path_counts(args, kwargs):
    return {"reps": 1, "cells": int(_arg(args, kwargs, 1, "grid").cell_count)}


def _causal_conv_counts(args, kwargs):
    x, kernel = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernel")
    m = np.shape(x)[-1]
    n = _fft.next_fast_len(m + np.shape(kernel)[-1] - 1)
    rows = _rows(x)
    return {"points": rows * n, "in": rows * m, "nonzero": rows * _row0_nonzero(x)}


def _segment_corr_counts(args, kwargs):
    gseg = _arg(args, kwargs, 0, "gseg")
    ell = np.shape(gseg)[-1]
    rows = _rows(gseg)
    return {"points": rows * _fft.next_fast_len(2 * ell - 1), "in": rows * ell,
            "nonzero": rows * _row0_nonzero(gseg)}


def _cells_counts(args, kwargs):
    grid, incs = _arg(args, kwargs, 1, "grid"), _arg(args, kwargs, 2, "incs")
    return {"bytes": _rows(incs) * grid.main_steps * 8}


def _assembly_counts(args, kwargs):
    return {"segments": int(_arg(args, kwargs, 1, "seg").n_segments)}


COUNTERS = {
    ("experiments", "generate_noise_batch"): _batch_counts,
    ("cli", "generate_noise"): _path_counts,
    ("noise", "causal_conv"): _causal_conv_counts,
    ("integrator", "causal_conv"): _causal_conv_counts,
    ("integrands", "causal_conv"): _causal_conv_counts,
    ("integrator", "_segment_corr"): _segment_corr_counts,
    ("experiments", "delayed_parts_for_cells"): _assembly_counts,
    ("cli", "delayed_integral_xd"): _assembly_counts,
}


class _JsonWriter:
    """Stands in for the ``json`` module inside fbmdelay.cli so ``json.dump`` is a write span."""

    def __init__(self, tracer: "Tracer", real):
        self._real = real
        self.dump = tracer.wrap("cli.json.dump", WRITE, real.dump)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans while installed; ``spans`` holds one tuple per call.

    A span is (name, layer, parent index, start, end, self seconds, counts).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, layer, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter is not None else None
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, layer, parent, start, end, dur - frame[1], counts)

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self, package):
        """Install every wrapper on the imported fbmdelay package, restore on exit."""
        for mod_name, attr, layer in MODULE_TARGETS:
            mod = getattr(package, mod_name)
            if not hasattr(mod, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr)
            self._patch(mod, attr, self.wrap(f"{mod_name}.{attr}", layer, fn,
                                             COUNTERS.get((mod_name, attr))))
        for cls in vars(package.integrands).values():
            if not (isinstance(cls, type) and issubclass(cls, package.integrands.Integrand)) \
                    or cls is package.integrands.Integrand:
                continue
            for meth in CELL_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(f"integrands.{cls.__name__}.{meth}", CELLS,
                                                     cls.__dict__[meth], _cells_counts))
        self._patch(package.cli, "json", _JsonWriter(self, package.cli.json))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, old = self._patches.pop()
                setattr(owner, attr, old)
            self.missing = sorted(set(self.missing))

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "layer", "parent", "start", "end", "self_s", "counts")
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, sp))}) + "\n")


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics per op (times in s, counts per op) from the recorded spans."""
    m = {k: 0.0 for k in PER_LAYER_KEYS}
    reps_cells = reps_total = 0
    conv_in = conv_nonzero = 0
    for name, layer, parent, start, end, self_s, counts in spans:
        if layer == DRAW:
            m["noise.draw_s"] += self_s
            m["noise.draw_calls"] += 1
            reps_cells += counts["reps"] * counts["cells"]
            reps_total += counts["reps"]
            m["noise.batch_mb"] = max(m["noise.batch_mb"], counts["reps"] * counts["cells"] * 8 / 2**20)
            if _nearest(spans, parent, lambda lay: lay == DRIVER) is not None:
                m["experiments.chunks"] += 1
        elif layer == CONV:
            m["noise.conv_s"] += self_s
            m["noise.conv_calls"] += 1
            m["noise.conv_points"] += counts["points"]
            conv_in += counts["in"]
            conv_nonzero += counts["nonzero"]
            anc = _nearest(spans, parent, lambda lay: lay != CONV)
            issuer = CONV_ISSUERS.get(spans[anc][1]) if anc is not None else None
            if issuer is not None:
                m[f"noise.conv_s.{issuer}"] += self_s
        elif layer == SYNTH:
            m["noise.synth_s"] += self_s
        elif layer == TABLE:
            m["noise.table_s"] += self_s
            m["noise.table_calls"] += 1
        elif layer == BUDGET:
            m["noise.budget_s"] += self_s
        elif layer == KERNELS:
            m["kernels.s"] += self_s
            m["kernels.calls"] += 1
        elif layer == CELLS:
            m["integrands.cells_s"] += self_s
            if _nearest(spans, parent, lambda lay: lay == CELLS) is None:
                m["integrands.cells_calls"] += 1
                m["integrands.cells_mb"] += counts["bytes"] / 2**20
        elif layer == TRANSFORMS:
            m["integrator.transforms_s"] += self_s
            m["integrator.transforms_calls"] += 1
        elif layer == ASSEMBLY:
            m["integrator.assembly_s"] += self_s
            m["integrator.assembly_calls"] += 1
            m["integrator.segments"] += counts["segments"]
            lvl = round(math.log2(counts["segments"]))
            if lvl in ASSEMBLY_LEVELS and 2 ** lvl == counts["segments"]:
                m[f"integrator.assembly_s.lvl{lvl}"] += self_s
        elif layer == DRIVER:
            m["experiments.driver_s"] += end - start
            m["experiments.self_s"] += self_s
        elif layer == DISPATCH:
            m["cli.dispatch_s"] += end - start
            m["cli.self_s"] += self_s
        elif layer == WRITE:
            m["cli.write_s"] += self_s
    per_op = {k: v / n_ops for k, v in m.items()}
    per_op["noise.batch_mb"] = m["noise.batch_mb"]
    per_op["noise.cells_per_rep"] = reps_cells / reps_total if reps_total else 0.0
    per_op["noise.conv_useful_frac"] = conv_nonzero / conv_in if conv_in else 0.0
    return per_op


def _nearest(spans, idx, pred):
    while idx >= 0:
        if pred(spans[idx][1]):
            return idx
        idx = spans[idx][2]
    return None


PER_LAYER_KEYS = (
    "noise.draw_s", "noise.draw_calls", "noise.cells_per_rep", "noise.batch_mb",
    "noise.conv_s", "noise.conv_calls", "noise.conv_points", "noise.conv_useful_frac",
    "noise.conv_s.synth", "noise.conv_s.transforms", "noise.conv_s.assembly",
    "noise.conv_s.integrands", "noise.conv_s.budget",
    "noise.synth_s", "noise.table_s", "noise.table_calls", "noise.budget_s",
    "kernels.s", "kernels.calls",
    "integrands.cells_s", "integrands.cells_calls", "integrands.cells_mb",
    "integrator.transforms_s", "integrator.transforms_calls",
    "integrator.assembly_s", "integrator.assembly_calls", "integrator.segments",
    *(f"integrator.assembly_s.lvl{k}" for k in ASSEMBLY_LEVELS),
    "experiments.driver_s", "experiments.self_s", "experiments.chunks",
    "cli.dispatch_s", "cli.self_s", "cli.write_s",
)
