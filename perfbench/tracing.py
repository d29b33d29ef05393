"""Span recording around annulab's layer functions, from outside the package.

The traced run swaps each layer function that the command line or the
Newton solver calls for a wrapper that records a span: name, start, end,
parent, and counts read from the call's arguments or result.  Spans stay in
memory and are written with the run's result file.  The untraced run never
installs a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict


def _newton_counts(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _linear_counts(args, kwargs, result):
    n_r, n_theta = args[0].grid.shape
    return {"unknowns": (n_r - 2) * n_theta}


def _snapshot_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter).  Each entry names a layer
# function in the namespace that calls it, so the wrapper sees exactly the
# calls that module makes.
LAYER_FUNCTIONS = (
    ("annulab.cli", "newton_solve", "nonlinear.newton_solve", _newton_counts),
    ("annulab.cli", "solve_linear_dirichlet", "elliptic.solve_linear_dirichlet",
     _linear_counts),
    ("annulab.nonlinear", "solve_linear_dirichlet", "elliptic.solve_linear_dirichlet",
     _linear_counts),
    ("annulab.cli", "fit_expansion", "expansion.fit_expansion", None),
    ("annulab.cli", "d_from_divergence", "expansion.d_from_divergence", None),
    ("annulab.cli", "laurent_coefficients", "expansion.laurent_coefficients", None),
    ("annulab.cli", "dilatation_field", "qcmap.dilatation_field", None),
    ("annulab.cli", "gradient", "grid.gradient", None),
    ("annulab.cli", "hessian", "grid.hessian", None),
    ("annulab.nonlinear", "hessian", "grid.hessian", None),
    ("annulab.cli", "laplacian", "grid.laplacian", None),
    ("annulab.cli", "read_snapshot", "grid.read_snapshot", None),
    ("annulab.cli", "write_snapshot", "grid.write_snapshot", _snapshot_counts),
)


# time the operation's timer may see beyond its root span: opening and
# closing that span, and a stray garbage-collection pause
SPAN_SLACK_S = 5e-3


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **counts):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "counts": counts}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            # counting happens after the span closes, so it is charged to the
            # caller's self time rather than to the layer
            if counter is not None:
                rec["counts"].update(counter(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of LAYER_FUNCTIONS; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def check_tree(spans, root, seconds):
    """Check an operation's span tree against its separately timed duration.

    ``spans[root]`` is the operation's root span, every later span belongs to
    it, and ``seconds`` is the operation's own ``perf_counter`` time, taken
    outside the root span.  The self times must sum to that time, less at
    most ``SPAN_SLACK_S`` of recorder bookkeeping.  With one thread and a
    stack of open spans, children nest inside their parents by construction;
    what this catches is a span left open, a span whose parent lies outside
    the operation, and a root span that does not cover the operation.
    Returns the list of problems found (empty when consistent).
    """
    if any(s["end"] is None for s in spans[root:]):
        return ["a span was never closed"]
    self_sum = sum(self_times(spans, root).values())
    if not 0.0 <= seconds - self_sum <= SPAN_SLACK_S:
        return [f"self times sum to {self_sum!r} s, the operation took {seconds!r} s"]
    return []


def self_times(spans, root):
    """Self time of each span from ``root`` on: duration minus its children's."""
    own = {i: spans[i]["end"] - spans[i]["start"] for i in range(root, len(spans))}
    for i in range(root + 1, len(spans)):
        p = spans[i]["parent"]
        if p is not None and p in own:
            own[p] -= spans[i]["end"] - spans[i]["start"]
    return own


def layer_metrics(spans, root):
    """Per-layer numbers of one operation, from the spans at ``root`` onward."""
    own = self_times(spans, root)
    total, selft, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(float)
    trial_hessians = 0
    for i in range(root, len(spans)):
        s = spans[i]
        name = s["name"]
        total[name] += s["end"] - s["start"]
        selft[name] += own[i]
        calls[name] += 1
        for key, value in s["counts"].items():
            counts[f"{name}.{key}"] += value
        p = s["parent"]
        if name == "grid.hessian" and p is not None and spans[p]["name"] == \
                "nonlinear.newton_solve":
            trial_hessians += 1
    newton = "nonlinear.newton_solve"
    return {
        "elliptic.linear_solve_s": total["elliptic.solve_linear_dirichlet"],
        "elliptic.linear_solve_calls": calls["elliptic.solve_linear_dirichlet"],
        "elliptic.linear_unknowns": counts["elliptic.solve_linear_dirichlet.unknowns"],
        "nonlinear.newton_s": total[newton],
        "nonlinear.newton_self_s": selft[newton],
        "nonlinear.newton_iterations": counts[f"{newton}.iterations"],
        # the Newton solver evaluates the Hessian once for its starting
        # iterate and once per trial step of the line search
        "nonlinear.trial_evals": trial_hessians - calls[newton],
        "elliptic.potential_s": total["elliptic.newtonian_potential"],
        "elliptic.potential_kernel_evals":
            counts["elliptic.newtonian_potential.kernel_evals"],
        "elliptic.potential_near_targets":
            counts["elliptic.newtonian_potential.near_targets"],
        "expansion.fit_s": total["expansion.fit_expansion"],
        "expansion.divergence_s": total["expansion.d_from_divergence"],
        "expansion.laurent_s": total["expansion.laurent_coefficients"],
        "qcmap.dilatation_s": total["qcmap.dilatation_field"],
        "grid.write_snapshot_s": total["grid.write_snapshot"],
        "grid.write_snapshot_mb": counts["grid.write_snapshot.bytes"] / 1e6,
        "grid.read_snapshot_s": total["grid.read_snapshot"],
        "grid.hessian_s": total["grid.hessian"],
        "grid.hessian_calls": calls["grid.hessian"],
        "cli.self_s": selft["cli.main"],
    }
