"""Spans around the calls one fhmix module makes into another.

``install`` replaces module attributes with wrappers that record a span
(name, start, end, parent, attributes) and returns a handle whose
``uninstall`` puts the originals back.  Nothing is added to the library:
the wrappers sit on the names through which ``sampler``, ``bounds`` and
``cli`` look up their collaborators at call time, and on the entry points the
benchmark itself calls.  Spans stay in memory until the run ends.

``layer_metrics`` turns a list of spans into the per-layer metrics that
``PER_LAYER`` names.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np
from fhmix import bernoulli_joint, bounds, cli, sampler

FAMILIES = ("uniform", "exponential", "normal", "bernoulli", "empirical")

# name, unit, better
PER_LAYER = [
    ("bounds.corr_extremes.calls", "count", "lower"),
    ("bounds.corr_extremes.s", "s", "lower"),
    ("bounds.quadrature.calls", "count", "lower"),
    ("bounds.quantile_evals", "count", "lower"),
    ("sampler.pairs", "count", "lower"),
    ("sampler.extremes_memo_hits", "count", "higher"),
    ("sampler.build_plan.calls", "count", "lower"),
    ("sampler.build_plan.s", "s", "lower"),
    ("sampler.build_plan.self_s", "s", "lower"),
    ("bernoulli_joint.screen.calls", "count", "lower"),
    ("bernoulli_joint.screen.s", "s", "lower"),
    ("bernoulli_joint.closed_form.s", "s", "lower"),
    ("oracle.lp_feasible.calls", "count", "lower"),
    ("oracle.lp_feasible.s", "s", "lower"),
    ("oracle.lp_exact.calls", "count", "lower"),
    ("oracle.lp_exact.s", "s", "lower"),
    ("oracle.lp_float.s", "s", "lower"),
    ("oracle.support_atoms", "count", "lower"),
    ("sampler.sample_batch.calls", "count", "lower"),
    ("sampler.sample_batch.s", "s", "lower"),
    ("sampler.sample_batch.self_s", "s", "lower"),
    ("sampler.vectors", "count", "lower"),
    ("marginals.quantile.calls", "count", "lower"),
    ("marginals.quantile.s", "s", "lower"),
    *((f"marginals.quantile.{f}.s", "s", "lower") for f in FAMILIES),
    ("cli.plan.s", "s", "lower"),
    ("cli.sample.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Closed-form n = 2/3/4 functions that sampler calls through its ``bj`` alias.
CLOSED_FORM = (
    "bivariate_pmf",
    "trivariate_feasible",
    "trivariate_alpha_interval",
    "trivariate_pmf",
    "quadrivariate_alpha_interval",
    "quadrivariate_lifted_pmf",
)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.children: list[tuple[list[list], dict[str, int]]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(args, result)`` adds attributes.

        ``result`` is None when ``fn`` raised.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if attrs is not None:
                    rec[4] = attrs(args, result)

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call only increments a count."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add_child(self, path) -> None:
        """Adopt the spans a child process dumped with ``dump``."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.children.append((doc["spans"], doc["counts"]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def take(self) -> list[tuple[list[list], dict[str, int]]]:
        """Return and clear what was recorded so far, one entry per process."""
        units = [(self.spans[:], dict(self.counts)), *self.children]
        self.spans.clear()
        self.children.clear()
        for key in self.counts:
            self.counts[key] = 0
        return units


class _Installed:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _lp_attrs(args, witness):
    if witness is None:
        return {"mode": None, "support": 0}
    support = int(np.count_nonzero(witness.pmf.probs)) if witness.feasible else 0
    return {"mode": witness.mode, "support": support}


def _out_bytes(args, result):
    out_path = args[1]
    return {"bytes": os.path.getsize(out_path) if result == 0 and out_path else 0}


def install(tracer: Tracer, entry=None) -> _Installed:
    """Wrap the cross-module calls of fhmix, and the entry points on ``entry``.

    ``entry`` is the namespace through which the benchmark calls
    ``build_plan``, ``build_plan_from_concurrence`` and ``sample_batch``.
    """
    done = _Installed()
    w = tracer.wrap

    def entry_points(owner):
        for name in ("build_plan", "build_plan_from_concurrence"):
            if hasattr(owner, name):
                done.replace(owner, name, w("build_plan", getattr(owner, name)))
        if hasattr(owner, "sample_batch"):
            done.replace(owner, "sample_batch",
                         w("sample_batch", owner.sample_batch,
                           lambda a, r: {"count": int(a[1])}))

    done.replace(sampler, "corr_extremes", w("corr_extremes", sampler.corr_extremes))
    done.replace(sampler, "pairwise_extremes",
                 w("pairwise_extremes", sampler.pairwise_extremes,
                   lambda a, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2}))
    done.replace(sampler, "lp_feasible", w("lp_feasible", sampler.lp_feasible, _lp_attrs))
    done.replace(sampler, "quantile",
                 w("quantile", sampler.quantile, lambda a, r: {"family": a[0].family}))

    wrapped = {name: w("closed_form", getattr(bernoulli_joint, name)) for name in CLOSED_FORM}
    wrapped["violated_principal_submatrix"] = w(
        "screen", bernoulli_joint.violated_principal_submatrix)
    done.replace(sampler, "bj", _ModuleView(wrapped, bernoulli_joint))

    done.replace(bounds, "quantile", tracer.counter("bounds.quantile_evals", bounds.quantile))
    done.replace(bounds, "quad", w("quad", bounds.quad))

    entry_points(cli)
    for name in ("cmd_sample", "cmd_verify", "cmd_plan", "cmd_bounds"):
        done.replace(cli, name, w(f"cli.{name}", getattr(cli, name),
                                  _out_bytes if name == "cmd_sample" else None))
    if entry is not None:
        entry_points(entry)
    return done


@contextlib.contextmanager
def active(tracer: Tracer | None, entry=None):
    """Wrappers installed for the body of the ``with``; a no-op for None."""
    if tracer is None:
        yield
        return
    done = install(tracer, entry)
    try:
        yield
    finally:
        done.uninstall()


class _ModuleView:
    """A module whose attributes named in ``wrapped`` are replaced."""

    def __init__(self, wrapped: dict, module) -> None:
        self._wrapped = wrapped
        self._module = module

    def __getattr__(self, name):
        if name in self._wrapped:
            return self._wrapped[name]
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals over one process's spans (indices are parent links)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["bounds.quantile_evals"] = float(counts.get("bounds.quantile_evals", 0))
    for k, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[k]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "corr_extremes":
            m["bounds.corr_extremes.calls"] += 1
            m["bounds.corr_extremes.s"] += dur
        elif name == "quad":
            m["bounds.quadrature.calls"] += 1
        elif name == "pairwise_extremes":
            m["sampler.pairs"] += attrs["pairs"]
        elif name == "build_plan":
            m["sampler.build_plan.calls"] += 1
            m["sampler.build_plan.s"] += dur
            m["sampler.build_plan.self_s"] += self_s
            if parent_name is not None and parent_name.startswith("cli.cmd_"):
                m["cli.plan.s"] += dur
        elif name == "screen":
            m["bernoulli_joint.screen.calls"] += 1
            m["bernoulli_joint.screen.s"] += dur
        elif name == "closed_form":
            m["bernoulli_joint.closed_form.s"] += dur
        elif name == "lp_feasible":
            m["oracle.lp_feasible.calls"] += 1
            m["oracle.lp_feasible.s"] += dur
            m["oracle.support_atoms"] += attrs["support"]
            if attrs["mode"] == "exact":
                m["oracle.lp_exact.calls"] += 1
                m["oracle.lp_exact.s"] += dur
            else:
                m["oracle.lp_float.s"] += dur
        elif name == "sample_batch":
            m["sampler.sample_batch.calls"] += 1
            m["sampler.sample_batch.s"] += dur
            m["sampler.sample_batch.self_s"] += self_s
            m["sampler.vectors"] += attrs["count"]
        elif name == "quantile":
            m["marginals.quantile.calls"] += 1
            m["marginals.quantile.s"] += dur
            m[f"marginals.quantile.{attrs['family']}.s"] += dur
        elif name == "cli.cmd_sample":
            m["cli.sample.self_s"] += self_s
            m["cli.bytes_written"] += attrs["bytes"]
        elif name == "cli.cmd_verify":
            m["cli.verify.s"] += dur
    m["sampler.extremes_memo_hits"] = m["sampler.pairs"] - m["bounds.corr_extremes.calls"]
    return m


def units_metrics(units) -> dict[str, float]:
    """Sum of ``layer_metrics`` over the processes of one traced phase."""
    total = {name: 0.0 for name, _, _ in PER_LAYER}
    for spans, counts in units:
        for key, value in layer_metrics(spans, counts).items():
            total[key] += value
    return total
