"""In-memory spans around the calls into each wkorient module.

The traced run rebinds public functions in the namespace of the module that
calls them (``cli.orient``, ``flow.build_network``, ``ode.solve_lambda``
...), so the package itself is not edited.  Each call records a span
(name ``<module>.<function>``, start, end, parent span, operation id) and,
at the same boundary, the counts its result carries.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from wkorient import cli, flow, hypergraph, models, ode, peeling
from wkorient.hypergraph import Orientation


class Tracer:
    """Records spans and counters while installed; analysis and output
    happen after the run."""

    def __init__(self):
        # one record per span, appended when it ends:
        # (span id, name, start, end, parent id, op id); ids count from 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: list[tuple[int, str, float]] = []  # (span id, counter, value)
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """A stand-in for fn that records one span per call; count(tracer,
        span, name, args, kwargs, result) adds counters at the boundary.
        A callable name is resolved from the call's arguments."""
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                label = name_of(args, kwargs) if name_of else name
                spans.append((idx, label, t0, t1, parent, self.op_id))
                if count is not None and result is not None:
                    count(self, idx, label, args, kwargs, result)

        return traced

    def add(self, span: int, counter: str, value: float) -> None:
        self.counts.append((span, counter, float(value)))

    def patch(self, module, attr: str, name, count=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def install(self) -> None:
        for module, attr, name, count in _BOUNDARIES:
            self.patch(module, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def columns(self):
        """The spans as arrays indexed by span id."""
        rows = sorted(self.spans)
        names = [r[1] for r in rows]
        start, end, parent, op = (np.asarray([r[j] for r in rows]) for j in (2, 3, 4, 5))
        return names, start, end, parent.astype(np.int64), op.astype(np.int64)

    def layer_table(self, ops: int) -> dict[str, float]:
        """Per-operation self time of every span name (``<name>_self_s``),
        inclusive time (``<name>_s``), call count (``<name>_calls``) and every
        counter, over the spans of measured operations (op id >= 0).  A
        span's self time is its duration minus the time its direct children
        cover (spans nest on one thread, so children never overlap)."""
        names, start, end, parent, op = self.columns()
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        measured = op >= 0
        table: dict[str, float] = defaultdict(float)
        for i in np.flatnonzero(measured):
            table[names[i] + "_self_s"] += own[i]
            table[names[i] + "_s"] += dur[i]
            table[names[i] + "_calls"] += 1
        for span, counter, value in self.counts:
            if measured[span]:
                table[counter] += value
        return {key: total / ops for key, total in table.items()}

    def write(self, path: Path) -> None:
        names, start, end, parent, op = self.columns()
        labels = sorted(set(names))
        ids = {n: i for i, n in enumerate(labels)}
        np.savez_compressed(
            path,
            names=np.asarray(labels),
            name_id=np.asarray([ids[n] for n in names], dtype=np.int32),
            start=start,
            end=end,
            parent=parent,
            op=op,
            count_span=np.asarray([c[0] for c in self.counts], dtype=np.int64),
            count_name=np.asarray([c[1] for c in self.counts]),
            count_value=np.asarray([c[2] for c in self.counts]),
        )


# -- counters taken where the work happens -------------------------------------


def _count_sample(tr, span, name, args, kwargs, result):
    n, m, h = args[:3]
    tr.add(span, "models.balls", m * h)


def _rancore_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "deterministic")
    return "peeling.rancore." + ("ran" if mode == "randomized" else "det")


def _count_rancore(tr, span, name, args, kwargs, result):
    if name.endswith(".ran"):
        tr.add(span, "peeling.ran_steps", len(result.elimination))
    else:
        n = result.source.n
        tr.add(span, "peeling.det_calls", 1)
        tr.add(span, "peeling.removed", n - result.core.n)
        tr.add(span, "peeling.core_fraction_sum", result.core.n / n if n else 0.0)


def _count_network(tr, span, name, args, kwargs, result):
    tr.add(span, "flow.arcs", result.num_arcs)


def _count_max_flow(tr, span, name, args, kwargs, result):
    if args[0].total_demand:
        tr.add(span, "flow.flow_calls", 1)
        tr.add(span, "flow.saturation_sum", result[0] / args[0].total_demand)


def _count_orient(tr, span, name, args, kwargs, result):
    if not isinstance(result, Orientation):
        tr.add(span, "flow.witnesses", 1)
        tr.add(span, "flow.witness_size_sum", len(result.S))


def _count_integrate(tr, span, name, args, kwargs, result):
    if result[1].terminated_by == "z_L":
        tr.add(span, "ode.zl_endings", 1)


def _count_threshold(tr, span, name, args, kwargs, result):
    tr.add(span, "ode.bisect_iters", result.iterations)


# (module whose namespace holds the name, name, span name, counter)
_BOUNDARIES = (
    (cli, "run_trial", "cli.run_trial", None),
    (cli, "main", "cli.main", None),
    (cli, "table1_rows", "cli.table1_rows", None),
    (cli, "sample_uniform_multi", "models.sample_uniform_multi", _count_sample),
    (models, "sample_uniform_multi", "models.sample_uniform_multi", _count_sample),
    (models, "Hypergraph", "hypergraph.Hypergraph", None),
    (peeling, "Hypergraph", "hypergraph.Hypergraph", None),
    (hypergraph, "Hypergraph", "hypergraph.Hypergraph", None),
    (cli, "read_hypergraph", "hypergraph.read_hypergraph", None),
    (cli, "write_hypergraph", "hypergraph.write_hypergraph", None),
    (flow, "verify_orientation", "hypergraph.verify_orientation", None),
    (flow, "w_density", "hypergraph.w_density", None),
    (flow, "w_induced_subgraph", "hypergraph.w_induced_subgraph", None),
    (cli, "rancore", _rancore_name, _count_rancore),
    (peeling, "rancore", _rancore_name, _count_rancore),
    (cli, "core_statistics", "peeling.core_statistics", None),
    (cli, "orient", "flow.orient", _count_orient),
    (flow, "build_network", "flow.build_network", _count_network),
    (flow, "max_flow", "flow.max_flow", _count_max_flow),
    (cli, "find_threshold", "ode.find_threshold", _count_threshold),
    (ode, "integrate", "ode.integrate", _count_integrate),
    (ode, "trajectory_vs_trace", "ode.trajectory_vs_trace", None),
    (ode, "solve_lambda", "poisson.solve_lambda", None),
)


def per_layer(table: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics, per measured operation, from a layer table."""

    def get(key):
        return table.get(key, 0.0)

    def self_s(span_name):
        return get(span_name + "_self_s")

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    return {
        "models.sample_s": self_s("models.sample_uniform_multi"),
        "models.balls": get("models.balls"),
        "hypergraph.build_s": self_s("hypergraph.Hypergraph"),
        "hypergraph.verify_s": self_s("hypergraph.verify_orientation"),
        "hypergraph.witness_s": self_s("hypergraph.w_density")
        + self_s("hypergraph.w_induced_subgraph"),
        "hypergraph.read_s": self_s("hypergraph.read_hypergraph"),
        "hypergraph.write_s": self_s("hypergraph.write_hypergraph"),
        "peeling.det_s": self_s("peeling.rancore.det"),
        "peeling.removed": get("peeling.removed"),
        "peeling.core_fraction": ratio("peeling.core_fraction_sum", "peeling.det_calls"),
        "peeling.stats_s": self_s("peeling.core_statistics"),
        "peeling.ran_s": self_s("peeling.rancore.ran"),
        "peeling.ran_steps": get("peeling.ran_steps"),
        "flow.orient_s": get("flow.orient_s"),
        "flow.build_s": self_s("flow.build_network"),
        "flow.maxflow_s": self_s("flow.max_flow"),
        "flow.glue_s": self_s("flow.orient"),
        "flow.arcs": get("flow.arcs"),
        "flow.saturation": ratio("flow.saturation_sum", "flow.flow_calls"),
        "flow.witness_size": ratio("flow.witness_size_sum", "flow.witnesses"),
        "poisson.solve_lambda_calls": get("poisson.solve_lambda_calls"),
        "poisson.solve_lambda_s": self_s("poisson.solve_lambda"),
        "ode.integrate_calls": get("ode.integrate_calls"),
        "ode.integrate_s": self_s("ode.integrate"),
        "ode.bisect_iters": get("ode.bisect_iters"),
        "ode.zl_ending_ratio": ratio("ode.zl_endings", "ode.integrate_calls"),
        "ode.compare_s": self_s("ode.trajectory_vs_trace"),
        "cli.trial_self_s": self_s("cli.run_trial"),
        "cli.cmd_self_s": self_s("cli.main"),
    }
