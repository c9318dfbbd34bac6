"""The package names the benchmark in perfbench/ reaches for.

The traced run rebinds package functions in the namespace of the module
that calls them, and the workloads call a few public names directly.  A
refactor that moves one of them would make every benchmark operation
fail; these checks make it fail here first.
"""

import ast
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from wkorient import cli, models, ode, peeling  # noqa: E402
from wkorient.hypergraph import OrientationParams  # noqa: E402


def test_every_traced_boundary_resolves():
    for module, attr, _, _ in tracing._BOUNDARIES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_tracer_uninstall_restores_the_originals():
    def bound():
        return [getattr(module, attr) for module, attr, _, _ in tracing._BOUNDARIES]

    before = bound()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(bound(), before))
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(bound(), before))


def test_names_the_workloads_use_exist():
    # every `<module>.<name>` in workloads.py, plus the names it rebinds
    modules = {"cli": cli, "models": models, "ode": ode, "peeling": peeling}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    used |= {
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_Capture"
    }
    assert {
        ("cli", "ExperimentConfig"),
        ("cli", "run_trial"),
        ("cli", "rancore"),
        ("cli", "orient"),
        ("cli", "table1_rows"),
        ("ode", "OdeParams"),
        ("ode", "integrate"),
        ("ode", "trajectory_vs_trace"),
    } <= used
    missing = sorted(f"{m}.{a}" for m, a in used if not hasattr(modules[m], a))
    assert not missing


def test_traced_file_chain_records_every_layer(tmp_path, capsys):
    # the file tools must reach the reader, writer, peel and flow through
    # the names the tracer rebinds, or their per-layer metrics read zero
    src, core = str(tmp_path / "g.hg"), str(tmp_path / "g.core")
    hwk = ["--h", "3", "--w", "2", "--k", "4"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["gen", "--h", "3", "--n", "300", "--mu", "5.0", "--seed", "1",
                      "--out", src]),
            cli.main(["core", src, *hwk, "--out", core]),
            cli.main(["orient", core, *hwk, "--out", str(tmp_path / "o.txt")]),
            cli.main(["stats", src, *hwk, "--out", str(tmp_path / "s.csv")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    names = {span[1] for span in tracer.spans}
    assert {
        "cli.main",
        "hypergraph.read_hypergraph",
        "hypergraph.write_hypergraph",
        "flow.orient",
    } <= names
    assert any(name.startswith("peeling.rancore.") for name in names)


def test_traced_rate_solve_sits_under_both_ode_entry_points():
    # perfbench counts poisson.solve_lambda by rebinding ode.solve_lambda;
    # a local binding of it (an alias, a default argument, a closure) would
    # zero those per-layer metrics while every output stayed the same
    p = OrientationParams(3, 2, 4)
    n = 2000
    H = models.sample_uniform_multi(
        n, round(5.0 * n / 3), 3, models.RngSeed(5, 1).generator()
    )
    pr = peeling.rancore(
        H, p, mode="randomized", rng=models.RngSeed(5, 2).generator(), trace=True
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traj, _ = ode.integrate(ode.OdeParams(p, 5.0))
        ode.trajectory_vs_trace(traj, pr.trace)
    finally:
        tracer.uninstall()
    name = {span[0]: span[1] for span in tracer.spans}
    parent = {span[0]: span[4] for span in tracer.spans}

    def ancestors(idx):
        while parent[idx] >= 0:
            idx = parent[idx]
            yield name[idx]

    callers = {
        caller
        for idx, label in name.items()
        if label == "poisson.solve_lambda"
        for caller in ancestors(idx)
    }
    assert {"ode.integrate", "ode.trajectory_vs_trace"} <= callers


# the per-layer counters each workload BENCHMARK.json lists must report
OWN_COUNTERS = {
    "orient-trials": ("flow.arcs",),
    "process-trace": ("peeling.ran_steps", "ode.zl_ending_ratio"),
    "threshold-table": ("ode.bisect_iters",),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_runs_pass_the_benchmark_checks(name, tmp_path):
    # each workload, and each tracer counter, reads result attributes (core,
    # trace, elimination, iterations, terminated_by ...) that a refactor
    # could rename without failing any other test here
    wl = workloads.make(name, tmp_path, n=3000)
    tracer = tracing.Tracer()
    tally, replay = run.measure(wl, seed=3, seconds=0.0, expected={}, tracer=tracer)
    assert tally.failed == 0, tally.failures
    assert replay.failed == 0, replay.failures
    metrics = tracing.per_layer(tracer.layer_table(tally.attempted))
    for counter in OWN_COUNTERS.get(name, ()):
        assert metrics[counter] > 0, counter
