"""Tests of the benchmark itself: small-n smoke runs of every workload, the
traced mode, and that wrong outputs are counted as failed operations.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchenv  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import Incidence, check_core, check_orientation, check_witness  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

from wkorient import cli  # noqa: E402
from wkorient.hypergraph import Orientation  # noqa: E402

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
SMALL = 10_000


def small(name, tmp_path):
    return workloads.make(name, tmp_path, n=SMALL)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_run_of_each_workload_passes_its_checks(name, tmp_path):
    wl = small(name, tmp_path)
    tally, _ = run.measure(wl, seed=3, seconds=0.0, expected={})
    assert tally.attempted == wl.group
    assert tally.failed == 0, tally.failures
    assert all(t > 0 for t in tally.times)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    wl = small("orient-trials", tmp_path)
    tracer = Tracer()
    tally, replay = run.measure(wl, seed=5, seconds=0.0, expected={}, tracer=tracer)
    assert tally.failed == replay.failed == 0
    assert replay.attempted == tally.attempted
    assert cli.orient.__module__ == "wkorient.flow"  # tracer uninstalled
    metrics = per_layer(tracer.layer_table(tally.attempted))
    traced_names = set(metrics) | {"trace.overhead_s", "trace.overhead_share", "trace.spans"}
    assert traced_names == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["peeling.det_s"] > 0 and metrics["flow.maxflow_s"] > 0
    assert metrics["ode.integrate_s"] == 0
    assert 0 < metrics["peeling.core_fraction"] < 1
    assert metrics["models.balls"] == sum(3 * round(mu * SMALL / 3) for mu in (5.4, 5.6)) / 2


def test_self_time_excludes_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    tr.op_id = 0
    outer()
    table = tr.layer_table(ops=1)
    assert table["inner_calls"] == 3 and table["outer_calls"] == 1
    assert table["outer_self_s"] == pytest.approx(table["outer_s"] - table["inner_s"])


def test_spec_matches_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    for name in workloads.NAMES:
        assert set(workloads.make(name, Path("unused"), n=1).aliases) <= {
            m["name"] for m in SPEC["end_to_end"]
        }


# -- wrong outputs count as failures -------------------------------------------


def trial_output(tmp_path, i):
    wl = small("orient-trials", tmp_path)
    return wl, wl.run(1, i)


def test_corrupted_orientation_is_a_failure(tmp_path):
    wl, (record, pr, result) = trial_output(tmp_path, 0)
    assert isinstance(result, Orientation)
    core = Incidence(pr.core.n, pr.core.edges)
    assert check_orientation(core, result.signs, 3, 2, 4) == []
    signs = [list(s) for s in result.signs]
    signs[-1] = signs[-1] + [signs[-1][0]]  # a repeated sign, one too many
    assert check_orientation(core, signs, 3, 2, 4)
    off_edge = [list(s) for s in result.signs]
    off_edge[0][0] = next(v for v in range(core.n) if v not in pr.core.edges[0])
    assert check_orientation(core, off_edge, 3, 2, 4)
    # the same signs overload vertices whose capacity is k = 1
    assert check_orientation(core, result.signs, 3, 2, 1)

    class Corrupting(workloads.OrientTrials):
        def run(self, seed, i):
            rec, p, res = super().run(seed, i)
            return rec, p, Orientation([s[:1] for s in res.signs])

    tally = run.Tally()
    run.run_op(Corrupting(n=SMALL), 1, 0, tally, expected={})
    assert tally.failed == 1 and tally.attempted == 1


def test_undersized_witness_is_a_failure(tmp_path):
    wl, (record, pr, result) = trial_output(tmp_path, 1)
    assert not isinstance(result, Orientation)
    core = Incidence(pr.core.n, pr.core.edges)
    assert check_witness(core, result.S, result.kappa_S, None, 3, 2, 4) == []
    # all four triples on four vertices demand 8 signs > k|S| = 4 at k = 1
    K4 = Incidence(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert check_witness(K4, [0, 1, 2, 3], Fraction(2), None, 3, 2, 1) == []
    assert check_witness(K4, [0, 1, 2], None, None, 3, 2, 1) == []
    assert check_witness(K4, [0, 1], None, None, 3, 2, 1)  # 2 signs <= 2
    assert check_witness(K4, [0], None, None, 3, 2, 1)
    assert check_witness(K4, [0, 1, 2, 3], Fraction(1, 3), None, 3, 2, 1)
    assert check_witness(K4, [0, 1, 2, 3], None, None, 3, 2, 2)  # 8 <= 2 * 4

    class Undersized(workloads.OrientTrials):
        def run(self, seed, i):
            rec, p, res = super().run(seed, i)
            return rec, p, dataclasses.replace(res, S=res.S[:1], kappa_S=None)

    tally = run.Tally()
    run.run_op(Undersized(n=SMALL), 1, 1, tally, expected={})
    assert tally.failed == 1


def test_wrong_core_is_a_failure(tmp_path):
    wl, (record, pr, result) = trial_output(tmp_path, 0)
    source = Incidence(pr.source.n, pr.source.edges)
    core = Incidence(pr.core.n, pr.core.edges)
    assert check_core(source, pr.core_vertices, core, 3, 2, 4) == []
    assert check_core(source, pr.core_vertices[1:], core, 3, 2, 4)
    assert check_core(source, pr.core_vertices, core, 3, 2, 3)


def test_wrong_digest_is_a_failure(tmp_path):
    wl = small("process-trace", tmp_path)
    tally = run.Tally()
    run.run_op(wl, 2, 0, tally, expected={})
    good = tally.digests[0]
    tally = run.Tally()
    run.run_op(wl, 2, 0, tally, expected={"2": [good]})
    assert (tally.failed, tally.digests_checked) == (0, 1)
    tally = run.Tally()
    run.run_op(wl, 2, 0, tally, expected={"2": ["0" * 16]})
    assert tally.failed == 1 and "digest" in tally.failures[0]


def test_an_operation_that_raises_is_a_failure():
    class Broken(workloads.ThresholdTable):
        def run(self, seed, i):
            raise ValueError("broken")

    tally = run.Tally()
    run.run_op(Broken(), 0, 0, tally, expected={})
    assert tally.failed == 1 and tally.attempted == 1


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_the_spec(trace, kind):
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "process-trace",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=benchenv.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(benchenv.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "orient-trials",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
