"""The command-line surface: exit codes, formats, and reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as scipy_stats

import wkorient
from wkorient.cli import (
    ExperimentConfig,
    _truncated_poisson_chi2,
    hitting_load,
    main,
    run_trial,
)
from wkorient.flow import orient
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    read_hypergraph,
    write_hypergraph,
)
from oracles import sample_uniform_simple
from wkorient.models import RngSeed, sample_uniform_multi
from wkorient.ode import BracketError, CoreStats, DomainError, ThresholdResult
from wkorient.peeling import rancore
from wkorient.poisson import solve_lambda, truncated_poisson_pmf

TRIANGLE_TEXT = "3 3\n0 1\n1 2\n0 2\n"
DOUBLE_ABC_TEXT = "3 2\n0 1 2\n0 1 2\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# single-instance commands


def test_gen_writes_a_readable_instance(tmp_path):
    out = str(tmp_path / "g.hg")
    assert main(["gen", "--h", "3", "--n", "30", "--m", "20", "--seed", "7", "--out", out]) == 0
    with open(out) as fh:
        H = read_hypergraph(fh)
    assert (H.n, H.num_edges) == (30, 20)
    main(["gen", "--h", "3", "--n", "30", "--m", "20", "--seed", "7", "--out", out + ".b"])
    assert open(out).read() == open(out + ".b").read()


def test_gen_mu_sets_edge_count(tmp_path):
    out = str(tmp_path / "g.hg")
    main(["gen", "--h", "3", "--n", "60", "--mu", "5.485", "--out", out])
    with open(out) as fh:
        H = read_hypergraph(fh)
    assert H.num_edges == round(5.485 * 60 / 3)


def test_gen_requires_a_size():
    # usage errors exit 64, apart from 2 (decided non-orientable)
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--h", "3", "--n", "30"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:  # one size, not two
        main(["gen", "--h", "3", "--n", "30", "--m", "5", "--mu", "9"])
    assert exc.value.code == 64


def test_orient_exit_codes(tmp_path, capsys):
    tri = _write(tmp_path, "tri.hg", TRIANGLE_TEXT)
    assert main(["orient", tri, "--h", "2", "--w", "1", "--k", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert all(":" in ln for ln in lines)

    dbl = _write(tmp_path, "dbl.hg", DOUBLE_ABC_TEXT)
    assert main(["orient", dbl, "--h", "3", "--w", "2", "--k", "1"]) == 2
    out = capsys.readouterr().out
    assert "non-orientable" in out
    assert "S: 0 1 2" in out
    assert "kappa: 4/3" in out


def test_orient_json_witness(tmp_path):
    dbl = _write(tmp_path, "dbl.hg", DOUBLE_ABC_TEXT)
    out = str(tmp_path / "w.json")
    assert main(
        ["orient", dbl, "--h", "3", "--w", "2", "--k", "1", "--format", "json", "--out", out]
    ) == 2
    payload = json.loads(open(out).read())
    assert payload["schema_version"] == 1
    assert payload["command"] == "orient"
    assert payload["orientable"] is False
    assert payload["S"] == [0, 1, 2]
    assert Fraction(payload["kappa_S"]) == Fraction(4, 3)


def test_orient_names_a_degenerate_edge(tmp_path, capsys):
    # one edge owing two signs to a single distinct vertex
    deg = _write(tmp_path, "deg.hg", "1 1\n0 0 0\n")
    hwk = ["--h", "3", "--w", "2", "--k", "1"]
    assert main(["orient", deg, *hwk]) == 2
    assert capsys.readouterr().out == "non-orientable\ndegenerate-edge: 0\n"
    assert main(["orient", deg, *hwk, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert (payload["orientable"], payload["degenerate_edge"]) == (False, 0)
    assert "S" not in payload


@pytest.mark.parametrize("text", ["3 0\n", "0 0\n"])
def test_orient_prints_no_line_for_an_edgeless_file(tmp_path, capsys, text):
    # one "edge: signs" line per edge, so none for no edge
    empty = _write(tmp_path, "empty.hg", text)
    hwk = ["--h", "3", "--w", "2", "--k", "1"]
    assert main(["orient", empty, *hwk]) == 0
    assert capsys.readouterr().out == ""
    assert main(["orient", empty, *hwk, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["orientable"], payload["signs"]) == (True, {})


def test_orient_reports_parse_errors(tmp_path, capsys):
    bad = _write(tmp_path, "bad.hg", "2 1\n0 x\n")
    assert main(["orient", bad, "--h", "2", "--w", "1", "--k", "1"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_core_then_orient_matches_direct_orient(tmp_path, capsys):
    # peeling first never changes the decision for vertex-distinct edges
    # (an edge with internal repeats can lose demand when trimmed, so the
    # reduction lemma only covers the simple model)
    rng = RngSeed(31).generator()
    p = OrientationParams(3, 2, 2)
    for i in range(30):
        H = sample_uniform_simple(7, int(rng.integers(0, 9)), 3, rng)
        src = tmp_path / f"i{i}.hg"
        with open(src, "w") as fh:
            write_hypergraph(H, fh)
        cored = str(tmp_path / f"i{i}.core")
        assert main(["core", str(src), "--h", "3", "--w", "2", "--k", "2", "--out", cored]) == 0
        capsys.readouterr()
        direct = main(["orient", str(src), "--h", "3", "--w", "2", "--k", "2"])
        via_core = main(["orient", cored, "--h", "3", "--w", "2", "--k", "2"])
        capsys.readouterr()
        assert direct == via_core
        assert direct == (0 if isinstance(orient(H, p), Orientation) else 2)


def test_core_output_names_survivors(tmp_path, capsys):
    path = _write(tmp_path, "q.hg", "4 5\n0 1 2\n0 1 2\n0 1 2\n0 1 3\n1 2 3\n")
    assert main(["core", path, "--h", "3", "--w", "2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    header, names, body = out.split("\n", 2)
    assert "n_core=3" in header
    assert names.endswith("0 1 2")
    core = read_hypergraph(__import__("io").StringIO(body))
    assert core.n == 3


def test_stats_formats(tmp_path, capsys):
    path = _write(tmp_path, "s.hg", "4 2\n0 1 2\n2 3\n")
    assert main(["stats", path, "--h", "3", "--w", "2"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["n"] == "4" and cols["m"] == "2"
    assert cols["m_3"] == "1" and cols["m_2"] == "1"
    assert cols["kappa"] == "3/4"

    assert main(["stats", path, "--h", "3", "--w", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["edges_by_size"] == {"3": 1, "2": 1}
    assert payload["kappa_float"] == 0.75
    assert payload["total_demand"] == 3


def test_stats_of_a_vertexless_file_reports_no_density(tmp_path, capsys):
    # no vertices: density and degrees are undefined, not 0; --k is still
    # validated although the report does not depend on it
    path = _write(tmp_path, "none.hg", "0 0\n")
    undefined = ("kappa", "kappa_float", "min_degree", "max_degree", "mean_degree")
    assert main(["stats", path, "--h", "3", "--w", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["m"], payload["total_demand"]) == (0, 0, 0)
    assert [payload[key] for key in undefined] == [None] * 5
    assert main(["stats", path, "--h", "3", "--w", "2"]) == 0
    header, row = capsys.readouterr().out.rstrip("\n").split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert [cols[key] for key in undefined] == [""] * 5
    assert main(["stats", path, "--h", "3", "--w", "2", "--k", "-5"]) == 1
    assert "k=-5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numeric commands


def test_ode_csv_and_summary(tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    code = main(
        ["ode", "--h", "3", "--w", "2", "--k", "4", "--mu", "6.0", "--tol", "1e-9", "--out", out]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "alpha=" in err and "terminated_by=z_L" in err
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("x,z_L,z_B,z_HV")
    assert len(lines) > 100


def test_ode_json_stats(capsys):
    code = main(
        ["ode", "--h", "3", "--w", "2", "--k", "4", "--mu", "6.0", "--tol", "1e-9",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["terminated_by"] == "z_L"
    assert 0.6 < payload["stats"]["alpha"] < 0.8


def test_ode_outside_domain_reports_empty_core(capsys):
    code = main(
        ["ode", "--h", "3", "--w", "2", "--k", "4", "--mu", "2.0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"] is None
    assert "k+2" in payload["reason"]


def test_ode_reports_other_value_errors(tmp_path, monkeypatch, capsys):
    # only a start outside the domain is an empty-core report; any other
    # ValueError from the integrator is an error, with no report written
    import wkorient.cli as cli

    def broken(params):
        raise ValueError("synthetic bug")

    monkeypatch.setattr(cli, "integrate", broken)
    out = tmp_path / "ode.json"
    argv = ["ode", "--h", "3", "--w", "2", "--k", "4", "--mu", "2.0", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "synthetic bug" in captured.err


def test_threshold_csv(capsys):
    code = main(["threshold", "--h", "3", "--w", "2", "--k", "4", "--tol", "0.01"])
    assert code == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "h,w,k,mu_tilde,mu_hat"
    vals = row.split(",")
    assert vals[:3] == ["3", "2", "4"]
    assert 5.4 < float(vals[3]) < 5.6


def test_threshold_of_the_graph_case(capsys):
    # (2,1,1): the core emerges continuously at mu_bar = 1, where a random
    # graph stops being 1-orientable
    assert main(["threshold", "--h", "2", "--w", "1", "--k", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_tilde"] == 1.0
    assert 1 < payload["kappa_hi"]


@pytest.mark.parametrize("h, w", [(2, 1), (3, 2)])
def test_threshold_at_a_continuous_emergence_leaves_mu_hat_open(capsys, h, w):
    # k(h-w) = 1: the core at mu_c = 1/(h-1) is empty and its mean degree and
    # density are only limits from above, so no number stands for them
    argv = ["threshold", "--h", str(h), "--w", str(w), "--k", "1"]
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_tilde"] == pytest.approx(1.0 / (h - 1), abs=1e-12)
    assert payload["mu_hat"] is None
    assert payload["kappa_lo"] is None
    assert payload["stats_at_threshold"] is None
    assert main(argv) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "h,w,k,mu_tilde,mu_hat"
    assert row.split(",")[:3] == [str(h), str(w), "1"]
    assert row.split(",")[4] == ""


def test_simulate_single_point(capsys):
    code = main(
        ["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "2000",
         "--mu", "5.0", "--trials", "4", "--seed", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fraction_orientable"] == 1.0  # safely below the threshold
    assert payload["half_width"] == 0.0  # Wald width collapses at unanimity
    assert len(payload["records"]) == 4
    assert all(r["orientable"] for r in payload["records"])


def test_empty_cores_report_no_density(tmp_path, capsys, monkeypatch):
    # below core emergence every sampled core is empty: its density and
    # mean degree are undefined, not 0.0
    monkeypatch.setenv("WKORIENT_WORKERS", "1")
    low = [*HWK, "--n", "2000", "--mu", "3.0", "--trials", "2", "--seed", "1"]
    assert main(["simulate", *low, "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["n_core"], r["kappa"], r["mu_hat"]) for r in records] == [(0, None, None)] * 2

    assert main(["core-profile", *low, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_alpha"] == 0.0
    assert (payload["mean_kappa"], payload["mean_mu_hat"]) == (None, None)
    # no relative deviation exists from a zero or undefined prediction
    assert list(payload["deviations"]) == ["alpha", "kappa", "mu_hat", "beta_3", "beta_2"]
    assert set(payload["deviations"].values()) == {None}
    assert payload["chi2"] == {"stat": None, "pvalue": None, "dof": None}
    assert payload["prediction"]["alpha"] == 0.0
    assert (payload["prediction"]["kappa"], payload["prediction"]["mu_hat"]) == (None, None)

    assert main(["core-profile", *low]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        assert (row["kappa"], row["mu_hat"]) == ("", ""), row["kind"]

    path = _write(tmp_path, "edge.hg", "3 1\n0 1 2\n")
    assert main(["core", path, *HWK]) == 0
    assert capsys.readouterr().out.startswith("# core of h=3 w=2 k=4: n_core=0 kappa= mu_hat=\n")


def test_run_trial_orients_an_empty_core():
    # below core emergence the core is empty: `orient` decides it like any
    # other, and its degree histogram has no cells
    cfg = ExperimentConfig(3, 2, 4, 2000, 3.0, 1, 1, check_orientability=True)
    rec = run_trial(cfg, 0, 0)
    assert (rec.n_core, rec.orientable, rec.degree_counts) == (0, True, ())


def test_trial_records_of_one_seed_compare_equal():
    # wall time stays out of equality, as it stays out of the output
    cfg = ExperimentConfig(3, 2, 4, 500, 5.5, 1, 3, check_orientability=True)
    assert run_trial(cfg, 0, 0) == run_trial(cfg, 0, 0)


def test_trial_timings_name_each_stage():
    cfg = ExperimentConfig(3, 2, 4, 500, 5.5, 1, 3, check_orientability=True)
    timings = run_trial(cfg, 0, 0).timings
    assert list(timings) == ["sample", "peel", "stats", "orient"]
    assert all(t >= 0.0 for t in timings.values())


def test_simulate_prints_each_trial_time_as_its_stage_sum(capsys, monkeypatch):
    import wkorient.cli as cli

    monkeypatch.setenv("WKORIENT_WORKERS", "1")
    records = []

    def recorded(*job):
        records.append(run_trial(*job))
        return records[-1]

    monkeypatch.setattr(cli, "run_trial", recorded)
    assert main(["simulate", *HWK, "--n", "500", "--mu", "5.5", "--trials", "3"]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("  trial ")]
    assert len(lines) == len(records) == 3
    for line, r in zip(lines, records):
        stages = ", ".join(f"{k} {v:.2f}" for k, v in r.timings.items())
        assert line.endswith(f", {sum(r.timings.values()):.1f}s ({stages})")


def test_simulate_rejects_a_second_mu(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "400",
              "--mu", "5.2", "--mu", "5.8"])
    assert exc.value.code == 64
    assert "wkorient simulate: error: --mu may be given only once" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hitting loads: simulate without --mu


def _first_failing_prefix(p, n, seed, stream):
    """The first prefix of the instance hitting_load samples whose core does
    not orient, by a linear scan (None when no prefix fails)."""
    H = sample_uniform_multi(n, p.k * n // p.w + 1, p.h, RngSeed(seed, stream).generator())
    for m in range(H.num_edges + 1):
        core = rancore(Hypergraph(n, ptr=H.ptr[: m + 1], verts=H.verts[: H.ptr[m]]), p).core
        if core.num_edges and not isinstance(orient(core, p), Orientation):
            return m
    return None


@pytest.mark.parametrize("hwk", [(3, 2, 4), (3, 2, 1), (3, 2, 2), (4, 3, 2), (2, 1, 2)])
def test_hitting_load_is_the_first_failing_prefix(hwk):
    p = OrientationParams(*hwk)
    for n in (6, 10, 20):
        for stream in range(6):
            rec = hitting_load(p, n, 0, stream)
            assert rec.m_star == _first_failing_prefix(p, n, 0, stream), (n, stream)
            assert rec.load == p.h * rec.m_star / n


def test_hitting_load_settles_a_density_disagreement_by_flows():
    # at n = 6 repeated vertices leave some sparse cores non-orientable, so
    # the first dense prefix comes too late and the search bisects on flows
    p = OrientationParams(3, 2, 4)
    rec = hitting_load(p, 6, 0, 1)
    assert not rec.density_agrees
    assert rec.m_star == _first_failing_prefix(p, 6, 0, 1)


def test_run_trial_orients_exactly_below_the_hitting_count():
    # run_trial at m edges on stream t samples the first m rows of the
    # instance hitting_load searches on stream t
    for hwk, n in (((3, 2, 4), 300), ((3, 2, 2), 200)):
        p = OrientationParams(*hwk)
        for t in range(4):
            m_star = hitting_load(p, n, 7, t).m_star
            for m in (m_star - 3, m_star - 1, m_star, m_star + 2):
                cfg = ExperimentConfig(*hwk, n, p.h * m / n, 1, 7, check_orientability=True)
                assert cfg.num_edges == m
                assert run_trial(cfg, t, t).orientable == (m_star > m), (hwk, t, m)


def test_simulate_hitting_mode_summarises_the_loads(capsys):
    assert main(["simulate", *HWK, "--n", "400", "--trials", "5", "--seed", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    records = payload["records"]
    assert [(r["trial"], r["stream"]) for r in records] == [(t, t) for t in range(5)]
    assert all(r["load"] == 3 * r["m_star"] / 400 for r in records)
    loads = [r["load"] for r in records]
    assert payload["estimate"] == sorted(loads)[2]
    assert payload["quartiles"] == np.quantile(loads, (0.25, 0.75)).tolist()
    agrees = [r["density_agrees"] for r in records]
    assert payload["density_agrees_share"] == sum(agrees) / 5


def test_core_profile_requires_one_mu(capsys):
    # a repeated or missing --mu is a usage error, as for any other option
    with pytest.raises(SystemExit) as exc:
        main(["core-profile", "--h", "3", "--w", "2", "--k", "4",
              "--mu", "5.0", "--mu", "6.0"])
    assert exc.value.code == 64
    assert "wkorient core-profile: error: --mu may be given only once" in (
        capsys.readouterr().err
    )
    with pytest.raises(SystemExit) as exc:  # --mu is required
        main(["core-profile", "--h", "3", "--w", "2", "--k", "4"])
    assert exc.value.code == 64


def test_core_profile_csv_rows(capsys):
    code = main(
        ["core-profile", "--h", "3", "--w", "2", "--k", "4", "--n", "3000",
         "--mu", "6.0", "--trials", "3", "--seed", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["prediction", "trial-mean", "trial-0", "trial-1", "trial-2"]
    header = lines[0].split(",")
    assert header[:3] == ["kind", "mu_bar", "alpha"]
    pred = dict(zip(header, lines[1].split(",")))
    mean = dict(zip(header, lines[2].split(",")))
    assert float(mean["alpha"]) == pytest.approx(float(pred["alpha"]), rel=0.1)


def _scipy_chisquare_cells(counts, k):
    """The core-profile chi-square as scipy.stats.chisquare computes it on
    the same cells: the rate fitted from the mean, the last cell absorbing
    the upper tail, sparse cells merged from the right and then the left."""
    total = int(counts.sum())
    mean = float((np.arange(counts.size) * counts).sum()) / total
    lam = solve_lambda(mean, k)
    top = counts.size - 1
    expected = [truncated_poisson_pmf(d, lam, k + 1) * total for d in range(k + 1, top)]
    tail_p = 1.0 - sum(truncated_poisson_pmf(d, lam, k + 1) for d in range(k + 1, top))
    expected = np.array([*expected, max(tail_p, 0.0) * total])
    observed = np.append(counts[k + 1 : top], counts[top]).astype(float)
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected.size > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    expected *= observed.sum() / expected.sum()
    res = scipy_stats.chisquare(observed, expected, ddof=1)
    return float(res.statistic), float(res.pvalue), expected.size - 2


def test_core_profile_chi2_matches_scipy_chisquare_bit_for_bit():
    # core-like degree histograms, from 20 to 4000 vertices: cells merge at
    # both ends, and every one keeps at least one degree of freedom
    for seed in range(300):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        degrees = rng.poisson(rng.uniform(k + 0.5, k + 8.0), int(rng.integers(20, 4000)))
        counts = np.bincount(degrees[degrees > k])
        assert _truncated_poisson_chi2(counts, k) == _scipy_chisquare_cells(counts, k)


def test_core_profile_chi2_without_degrees_of_freedom_is_undetermined():
    # the cells merge down to two, leaving dof = 0: no p-value exists
    counts = np.array([0, 0, 0, 0, 0, 50, 5, 1, 1])
    assert _truncated_poisson_chi2(counts, 4) == (None, None, None)


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone would add about two thirds to the package's start-up
    code = ("import sys; import wkorient.cli, wkorient.ode, wkorient.flow, "
            "wkorient.peeling, wkorient.models; "
            "print('scipy.stats' in sys.modules)")
    src = str(Path(wkorient.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_every_export_resolves():
    # a name left in __all__ after its definition went would break
    # `from wkorient.<module> import *`
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(wkorient.__path__):
        module = importlib.import_module(f"wkorient.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_identical_seeds_are_worker_count_invariant(tmp_path, monkeypatch):
    # single-point mode and hitting mode (no --mu)
    for mode in (["--mu", "5.3"], []):
        args = ["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "500",
                *mode, "--trials", "4", "--seed", "9", "--format", "json"]
        outs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("WKORIENT_WORKERS", workers)
            out = str(tmp_path / f"w{workers}.json")
            assert main(args + ["--out", out]) == 0
            outs.append(open(out).read())
        assert outs[0] == outs[1], mode


def test_ode_warns_when_no_core_ending(tmp_path, capsys):
    # (3,1,1) at 2.75 leaves the ODE's domain before z_L: no core is read
    # off that ending, so the report names the event instead of printing
    # zeros, and stderr gives the fixed point's answer
    code = main(["ode", "--h", "3", "--w", "1", "--k", "1", "--mu", "2.75",
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["stats"] is None
    assert "mu_floor" in payload["reason"]
    warnings = [ln for ln in captured.err.splitlines() if "warning" in ln]
    assert len(warnings) == 1
    assert "mu_floor" in warnings[0]
    alpha = float(warnings[0].rsplit("alpha=", 1)[1])
    assert alpha == pytest.approx(0.631, abs=0.001)

    # the CSV path still writes the trajectory, and stderr carries no zero
    code = main(["ode", "--h", "3", "--w", "1", "--k", "1", "--mu", "2.75",
                 "--out", str(tmp_path / "traj.csv")])
    assert code == 0
    err = capsys.readouterr().err
    assert "mu_floor" in err and err.count("alpha=") == 1  # the fixed point's only
    assert (tmp_path / "traj.csv").read_text().startswith("x,z_L,z_B,z_HV")

    # a clean z_L ending prints no warning
    assert main(["ode", "--h", "3", "--w", "2", "--k", "4", "--mu", "5.0",
                 "--format", "json"]) == 0
    assert "warning" not in capsys.readouterr().err


HWK = ["--h", "3", "--w", "2", "--k", "4"]
SIM = ["simulate", *HWK, "--n", "200", "--trials", "1"]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["threshold", *HWK, "--tol", "nan"], "nan"),
        (["threshold", *HWK, "--tol", "inf"], "inf"),
        (["table1", "--tol", "nan"], "nan"),
        ([*SIM, "--n", "0"], "n=0"),
        ([*SIM, "--trials", "0"], "trials=0"),
        (["ode", *HWK, "--mu", "nan"], "nan"),
        (["ode", *HWK, "--mu", "inf"], "inf"),
        ([*SIM, "--mu", "inf"], "inf"),
        ([*SIM, "--mu", "nan"], "nan"),
        (["core-profile", *HWK, "--n", "200", "--trials", "1", "--mu", "inf"], "inf"),
        (["gen", "--h", "3", "--n", "10", "--mu", "inf"], "inf"),
        (["gen", "--h", "3", "--n", "10", "--mu", "nan"], "nan"),
        (["gen", "--h", "0", "--n", "10", "--mu", "5"], "h=0"),
        (["gen", "--h", "3", "--n", "10", "--m", "-1"], "m=-1"),
        (["gen", "--h", "-2", "--n", "10", "--m", "3"], "h=-2"),
        (["gen", "--h", "3", "--n", "10", "--m", "3", "--seed", "-1"], "seed=-1"),
        (["WKORIENT_WORKERS=abc", *SIM, "--mu", "5"], "'abc'"),
        (["WKORIENT_WORKERS=0", *SIM, "--mu", "5"], "'0'"),
        ([*SIM, "--mu", "5", "--n", "0"], "n=0"),
        ([*SIM, "--mu", "5", "--trials", "0"], "trials=0"),
        (["ode", *HWK, "--mu", "5", "--tol", "inf"], "inf"),
        (["ode", *HWK, "--mu", "5", "--tol", "nan"], "nan"),
    ],
)
def test_bad_tolerances_and_mean_degrees_exit_1(argv, bad, capsys, monkeypatch):
    # a tolerance that keeps bisection from running, a mean degree outside
    # (0, inf), or any other bad value from outside the program (sizes,
    # seeds, leading NAME=value environment settings as in a shell) is an
    # error naming the value, not a silent answer or a traceback
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wkorient: error: ")
    assert bad in captured.err


def test_ode_reports_a_stalled_integrator_in_one_line(capsys, monkeypatch):
    import wkorient.ode as ode

    def stalled(fun, t_span, y0, **kwargs):
        return SimpleNamespace(status=-1, t=np.array([0.0, 0.25]), message=(
            "Required step size is less than spacing between numbers."))

    monkeypatch.setattr(ode, "solve_ivp", stalled)
    assert main(["ode", *HWK, "--mu", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("wkorient: error: integrator failed: Required step size is less "
                            "than spacing between numbers.; last x=0.25\n")


def test_ode_rejects_a_tolerance_below_the_integrators_floor(capsys):
    # DOP853 would raise rtol 1e-15 to 100 machine epsilons and only warn;
    # the floor itself runs without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ode", *HWK, "--mu", "5", "--tol", "1e-15"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("wkorient: error: rtol must be at least 100 * machine epsilon "
                                "= 2.220446049250313e-14, the integrator's floor, got 1e-15\n")
        assert main(["ode", *HWK, "--mu", "5", "--tol", repr(100 * sys.float_info.epsilon)]) == 0
    assert capsys.readouterr().out.startswith("x,z_L,z_B,z_HV,")


def test_threshold_reports_a_bracket_failure_in_one_line(capsys, monkeypatch):
    import wkorient.cli as cli

    def no_sign_change(p, tol=1e-4):
        raise BracketError("synthetic: no sign change")

    monkeypatch.setattr(cli, "find_threshold", no_sign_change)
    assert main(["threshold", *HWK]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wkorient: error: synthetic: no sign change\n"


def test_library_calls_reject_bad_tolerances_and_mean_degrees():
    for mu_bar in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ExperimentConfig(3, 2, 4, 200, mu_bar, 1, 0)
    with pytest.raises(ValueError, match="got n=0"):
        ExperimentConfig(3, 2, 4, 0, 5.0, 1, 0)
    with pytest.raises(ValueError, match="got trials=0"):
        ExperimentConfig(3, 2, 4, 200, 5.0, 0, 0)


def test_table1_survives_row_failures(capsys, monkeypatch):
    import wkorient.cli as cli

    def flaky(p, tol=1e-4):
        if p.h == 10:
            raise BracketError("synthetic failure")
        return ThresholdResult(
            mu_tilde=5.5, bracket=(5.4, 5.6), kappa_lo=3.9, kappa_hi=4.1,
            iterations=1, stats_at_threshold=CoreStats(0.0, 0.0, {}, None, None, "z_L"),
        )

    monkeypatch.setattr(cli, "find_threshold", flaky)
    assert main(["table1"]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5  # header + the four reference rows
    assert lines[0].split(",")[:5] == ["h", "w", "k", "mu_tilde", "mu_hat"]
    failed = [ln for ln in lines[1:] if "synthetic failure" in ln]
    assert len(failed) == 1 and failed[0].startswith("10,")


def test_table1_lets_other_errors_propagate(monkeypatch):
    # only a threshold that cannot be found becomes a row; a bug does not
    import wkorient.cli as cli

    def broken(p, tol=1e-4):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(cli, "find_threshold", broken)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        cli.table1_rows()


# ---------------------------------------------------------------------------
# seeded output bytes: sha256 and length of each command's output file


GOLDEN = {
    "gen_lo": ("81a4489e065c8652e63a1e218a9f9694b1b64797200995c4731e74f45141bddf", 69569),
    "gen_hi": ("d5928e06e1f14a45c986812bceb5921a40858a36ce19cb9f8c41aa9e9c25d08c", 81981),
    "core_hi": ("f2353044922c87e38578b36d15bebd0bb310c1668c488249b3e33065537ac14d", 71809),
    "orient_lo": ("a86d7b73a5df18079d6bb9572d69e6e3e57c8f0c69f5d6bf0a54468b4c255d9d", 74973),
    "orient_hi": ("a6634c86a465987be52eeb98b86e005fa60feaf680882fb3f2ea4c8ace035d98", 9374),
    "orient_lo_json": ("855a6c04e44a69239349cb7ea8bfeb08ac19e349fedc067beff39b09b961021b", 215061),
    "orient_hi_json": ("890ca2456fe1aa5235ae47beb51610d3a525dd9003b2a6c1d6c6e8a3dabcd7f5", 19550),
    "stats_hi_csv": ("a24d4580192ff7f4b41936c4689f1cf1c77925869a0df53ae763f330d94e3e7e", 127),
    "stats_hi_json": ("5d05948f3160fa1b3b883ae5da8cf6d58505585b37349dea14664a64916607c2", 256),
    "simulate_json": ("7fb1d8e9988d908506d67b9cd51f741036bbe4bf3a490db567f0581dbc960fc3", 1233),
    "simulate_csv": ("b8f2e1ed85fc7c81fc5cf181045ac348c5a70d048818f4499c54ee8422ec2a0c", 319),
    "simulate_hitting_csv": ("8f99778fb39d9b967251be79a7c74864eae421ae06a76db2ea09bb034c3a7e69", 99),
    "simulate_hitting_json": ("dadeb55a922cad5cebfc74cb1326a339c9b02e0984d63e69557861b41684d43c", 604),
    "core_profile_csv": ("186b3bf74ec9a1abe74d92a7be5618e909d1c4b603e23072c13e2c91440d1b4a", 544),
    "core_profile_json": ("c74a8d80f8a8214cc357dfc5bd7c16c2a12f67c34aee0c4ba2cf5d48be2f797d", 1723),
    "threshold_csv": ("d378956d9833bd3363a084dbb0be69f1825431f827ea89a51fa5d4e1513bf971", 64),
    "threshold_json": ("0f7414e5f5aefddce3b2799d3b0d9a29a74f432a7a70848a17f7b9f5cfad7f6d", 574),
    "table1_csv": ("f9921a896982f7820dcda6f6d57f7daf426ceaa1d7e93c9b0f26069f486b7896", 539),
    "table1_json": ("b6d385d2eb8b106b1c3c7278354a079c1c196a29995459b45c1415a4a7148ae9", 1382),
    "ode_311_json": ("9fbf4ae1856d5baea4024b9d049bc3434a4b5a28d2adad070ae7f16ddff6cfba", 165),
    "ode_311_csv": ("0d844282c79ce463f0200313e806675a0953b11c9974b0abc30e26045fec5e4f", 59825),
    "ode_211_json": ("75dc93fb4a87f564cee5fb0839a8bf889d6cb57504853d9a6f1c5ecf3c141296", 175),
    "ode_211_csv": ("d54af58ff8d6c22f81479f2aad0f510f268b108750e2c2db145bb49c74d366b8", 66),
    "ode_324_json": ("1a9344bc64cd0a843365147943477f252c7022319e83d7f953c00e6aeb532caa", 355),
    "ode_324_csv": ("3c3fa19a3c2a6f1e782508b4afae472846479b7aab2a161431581f3a573b2272", 74429),
}


def test_seeded_outputs_are_byte_identical(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.setenv("WKORIENT_WORKERS", "1")
    hwk = ["--h", "3", "--w", "2", "--k", "4"]
    json_ = ["--format", "json"]
    lo, hi = str(tmp_path / "gen_lo"), str(tmp_path / "gen_hi")
    single = ["simulate", *hwk, "--n", "2000", "--mu", "5.5", "--trials", "4",
              "--seed", "3"]
    hitting = ["simulate", *hwk, "--n", "400", "--trials", "3", "--seed", "2"]
    profile = ["core-profile", *hwk, "--n", "3000", "--mu", "6.0", "--trials", "3",
               "--seed", "3"]
    threshold = ["threshold", *hwk, "--tol", "0.01"]
    runs = [
        ("gen_lo", ["gen", "--h", "3", "--n", "3000", "--mu", "5.0", "--seed", "11"], 0),
        ("gen_hi", ["gen", "--h", "3", "--n", "3000", "--mu", "5.9", "--seed", "12"], 0),
        ("core_hi", ["core", hi, *hwk], 0),
        ("orient_lo", ["orient", lo, *hwk], 0),  # orientable
        ("orient_lo_json", ["orient", lo, *hwk, *json_], 0),
        ("orient_hi", ["orient", hi, *hwk], 2),  # witness
        ("orient_hi_json", ["orient", hi, *hwk, "--format", "json"], 2),
        ("stats_hi_csv", ["stats", hi, *hwk], 0),
        ("stats_hi_json", ["stats", hi, *hwk, "--format", "json"], 0),
        ("simulate_json", [*single, *json_], 0),
        ("simulate_csv", single, 0),
        ("simulate_hitting_csv", hitting, 0),
        ("simulate_hitting_json", [*hitting, *json_], 0),
        ("core_profile_csv", profile, 0),
        ("core_profile_json", [*profile, *json_], 0),
        ("threshold_csv", threshold, 0),
        ("threshold_json", [*threshold, *json_], 0),
        ("table1_csv", ["table1"], 0),
        ("table1_json", ["table1", *json_], 0),
        # mu_floor ending, both formats
        ("ode_311_json", ["ode", "--h", "3", "--w", "1", "--k", "1", "--mu", "2.75",
                          "--format", "json"], 0),
        ("ode_311_csv", ["ode", "--h", "3", "--w", "1", "--k", "1", "--mu", "2.75"], 0),
        # integration does not start, both formats
        ("ode_211_json", ["ode", "--h", "2", "--w", "1", "--k", "1", "--mu", "1.5",
                          *json_], 0),
        ("ode_211_csv", ["ode", "--h", "2", "--w", "1", "--k", "1", "--mu", "1.5"], 0),
        ("ode_324_json", ["ode", *hwk, "--mu", "5.0", "--format", "json"], 0),
        ("ode_324_csv", ["ode", *hwk, "--mu", "5.485"], 0),
    ]
    for name, argv, code in runs:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == code, name
        data = out.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[name], name
