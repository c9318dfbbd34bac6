"""The command-line surface: exit codes, formats, and reproducibility."""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wkorient.cli import ExperimentConfig, main, simulate_threshold
from wkorient.flow import orient
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    read_hypergraph,
    write_hypergraph,
)
from wkorient.models import RngSeed, sample_uniform_simple
from wkorient.ode import BracketError, DomainError, ThresholdResult

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
    assert payload["kappa_lo"] <= 1 < payload["kappa_hi"]


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


def test_simulate_explicit_bracket(capsys):
    code = main(
        ["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "400",
         "--mu", "5.2", "--mu", "5.8", "--trials", "3", "--seed", "2",
         "--tol", "0.2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ode_threshold"] is None  # bracket was supplied, not derived
    assert payload["bracket"][1] - payload["bracket"][0] <= 0.2
    assert 5.2 <= payload["estimate"] <= 5.8
    assert payload["probes"][0]["fraction"] >= 0.5


def test_simulate_rejects_a_third_mu():
    with pytest.raises(SystemExit, match="at most two --mu"):
        main(["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "400",
              "--mu", "5.2", "--mu", "5.8", "--mu", "9"])


def test_core_profile_requires_one_mu(capsys):
    # a message as the exit code: the interpreter prints it and exits 1
    with pytest.raises(SystemExit) as exc:
        main(["core-profile", "--h", "3", "--w", "2", "--k", "4",
              "--mu", "5.0", "--mu", "6.0"])
    assert exc.value.code == "core-profile: need exactly one --mu"
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


def test_identical_seeds_are_worker_count_invariant(tmp_path, monkeypatch):
    args = ["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", "500",
            "--mu", "5.3", "--trials", "4", "--seed", "9", "--format", "json"]
    outs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("WKORIENT_WORKERS", workers)
        out = str(tmp_path / f"w{workers}.json")
        assert main(args + ["--out", out]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def test_ode_warns_when_no_core_ending(capsys):
    # (3,1,1) at 2.75 leaves the ODE's domain before z_L; the report on
    # stdout still says what the integrator did, stderr flags it
    code = main(["ode", "--h", "3", "--w", "1", "--k", "1", "--mu", "2.75",
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.out)["stats"]
    assert stats["terminated_by"] == "mu_floor" and stats["alpha"] == 0.0
    warnings = [ln for ln in captured.err.splitlines() if "warning" in ln]
    assert len(warnings) == 1
    assert "mu_floor" in warnings[0]
    alpha = float(warnings[0].rsplit("alpha=", 1)[1])
    assert alpha == pytest.approx(0.631, abs=0.001)

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
        ([*SIM, "--mu", "5", "--mu", "6", "--tol", "-1"], "-1.0"),
        ([*SIM, "--mu", "5", "--mu", "6", "--tol", "nan"], "nan"),
        (["ode", *HWK, "--mu", "nan"], "nan"),
        (["ode", *HWK, "--mu", "inf"], "inf"),
        ([*SIM, "--mu", "inf"], "inf"),
        ([*SIM, "--mu", "nan"], "nan"),
        ([*SIM, "--mu", "5", "--mu", "inf"], "inf"),
        (["gen", "--h", "3", "--n", "10", "--mu", "inf"], "inf"),
        (["gen", "--h", "3", "--n", "10", "--mu", "nan"], "nan"),
    ],
)
def test_bad_tolerances_and_mean_degrees_exit_1(argv, bad, capsys):
    # a tolerance that keeps bisection from running, or a mean degree
    # outside (0, inf), is an error naming the value, not a silent answer
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wkorient: error: ")
    assert bad in captured.err


def test_library_calls_reject_bad_tolerances_and_mean_degrees():
    p = OrientationParams(3, 2, 4)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            simulate_threshold(p, 200, 1, 0, tol=tol, bracket=(5.0, 6.0))
    for mu_bar in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ExperimentConfig(3, 2, 4, 200, mu_bar, 1, 0)


def test_simulate_bisection_ends_on_float_spacing(monkeypatch):
    # a tol below the float spacing of the bracket ends where the midpoint
    # meets an end, instead of probing that mean degree forever
    import wkorient.cli as cli

    probes = []

    def stub(cfg, stream_base):
        probes.append(cfg.mu_bar)
        return [SimpleNamespace(orientable=cfg.mu_bar < 5.5)] * cfg.trials

    monkeypatch.setattr(cli, "_run_batch", stub)
    rep = simulate_threshold(
        OrientationParams(3, 2, 4), 200, 2, 0, tol=1e-300, bracket=(5.0, 6.0)
    )
    assert len(probes) < 64
    lo, hi = rep.bracket
    assert lo < 5.5 <= hi and math.nextafter(lo, hi) == hi


def test_table1_survives_row_failures(capsys, monkeypatch):
    import wkorient.cli as cli

    def flaky(p, tol=1e-4):
        if p.h == 10:
            raise BracketError("synthetic failure")
        return ThresholdResult(
            mu_tilde=5.5, bracket=(5.4, 5.6), kappa_lo=3.9, kappa_hi=4.1,
            iterations=1, stats_at_threshold=None,
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
    "simulate_bracket_csv": ("7ac3c8e5ff2aa784fcc568da74250358aba1caaa302d27fc1bbcdd4dbaba68fd", 797),
    "simulate_bracket_json": ("d52a0129e1888e65b6d2c7712ea3d7930a48e02db21df7d97c601701b7172d73", 3615),
    "core_profile_csv": ("186b3bf74ec9a1abe74d92a7be5618e909d1c4b603e23072c13e2c91440d1b4a", 544),
    "core_profile_json": ("c74a8d80f8a8214cc357dfc5bd7c16c2a12f67c34aee0c4ba2cf5d48be2f797d", 1723),
    "threshold_csv": ("d378956d9833bd3363a084dbb0be69f1825431f827ea89a51fa5d4e1513bf971", 64),
    "threshold_json": ("0f7414e5f5aefddce3b2799d3b0d9a29a74f432a7a70848a17f7b9f5cfad7f6d", 574),
    "table1_csv": ("f9921a896982f7820dcda6f6d57f7daf426ceaa1d7e93c9b0f26069f486b7896", 539),
    "table1_json": ("b6d385d2eb8b106b1c3c7278354a079c1c196a29995459b45c1415a4a7148ae9", 1382),
    "ode_311_json": ("b1f235fed36820076bbc1dd7a1a8dd640e5cb9bf610587ab497d244e86c764c2", 269),
    "ode_311_csv": ("0d844282c79ce463f0200313e806675a0953b11c9974b0abc30e26045fec5e4f", 59825),
    "ode_211_json": ("75dc93fb4a87f564cee5fb0839a8bf889d6cb57504853d9a6f1c5ecf3c141296", 175),
    "ode_211_csv": ("d43c949e146a7c822d95881f6c806751a433718f55843bc54662c3786307b7d9", 64),
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
    bracket = ["simulate", *hwk, "--n", "400", "--mu", "5.2", "--mu", "5.8",
               "--trials", "3", "--seed", "2", "--tol", "0.2"]
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
        ("simulate_bracket_csv", bracket, 0),
        ("simulate_bracket_json", [*bracket, *json_], 0),
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
