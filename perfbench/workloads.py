"""The benchmark's workloads.

Each workload turns (seed, operation index) into the inputs of one
operation, runs the operation (the timed part), and checks its outputs with
the independent checks in ``checks.py`` (untimed).  ``check`` returns the
failure messages and the digest of the operation's integer outputs; floats
stay out of digests so that a change in the last digits does not count as
a failure (threshold rows are held to tolerances instead).  ``warm_up`` runs
one small operation: the first call that set-up time includes.  ``aliases``
names the generic timing metrics after the workload's operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from wkorient import cli, models, ode, peeling
from wkorient.hypergraph import Orientation, OrientationParams
from wkorient.models import RngSeed

from checks import (
    Incidence,
    check_core,
    check_orientation,
    check_table_rows,
    check_trace_deviation,
    check_witness,
    demand_of_size,
)

P324 = OrientationParams(3, 2, 4)


def digest_of(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def core_payload(core) -> dict:
    sizes: dict[int, int] = {}
    for e in core.edges:
        sizes[len(e)] = sizes.get(len(e), 0) + 1
    return {"n_core": core.n, "m_core": sorted(sizes.items())}


class _Capture:
    """Rebinds module.attr to a pass-through that keeps the last result, so
    the check can see what a library call returned inside the operation."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr

    def __enter__(self):
        self.result = None
        self.original = original = getattr(self.module, self.attr)

        def keep(*args, **kwargs):
            self.result = original(*args, **kwargs)
            return self.result

        setattr(self.module, self.attr, keep)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


class OrientTrials:
    """`cli.run_trial` with the orientability check at (3,2,4), alternating
    between an orientable and a non-orientable mean degree.
    One operation is one trial; runs end on whole pairs."""

    name = "orient-trials"
    unit = "trial"
    aliases = {"op_s_p50": "trial_s_p50", "ops_per_s": "trials_per_s"}
    group = 2
    MUS = (5.40, 5.60)

    def __init__(self, n: int):
        self.n = n

    def run(self, seed: int, i: int):
        cfg = cli.ExperimentConfig(
            3, 2, 4, self.n, self.MUS[i % 2], 1, seed, check_orientability=True
        )
        with _Capture(cli, "rancore") as peel, _Capture(cli, "orient") as decision:
            record = cli.run_trial(cfg, i, i)
        return record, peel.result, decision.result

    def check(self, seed: int, i: int, out):
        record, pr, result = out
        p = P324
        core = Incidence(pr.core.n, pr.core.edges)
        fails = check_core(
            Incidence(pr.source.n, pr.source.edges), pr.core_vertices, core, p.h, p.w, p.k
        )
        payload = core_payload(pr.core)
        if (record.n_core, sorted(record.m_core.items())) != (payload["n_core"], payload["m_core"]):
            fails.append("trial record disagrees with the peeled core")
        if result is None:
            verdict, witness = pr.core.num_edges == 0, 0
            if not verdict:
                fails.append("core has edges but no orientation decision was made")
        elif isinstance(result, Orientation):
            verdict, witness = True, 0
            fails += check_orientation(core, result.signs, p.h, p.w, p.k)
        else:
            verdict = False
            witness = len(result.S) if result.degenerate_edge is None else -1
            fails += check_witness(
                core, result.S, result.kappa_S, result.degenerate_edge, p.h, p.w, p.k
            )
        if record.orientable != verdict:
            fails.append(f"trial verdict {record.orientable} != decision {verdict}")
        payload.update(orientable=verdict, witness_size=witness)
        return fails, digest_of(payload)

    def warm_up(self):
        small = OrientTrials(n=3000)
        for i in range(self.group):
            small.run(0, i)


class ProcessTrace:
    """Sample at (3,2,4) with mean degree 5.0; peel one random light ball at
    a time with a process trace; integrate the ODE; compare the two.
    One operation is one such theory-against-process check."""

    name = "process-trace"
    unit = "trace check"
    aliases = {"op_s_p50": "trace_check_s", "ops_per_s": "trace_checks_per_s"}
    group = 1
    MU = 5.0

    def __init__(self, n: int):
        self.n = n

    def run(self, seed: int, i: int):
        p = P324
        H = models.sample_uniform_multi(
            self.n, round(self.MU * self.n / p.h), p.h, RngSeed(seed, 2 * i).generator()
        )
        pr = peeling.rancore(
            H, p, mode="randomized", rng=RngSeed(seed, 2 * i + 1).generator(), trace=True
        )
        traj, _ = ode.integrate(ode.OdeParams(p, self.MU))
        return pr, ode.trajectory_vs_trace(traj, pr.trace)

    def check(self, seed: int, i: int, out):
        pr, devs = out
        p = P324
        fails = check_core(
            Incidence(pr.source.n, pr.source.edges),
            pr.core_vertices,
            Incidence(pr.core.n, pr.core.edges),
            p.h, p.w, p.k,
        )
        fails += check_trace_deviation(devs)
        payload = core_payload(pr.core)
        payload.update(steps=len(pr.elimination), trace_points=len(pr.trace.steps))
        return fails, digest_of(payload)

    def warm_up(self):
        ProcessTrace(n=3000).run(0, 0)


class ThresholdTable:
    """`cli.table1_rows(tol=1e-4)`: the four reference threshold rows, each
    time to a solution of stated accuracy.  The rows have no random input,
    so the seed does not change them."""

    name = "threshold-table"
    unit = "table"
    aliases = {"op_s_p50": "table_s", "ops_per_s": "tables_per_s"}
    group = 1
    TOL = 1e-4

    def run(self, seed: int, i: int):
        return cli.table1_rows(tol=self.TOL)

    def check(self, seed: int, i: int, rows):
        return check_table_rows(rows), None

    def warm_up(self):
        ode.integrate(ode.OdeParams(P324, 5.0))


def _data_lines(text: str) -> list[str]:
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def parse_graph(text: str) -> Incidence:
    lines = _data_lines(text)
    n, m = (int(t) for t in lines[0].split())
    edges = [[int(t) for t in line.split()] for line in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, file has {len(edges)}")
    return Incidence(n, edges)


class FileTools:
    """In-process `cli.main` runs of gen -> core -> orient -> stats on one
    file of mean degree 5.4; orient works on the unpeeled graph.
    One operation is one such file chain."""

    name = "file-tools"
    unit = "file chain"
    aliases = {"op_s_p50": "file_chain_s", "ops_per_s": "file_chains_per_s"}
    group = 1
    MU = 5.4

    def __init__(self, workdir: Path, n: int):
        self.workdir = Path(workdir)
        self.n = n

    def _paths(self):
        return {k: self.workdir / f for k, f in
                (("gen", "g.txt"), ("core", "core.txt"), ("orient", "orient.txt"), ("stats", "stats.csv"))}

    def run(self, seed: int, i: int):
        self.workdir.mkdir(parents=True, exist_ok=True)
        f = self._paths()
        hwk = ["--h", "3", "--w", "2", "--k", "4"]
        gen_seed = 1000 * seed + i
        argvs = (
            ["gen", "--h", "3", "--n", str(self.n), "--mu", str(self.MU),
             "--seed", str(gen_seed), "--out", str(f["gen"])],
            ["core", str(f["gen"]), *hwk, "--out", str(f["core"])],
            ["orient", str(f["gen"]), *hwk, "--out", str(f["orient"])],
            ["stats", str(f["gen"]), *hwk, "--format", "csv", "--out", str(f["stats"])],
        )
        return gen_seed, [cli.main(argv) for argv in argvs]

    def check(self, seed: int, i: int, out):
        gen_seed, codes = out
        p = P324
        if codes[0] != 0 or codes[1] != 0 or codes[2] not in (0, 2) or codes[3] != 0:
            return [f"exit codes {codes}"], None
        f = self._paths()
        raw = {k: path.read_bytes() for k, path in f.items()}
        text = {k: b.decode() for k, b in raw.items()}
        fails = []

        g = parse_graph(text["gen"])
        m = round(self.MU * self.n / p.h)
        H = models.sample_uniform_multi(self.n, m, p.h, RngSeed(gen_seed).generator())
        expect = Incidence(H.n, H.edges)
        if not (g.n == expect.n and np.array_equal(g.verts, expect.verts)
                and np.array_equal(g.sizes, expect.sizes)):
            fails.append("gen file differs from the in-process sample")

        core_lines = text["core"].splitlines()
        header = dict(kv.split("=", 1) for kv in core_lines[0].split(":", 1)[1].split())
        core_vertices = [int(v) for v in core_lines[1].split(":", 1)[1].split()]
        core = parse_graph(text["core"])
        fails += check_core(g, core_vertices, core, p.h, p.w, p.k)
        if int(header["n_core"]) != core.n:
            fails.append("core header n_core disagrees with the core it writes")
        core_dense = core.n > 0 and Fraction(header["kappa"]) > p.k

        lines = text["orient"].splitlines()
        if codes[2] == 0:
            signs = [[int(v) for v in line.split(":", 1)[1].split()] for line in lines]
            fails += check_orientation(g, signs, p.h, p.w, p.k)
            witness = 0
            if core_dense:
                fails.append("orientable verdict on a graph whose core is denser than k")
        else:
            fields = dict(line.split(": ", 1) for line in lines[1:])
            degenerate = int(fields["degenerate-edge"]) if "degenerate-edge" in fields else None
            S = [int(v) for v in fields.get("S", "").split()]
            fails += check_witness(g, S, fields.get("kappa"), degenerate, p.h, p.w, p.k)
            witness = len(S) if degenerate is None else -1

        fails += self._check_stats(g, text["stats"], p)
        payload = {k: hashlib.sha256(b).hexdigest() for k, b in raw.items()}
        payload.update(codes=codes, witness_size=witness)
        return fails, digest_of(payload)

    @staticmethod
    def _check_stats(g: Incidence, text: str, p) -> list[str]:
        row = next(csv.DictReader(io.StringIO(text)))
        deg = np.bincount(g.verts, minlength=g.n)
        demand = int(demand_of_size(g.sizes, p.h, p.w).sum())
        expect = {
            "n": g.n,
            "m": g.m,
            "total_demand": demand,
            "kappa": Fraction(demand, g.n),
            "min_degree": int(deg.min()),
            "max_degree": int(deg.max()),
            "mean_degree": int(g.sizes.sum()) / g.n,
        }
        got = {
            "n": int(row["n"]),
            "m": int(row["m"]),
            "total_demand": int(row["total_demand"]),
            "kappa": Fraction(row["kappa"]),
            "min_degree": int(row["min_degree"]),
            "max_degree": int(row["max_degree"]),
            "mean_degree": float(row["mean_degree"]),
        }
        return [f"stats {k}: {got[k]} != {expect[k]}" for k in expect if got[k] != expect[k]]

    def warm_up(self):
        FileTools(self.workdir, n=3000).run(0, 0)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, workdir: Path, n: int = 100_000):
    """The workload called name, on n-vertex graphs (10^5 in the benchmark,
    the n = 10^5 pipeline behind `simulate` and `core-profile`); file-tools
    writes its files under workdir."""
    if name == ThresholdTable.name:
        return ThresholdTable()
    if name == FileTools.name:
        return FileTools(workdir, n)
    return {OrientTrials.name: OrientTrials, ProcessTrace.name: ProcessTrace}[name](n)


NAMES = (OrientTrials.name, ProcessTrace.name, ThresholdTable.name, FileTools.name)
