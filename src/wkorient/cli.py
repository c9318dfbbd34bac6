"""Command-line drivers.

Single-instance file tools (``gen``, ``core``, ``orient``, ``stats``) operate
on the shared hypergraph format; experiment commands (``ode``, ``threshold``,
``simulate``, ``core-profile``, ``table1``) run the numeric machinery.
Each command builds one report, which ``_emit`` writes as JSON or CSV
(``orient`` and ``ode`` keep their own text forms).  Exit codes: 0 success
(orientable), 2 decided non-orientable, 64 a command-line usage error
(``EX_USAGE``), 1 anything else went wrong.

Trials are reproducible from (master seed, trial index) alone: each one owns
an RNG stream keyed by its index, and results are merged by index, so the
output bytes do not depend on how many workers ran them.  Per-trial wall
times are printed to stderr rather than persisted, for the same reason.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np
from scipy.special.cython_special import chdtrc

from .flow import CutWitness, orient
from .hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    read_hypergraph,
    w_density,
    write_hypergraph,
)
from .models import RngSeed, sample_uniform_multi
from .ode import (
    BracketError,
    CoreStats,
    DomainError,
    InitialStateError,
    OdeParams,
    StiffnessError,
    core_fixed_point,
    find_threshold,
    integrate,
)
from .peeling import core_statistics, rancore
from .poisson import solve_lambda, truncated_poisson_pmf

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "HittingRecord",
    "TABLE1_REFERENCE",
    "run_trial",
    "hitting_load",
    "core_profile",
    "table1_rows",
    "main",
]

SCHEMA_VERSION = 1

# Published reference values the `table1` command reports deltas against:
# (h, w, k) -> (threshold mean degree, core mean degree at threshold).
TABLE1_REFERENCE = (
    (3, 2, 4, 5.485, 6.65086),
    (3, 2, 10, 14.766, 15.5872),
    (3, 2, 40, 59.991, 60.0773),
    (10, 2, 4, 19.99999, 20.0003),
)


# ---------------------------------------------------------------------------
# experiment plumbing
# ---------------------------------------------------------------------------


def _check_counts(n: int, trials: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got n={n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got trials={trials}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one batch of sampled trials."""

    h: int
    w: int
    k: int
    n: int
    mu_bar: float
    trials: int
    seed: int
    check_orientability: bool = False

    def __post_init__(self) -> None:
        OrientationParams(self.h, self.w, self.k)  # reuse its validation
        _check_counts(self.n, self.trials)
        if not 0 < self.mu_bar < math.inf:
            raise DomainError(f"mu must be positive and finite, got {self.mu_bar}")

    @property
    def params(self) -> OrientationParams:
        return OrientationParams(self.h, self.w, self.k)

    @property
    def num_edges(self) -> int:
        return round(self.mu_bar * self.n / self.h)


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """One sampled instance: core statistics plus the orientability verdict
    (None when the trial didn't ask for one).  An empty core has no density
    or mean degree (None).  The persisted record is the fields ``==``
    compares; two stay out of both: ``degree_counts`` (core degree
    histogram, index = degree; equal seeds make it equal anyway) and
    ``timings`` (wall seconds per stage: sample, peel, stats, orient; the
    trial's wall time is their sum), so equal seeds give equal bytes."""

    mu_bar: float
    trial: int
    stream: int
    n_core: int
    m_core: dict
    kappa: Optional[float]
    mu_hat: Optional[float]
    orientable: Optional[bool]
    degree_counts: tuple = dataclasses.field(compare=False)
    timings: dict = dataclasses.field(compare=False)


def run_trial(cfg: ExperimentConfig, trial: int, stream: int) -> TrialRecord:
    """Sample, peel, and optionally flow-orient the core of one instance.
    Every caller here runs trial t on stream t; ``stream`` stays its own
    argument because perfbench/workloads.py calls ``run_trial(cfg, i, i)``."""
    mark = time.perf_counter()
    timings: dict[str, float] = {}

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[stage], mark = now - mark, now

    p = cfg.params
    rng = RngSeed(cfg.seed, stream).generator()
    H = sample_uniform_multi(cfg.n, cfg.num_edges, cfg.h, rng)
    lap("sample")
    pr = rancore(H, p)
    lap("peel")
    st = core_statistics(pr, p)
    core = pr.core
    degrees = np.bincount(core.verts, minlength=core.n)
    degree_counts = tuple(np.bincount(degrees).tolist())
    lap("stats")
    orientable: Optional[bool] = None
    if cfg.check_orientability:
        orientable = isinstance(orient(core, p), Orientation)
    lap("orient")
    return TrialRecord(
        mu_bar=cfg.mu_bar,
        trial=trial,
        stream=stream,
        n_core=st.n_core,
        m_core=st.m_core,
        kappa=None if st.kappa is None else float(st.kappa),
        mu_hat=st.mu_hat,
        orientable=orientable,
        degree_counts=degree_counts,
        timings=timings,
    )


def _worker_count() -> int:
    env = os.environ.get("WKORIENT_WORKERS", "")
    if not env:
        return os.cpu_count() or 1
    if not (env.strip().isdecimal() and int(env) >= 1):
        raise ValueError(f"WKORIENT_WORKERS must be a positive integer, got {env!r}")
    return int(env)


def _pool_map(fn, jobs: list) -> list:
    """fn(*job) for every job, in job order, on up to WKORIENT_WORKERS processes."""
    workers = min(_worker_count(), len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _run_batch(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run cfg.trials independent trials, trial t on stream t, merged by index."""
    records = _pool_map(run_trial, [(cfg, t, t) for t in range(cfg.trials)])
    for r in records:
        stages = ", ".join(f"{k} {v:.2f}" for k, v in r.timings.items())
        kappa = "undefined" if r.kappa is None else f"{r.kappa:.5f}"
        print(
            f"  trial {r.trial} (stream {r.stream}): core {r.n_core}, "
            f"kappa {kappa}, orientable {r.orientable}, "
            f"{sum(r.timings.values()):.1f}s ({stages})",
            file=sys.stderr,
        )
    return records


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(columns: Sequence[str], rows: Sequence[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_text(command: str, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


@contextlib.contextmanager
def _open_out(path: Optional[str]) -> Iterator[TextIO]:
    """The --out target: stdout for None or '-', else the file, closed after."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_text(out: Optional[str], text: str) -> None:
    with _open_out(out) as fh:
        fh.write(text)


def _emit(
    args, command: str, payload: dict, columns=None, rows=None, code: int = 0
) -> int:
    """Write a command's one report to --out and return its exit code: the
    payload as the JSON document, or ``rows`` (default: the payload as the
    only row) read through ``columns`` (default: the first row's keys) as
    the CSV table."""
    if args.format == "json":
        text = _json_text(command, payload)
    else:
        rows = [payload] if rows is None else rows
        text = _csv_text(list(rows[0]) if columns is None else columns, rows)
    _write_text(args.out, text)
    return code


def _read_input(path: str) -> Hypergraph:
    """The hypergraph in the file at path, or on stdin for '-'."""
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        return read_hypergraph(fh)


def _params(args) -> OrientationParams:
    return OrientationParams(args.h, args.w, args.k)


def _config(args, check_orientability: bool = False) -> ExperimentConfig:
    return ExperimentConfig(
        args.h, args.w, args.k, args.n, args.mu, args.trials, args.seed,
        check_orientability=check_orientability,
    )


def _record_dict(r: TrialRecord | HittingRecord) -> dict:
    """A record as persisted: the fields its ``==`` compares."""
    return {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.compare}


def _record_row(r: TrialRecord, sizes: Sequence[int]) -> dict:
    """The CSV row of a record: its report fields, with m_core spread over
    one m_<s> column per admissible size."""
    row = {}
    for key, value in _record_dict(r).items():
        if key == "m_core":
            row.update((f"m_{s}", r.m_core.get(s, 0)) for s in sizes)
        else:
            row[key] = value
    return row


def _stats_dict(stats: CoreStats) -> dict:
    """A predicted core for output; an empty one has no density or mean
    degree (None)."""
    return {**dataclasses.asdict(stats), "beta": dict(sorted(stats.beta.items()))}


# ---------------------------------------------------------------------------
# simulate: per-instance hitting loads
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HittingRecord:
    """One instance's hitting count m_star, its first prefix whose core cannot
    be oriented, and load h·m_star/n; ``density_agrees`` if the density search
    found m_star too.  ``seconds`` stays out of the persisted tables."""

    trial: int
    stream: int
    m_star: int
    load: float
    density_agrees: bool
    seconds: float = dataclasses.field(compare=False)


def hitting_load(p: OrientationParams, n: int, seed: int, trial: int) -> HittingRecord:
    """Locate one instance's hitting count by integer bisection.

    The instance is ``sample_uniform_multi`` on stream ``trial`` (the
    record's ``stream``) at m_max = floor(k·n/w) + 1 rows.  Its first m rows
    are the m-edge sample that ``run_trial`` draws on that stream, and
    orientability is monotone in the edge set, so ``run_trial`` at m edges
    is orientable exactly when m < m_star.  At m_max the demand w·m_max
    exceeds k·n, and peeling grants at most k signs per removed vertex, so
    that core has w-density above k: non-orientable by counting.  A bisection that only peels finds
    a, the last prefix before the first dense core; one flow on a's core
    then gives m_star = a+1.  If a's core does not orient, the search
    bisects [0, a] on the flow verdict itself, with density_agrees False.
    """
    t0 = time.perf_counter()
    rng = RngSeed(seed, trial).generator()
    H = sample_uniform_multi(n, p.k * n // p.w + 1, p.h, rng)

    def core(m: int) -> Hypergraph:
        prefix = Hypergraph(n, ptr=H.ptr[: m + 1], verts=H.verts[: H.ptr[m]])
        return rancore(prefix, p).core

    def dense(c: Hypergraph) -> bool:
        return int(c.sign_demands(p).sum()) > p.k * c.n

    def fails(c: Hypergraph) -> bool:
        return dense(c) or not isinstance(orient(c, p), Orientation)

    def last_pass(hi: int, failing) -> tuple[int, Hypergraph]:
        """The last prefix below hi whose core passes, and that core, given
        that the empty prefix passes and hi fails."""
        lo, passing = 0, core(0)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            c = core(mid)
            if failing(c):
                hi = mid
            else:
                lo, passing = mid, c
        return lo, passing

    a, c = last_pass(H.num_edges, dense)
    agrees = not fails(c)
    if not agrees:
        a, _ = last_pass(a, fails)
    m_star = a + 1
    return HittingRecord(
        trial, trial, m_star, p.h * m_star / n, agrees, time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# core-profile: empirical core vs. the numeric prediction
# ---------------------------------------------------------------------------


def _pool_degree_histogram(records: Sequence[TrialRecord]) -> np.ndarray:
    """Sum the per-trial core degree histograms (index = degree)."""
    width = max((len(r.degree_counts) for r in records), default=0)
    counts = np.zeros(width, dtype=np.int64)
    for r in records:
        counts[: len(r.degree_counts)] += np.asarray(r.degree_counts, dtype=np.int64)
    return counts


def _truncated_poisson_chi2(
    counts: np.ndarray, k: int
) -> tuple[Optional[float], Optional[float], Optional[int]]:
    """Pearson chi-square, p-value and dof of a degree histogram against the
    truncated Poisson fitted to its mean (one more lost dof); None below 3 cells."""
    if counts.size <= k + 3:
        return None, None, None
    total = int(counts.sum())
    degrees = np.arange(counts.size)
    mean = float((degrees * counts).sum()) / total
    lam = solve_lambda(mean, k)  # rate whose >=k+1 truncation has this mean
    pmf = [truncated_poisson_pmf(d, lam, k + 1) for d in range(k + 1, counts.size - 1)]
    # the final cell absorbs the whole upper tail
    expected = np.array([*pmf, max(1.0 - sum(pmf), 0.0)]) * total
    observed = counts[k + 1 :].astype(float)
    # merge sparse cells from the right until every expectation is >= 5
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected.size > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    dof = expected.size - 2
    if dof < 1:
        return None, None, None
    expected *= observed.sum() / expected.sum()
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, chdtrc(dof, stat), dof


def core_profile(cfg: ExperimentConfig) -> dict:
    """Empirical core fractions vs. the fixed-point prediction, plus a
    chi-square check of the pooled core degree histogram.  Returns the dict
    that ``core-profile`` writes less its two header keys: ``config``,
    ``prediction``, the trial means ``mean_alpha``, ``mean_beta``,
    ``mean_kappa`` and ``mean_mu_hat`` (None when no trial has a core),
    ``deviations`` (of each mean from its prediction, relative), ``chi2``
    (``stat``, ``pvalue``, ``dof``) and the persisted ``records``."""
    p = cfg.params
    prediction = core_fixed_point(p, cfg.mu_bar)
    records = _run_batch(cfg)

    sizes = p.sizes
    mean_alpha = float(np.mean([r.n_core / cfg.n for r in records]))
    mean_beta = {
        s: float(np.mean([r.m_core.get(s, 0) / cfg.n for r in records]))
        for s in sizes
    }
    nonempty = [r for r in records if r.n_core > 0]
    mean_kappa = float(np.mean([r.kappa for r in nonempty])) if nonempty else None
    mean_mu_hat = float(np.mean([r.mu_hat for r in nonempty])) if nonempty else None

    def rel(emp: Optional[float], ref: Optional[float]) -> Optional[float]:
        # undefined where either side is, or where the prediction is 0
        return None if emp is None or not ref else abs(emp - ref) / abs(ref)

    deviations = {
        "alpha": rel(mean_alpha, prediction.alpha),
        "kappa": rel(mean_kappa, prediction.kappa),
        "mu_hat": rel(mean_mu_hat, prediction.mu_hat),
    }
    for s in sizes:
        deviations[f"beta_{s}"] = rel(mean_beta[s], prediction.beta[s])

    stat, pvalue, dof = _truncated_poisson_chi2(_pool_degree_histogram(records), cfg.k)
    return {
        "config": dataclasses.asdict(cfg),
        "prediction": _stats_dict(prediction),
        "mean_alpha": mean_alpha,
        "mean_beta": mean_beta,
        "mean_kappa": mean_kappa,
        "mean_mu_hat": mean_mu_hat,
        "deviations": deviations,
        "chi2": {"stat": stat, "pvalue": pvalue, "dof": dof},
        "records": [_record_dict(r) for r in records],
    }


# ---------------------------------------------------------------------------
# table1: threshold table with reference deltas
# ---------------------------------------------------------------------------


def table1_rows(tol: float = 1e-4) -> list[dict]:
    """Compute the four reference parameter rows; a row whose threshold
    cannot be found (a ``BracketError``: no sign change on its bracket)
    carries its error text instead of aborting the table.  Any other error
    propagates."""
    rows = []
    for h, w, k, ref_mu_tilde, ref_mu_hat in TABLE1_REFERENCE:
        row = {
            "h": h,
            "w": w,
            "k": k,
            "ref_mu_tilde": ref_mu_tilde,
            "ref_mu_hat": ref_mu_hat,
            "trivial_bound": h * k / w,
        }
        try:
            res = find_threshold(OrientationParams(h, w, k), tol=tol)
            row.update(
                mu_tilde=res.mu_tilde,
                mu_hat=res.mu_hat,
                delta_mu_tilde=res.mu_tilde - ref_mu_tilde,
                delta_mu_hat=None if res.mu_hat is None else res.mu_hat - ref_mu_hat,
                error="",
            )
        except BracketError as exc:
            row.update(
                mu_tilde=None,
                mu_hat=None,
                delta_mu_tilde=None,
                delta_mu_hat=None,
                error=f"{type(exc).__name__}: {exc}",
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.h < 1:  # checked here too, since m = mu·n/h divides by it
        raise ValueError(f"edge size must be at least 1, got h={args.h}")
    if args.m is None and not 0 <= args.mu < math.inf:
        raise DomainError(f"mu must be nonnegative and finite, got {args.mu}")
    m = args.m if args.m is not None else round(args.mu * args.n / args.h)
    rng = RngSeed(args.seed).generator()
    H = sample_uniform_multi(args.n, m, args.h, rng)
    with _open_out(args.out) as out:
        out.write(f"# h={args.h} seed={args.seed}\n")
        write_hypergraph(H, out)
    return 0


def _cmd_core(args) -> int:
    p = _params(args)
    pr = rancore(_read_input(args.input), p)
    st = core_statistics(pr, p)
    with _open_out(args.out) as out:
        out.write(
            f"# core of h={args.h} w={args.w} k={args.k}: "
            f"n_core={st.n_core} kappa={_fmt(st.kappa)} mu_hat={_fmt(st.mu_hat)}\n"
        )
        out.write("# vertices relabeled 0..n_core-1 in original order: ")
        out.write(" ".join(str(v) for v in pr.core_vertices) + "\n")
        write_hypergraph(pr.core, out)
    return 0


def _cmd_orient(args) -> int:
    result = orient(_read_input(args.input), _params(args))
    code = 0 if isinstance(result, Orientation) else 2
    if args.format == "json":
        return _emit(args, "orient", _orient_payload(result), code=code)
    if code == 0:
        text = "".join(f"{i}: {' '.join(map(str, s))}\n" for i, s in enumerate(result.signs))
    elif result.degenerate_edge is not None:
        text = f"non-orientable\ndegenerate-edge: {result.degenerate_edge}\n"
    else:
        S = " ".join(map(str, result.S))
        text = f"non-orientable\nS: {S}\nkappa: {result.kappa_S}\n"
    _write_text(args.out, text)
    return code


def _orient_payload(result: Orientation | CutWitness) -> dict:
    if isinstance(result, Orientation):
        return {"orientable": True, "signs": dict(enumerate(result.signs))}
    if result.degenerate_edge is not None:
        return {"orientable": False, "degenerate_edge": result.degenerate_edge}
    return {"orientable": False, "S": list(result.S), "kappa_S": str(result.kappa_S)}


def _cmd_stats(args) -> int:
    p = _params(args)
    H = _read_input(args.input)
    H.validate_sizes(p)
    degrees = H.degrees()
    sizes = dict(sorted(H.edge_size_counts().items(), reverse=True))
    # a vertexless file has no density or degrees: None, not 0
    kappa = w_density(H, p) if H.n else None
    payload = {
        "n": H.n,
        "m": H.num_edges,
        "edges_by_size": sizes,
        "total_demand": int(H.sign_demands(p).sum()),
        "kappa": None if kappa is None else str(kappa),
        "kappa_float": None if kappa is None else float(kappa),
        "min_degree": min(degrees, default=None),
        "max_degree": max(degrees, default=None),
        "mean_degree": H.total_degree / H.n if H.n else None,
    }
    row = {key: v for key, v in payload.items() if key != "edges_by_size"}
    row.update((f"m_{s}", c) for s, c in sizes.items())
    return _emit(args, "stats", payload, rows=[row])


def _cmd_ode(args) -> int:
    p = _params(args)
    params = OdeParams(p, args.mu) if args.tol is None else OdeParams(p, args.mu, args.tol)
    payload = {"h": p.h, "w": p.w, "k": p.k, "mu_bar": args.mu}
    traj = stats = reason = None
    try:
        traj, stats = integrate(params)
    except InitialStateError as exc:
        reason, event = str(exc), f"integration did not start ({exc})"
    else:
        if stats.terminated_by != "z_L":
            reason = event = f"integration ended at {stats.terminated_by}, not z_L"
    if reason is None:
        payload["stats"] = _stats_dict(stats)
    else:
        # the ODE reads a core off the z_L ending only: report none, not
        # zeros, and give the fixed point's answer on stderr
        alpha = core_fixed_point(p, args.mu).alpha
        print(
            f"wkorient: warning: {event}; the core fixed point gives alpha={alpha:.9g}",
            file=sys.stderr,
        )
        payload.update(stats=None, reason=reason)
    if args.format == "json":
        return _emit(args, "ode", payload)
    if traj is None:
        _write_text(args.out, f"# no core read: {reason}\n")
        return 0
    with _open_out(args.out) as fh:
        traj.to_csv(fh)
    if reason is None:
        print(
            f"x*={stats.x_star:.9g} alpha={stats.alpha:.9g} "
            f"kappa={stats.kappa:.9g} mu_hat={stats.mu_hat:.9g} "
            f"terminated_by={stats.terminated_by}",
            file=sys.stderr,
        )
    return 0


def _cmd_threshold(args) -> int:
    p = _params(args)
    res = find_threshold(p, tol=args.tol)
    at = res.stats_at_threshold
    payload = {
        "h": p.h, "w": p.w, "k": p.k,
        "mu_tilde": res.mu_tilde,
        "mu_hat": res.mu_hat,
        "bracket": list(res.bracket),
        "kappa_lo": res.kappa_lo,
        "kappa_hi": res.kappa_hi,
        "iterations": res.iterations,
        "stats_at_threshold": None if res.mu_hat is None else _stats_dict(at),
    }
    return _emit(args, "threshold", payload, ["h", "w", "k", "mu_tilde", "mu_hat"])


def _cmd_simulate(args) -> int:
    p = _params(args)
    if args.mu is not None:
        # single-point mode: orientable fraction at one mean degree
        cfg = _config(args, check_orientability=True)
        batch = _run_batch(cfg)
        frac = sum(1 for r in batch if r.orientable) / len(batch)
        mode = {
            "mu_bar": args.mu,
            "fraction_orientable": frac,
            "half_width": 1.96 * math.sqrt(frac * (1.0 - frac) / args.trials),  # Wald
        }
        records = [_record_dict(r) for r in batch]
        rows = [_record_row(r, p.sizes) for r in batch]
    else:
        # hitting mode: one hitting load per instance, instance t on stream t
        _check_counts(args.n, args.trials)
        jobs = [(p, args.n, args.seed, t) for t in range(args.trials)]
        hits = _pool_map(hitting_load, jobs)
        for r in hits:
            print(f"  instance {r.trial} (stream {r.stream}): m* {r.m_star}, load "
                  f"{r.load:.5f}, density agrees {r.density_agrees}, {r.seconds:.1f}s",
                  file=sys.stderr)
        q1, median, q3 = np.quantile([r.load for r in hits], (0.25, 0.5, 0.75)).tolist()
        mode = {
            "estimate": median,
            "quartiles": [q1, q3],
            "density_agrees_share": sum(r.density_agrees for r in hits) / len(hits),
        }
        print(f"estimate={median!r} quartiles=[{q1!r}, {q3!r}]", file=sys.stderr)
        records = rows = [_record_dict(r) for r in hits]
    payload = {
        "h": p.h, "w": p.w, "k": p.k, "n": args.n,
        "trials": args.trials, "seed": args.seed,
        **mode,
        "records": records,
    }
    return _emit(args, "simulate", payload, rows=rows)


def _cmd_core_profile(args) -> int:
    cfg = _config(args)
    report = core_profile(cfg)
    pred = report["prediction"]

    def row(kind, alpha, beta, kappa, mu_hat, chi2_pvalue=None):
        betas = {f"beta_{s}": beta.get(s, 0.0) for s in cfg.params.sizes}
        return {"kind": kind, "mu_bar": cfg.mu_bar, "alpha": alpha, **betas,
                "kappa": kappa, "mu_hat": mu_hat, "chi2_pvalue": chi2_pvalue}

    rows = [
        row("prediction", pred["alpha"], pred["beta"], pred["kappa"], pred["mu_hat"]),
        row("trial-mean", report["mean_alpha"], report["mean_beta"], report["mean_kappa"],
            report["mean_mu_hat"], report["chi2"]["pvalue"]),
    ]
    for r in report["records"]:
        alpha, beta = r["n_core"] / cfg.n, {s: c / cfg.n for s, c in r["m_core"].items()}
        rows.append(row(f"trial-{r['trial']}", alpha, beta, r["kappa"], r["mu_hat"]))
    return _emit(args, "core-profile", report, rows=rows)


def _cmd_table1(args) -> int:
    rows = table1_rows(tol=args.tol)
    columns = [
        "h", "w", "k", "mu_tilde", "mu_hat",
        "ref_mu_tilde", "ref_mu_hat", "delta_mu_tilde", "delta_mu_hat",
        "trivial_bound", "error",
    ]
    code = 0 if all(not row["error"] for row in rows) else 1
    return _emit(args, "table1", {"rows": rows}, columns, rows, code)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 64, since its own 2 would
    read as "decided non-orientable".  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


class _Once(argparse.Action):
    """Store an option's value, with a usage error when it is repeated."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wkorient",
        description=(
            "Orientations and cores of random uniform hypergraphs: "
            "single-instance tools plus numeric-vs-simulation experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--h", type=int, required=True, help="edge size")
        sp.add_argument("--w", type=int, required=True, help="signs per edge")
        sp.add_argument("--k", type=int, required=True, help="indegree cap")

    def io_flags(sp):
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="structured output format",
        )

    sp = sub.add_parser("gen", help="sample a random hypergraph to a file")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="vertices")
    size = sp.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int, help="edges")
    size.add_argument("--mu", type=float, help="mean degree (sets m=round(mu*n/h))")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("core", help="peel a hypergraph file to its core")
    sp.add_argument("input", help="hypergraph file ('-' for stdin)")
    common(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_core)

    sp = sub.add_parser("orient", help="decide orientability of a file")
    sp.add_argument("input", help="hypergraph file ('-' for stdin)")
    common(sp)
    io_flags(sp)
    sp.set_defaults(func=_cmd_orient)

    sp = sub.add_parser("stats", help="summary statistics of a file")
    sp.add_argument("input", help="hypergraph file ('-' for stdin)")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument(
        "--k", type=int, default=1, help="indegree cap; the report does not depend on it"
    )
    io_flags(sp)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("ode", help="integrate the core-evolution system")
    common(sp)
    sp.add_argument("--mu", type=float, required=True, help="initial mean degree")
    sp.add_argument("--tol", type=float, help="override relative tolerance")
    io_flags(sp)
    sp.set_defaults(func=_cmd_ode)

    sp = sub.add_parser("threshold", help="numeric orientability threshold")
    common(sp)
    sp.add_argument(
        "--tol", type=float, default=1e-4, help="bisection width (default %(default)s)"
    )
    io_flags(sp)
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser(
        "simulate",
        help="empirical orientable fraction / hitting loads by simulation",
    )
    common(sp)
    sp.add_argument("--n", type=int, default=100_000, help="vertices per trial")
    sp.add_argument(
        "--mu", type=float, action=_Once,
        help="evaluate the orientable fraction at this mean degree; "
        "absent: one hitting load per instance",
    )
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    io_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser(
        "core-profile",
        help="empirical core statistics vs. the numeric prediction",
    )
    common(sp)
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--mu", type=float, action=_Once, required=True)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    io_flags(sp)
    sp.set_defaults(func=_cmd_core_profile)

    sp = sub.add_parser("table1", help="threshold table for the reference rows")
    sp.add_argument(
        "--tol", type=float, default=1e-4, help="bisection width (default %(default)s)"
    )
    io_flags(sp)
    sp.set_defaults(func=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, StiffnessError, BracketError) as exc:
        print(f"wkorient: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
