"""The wkorient benchmark: one workload per process, seeded inputs, checked
outputs, and a JSON result on the last line of standard output.

    python3 perfbench/run.py --workload orient-trials --seed 1 --seconds 18 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it records spans around every call into a package module and
reports the per-layer metrics, plus the tracing overhead measured by
re-running each traced operation untraced on the same inputs.
Run it from the root of a checkout; it builds nothing and writes only under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import benchenv
from benchenv import BENCH, OUT

SETUP_REPEATS = 3

class Tally:
    """Operation times, failures and digests of one measurement loop."""

    def __init__(self):
        self.times: list[float] = []
        self.digests: list = []
        self.failures: list[str] = []
        self.failed = 0
        self.digests_checked = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


def metric_units(kind: str) -> dict[str, str]:
    """Units of the "end_to_end" or "per_layer" metrics BENCHMARK.json lists."""
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_digests() -> dict:
    with open(BENCH / "digests.json") as fh:
        return json.load(fh)["digests"]


def run_op(wl, seed: int, i: int, tally: Tally, expected: dict, tracer=None) -> None:
    """One timed operation, then its (untimed) checks and digest."""
    if tracer is not None:
        tracer.install()
        tracer.op_id = i
    error = None
    t0 = time.perf_counter()
    try:
        out = wl.run(seed, i)
    except Exception as exc:  # an operation that raises is a failed operation
        error = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op_id = -1
        tracer.uninstall()
    fails, digest = [f"{type(error).__name__}: {error}"], None
    if error is None:
        try:
            fails, digest = wl.check(seed, i, out)
        except Exception as exc:  # output too malformed to check
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        del out
    want = expected.get(str(seed), [])
    if digest is not None and i < len(want):
        tally.digests_checked += 1
        if digest != want[i]:
            fails = fails + [f"digest {digest} != recorded {want[i]}"]
    tally.times.append(dt)
    tally.digests.append(digest)
    if fails:
        tally.failed += 1
        tally.failures.extend(f"op {i}: {msg}" for msg in fails)


def measure(wl, seed: int, seconds: float, expected: dict, tracer=None):
    """Run operations 0, 1, ... until their summed time reaches `seconds`
    and a whole group is done.  With a tracer, each operation is run traced
    and then again untraced on the same inputs; returns (measured, replay)."""
    tally, replay = Tally(), Tally()
    i = 0
    while True:
        run_op(wl, seed, i, tally, expected, tracer)
        if tracer is not None:
            run_op(wl, seed, i, replay, expected)
        i += 1
        if sum(tally.times) >= seconds and i % wl.group == 0:
            return tally, replay


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of imports plus the first call."""
    samples = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def sample_line(unit: str, times: list[float]) -> str:
    """The sample count, and the highest tail percentile that has at least
    10 samples beyond it, if any."""
    n = len(times)
    for q in (99, 90):
        beyond = n - int(n * q / 100)
        if n >= 100 and beyond >= 10:
            cut = statistics.quantiles(times, n=100)[q - 1]
            return f"{n} {unit}s; op_s_p{q} = {cut:.6g} s with {beyond} samples beyond it"
    return f"{n} {unit}s; no tail percentile (fewer than 10 samples beyond p90)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not benchenv.have_sources():
        print("perfbench: src/wkorient not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2

    import machine
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, OUT / f"work-{os.getpid()}")
    expected = load_digests().get(args.workload, {})
    try:
        if args.trace:
            from tracing import Tracer, per_layer

            wl.warm_up()
            tracer = Tracer()
            tally, replay = measure(wl, args.seed, args.seconds, expected, tracer)
            ops = tally.attempted
            metrics = per_layer(tracer.layer_table(ops))
            traced, plain = sum(tally.times) / ops, sum(replay.times) / ops
            metrics["trace.overhead_s"] = traced - plain
            metrics["trace.overhead_share"] = (traced - plain) / plain
            metrics["trace.spans"] = sum(s[5] >= 0 for s in tracer.spans) / ops
            units = metric_units("per_layer")
            tracer.write(OUT / f"{tag}-spans.npz")
            failed = tally.failed + replay.failed
            attempted = tally.attempted + replay.attempted
            failures = tally.failures + [f"untraced {m}" for m in replay.failures]
            lines = [f"traced {ops} ops: {traced:.6g} s/op; untraced replay: "
                     f"{plain:.6g} s/op; tracing overhead {traced - plain:+.6g} s/op"]
        else:
            setup = setup_seconds(args.workload)
            wl.warm_up()
            tally, _ = measure(wl, args.seed, args.seconds, expected)
            metrics = {
                "op_s_p50": statistics.median(tally.times),
                "ops_per_s": tally.attempted / sum(tally.times),
                "setup_s": setup,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = metric_units("end_to_end")
            failed, attempted, failures = tally.failed, tally.attempted, tally.failures
            lines = [sample_line(wl.unit, tally.times)]
    finally:
        close = getattr(wl, "close", None)
        if close:
            close()

    info = machine.describe(benchenv.ROOT, args.seed)
    lines.append(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g} "
                 f"(digests checked on {tally.digests_checked} ops)")
    lines += [f"failure: {msg}" for msg in failures[:20]]
    lines += [f"{name} = {value:.6g} {units[name]}"
              + (f" ({wl.aliases[name]})" if name in wl.aliases and not args.trace else "")
              for name, value in metrics.items()]
    lines.append("machine: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(dict(result, workload=args.workload, machine=info, op_seconds=tally.times,
                       digests=tally.digests, failures=failures), fh, indent=1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
