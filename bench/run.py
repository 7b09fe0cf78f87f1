"""The circuitrand benchmark: seeded CLI workloads, timed end to end and by layer.

    python3 bench/run.py --workload enumerate-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced

A run repeats passes of one workload for about ``--seconds`` seconds.  Each
pass is a fresh single-threaded Python process (``worker.py``) that imports
the package from ``src/``, writes the pass's input files, runs the job list
through ``circuitrand.cli.main`` and checks every answer against the
independent references in ``reference.py``.  Pass k of a run with seed s
draws its inputs from the string seed ``"<workload>:<s>:<k>"``, so the same
seed gives the same inputs, and the per-pass lines show how cost moves with
the inputs.  End-to-end metrics are medians over the passes.

The machine's speed drifts by tens of percent over minutes, so every time
a pass measures is scaled by ``CALIBRATION_REF_S`` over the mean time of a
fixed kernel the pass ran between its jobs (see ``worker.calibrate``).
Times therefore read as seconds on a machine where the kernel takes
``CALIBRATION_REF_S``; the per-pass lines and ``raw.wall_s`` give them
unscaled.

With ``--trace 1`` the passes alternate between untraced and traced on the
same inputs.  The traced passes give the per-layer metrics (medians over
passes); the untraced ones give the per-rung times, the cache counters and
the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A job fails when it raises, exits with an
unexpected code or gives a wrong answer; the fail ratio is failed over
attempted.  Without ``src/circuitrand`` the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("enumerate-ladder", "systems-multidigraph", "basis-mixed", "verify-blockings")
DEFAULT_SEED = 1
# Kept out of tuning: a claimed gain must also hold on this seed.
HELD_OUT_SEED = 2
DEFAULT_SECONDS = 30
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# About the kernel's time on the 2-core sandbox the benchmark was tuned on.
CALIBRATION_REF_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
}

RUNGS = ("f3", "f4", "dg5", "ch3", "a44")

PER_LAYER = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "catalog.busy_s": "s",
    "contrast.calls": "count",
    "contrast.busy_s": "s",
    "circuits.calls": "count",
    "circuits.busy_s": "s",
    "circuits.self_s": "s",
    "circuits.found": "count",
    "circuits.binary": "count",
    "circuits.yield": "ratio",
    "linalg.rank.calls": "count",
    "linalg.rank.busy_s": "s",
    "linalg.kernel.calls": "count",
    "linalg.kernel.busy_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.busy_s": "s",
    "randomisation.vectors.busy_s": "s",
    "randomisation.enumerate.busy_s": "s",
    "randomisation.supports": "count",
    "randomisation.systems": "count",
    "randomisation.systems_per_s": "1/s",
    "randomisation.check.calls": "count",
    "randomisation.check.busy_s": "s",
    "analysis.estimates.busy_s": "s",
    "analysis.bias.busy_s": "s",
    "analysis.invariance.busy_s": "s",
    "analysis.covariance.calls": "count",
    "analysis.covariance.busy_s": "s",
    "tu.calls": "count",
    "tu.busy_s": "s",
    "tu.submatrices": "count.computed",
    **{f"rung.{rung}_s": "s" for rung in RUNGS},
    "cache.vectors.hits": "count",
    "cache.vectors.misses": "count",
    "cache.lse.hits": "count",
    "cache.lse.misses": "count",
    "work.jobs": "count",
    "work.systems": "count",
    "work.circuits": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.unattributed_share_max": "ratio",
    "raw.wall_s": "s",
    "calibration.kernel_ms": "ms",
}


class BenchError(RuntimeError):
    """A pass could not run or report; the run gives no result."""


def run_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    t0 = time.perf_counter()
    argv = [sys.executable, str(WORKER), workload, str(seed), str(index), str(int(traced)), repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} of {workload} took over {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"pass {index} of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Run passes until one more would overrun ``seconds``, and at least MIN_PASSES."""
    warm = subprocess.run([sys.executable, str(WORKER), "--warm"], cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        raise BenchError(f"cannot import the package:\n{warm.stderr[-2000:]}")
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(plain)
        plain.append(run_pass(workload, seed, index, traced=False))
        if trace:
            traced.append(run_pass(workload, seed, index, traced=True))
        done = len(plain)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            return plain, traced


def _median(passes: list[dict], get) -> float:
    return statistics.median(get(p) for p in passes)


def _scale(p: dict) -> float:
    """The factor that takes the pass's times to the reference speed."""
    return CALIBRATION_REF_S / p["calibration_s"]


def _wall(p: dict) -> float:
    return p["wall_s"] * _scale(p)


def end_to_end(plain: list[dict]) -> dict[str, float]:
    # Percentiles pool the jobs of every pass.  The inclusive method keeps
    # p90 off the slowest one or two jobs when a run has only some twenty.
    job_ms = [1000 * seconds * _scale(p) for p in plain for seconds in p["requests"]]
    deciles = statistics.quantiles(job_ms, n=10, method="inclusive")
    return {
        "setup_s": _median(plain, lambda p: p["setup_s"] * _scale(p)),
        "wall_s": _median(plain, _wall),
        "peak_rss_mib": _median(plain, lambda p: p["peak_rss_mib"]),
        "job_p50_ms": deciles[4],
        "job_p90_ms": deciles[8],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {}
    for name in PER_LAYER:
        if name.startswith("rung."):
            rung = name.removeprefix("rung.").removesuffix("_s")
            times = [seconds * _scale(p) for p in plain for job, seconds in p["jobs"] if job == rung]
            values[name] = statistics.median(times) if times else 0.0
        elif name.startswith("cache."):
            values[name] = _median(plain, lambda p: p["cache"][name])
        elif name.startswith("work."):
            values[name] = _median(plain, lambda p: p["work"][name.removeprefix("work.")])
        elif name == "cli.stdout_bytes":
            values[name] = _median(plain, lambda p: p["stdout_bytes"])
        elif name == "trace.overhead_s":
            # Pass k of each kind ran the same inputs, so pair them.
            values[name] = statistics.median(_wall(t) - _wall(p) for p, t in zip(plain, traced))
        elif name == "raw.wall_s":
            values[name] = _median(plain, lambda p: p["wall_s"])
        elif name == "calibration.kernel_ms":
            values[name] = _median(plain, lambda p: 1000 * p["calibration_s"])
        else:
            # Layer times scale like wall time; a rate per second inversely.
            power = {"s": 1, "1/s": -1}.get(PER_LAYER[name], 0)
            values[name] = _median(traced, lambda p: p["layers"].get(name, 0.0) * _scale(p) ** power)
    return values


def report(workload: str, seed: int, plain: list[dict], traced: list[dict]) -> tuple[int, int]:
    """Print one line per pass and the first failures; return attempted and failed."""
    attempted = failed = 0
    errors: list[str] = []
    for kind, passes in (("plain", plain), ("traced", traced)):
        for index, p in enumerate(passes):
            attempted += len(p["jobs"])
            failed += len(p["errors"])
            errors += [f"{kind} pass {index}: {e}" for e in p["errors"]]
            work = " ".join(f"{k}={v}" for k, v in p["work"].items())
            print(
                f"{workload} seed={seed} pass={index} {kind}: setup_s={p['setup_s']:.4f} "
                f"wall_s={p['wall_s']:.4f} kernel_ms={1000 * p['calibration_s']:.4f} {work} failed={len(p['errors'])}"
            )
    for error in errors[:10]:
        print(f"FAILED {error}")
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = measure(workload, seed, seconds, trace)
    attempted, failed = report(workload, seed, plain, traced)
    if trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circuitrand" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'circuitrand'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds, trace)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                if not trace:
                    ratio = result["failed"] / result["attempted"]
                    result["metrics"]["fail_ratio"] = {"value": ratio, "unit": "ratio"}
                for name, metric in result["metrics"].items():
                    print(f"{workload:22} {name:32} {metric['value']:>14.6g} {metric['unit']}")
                    summary["metrics"][f"{workload}/{name}"] = metric
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        # Every worker has ended by now; this also clears after a killed one.
        shutil.rmtree(ROOT / ".bench_run", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
