"""One benchmark pass in a fresh process: set up, run the jobs, check them.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE T0
    python3 bench/worker.py --warm

``T0`` is the parent's ``time.perf_counter()`` just before it started this
process (the same monotonic clock on Linux), so ``setup_s`` runs from
process start until the package is imported and the inputs are written.
The jobs run in-process through ``circuitrand.cli.main`` with stdout
captured; their answers are checked after the timed section.  After each
job the pass times a fixed exact-arithmetic kernel that shares no code
with the package, for about a twentieth of that job's time, so the parent can
scale the pass's times to a reference machine speed.  The result is one
JSON line on stdout.  ``--warm`` only imports, so that byte-code
compilation does not land in the first measured pass.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import circuitrand  # noqa: E402
from circuitrand import analysis_sim, circuits, cli, contrast, randomisation  # noqa: E402

import reference as ref  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

if Path(circuitrand.__file__).resolve().parent != SRC / "circuitrand":
    sys.exit(f"circuitrand was imported from {circuitrand.__file__}, not from {SRC}")


class JobState:
    """What the traced wrappers learn about the job that is running."""

    def __init__(self) -> None:
        self.lse_calls = 0
        self.bases: list = []


def instrument(tracer: Tracer, state: JobState) -> None:
    """Wrap the calls into every layer, at the names their callers look up."""

    def basis_found(args, basis) -> None:
        state.bases.append(basis)

    def vectors_found(args, vectors) -> None:
        tracer.counts["randomisation.supports"] += sum(1 for v in vectors if sum(v) >= 2)

    def systems_found(args, catalog) -> None:
        tracer.counts["randomisation.systems"] += len(catalog)

    def tu_tested(args, verdict) -> None:
        tracer.counts["tu.submatrices"] += ref.submatrix_count(args[0].n_rows, args[0].n_cols)

    def lse_name() -> str:
        # cmd_analyse estimates y first, then y shifted by the block effects.
        state.lse_calls += 1
        return "analysis.estimates" if state.lse_calls == 1 else "analysis.invariance"

    tracer.patch(cli, "build_parser", "cli.parse")
    tracer.patch(cli, "_emit", "cli.emit")
    tracer.patch(cli, "to_contrast_form", "contrast")
    tracer.patch(cli, "circuit_basis", "circuits", basis_found)
    tracer.patch(randomisation, "circuit_basis", "circuits", basis_found)
    for module in (circuits, contrast, analysis_sim):
        for attr, name in (("rank", "linalg.rank"), ("kernel_basis", "linalg.kernel"), ("rational_solve", "linalg.solve")):
            if hasattr(module, attr):
                tracer.patch(module, attr, name)
    tracer.patch(randomisation, "randomisation_vectors", "randomisation.vectors", vectors_found)
    tracer.patch(cli, "enumerate_circuit_randomisations", "randomisation.enumerate", systems_found)
    tracer.patch(cli, "_randomise_check", "randomisation.check")
    tracer.patch(cli, "lse_contrast_estimates", lse_name)
    tracer.patch(cli, "naive_block_bias", "analysis.bias")
    tracer.patch(cli, "covariance_comparison", "analysis.covariance")
    tracer.patch(cli, "is_totally_unimodular", "tu", tu_tested)


def cache_counts() -> dict[str, int]:
    out = {}
    for key, fn in (
        ("cache.vectors", getattr(randomisation, "_randomisation_vectors", None)),
        ("cache.lse", getattr(analysis_sim, "_lse_operator", None)),
    ):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{key}.hits"] = info.hits if info else 0
        out[f"{key}.misses"] = info.misses if info else 0
    return out


CALIBRATION_SHARE = 0.05
_CALIBRATION_ROWS = tuple(tuple((7 * i + 3 * j) % 5 - 2 for j in range(6)) for i in range(5))


def _calibration_kernel() -> None:
    """Fraction elimination on the 5x5 minors of a fixed 5x6 matrix.

    It does the kind of work the package does (small Fractions, lists,
    Python loops) without calling it, so its time tracks how fast the
    machine runs interpreted exact arithmetic at that moment.
    """
    for sub in combinations(range(6), 5):
        a = [[Fraction(row[j]) for j in sub] for row in _CALIBRATION_ROWS]
        for c in range(5):
            pivot = next((i for i in range(c, 5) if a[i][c]), None)
            if pivot is None:
                continue
            a[c], a[pivot] = a[pivot], a[c]
            for i in range(c + 1, 5):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]


def calibrate(at_least: float) -> tuple[float, int]:
    """Time the kernel once, and again until ``at_least`` seconds are spent."""
    spent, reps = 0.0, 0
    while reps == 0 or spent < at_least:
        start = time.perf_counter()
        _calibration_kernel()
        spent += time.perf_counter() - start
        reps += 1
    return spent, reps


def run_jobs(jobs: list[Job], tracer, state: JobState) -> tuple[float, list]:
    """Run every job once, calibrating after each.

    Returns the mean calibration time and, per job, (code, stdout, seconds,
    bases).
    """
    results = []
    calibration_s = calibration_reps = 0
    for job in jobs:
        state.lse_calls = 0
        state.bases = []
        out = io.StringIO()
        job_start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()), tracer.span("job"):
                code = cli.main(job.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed pass
            code = f"raised {exc!r}"
        job_s = time.perf_counter() - job_start
        results.append((code, out.getvalue(), job_s, state.bases))
        spent, reps = calibrate(CALIBRATION_SHARE * job_s)
        calibration_s += spent
        calibration_reps += reps
    return calibration_s / calibration_reps, results


def layer_metrics(tracer: Tracer, results: list) -> dict[str, float]:
    s = tracer.summary()
    rank_in_circuits = sum(
        1
        for name, _, _, parent in tracer.spans
        if name == "linalg.rank" and parent >= 0 and tracer.spans[parent][0] == "circuits"
    )
    bases = [b for *_, found in results for b in found]
    found = sum(len(b) for b in bases)
    enumerate_s = s["randomisation.enumerate.self_s"]
    job_s = s["job.busy_s"]
    shares = [
        own / (end - start)
        for (name, start, end, _), own in zip(tracer.spans, tracer.self_times())
        if name == "job"
    ]
    return {
        **s,
        # Job time outside the library layers: argument parsing, reading,
        # formatting and printing.
        "cli.self_s": s["job.self_s"] + s["cli.parse.busy_s"] + s["cli.emit.busy_s"],
        "circuits.found": found,
        "circuits.binary": sum(1 for b in bases for c in b.circuits if set(c.vector) <= {0, 1}),
        "circuits.yield": found / rank_in_circuits if rank_in_circuits else 0.0,
        # The vectors span is a child, so the self time is enumerate with
        # the vectors already memoised: cover search, canonical order, edges.
        "randomisation.enumerate.busy_s": enumerate_s,
        "randomisation.systems_per_s": s["randomisation.systems"] / enumerate_s if enumerate_s else 0.0,
        "trace.unattributed_share": s["job.self_s"] / job_s if job_s else 0.0,
        "trace.unattributed_share_max": max(shares, default=0.0),
    }


def check_jobs(jobs: list[Job], results: list, traced: bool) -> list[str]:
    errors = []
    for job, (code, out, _, bases) in zip(jobs, results):
        error = code if isinstance(code, str) else job.check(code, out)
        if error is None and traced and job.circuits is not None and bases:
            if [len(b) for b in bases] != [job.circuits]:
                error = f"circuit bases of sizes {[len(b) for b in bases]}, expected {job.circuits}"
        if error is not None:
            errors.append(f"{job.name}: {error}")
    return errors


def work_counts(results: list) -> dict[str, int]:
    systems = circuits_listed = 0
    for _, out, _, _ in results:
        lines = out.splitlines()
        if lines and lines[0].startswith("systems="):
            systems += int(lines[0].removeprefix("systems="))
        elif lines and lines[-1].startswith("circuits="):
            circuits_listed += int(lines[-1].split()[0].removeprefix("circuits="))
    return {"jobs": len(results), "systems": systems, "circuits": circuits_listed}


def request_times(jobs: list[Job], results: list) -> list[float]:
    """Job times summed per request, in the order the requests started."""
    times: dict[str, float] = {}
    for job, (_, _, seconds, _) in zip(jobs, results):
        key = job.request or job.name
        times[key] = times.get(key, 0.0) + seconds
    return list(times.values())


def main(argv: list[str]) -> int:
    if argv == ["--warm"]:
        return 0
    workload, seed, index, trace, t0 = argv
    traced = trace == "1"
    tracer = Tracer() if traced else NullTracer()
    state = JobState()
    if traced:
        instrument(tracer, state)
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        # String seeds hash through SHA-512, so inputs do not depend on
        # PYTHONHASHSEED.
        rng = random.Random(f"{workload}:{seed}:{index}")
        jobs = WORKLOADS[workload](rng, workdir, tracer)
        setup_s = time.perf_counter() - float(t0)
        calibration_s, results = run_jobs(jobs, tracer, state)
    finally:
        shutil.rmtree(workdir)
    record = {
        "setup_s": setup_s,
        "wall_s": sum(seconds for _, _, seconds, _ in results),
        "calibration_s": calibration_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [[job.name, seconds] for job, (_, _, seconds, _) in zip(jobs, results)],
        "requests": request_times(jobs, results),
        "errors": check_jobs(jobs, results, traced),
        "stdout_bytes": sum(len(out.encode()) for _, out, _, _ in results),
        "work": work_counts(results),
        "cache": cache_counts(),
    }
    if traced:
        record["layers"] = layer_metrics(tracer, results)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
