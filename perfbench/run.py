"""Benchmark of the phistep package: ``phistep run`` and ``phistep bench``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ks-run --seed 1 --seconds 30 --trace 0

Each measured repetition runs in a fresh process (perfbench/child.py),
one after another, until ``--seconds`` have passed and at least
MIN_REPETITIONS have finished; the figures are medians over them.
End-to-end times are scaled to the machine's speed, measured next to
them (speed.py).
Run workloads first solve a reference at half the step, once per seed
and outside the timed runs, and every repetition's final field is
checked against it.  With ``--trace 1`` untraced and traced repetitions
alternate: the per-layer figures come from the traced ones, and the
tracer is cross-checked against the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A readable report with the
environment, sample counts and quartiles comes before it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import ERROR_FACTOR, WORKLOADS

MIN_REPETITIONS = 3
# Stop starting repetitions once another one could push the run past this,
# and kill any child still running at RUN_LIMIT_S.
DEADLINE_S = 150.0
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_us": "us", "peak_rss_mb": "MB"}
PER_LAYER = {
    "problems.discretize_s": "s",
    "phifun.phi_s": "s",
    "phifun.phi_calls": "count",
    "phifun.contour_s": "s",
    "phifun.gamma_calls": "count",
    "phifun.expr_hit_ratio": "ratio",
    "integrator.precompute_s": "s",
    "integrator.starter_s": "s",
    "integrator.starter_iters": "count",
    "integrator.step_self_us": "us",
    "spectral.transform_us": "us",
    "spectral.transforms_per_step": "count",
    "spectral.mb_per_step": "MB_computed",
    "spectral.pointwise_us": "us",
    "bench.integrations": "count",
    "bench.reference_frac": "ratio",
    "bench.output_s": "s",
    "bench.output_mb": "MB",
    "tracer.overhead_s": "s",
}


class Failure(Exception):
    """The benchmark cannot produce a result (exit code 2, no result line)."""


def check_program() -> None:
    """Refuse to run without the package source in this checkout."""
    if not (ROOT / "src" / "phistep" / "__init__.py").is_file():
        raise Failure(f"no phistep package under {ROOT / 'src'}; run from a full checkout")


def environment(workload, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload.name,
        "params": workload.params(),
        "seed": seed,
    }


def child(spec: dict, timeout: float) -> dict:
    """Run one child process to completion and return its JSON report."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"child killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"ok": False, "error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    if proc.returncode != 0:
        report["ok"] = False
    return report


def relative_l2(u: np.ndarray, reference: np.ndarray) -> float:
    # computed here rather than by phistep.rel_l2_error: the check must not
    # rely on the package it checks
    return float(np.linalg.norm((u - reference).ravel()) / np.linalg.norm(reference.ravel()))


def check_run(workload, report: dict, reference: np.ndarray, first: list) -> list:
    """Output checks of one run repetition; returns the problems found."""
    out = Path(report["dump"]).parent
    values = np.load(out / "values.npy")
    problems = []
    error = relative_l2(values, reference)
    if not error <= workload.tolerance:
        problems.append(f"final field is {error:.3e} from the h/2 reference "
                        f"(tolerance {workload.tolerance:g})")
    dumped = np.loadtxt(report["dump"], comments="#", ndmin=1)
    if not np.array_equal(dumped, values.ravel()):
        problems.append("save_field dump does not read back as the final field")
    if not first:
        first.append(values)
    elif not np.array_equal(values, first[0]):
        problems.append("final field differs bitwise from the first repetition's")
    report["output_error"] = error
    return problems


def check_sweep(workload, report: dict, first: list) -> tuple:
    """Output checks of one sweep repetition: (failed points, problems found)."""
    problems = []
    failed = 0
    rungs = workload.count
    for index, (scheme, h, error, stable) in enumerate(report["records"]):
        baseline = workload.baseline_errors[index // rungs][index % rungs]
        if not stable:
            problems.append(f"{scheme} at h={h:g} is unstable")
        elif not baseline / ERROR_FACTOR <= error <= baseline * ERROR_FACTOR:
            problems.append(f"{scheme} at h={h:g}: error {error:.3e} is not within "
                            f"{ERROR_FACTOR:g}x of {baseline:.3e}")
        else:
            continue
        failed += 1
    errors = [r[2] for r in report["records"]]
    if not first:
        first.append(errors)
    elif errors != first[0]:
        problems.append("sweep errors differ bitwise from the first repetition's")
    return failed, problems


def attempts_of(workload) -> int:
    return 1 if workload.kind == "run" else len(workload.schemes) * workload.count


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name: str, unit: str, values: list) -> dict:
    q1, median, q3 = quartiles(values)
    return {"name": name, "unit": unit, "median": median, "q1": q1, "q3": q3,
            "samples": len(values)}


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    start = time.perf_counter()
    reference = None
    if workload.kind == "run":
        ref_dir = scratch / "reference"
        ref = child({"workload": workload.name, "seed": seed, "out": str(ref_dir),
                     "role": "reference", "trace": False}, RUN_LIMIT_S)
        if not ref.get("ok"):
            raise Failure(f"reference solve failed: {ref.get('error')}")
        reference = np.load(ref_dir / "values.npy")

    plain, traced, problems = [], [], []
    attempted = failed = 0
    first_plain, first_traced = [], []
    tic = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        elapsed = time.perf_counter() - tic
        done = len(plain) + len(traced)
        if done >= MIN_REPETITIONS and elapsed >= seconds and (traced or not trace):
            break
        if done and time.perf_counter() - start + longest > DEADLINE_S:
            break
        traced_turn = trace and index % 2 == 1
        rep_start = time.perf_counter()
        report = child({"workload": workload.name, "seed": seed,
                        "out": str(scratch / f"rep{index}"), "role": "measure",
                        "trace": traced_turn},
                       RUN_LIMIT_S - (rep_start - start))
        longest = max(longest, time.perf_counter() - rep_start)
        index += 1
        attempted += attempts_of(workload)
        if not report.get("ok"):
            failed += attempts_of(workload)
            problems.append(f"repetition {index} failed: {report.get('error')}")
            if not (plain or traced) and index >= 2:
                break
            continue
        first = first_traced if traced_turn else first_plain
        if workload.kind == "run":
            found = check_run(workload, report, reference, first)
            failed += bool(found)
        else:
            failed_points, found = check_sweep(workload, report, first)
            failed += failed_points
        problems.extend(f"repetition {index}: {p}" for p in found)
        (traced if traced_turn else plain).append(report)
        shutil.rmtree(scratch / f"rep{index - 1}", ignore_errors=True)

    if not (traced if trace else plain):
        raise Failure("no repetition finished: " + "; ".join(problems))
    crosscheck = {}
    if trace:
        crosscheck = tracer_checks(workload, plain, traced, first_plain, first_traced)
        problems.extend(k for k, ok in crosscheck.items() if ok is False)
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "problems": problems, "crosscheck": crosscheck}


def tracer_checks(workload, plain, traced, first_plain, first_traced) -> dict:
    checks = {}
    checks["transform spans equal summed fft_total"] = all(
        r["layers"]["transforms_in_integrate"] == r["layers"]["fft_total"] for r in traced)
    if plain and traced:
        checks["traced outputs equal untraced bit for bit"] = (
            first_plain[0] == first_traced[0] if workload.kind == "sweep"
            else bool(np.array_equal(first_plain[0], first_traced[0])))
    missing = sorted({m for r in traced for m in r["missing"]})
    checks["missing wrapped names"] = missing
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        check_program()
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    plain, traced = run["plain"], run["traced"]
    rows = [summarize(name, unit, [r[name] for r in plain])
            for name, unit in END_TO_END.items()] if plain else []
    # the unscaled times, for the readable report only
    raw = [summarize(name, END_TO_END[name], [r["raw"][name] for r in plain])
           for name in plain[0]["raw"]] if plain else []
    if args.trace:
        for name, unit in PER_LAYER.items():
            if name == "tracer.overhead_s":
                continue
            rows.append(summarize(name, unit, [r["layers"][name] for r in traced]))
        traced_wall = statistics.median(r["raw"]["wall_s"] for r in traced)
        plain_wall = (statistics.median(r["raw"]["wall_s"] for r in plain)
                      if plain else traced_wall)
        rows.append({"name": "tracer.overhead_s", "unit": "s",
                     "median": traced_wall - plain_wall, "q1": None, "q3": None,
                     "samples": min(len(plain), len(traced))})
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {row["name"]: {"value": row["median"], "unit": row["unit"]}
               for row in rows if row["name"] in wanted}
    correct = run["failed"] == 0 and not run["problems"]
    report = {
        "environment": environment(workload, args.seed),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "fail_frac": run["failed"] / run["attempted"],
        "metrics": rows,
        "unscaled": raw,
        "output_errors": [r["output_error"] for r in plain + traced if "output_error" in r],
        "crosscheck": run["crosscheck"],
        "problems": run["problems"],
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
