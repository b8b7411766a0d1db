"""One measured run of a workload, in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, output directory, role ("measure" or
"reference") and whether to trace.  A fresh process starts with the phi
cache and the reference cache cold, as ``phistep run`` and
``phistep bench`` do.  The last line of standard output is one JSON
object with the run's figures; run.py reads it.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import phistep  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, perturbed  # noqa: E402


def _run(workload, problem, out: Path, h: float) -> dict:
    """The call sequence of ``phistep run``; returns the final values and the dump's path."""
    key = problem.name if problem.dims == 1 else f"{problem.name}{problem.dims}"
    grid = phistep.default_grid(problem, paper_scale=workload.paper_scale, size=workload.size)
    system = phistep.discretize(problem, grid)
    result = phistep.integrate(system, workload.scheme, h, workload.T)
    values = phistep.to_values(result.u, grid, real=problem.real)
    dump = phistep.save_field(out / f"{key}_{workload.scheme}_final.txt", values, grid,
                              workload.T, problem=key)
    return {"values": values, "dump": str(dump)}


def _sweep(workload, problem, out: Path) -> dict:
    """The call sequence of ``phistep bench`` with jobs=1, repetitions=1."""
    plan = phistep.make_plan(workload.problem, list(workload.schemes), count=workload.count)
    plan = replace(plan, problem=problem)
    records = phistep.run_sweep(plan, jobs=1, repetitions=1)
    phistep.export(records, out, basename=workload.problem, title=workload.problem,
                   manifest=phistep.plan_to_manifest(plan, jobs=1, repetitions=1))
    return {"records": [[r.scheme, r.h, r.error, r.stable] for r in records]}


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    problem = perturbed(phistep.get_problem(workload.problem), spec["seed"])
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    if spec["role"] == "reference":
        produced = _run(workload, problem, out, workload.h / 2.0)
        np.save(out / "values.npy", produced["values"])
        return {"ok": True}

    # Untraced repetitions sample the machine's speed before the call
    # sequence, after each probed call and after the sequence, and report
    # their times scaled to nominal speed (speed.py); the unscaled ones go
    # under "raw".  Traced repetitions take no samples and report raw times.
    kind = None if spec["trace"] else workload.speed
    trace = tracer.Tracer(tracer.FULL if spec["trace"] else tracer.PROBE,
                          speed_kind=kind).install()
    trace.sample()
    tic = time.perf_counter()
    if workload.kind == "run":
        produced = _run(workload, problem, out, workload.h)
    else:
        produced = _sweep(workload, problem, out)
    wall = time.perf_counter() - tic - sum(trace.samples[1:])
    raw = {"wall_s": wall, **tracer.run_metrics(trace.spans)}
    report = {
        "ok": True,
        **raw,
        "raw": raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": trace.missing,
    }
    if kind:
        trace.sample()
        samples = trace.samples
        factor = speed.NOMINAL_S[kind] / (sum(samples) / len(samples))
        report.update(wall_s=wall * factor, setup_s=raw["setup_s"] * factor,
                      step_us=tracer.run_metrics(trace.spans, kind)["step_us"],
                      speed_samples=len(samples))
    if "values" in produced:
        np.save(out / "values.npy", produced["values"])
        report["dump"] = produced["dump"]
    else:
        report["records"] = produced["records"]
    if spec["trace"]:
        layers = tracer.layer_metrics(trace.spans, wall)
        layers["bench.output_mb"] = sum(
            p.stat().st_size for p in out.iterdir() if p.suffix != ".npy") / 1e6
        report["layers"] = layers
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        result = main(spec)
    except Exception as exc:  # reported to run.py, which counts the failure
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
