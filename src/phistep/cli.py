"""Command-line front end for the integrator catalog and benchmark harness.

Subcommands: ``list`` (catalogs), ``run`` (one integration, snapshots,
stats), ``bench`` (scheme/step-size sweeps with CSV/SVG/JSON output),
``order`` (convergence-order estimates), and ``selftest`` (numerical
kernel checks with a pass/fail table).

Exit codes: 0 success, 2 invalid manifest or arguments, 3 numerical
instability (the failing time is printed).  Output files land in the
directory given by ``--out``, else the ``PHISTEP_OUT`` environment
variable, else ``./phistep_out``.

Manifest files are JSON with optional full-line ``#`` comments; the
``bench`` subcommand writes a manifest echo alongside its results that
can be fed back through ``--manifest`` to reproduce the same sweep
(identical CSVs apart from the timing column).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from . import lane
from .bench import (
    estimate_order,
    export,
    _check_keys,
    _read_setting,
    plan_from_manifest,
    plan_to_manifest,
    read_records,
    rel_l2_error,
    run_sweep,
    save_field,
)
from .errors import NoDataError, PhistepError, UnstableError
from .integrator import (
    SimState,
    _ProbeSystem,
    _StepWork,
    empirical_order,
    integrate,
    prepare_scheme,
    start_multistep,
    step,
)
from .phifun import (KeyedDiagonal, const_term, eval_phi_expr, exp_term, gamma_tables, gamma_values,
                     phi)
from .problems import NLS_A, NLS_B, default_grid, discretize, get_problem, nls_breather, problem_names
from .spectral import Grid, to_coeffs, to_values
from .tableau import REGISTRY, get_scheme, list_schemes

ENV_OUT_VAR = "PHISTEP_OUT"

__all__ = ["main"]


class CliError(Exception):
    """A user-facing CLI failure carrying its exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _default_out() -> Path:
    return Path(os.environ.get(ENV_OUT_VAR, "phistep_out"))


def _load_manifest_file(path) -> dict:
    """JSON with optional full-line # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read manifest {path}: {exc}") from exc
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    try:
        manifest = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CliError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CliError(f"manifest {path} must hold a JSON object")
    return manifest


def _settings(args: argparse.Namespace, keys) -> dict:
    """The manifest's keys ({} without --manifest) with each flag that is
    set laid over its key: a flag's destination is its key's name."""
    settings = _load_manifest_file(args.manifest) if args.manifest else {}
    settings.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return settings


def _comma_list(text: str) -> List[str]:
    """A comma-separated flag's items, each read later as its key's kind."""
    return [token.strip() for token in text.split(",") if token.strip()]


# ---------------------------------------------------------------------------
# list


def cmd_list(args: argparse.Namespace) -> int:
    schemes = list_schemes()
    print(f"schemes ({len(schemes)}): name  family  order  stages  steps")
    for info in schemes:
        print(f"  {info.display}  {info.family}  {info.order}  {info.stages}  {info.steps}")
    names = problem_names()
    print(f"problems ({len(names)}): name  dims  stiff linear part")
    for key in names:
        problem = get_problem(key)
        print(f"  {key}  {problem.dims}D  {problem.label}")
    return 0


# ---------------------------------------------------------------------------
# run

# Problems with a closed-form solution valid at any time, for --compare-analytic.
_ANALYTIC = {
    "nls": lambda grid, t: nls_breather(NLS_A, NLS_B, t, grid.meshgrid()[0]),
}


# run's manifest keys and the kind of each; a flag's destination is its key
_RUN_KINDS = {
    "problem": "name", "scheme": "name", "h": "number", "T": "number", "size": "integer",
    "desk": "bool", "snapshots": "times",
    "compare_analytic": "bool", "reproduce_printed_delta0": "bool",
}


def _read_run(settings: dict) -> dict:
    """Every run key of settings read by _read_setting (None when absent);
    a key that is not a run key is refused by name."""
    _check_keys(settings, _RUN_KINDS)
    return {key: _read_setting(settings, key, kind) for key, kind in _RUN_KINDS.items()}


def cmd_run(args: argparse.Namespace) -> int:
    try:
        run = _read_run(_settings(args, _RUN_KINDS))
        if not run["problem"]:
            raise CliError("run needs a problem name (argument or manifest)")
        if run["h"] is None:
            raise CliError("run needs a step size: pass --h or a manifest with one")
        problem = get_problem(run["problem"])
        scheme = get_scheme(run["scheme"] or "etdrk4").name
        h, size = run["h"], run["size"]
        # Single runs default to the paper-scale registry values; --desk shrinks.
        desk = bool(run["desk"])
        T = run["T"] if run["T"] is not None else (problem.desk_T if desk else problem.T)
        snapshots = run["snapshots"] or []
        compare, delta0 = bool(run["compare_analytic"]), bool(run["reproduce_printed_delta0"])
        if compare and problem.name not in _ANALYTIC:
            raise CliError(
                f"--compare-analytic has no closed-form solution registered for "
                f"{problem.key}; available: {', '.join(sorted(_ANALYTIC))}"
            )
        grid = default_grid(problem, paper_scale=not desk, size=size)
        print(f"problem {problem.key} ({problem.dims}D), grid {'x'.join(map(str, grid.sizes))}, "
              f"T {T:g}, scheme {scheme}, h {h:g}")
        result = integrate(discretize(problem, grid), scheme, h, T,
                           snapshot_times=snapshots, delta0_state=delta0)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad run settings: {exc.args[0]}") from exc

    key = problem.key
    out = Path(args.out) if args.out else _default_out()
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{key}_{scheme}"
    final_path = save_field(
        out / f"{stem}_final.txt",
        to_values(result.u, grid),
        grid, T, problem=key,
    )
    written = [final_path]
    for snap in result.snapshots:
        written.append(save_field(
            out / f"{stem}_t{snap.time:.6g}.txt",
            to_values(snap.coeffs, grid),
            grid, snap.time, problem=key,
        ))
    echo = {
        "problem": key, "scheme": scheme, "h": result.h, "T": T,
        "size": grid.sizes[0], "desk": desk,
        "snapshots": snapshots, "compare_analytic": compare,
        "reproduce_printed_delta0": delta0,
    }
    echo_path = out / f"{stem}_run.json"
    echo_path.write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    written.append(echo_path)

    print(f"steps {result.steps} (h snapped to {result.h:.6g})")
    print(f"ffts {result.fft_count} stepping, {result.fft_total} total")
    print(f"stepping seconds {result.seconds:.6g}")
    if not result.starter_converged:
        print("warning: multistep starter did not converge", file=sys.stderr)
    if compare:
        exact = _ANALYTIC[problem.name](grid, T)
        numeric = to_values(result.u, grid)[0]
        print(f"error vs analytic solution {rel_l2_error(numeric, exact):.6e}")
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# bench


_BENCH_KEYS = ("problem", "schemes", "paper_scale", "size", "T", "ladder", "count", "jobs",
               "repetitions")

# a set flag also drops the manifest key that gives its setting another way
_BENCH_REPLACES = {"size": "grid", "ladder": "count", "count": "ladder"}


def cmd_bench(args: argparse.Namespace) -> int:
    settings = _settings(args, _BENCH_KEYS)
    if args.desk:
        if args.paper_scale:
            raise CliError("--desk and --paper-scale are mutually exclusive")
        settings["paper_scale"] = False
    for key, other in _BENCH_REPLACES.items():
        if getattr(args, key) is not None:
            settings.pop(other, None)
    bad = f"bad bench {'manifest' if args.manifest else 'settings'}"
    try:
        plan = plan_from_manifest(settings)
        jobs = _read_setting(settings, "jobs", "integer", naming="manifest key {!r}")
        reps = _read_setting(settings, "repetitions", "integer", 3, naming="manifest key {!r}")
    except (KeyError, ValueError) as exc:
        raise CliError(f"{bad}: {exc.args[0]}") from exc

    out = Path(args.out) if args.out else (plan.out_dir or _default_out())
    key = plan.problem.key
    try:
        records = run_sweep(plan, jobs=jobs, repetitions=reps)
    except ValueError as exc:
        raise CliError(f"{bad}: {exc}") from exc

    paths = export(
        records, out, basename=key, title=key,
        manifest=plan_to_manifest(plan, jobs=jobs, repetitions=reps),
    )
    print(f"sweep {key}: {len(plan.schemes)} schemes x {len(plan.ladder)} steps, T {plan.T:g}")
    for scheme in plan.schemes:
        recs = [r for r in records if r.scheme == scheme]
        stable = [r for r in recs if r.stable]
        line = f"  {scheme}: {len(stable)}/{len(recs)} stable"
        if stable:
            line += f", best error {min(r.error for r in stable):.3e}"
        try:
            line += f", order ~ {estimate_order(recs):.2f}"
        except (NoDataError, ValueError):
            line += ", order n/a"
        print(line)
    for kind in ("csv", "svg", "manifest"):
        print(f"wrote {paths[kind]}")
    return 0


# ---------------------------------------------------------------------------
# order


def _certify_order(info) -> tuple:
    """A scheme's order measured on the scalar probe, and whether it is
    within 0.3 of the declared order (0.4 from order 6 on)."""
    measured = empirical_order(info.name)
    return measured, abs(measured - info.order) <= (0.4 if info.order >= 6 else 0.3)


def cmd_order(args: argparse.Namespace) -> int:
    if args.csv:
        try:
            records = read_records(args.csv)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        by_scheme: dict = {}
        for record in records:
            by_scheme.setdefault(record.scheme, []).append(record)
        print("scheme  estimated order")
        for scheme, recs in by_scheme.items():
            try:
                print(f"  {scheme}  {estimate_order(recs):.2f}")
            except NoDataError as exc:
                print(f"  {scheme}  n/a ({exc})")
        return 0
    try:
        names = (sorted(REGISTRY) if args.schemes is None
                 else [get_scheme(s).name for s in args.schemes])
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    if not names:
        raise CliError("--schemes names no scheme")
    print("scheme  declared  measured  verdict")
    all_ok = True
    for name in names:
        info = get_scheme(name)
        measured, ok = _certify_order(info)
        all_ok &= ok
        print(f"  {name}  {info.order}  {measured:.2f}  {'ok' if ok else 'OFF'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# selftest


def _selftest_mixed_diagonal() -> np.ndarray:
    return np.concatenate([
        -np.logspace(-4, 4, 17), 1j * np.logspace(-3, 3, 7), [0.0, -2.0 + 0.5j, 3.0 - 40j],
    ])


def _selftest_gamma_table() -> tuple:
    lam = _selftest_mixed_diagonal()
    q, k = 6, 5
    table = gamma_values(range(q), k, lam)
    same = sum(table[l].tobytes() == gamma_values(l, k, lam).tobytes() for l in range(q))
    return same == q, f"{same}/{q} rows of gamma_l({k}, .) bit for bit on a mixed diagonal"


def _selftest_gamma_tables() -> tuple:
    lam, q = _selftest_mixed_diagonal(), 6
    tables = gamma_tables(q, range(1, q), KeyedDiagonal(lam))
    same = sum(table.tobytes() == gamma_values(range(q), k, lam).tobytes()
               for k, table in enumerate(tables, start=1))
    return same == q - 1, (f"{same}/{q - 1} tables gamma_0..gamma_{q - 1}(k, .) of one pass "
                           "bit for bit against each k alone")


def _selftest_keyed_distinct() -> tuple:
    k = np.fft.fftfreq(12, 1 / 12)
    lam = -0.05 * (k[:, None] ** 2 + k[None, :7] ** 2)  # repeats, -0.0 at the origin
    lam[5, 6] = 0.0
    expr = (phi(1) - 3 * phi(2) + 4 * phi(3, 1, Fraction(1, 2))
            + exp_term(1, Fraction(1, 2)) + const_term(Fraction(1, 6)))
    got = eval_phi_expr(expr, KeyedDiagonal(lam)).ravel()
    same = sum(got[i].tobytes() == eval_phi_expr(expr, [z]).tobytes()
               for i, z in enumerate(lam.ravel()))
    return same == lam.size, (f"{same}/{lam.size} entries of a keyed real diagonal "
                              "(repeats, ±0.0) bit for bit against each entry alone")


def _selftest_reductions() -> tuple:
    F = Fraction
    checks = []
    ab4 = get_scheme("abnorsett4").tableau()
    got = [ab4.B[0].at_zero()] + [v.at_zero() for v in ab4.V]
    checks.append(got == [F(55, 24), F(-59, 24), F(37, 24), F(-9, 24)])
    rk4 = get_scheme("etdrk4").tableau()
    checks.append([b.at_zero() for b in rk4.B] == [F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
    consistent = 0
    for info in list_schemes():
        t = info.tableau()
        total = sum((e.at_zero() for e in (*t.B, *t.V)), F(0))
        checks.append(total == 1)
        consistent += 1
    return all(checks), f"AB4 + RK4 literals, {consistent} tableaux consistent at z=0"


def _selftest_linear() -> tuple:
    rng = np.random.default_rng(2024)
    n = 24
    lam = -(10.0 ** rng.uniform(-2, 3, n)) + 1j * rng.uniform(-1e3, 1e3, n)
    lam[:4] = [-1e3, -1.0, 1e3j, -1e-2 + 10j]
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    system = _ProbeSystem(lam=lam, u0=u0, func=np.zeros_like, name="selftest-linear")
    T, steps = 1.0, 100
    exact = np.exp(T * lam) * u0
    scale = float(np.linalg.norm(exact))
    worst, worst_name = 0.0, ""
    for info in list_schemes():
        result = integrate(system, info.name, T / steps, T)
        err = float(np.linalg.norm(result.u - exact)) / scale
        if err > worst:
            worst, worst_name = err, info.name
    return worst <= 1e-12, f"worst rel {worst:.2e} ({worst_name}) over {steps} steps"


def _selftest_real_layout() -> tuple:
    rng = np.random.default_rng(2025)
    worst = 0.0
    for sizes in ((16,), (8, 12), (6, 8, 10)):
        grid = Grid(sizes, ((0.0, 1.0),) * len(sizes))
        u = rng.standard_normal((2, *sizes))
        half = to_coeffs(u, grid, real=True)
        full = to_coeffs(u, grid)
        worst = max(
            worst,
            float(np.max(np.abs(half - full[..., : sizes[-1] // 2 + 1]))),
            float(np.max(np.abs(to_values(half, grid) - u))),
            float(np.max(np.abs(to_values(half, grid) - to_values(full, grid, real=True)))),
        )
    return worst <= 1e-13, f"max abs {worst:.2e} in 1D, 2D and 3D"


def _selftest_numpy_transforms() -> tuple:
    # to_coeffs/to_values call numpy's private pocketfft kernels directly;
    # a numpy whose kernels changed shows here.  The 32 x 32 x 64 grid
    # has lane.MIN_SPLIT_ENTRIES coefficient entries or more, so its
    # transforms run in halves, as production 3D runs do
    rng = np.random.default_rng(2026)
    same = total = halves = 0
    for sizes in ((16,), (8, 12), (6, 8, 10), (32, 32, 64)):
        grid = Grid(sizes, ((0.0, 1.0),) * len(sizes))
        axes = tuple(range(-len(sizes), 0))
        for real in (True, False):
            u = rng.standard_normal((2, *sizes))
            if not real:
                u = u + 1j * rng.standard_normal(u.shape)
            forward, inverse = (np.fft.rfftn, np.fft.irfftn) if real else (np.fft.fftn, np.fft.ifftn)
            want = forward(u, axes=axes, norm="forward")
            back = inverse(want, *((sizes,) if real else ()), axes=axes, norm="forward")
            coeffs = to_coeffs(u, grid, real=real)
            got = (coeffs, to_coeffs(u, grid, real=real, out=np.empty_like(want)),
                   to_values(coeffs, grid),
                   to_values(coeffs, grid, out=np.empty_like(back), work=np.empty_like(coeffs)))
            total += len(got)
            same += sum(a.tobytes() == b.tobytes() for a, b in zip(got, (want, want, back, back)))
            if len(sizes) == 3 and lane.halves(coeffs.shape, -3) is not None:
                halves += len(got)
    return same == total and halves > 0, (
        f"bit for bit: {same}/{total} in 1D, 2D and 3D ({halves} in halves), "
        "half and full layouts")


def _selftest_cast_free() -> tuple:
    # a workspace runs small float64 rows as complex128 copies, which is
    # exact only if numpy's float64 x complex128 product is its cast
    # followed by the complex loop; a numpy whose loops differ shows here
    rng = np.random.default_rng(2027)
    same = 0
    sizes = (1, 257, 8192)
    for n in sizes:
        c = rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        copy, out, cast_out = c.astype(complex), np.empty_like(v), np.empty_like(v)
        np.multiply(copy, v, out)
        np.multiply(c, v, cast_out)
        same += (np.multiply(copy, v).tobytes() == np.multiply(c, v).tobytes()
                 == out.tobytes() == cast_out.tobytes())
    return same == len(sizes), (f"match numpy's cast bit for bit: {same}/{len(sizes)} "
                                "at 1, 257 and 8192 entries")


def _selftest_buffered_step() -> tuple:
    problem = get_problem("sh2")
    system = discretize(problem, default_grid(problem, size=16))
    # the same system seen through nonlinear alone: the workspace then
    # evaluates through its copying adapter instead of the system's evaluator
    copying = SimpleNamespace(lam=system.lam, u0=system.u0, nonlinear=system.nonlinear)
    h = 0.05
    u0 = np.array(system.u0, dtype=complex)
    same = total = 0
    for name in ("etdrk4", "abnorsett4"):
        engine = prepare_scheme(name, h, system.lam)
        if engine.steps > 1:
            start = start_multistep(engine.steps, h, system, u0).state
        else:
            start = SimState(coeffs=u0, time=0.0, step=0)
        work = _StepWork(engine, u0.shape, system)
        copy_work = _StepWork(engine, u0.shape, copying)
        fresh = buffered = adapted = start
        for _ in range(10):
            fresh = step(fresh, engine, system)
            buffered = step(buffered, engine, system, work=work)
            adapted = step(adapted, engine, copying, work=copy_work)
            total += 1
            want = fresh.coeffs.tobytes()
            same += buffered.coeffs.tobytes() == want == adapted.coeffs.tobytes()
    return same == total, (f"{same}/{total} etdrk4 and abnorsett4 steps bit for bit on "
                           "sh2 16x16, through the system's evaluator binding and the copying "
                           "adapter")


def _selftest_orders() -> tuple:
    worst, worst_name, ok = 0.0, "", True
    for info in list_schemes():
        measured, passed = _certify_order(info)
        ok &= passed
        gap = abs(measured - info.order)
        if gap > worst:
            worst, worst_name = gap, info.name
    return ok, f"worst |measured - declared| {worst:.2f} ({worst_name})"


def cmd_selftest(args: argparse.Namespace) -> int:
    stages = [
        ("γ tables (batched vs per-row)", _selftest_gamma_table),
        ("γ tables over every k in one pass", _selftest_gamma_tables),
        ("φ on distinct entries (vs alone)", _selftest_keyed_distinct),
        ("classical reductions at z=0", _selftest_reductions),
        ("linear exactness (N == 0)", _selftest_linear),
        ("real fields on the half spectrum", _selftest_real_layout),
        ("transforms match numpy.fft", _selftest_numpy_transforms),
        ("cast-free products (vs numpy cast)", _selftest_cast_free),
        ("buffered step (workspace vs fresh)", _selftest_buffered_step),
        ("order certification (scalar probe)", _selftest_orders),
    ]
    all_ok = True
    width = max(len(name) for name, _ in stages)
    for name, stage in stages:
        passed, detail = stage()
        all_ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    print(f"selftest: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phistep",
        description="Exponential integrators for periodic semilinear stiff "
                    "PDEs, with a benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the scheme and problem catalogs")
    p_list.set_defaults(func=cmd_list)

    # Each setting's destination is its manifest key; a flag left out is
    # None (store_true flags too), so the manifest key or the default holds.
    p_run = sub.add_parser("run", help="integrate one problem and dump fields")
    p_run.add_argument("problem", nargs="?", help="problem registry name (e.g. ks)")
    p_run.add_argument("--scheme", help="scheme registry name (default etdrk4)")
    p_run.add_argument("--h", type=float, help="time step")
    p_run.add_argument("--T", type=float, help="horizon (default: registry)")
    p_run.add_argument("--size", type=int, help="grid points per axis")
    p_run.add_argument("--desk", action="store_true", default=None,
                       help="use the reduced desk-scale grid and horizon")
    p_run.add_argument("--snapshots", help="comma-separated times to dump")
    p_run.add_argument("--compare-analytic", action="store_true", default=None,
                       help="print the error against a closed-form solution")
    p_run.add_argument("--reproduce-printed-delta0", action="store_true", default=None,
                       help="feed the starter's printed form of the first "
                            "finite-difference column")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--manifest", help="JSON manifest (# comments allowed)")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="sweep schemes over step sizes")
    p_bench.add_argument("problem", nargs="?", help="problem registry name")
    p_bench.add_argument("--schemes", type=_comma_list, help="comma-separated scheme names")
    p_bench.add_argument("--desk", action="store_true",
                         help="desk-scale grid and horizon (the default); "
                              "overrides a manifest's paper_scale")
    p_bench.add_argument("--paper-scale", action="store_true", default=None,
                         help="full-resolution grids and horizons")
    p_bench.add_argument("--ladder", type=_comma_list,
                         help="comma-separated step sizes, descending")
    p_bench.add_argument("--count", type=int,
                         help="rungs in the default ladder T/2^4 .. T/2^(3+count) (default 7)")
    p_bench.add_argument("--T", type=float, help="horizon override")
    p_bench.add_argument("--size", type=int, help="grid points per axis")
    p_bench.add_argument("--jobs", type=int, help="max parallel workers")
    p_bench.add_argument("--reps", dest="repetitions", type=int,
                         help="best of REPS exclusive stepping runs per stable point; "
                              "under --jobs 1 the error run is the first (default 3)")
    p_bench.add_argument("--out", help="output directory")
    p_bench.add_argument("--manifest", help="rerun from a manifest echo")
    p_bench.set_defaults(func=cmd_bench)

    p_order = sub.add_parser("order", help="estimate convergence orders")
    p_order.add_argument("--schemes", type=_comma_list, help="comma-separated scheme names (default all)")
    p_order.add_argument("--csv", help="estimate from an exported sweep CSV instead")
    p_order.set_defaults(func=cmd_order)

    p_self = sub.add_parser("selftest", help="run numerical kernel checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except UnstableError as exc:
        when = "unknown time" if exc.time is None else f"t={exc.time:.6g}"
        print(f"unstable at {when}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
