"""Acceptance suite: one test per shipped guarantee.

Each test measures the figure of merit, prints a single
``ACCEPTANCE <name>: PASS|FAIL - <measured vs pinned bound>`` line
(visible with ``pytest -s`` and in any failure report), and then asserts.
Every tolerance and runtime cap here is frozen: loosening one is a
behavior change, not a test fix.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from phistep import (
    default_grid,
    discretize,
    empirical_order,
    get_problem,
    get_scheme,
    integrate,
    kdv_phase_shifts,
    list_schemes,
    make_plan,
    nls_breather,
    phi_values,
    rel_l2_error,
    run_sweep,
    to_values,
)
from phistep.bench import clear_reference_cache
from phistep.problems import KDV_A, KDV_B, NLS_A, NLS_B

from _oracles import classical_ab_weights, classical_am_weights, phi_reference, rel_err


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. phi-kernel accuracy: phi_values vs high-precision series


def test_phi_kernel_contour_accuracy():
    t0 = time.perf_counter()
    reals = (-np.logspace(-6.0, 6.0, 25)).astype(complex)
    imag = 1j * np.logspace(-4.0, 4.0, 13)
    lam = np.concatenate([reals, imag, -imag])
    worst, worst_at = -1.0, ""
    for index in range(10):
        got = np.asarray(phi_values(index, lam))
        for z, g in zip(lam, got):
            want = phi_reference(index, complex(z))
            if float(abs(want)) < 1e-300:
                # The true value (e.g. e^z for z = -1e3) underflows IEEE
                # double; the correctly rounded answer in the working
                # precision is zero, so demand that instead of a relative
                # error no double can attain.
                err = 0.0 if abs(complex(g)) < 1e-300 else 1.0
            else:
                err = rel_err(complex(g), want)
            if err > worst:
                worst, worst_at = err, f"l={index}, lam={complex(z):.3g}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(
        "phi kernel (phi_values vs series oracle, l<=9)",
        ok,
        f"max rel err {worst:.3e} at {worst_at} (bound 1e-12), "
        f"{elapsed:.1f}s (cap 10s)",
    )


# ---------------------------------------------------------------------------
# 2. classical reduction: every shipped tableau at z=0, exact rationals


def test_classical_reductions_at_z_zero():
    t0 = time.perf_counter()
    failures: list[str] = []

    def at0(exprs) -> list:
        vals = [e.at_zero() for e in exprs]
        for v in vals:
            if not isinstance(v, (F, int)):
                failures.append(f"non-rational coefficient {v!r}")
        return vals

    am = {p: list(classical_am_weights(p)) for p in (4, 5, 6, 7)}
    expect: dict[str, list] = {
        "etdeuler": [F(1)],
        "etdrk2": [F(1, 2), F(1, 2)],
        "etdrk4": [F(1, 6), F(1, 3), F(1, 3), F(1, 6)],
        "lawson4": [F(1, 6), F(1, 3), F(1, 3), F(1, 6)],
        "ablawson4": list(classical_ab_weights(4)),
        "abnorsett4": list(classical_ab_weights(4)),
        "abnorsett5": list(classical_ab_weights(5)),
        "abnorsett6": list(classical_ab_weights(6)),
    }
    for p, name in ((4, "pec423"), (5, "pec524"), (6, "pec625"), (7, "pec726")):
        w = am[p]
        expect[name] = [w[1], w[0], *w[2:]]
    for p, name in ((4, "pecec433"), (5, "pecec534"), (6, "pecec635"), (7, "pecec736")):
        w = am[p]
        expect[name] = [w[1], F(0), w[0], *w[2:]]

    checked = 0
    for info in list_schemes():
        if info.engine != "tableau":
            continue
        t = info.tableau()
        got = at0((*t.B, *t.V))
        if got != expect[info.name]:
            failures.append(f"{info.name}: {got} != {expect[info.name]}")
        checked += 1
    if checked != 16:
        failures.append(f"expected 16 tableau schemes, saw {checked}")

    # pinned named values
    ab4 = get_scheme("abnorsett4").tableau()
    if at0((ab4.B[0], *ab4.V)) != [F(55, 24), F(-59, 24), F(37, 24), F(-9, 24)]:
        failures.append("AB4 weights at z=0 are not 55/24, -59/24, 37/24, -9/24")
    for name in ("etdrk4", "lawson4"):
        t = get_scheme(name).tableau()
        if at0(t.B) != [F(1, 6), F(1, 3), F(1, 3), F(1, 6)]:
            failures.append(f"{name} weights at z=0 are not 1/6, 1/3, 1/3, 1/6")
        stage = (t.A[1][0].at_zero(), t.A[2][1].at_zero(), t.A[3][2].at_zero())
        if stage != (F(1, 2), F(1, 2), F(1)):
            failures.append(f"{name} stage coefficients at z=0 are {stage}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(
        "classical reductions (all 16 tableaus at z=0, exact rationals)",
        ok,
        f"{checked} tableaus checked, "
        f"{'no mismatches' if not failures else '; '.join(failures)}, "
        f"{elapsed:.2f}s (cap 5s)",
    )


# ---------------------------------------------------------------------------
# 3. linear exactness: N == 0 reproduces exp(T L) u0 for every scheme


@dataclass(frozen=True)
class _LinearSystem:
    lam: np.ndarray
    u0: np.ndarray

    def nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        return np.zeros_like(coeffs)


def test_linear_exactness_all_schemes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 24
    radius = 10.0 ** rng.uniform(-2.0, 3.0, n)
    phase = rng.uniform(0.5 * math.pi, 1.5 * math.pi, n)
    lam = -radius * np.abs(np.cos(phase)) + 1j * radius * np.sin(phase)
    lam[:4] = [-1e3, -1e-2, 1e3j, -1e3j]
    assert np.all(lam.real <= 0.0) and np.all(np.abs(lam) <= 1e3 * (1 + 1e-12))
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    system = _LinearSystem(lam=lam, u0=u0)
    T, steps = 1.0, 100
    exact = np.exp(T * lam) * u0
    scale = float(np.linalg.norm(exact))
    worst, worst_name = -1.0, ""
    for info in list_schemes():
        result = integrate(system, info.name, T / steps, T)
        err = float(np.linalg.norm(result.u - exact)) / scale
        if err > worst:
            worst, worst_name = err, info.name
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        "linear exactness (N == 0, diagonal L, 100 steps, all 21 schemes)",
        ok,
        f"worst rel err {worst:.3e} ({worst_name}) (bound 1e-12), "
        f"{elapsed:.1f}s (cap 5s)",
    )


# ---------------------------------------------------------------------------
# 4. order certification on the scalar probe u' = -u + u^2


def test_order_certification_all_schemes():
    t0 = time.perf_counter()
    worst_gap, worst_name, ok = -1.0, "", True
    for info in list_schemes():
        measured = empirical_order(info.name)
        tol = 0.4 if info.order >= 6 else 0.3
        gap = abs(measured - info.order)
        if gap > tol:
            ok = False
        if gap > worst_gap:
            worst_gap, worst_name = gap, info.name
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "order certification (scalar probe, all 21 schemes, +/-0.3; +/-0.4 for order >= 6)",
        ok,
        f"worst |measured - declared| {worst_gap:.2f} ({worst_name}), "
        f"{elapsed:.1f}s (cap 60s)",
    )


# ---------------------------------------------------------------------------
# 5. NLS breather: fourth-order error decay against the closed form


def test_nls_breather_error_ratios():
    t0 = time.perf_counter()
    problem = get_problem("nls")
    grid = default_grid(problem, size=256)
    system = discretize(problem, grid)
    T = 2.0
    x = grid.meshgrid()[0]
    exact = nls_breather(NLS_A, NLS_B, T, x)
    errors = []
    for h in (4e-4, 2e-4, 1e-4):
        result = integrate(system, "etdrk4", h, T)
        numeric = to_values(result.u, grid, real=problem.real)[0]
        errors.append(rel_l2_error(numeric, exact))
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    elapsed = time.perf_counter() - t0
    ok = all(16.0 * 0.7 <= r <= 16.0 * 1.3 for r in ratios) and elapsed < 120.0
    _report(
        "NLS breather (ETDRK4, N=256, T=2, h in {4,2,1}e-4)",
        ok,
        f"errors {errors[0]:.3e}/{errors[1]:.3e}/{errors[2]:.3e}, "
        f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (bound 16 +/- 30%), "
        f"{elapsed:.1f}s (cap 120s)",
    )


# ---------------------------------------------------------------------------
# 6. KdV soliton collision: amplitudes and phase-shifted positions


def test_kdv_collision_amplitudes_and_phase_shifts():
    t0 = time.perf_counter()
    problem = get_problem("kdv")
    grid = default_grid(problem, size=512)
    system = discretize(problem, grid)
    T, h = 4e-3, 1e-6
    result = integrate(system, "etdrk4", h, T)
    values = to_values(result.u, grid, real=True)[0]
    x = grid.meshgrid()[0]
    dx = float(x[1] - x[0])

    def wrap(v: float) -> float:
        return (v + math.pi) % (2.0 * math.pi) - math.pi

    shift_fast, shift_slow = kdv_phase_shifts(KDV_A, KDV_B)
    pred_a = wrap(-2.0 + KDV_A**2 * T + shift_fast)
    pred_b = wrap(-1.0 + KDV_B**2 * T + shift_slow)

    i_a = int(np.argmax(values))
    nx = values.size
    best_b, i_b = -np.inf, -1
    for i in range(nx):
        left, right = values[(i - 1) % nx], values[(i + 1) % nx]
        if values[i] >= left and values[i] >= right and values[i] > best_b:
            if abs(wrap(float(x[i] - x[i_a]))) > 0.3:
                best_b, i_b = float(values[i]), i
    amp_a, amp_b = float(values[i_a]), float(values[i_b])
    amp_err_a = abs(amp_a - 3.0 * KDV_A**2) / (3.0 * KDV_A**2)
    amp_err_b = abs(amp_b - 3.0 * KDV_B**2) / (3.0 * KDV_B**2)
    pos_err_a = abs(wrap(float(x[i_a]) - pred_a))
    pos_err_b = abs(wrap(float(x[i_b]) - pred_b))
    elapsed = time.perf_counter() - t0
    ok = (
        amp_err_a <= 0.01
        and amp_err_b <= 0.01
        and pos_err_a <= dx
        and pos_err_b <= dx
        and elapsed < 300.0
    )
    _report(
        "KdV collision (ETDRK4, N=512, T=4e-3, h=1e-6)",
        ok,
        f"amp err {amp_err_a:.2%}/{amp_err_b:.2%} (bound 1%), "
        f"position err {pos_err_a / dx:.2f}dx/{pos_err_b / dx:.2f}dx (bound 1dx), "
        f"{elapsed:.1f}s (cap 300s)",
    )


# ---------------------------------------------------------------------------
# 7. KS stability gap: multistep schemes die at steps where ETDRK4 holds


def test_ks_stability_gap():
    t0 = time.perf_counter()
    clear_reference_cache()
    multistep = ("abnorsett4", "abnorsett5", "abnorsett6")
    plan = make_plan("ks", schemes=(*multistep, "etdrk4"))
    with np.errstate(all="ignore"):
        records = run_sweep(plan, jobs=1, repetitions=1)
    per: dict[str, list] = {}
    for r in records:
        per.setdefault(r.scheme, []).append(r)

    rk_stable_hs = [r.h for r in per["etdrk4"] if r.stable]
    failures: list[str] = []
    if not rk_stable_hs:
        failures.append("etdrk4 has no stable point")
    else:
        h_star = max(rk_stable_hs)
        if not math.isclose(h_star, max(plan.ladder), rel_tol=1e-12):
            failures.append(f"etdrk4 unstable at the coarsest rung h={max(plan.ladder):.4g}")
        for name in multistep:
            rec = next(r for r in per[name] if math.isclose(r.h, h_star, rel_tol=1e-12))
            if rec.stable:
                failures.append(f"{name} unexpectedly stable at h={h_star:.4g}")
            if not any(r.stable for r in per[name]):
                failures.append(f"{name} never stabilizes on the ladder")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    stable_counts = ", ".join(
        f"{name} {sum(r.stable for r in per.get(name, []))}/{len(plan.ladder)}"
        for name in (*multistep, "etdrk4")
    )
    _report(
        "KS stability gap (desk sweep: multistep unstable where ETDRK4 holds)",
        ok,
        f"stable points {stable_counts}"
        f"{'' if not failures else '; ' + '; '.join(failures)}, "
        f"{elapsed:.1f}s (cap 300s)",
    )


# ---------------------------------------------------------------------------
# 8. AC initial condition: spectral tail at the roundoff floor


def test_ac_initial_condition_spectral_tail():
    t0 = time.perf_counter()
    problem = get_problem("ac")
    grid = default_grid(problem, size=512)
    system = discretize(problem, grid)
    mag = np.abs(system.u0[0])
    n = mag.size
    k = np.fft.fftfreq(n, 1.0 / n)
    tail = np.abs(k) >= n // 3
    ratio = float(mag[tail].max() / mag.max())
    elapsed = time.perf_counter() - t0
    ok = ratio < 1e-14 and elapsed < 5.0
    _report(
        "AC initial condition (N=512 trailing coefficients at roundoff)",
        ok,
        f"max trailing/peak ratio {ratio:.3e} (bound 1e-14), "
        f"{elapsed:.2f}s (cap 5s)",
    )
