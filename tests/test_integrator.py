"""Step-engine tests: precomputation values against the high-precision
oracle, linear exactness, classical reductions, transform budgets,
instability detection, the multistep starter, and end-to-end runs
against closed-form solutions."""
import dataclasses
import functools
import math
import tracemalloc
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from phistep import integrator, lane, phifun, spectral
from phistep.errors import UnstableError
from phistep.integrator import (
    ScalarProbe,
    SimState,
    integrate,
    precompute,
    prepare_scheme,
    run_scalar_probe,
    start_multistep,
    step,
    _StepWork,
    empirical_order,
)
from phistep.phifun import KeyedDiagonal, PhiExpr, eval_phi_expr, eval_phi_exprs, exp_term, phi
from phistep.problems import (
    DiscreteSystem,
    default_grid,
    discretize,
    get_problem,
    kdv_soliton,
    nls_breather,
    problem_names,
)
from phistep.spectral import Grid, to_coeffs, to_values
from phistep.tableau import Tableau, complete_summation, etd_euler, get_scheme, list_schemes


@dataclasses.dataclass(frozen=True)
class DirectSystem:
    """ODE system given directly in coefficient space (no transforms)."""

    lam: np.ndarray
    u0: np.ndarray
    func: object
    name: str = "direct"

    def nonlinear(self, coeffs):
        return self.func(coeffs)


def zero_func(u):
    return np.zeros_like(u)


def square(u):
    return u * u


def probe_system(u0=0.5, lam=-1.0):
    return DirectSystem(
        lam=np.array([lam], dtype=complex),
        u0=np.array([u0], dtype=complex),
        func=square,
    )


def fresh_state(system):
    return SimState(
        coeffs=np.array(system.u0, dtype=complex),
        time=0.0,
        step=0,
        initial_norm=float(np.max(np.abs(system.u0))),
    )


# ---------------------------------------------------------------------------
# precompute


def _output_row(scheme):
    """The output row's propagator and its coefficients keyed by operand:
    0 is N(u^n) (the row sum), q + i - 2 the difference of stage i."""
    propagator, _, terms = scheme.rows[-1]
    return propagator, {operand: coeff for coeff, operand in terms}


def _row_arrays(scheme):
    """Every array of every row: the propagators and the coefficients."""
    return [arr for propagator, _, terms in scheme.rows
            for arr in (propagator, *(coeff for coeff, _ in terms))]


def test_precompute_etd_euler_at_zero():
    scheme = precompute(get_scheme("etdeuler").tableau(), 1.0, np.array([0.0]))
    propagator, terms = _output_row(scheme)
    np.testing.assert_allclose(propagator, [1.0], rtol=1e-14)
    # one stage: the output row sum is B_1 itself
    np.testing.assert_allclose(terms[0], [1.0], rtol=1e-13)


def test_precompute_etdrk4_rk4_reduction():
    tab = get_scheme("etdrk4").tableau()
    scheme = precompute(tab, 1.0, np.array([0.0]))
    # stepping never reads B_1, so precompute does not keep it; B_2..B_4
    # weigh the stage operands 1..3
    _, terms = _output_row(scheme)
    weights = [eval_phi_expr(tab.B[0], np.array([0.0]))] + [terms[i - 1] for i in range(2, 5)]
    for got, want in zip(weights, (1 / 6, 1 / 3, 1 / 3, 1 / 6)):
        np.testing.assert_allclose(got, [want], rtol=1e-12)


def test_precompute_etdrk4_stiff_value_vs_oracle():
    # B1 = phi1 - 3 phi2 + 4 phi3 evaluated at z = h*lam = -4
    tab = get_scheme("etdrk4").tableau()
    got = eval_phi_expr(tab.B[0], 0.1 * np.array([-40.0]))
    want = (
        _oracles.phi_reference(1, -4.0)
        - 3 * _oracles.phi_reference(2, -4.0)
        + 4 * _oracles.phi_reference(3, -4.0)
    )
    assert _oracles.rel_err(complex(got[0]), want) < 1e-12


def test_precompute_realness():
    tab = get_scheme("etdrk4").tableau()
    propagator, terms = _output_row(precompute(tab, 0.5, np.array([-1.0, -2.0])))
    assert not np.iscomplexobj(terms[1])  # B_2
    assert not np.iscomplexobj(terms[0])  # the row sum
    assert not np.iscomplexobj(propagator)
    _, terms = _output_row(precompute(tab, 0.5, np.array([1j])))
    assert np.iscomplexobj(terms[1])
    assert np.iscomplexobj(terms[0])


def test_precompute_keeps_complex_weights_on_a_real_diagonal():
    # a complex weight makes the coefficient complex even where h*lam is real
    tab = dataclasses.replace(etd_euler(), B=(phi(1, 1 + 2j),))
    h, lam = 0.5, np.array([-1.0, -2.0])
    _, terms = _output_row(precompute(tab, h, lam))
    want = eval_phi_expr(phi(1, 1 + 2j), h * lam)
    assert np.iscomplexobj(terms[0])
    assert np.max(np.abs(terms[0] - want) / np.abs(want)) <= 1e-13
    assert np.all(want.imag != 0.0)


def test_precompute_does_not_evaluate_b1():
    scheme = precompute(get_scheme("etdrk4").tableau(), 0.5, np.array([-1.0]))
    # the output row has no term on stage 1's difference: its row sum on
    # N(u^n), then B_2..B_4 on the differences of stages 2..4
    assert [operand for _, operand in scheme.rows[-1][2]] == [0, 1, 2, 3]


def test_precompute_validation():
    tab = get_scheme("etdrk4").tableau()
    with pytest.raises(ValueError):
        precompute(tab, 0.0, np.array([0.0]))
    incomplete = dataclasses.replace(
        tab, B=(None,) + tab.B[1:], satisfies_summation=True
    )
    with pytest.raises(ValueError, match="complete"):
        precompute(incomplete, 0.1, np.array([0.0]))


def test_precompute_deterministic():
    lam = np.linspace(-50.0, 0.0, 11)
    a = precompute(get_scheme("etdrk4").tableau(), 0.2, lam)
    b = precompute(get_scheme("etdrk4").tableau(), 0.2, lam)
    assert [(src, [op for _, op in terms]) for _, src, terms in a.rows] == \
        [(src, [op for _, op in terms]) for _, src, terms in b.rows]
    for x, y in zip(_row_arrays(a), _row_arrays(b), strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["genlawson43", "pecec736", "etdrk4"])
def test_tableau_is_lowered_once(monkeypatch, name):
    # the symbolic lowering is kept on the tableau object: a second
    # prepare_scheme at a new h builds no PhiExpr, and its rows are, bit
    # for bit, those of a fresh lowering of a dataclasses.replace copy
    nls = get_problem("nls")
    lam = discretize(nls, default_grid(nls)).lam
    tab = get_scheme(name).tableau()
    prepare_scheme(name, 0.05, lam)
    built = []
    init = PhiExpr.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhiExpr, "__init__", counted)
    h = 0.0123
    again = prepare_scheme(name, h, lam)
    assert not built
    copy = dataclasses.replace(tab)
    assert copy._lowered is None
    phifun.clear_eval_cache()
    fresh = precompute(copy, h, lam)
    assert built  # the copy lowered itself afresh
    assert copy._lowered is not tab._lowered
    assert [(src, [op for _, op in terms]) for _, src, terms in again.rows] == \
        [(src, [op for _, op in terms]) for _, src, terms in fresh.rows]
    for x, y in zip(_row_arrays(again), _row_arrays(fresh), strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_precompute_array_shape():
    lam = np.zeros((2, 4, 4))
    scheme = precompute(get_scheme("etdrk2").tableau(), 0.1, lam)
    propagator, terms = _output_row(scheme)
    assert propagator.shape == (2, 4, 4)
    assert terms[0].shape == (2, 4, 4)  # the row sum
    assert terms[1].shape == (2, 4, 4)  # B_2


@pytest.mark.parametrize("name", problem_names())
def test_coefficient_arrays_are_real_exactly_on_real_diagonals(name):
    # the phi layer alone decides the dtype: float64 where h*lam is real
    # (gl has a real diagonal on a complex field), complex128 elsewhere
    problem = get_problem(name)
    system = discretize(problem, default_grid(problem))
    h = problem.desk_T / 100
    real = not np.any(np.imag(h * system.lam))
    assert real == (name not in ("kdv", "nls"))
    for scheme in ("etdrk4", "abnorsett4", "genlawson43", "pecec736", "lawson4"):
        for arr in _row_arrays(prepare_scheme(scheme, h, system.lam)):
            assert arr.dtype == (np.float64 if real else np.complex128), (name, scheme)


# ---------------------------------------------------------------------------
# single steps


@pytest.mark.parametrize("name", [
    "etdeuler", "etdrk2", "etdrk4", "lawson4", "abnorsett4", "ablawson4",
    "pec423", "pecec433",
])
def test_zero_nonlinearity_steps_exactly(name):
    info = get_scheme(name)
    rng = np.random.default_rng(3)
    lam = -np.abs(rng.standard_normal(8)) * 10
    u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    system = DirectSystem(lam=lam.astype(complex), u0=u0, func=zero_func)
    scheme = prepare_scheme(info, 0.125, system.lam)
    zero = np.zeros(8, dtype=complex)
    state = SimState(
        coeffs=u0.copy(), time=0.0, step=0,
        nonlinear=(zero,) * info.steps if info.steps > 1 else (),
        initial_norm=float(np.max(np.abs(u0))),
    )
    out = step(state, scheme, system)
    np.testing.assert_array_equal(out.coeffs, np.exp(0.125 * system.lam) * u0)
    assert out.step == 1
    assert out.time == 0.125


def test_scalar_linear_growth():
    # u' = u solved exactly by any exponential scheme
    system = DirectSystem(
        lam=np.array([1.0 + 0j]), u0=np.array([1.0 + 0j]), func=zero_func
    )
    scheme = prepare_scheme("etdrk4", 0.3, system.lam)
    out = step(fresh_state(system), scheme, system)
    assert complex(out.coeffs[0]) == pytest.approx(math.exp(0.3), rel=1e-14)


def test_probe_hundred_steps_vs_analytic():
    system = probe_system()
    result = integrate(system, "etdrk4", 0.01, 1.0)
    want = _oracles.logistic_probe_solution(1.0)
    assert result.steps == 100
    assert abs(complex(result.u[0]) - want) <= 1e-9


def test_step_requires_history():
    # a multistep state needs q nonlinear values, N(u^n) and q - 1 past ones
    system = probe_system()
    scheme = prepare_scheme("abnorsett4", 0.01, system.lam)
    with pytest.raises(ValueError, match="past nonlinear values"):
        step(fresh_state(system), scheme, system)
    short = dataclasses.replace(fresh_state(system), nonlinear=(square(system.u0),) * 3)
    with pytest.raises(ValueError, match="abnorsett4 needs 4 nonlinear values"):
        step(short, scheme, system)


def test_instability_raises_on_amplification():
    # u' = 5u grows e^50 > 1e10 within 10 unit steps
    system = DirectSystem(
        lam=np.array([5.0 + 0j]), u0=np.array([1.0 + 0j]), func=zero_func
    )
    with pytest.raises(UnstableError) as err:
        integrate(system, "etdrk4", 1.0, 10.0)
    assert err.value.time is not None
    assert err.value.time <= 10.0


def test_instability_raises_on_nan():
    def bad(u):
        return np.full_like(u, np.nan)

    system = DirectSystem(lam=np.array([0j]), u0=np.array([1.0 + 0j]), func=bad)
    with pytest.raises(UnstableError):
        integrate(system, "etdrk4", 0.1, 1.0)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_starter_names_the_first_iterate_that_turns_non_finite(q):
    # N is finite through the q - 1 ETDRK2 steps (two evaluations each)
    # and NaN from the fixed-point map on, so its first iterate u^1
    # fails: the error names step 1 at t = h, not the last starting value
    calls = []

    def turns_nan(u):
        calls.append(1)
        return u * u if len(calls) <= 2 * (q - 1) else np.full_like(u, np.nan)

    h = 0.05
    system = DirectSystem(lam=np.array([-1.0 + 0j]), u0=np.array([0.5 + 0j]), func=turns_nan)
    with pytest.raises(UnstableError, match=r"non-finite field after step 1 \(t = 0\.05\)") as err:
        start_multistep(q, h, system, np.array(system.u0))
    assert (err.value.step, err.value.time) == (1, h)


def test_etdrk4_stage_source_matches_strict_form():
    # replacing the stage-4 override with its algebraically equal strict
    # row must not change the trajectory beyond roundoff
    tab = get_scheme("etdrk4").tableau()
    strict = dataclasses.replace(tab, stage_source={}, stage_source_coeffs={})
    system = probe_system()
    r_override = integrate(system, tab, 0.02, 1.0)
    r_strict = integrate(system, strict, 0.02, 1.0)
    assert abs(complex(r_override.u[0]) - complex(r_strict.u[0])) < 1e-13


# ---------------------------------------------------------------------------
# transform budget


@pytest.mark.parametrize("name, evals", [
    ("etdeuler", 1), ("etdrk2", 2), ("etdrk4", 4), ("lawson4", 4),
    ("abnorsett4", 1), ("abnorsett6", 1), ("ablawson4", 1),
    ("pec423", 2), ("pec625", 2), ("pecec433", 3), ("pecec736", 3),
    ("genlawson41", 4), ("genlawson43", 4),
])
def test_fft_budget_two_s_per_step(name, evals):
    info = get_scheme(name)
    problem = get_problem("ks")
    system = discretize(problem, default_grid(problem))  # N = 64
    nsteps = 12
    result = integrate(system, info, 10.0 / nsteps, 10.0)
    stepping_steps = nsteps - (info.tableau().steps - 1)
    assert result.fft_count == 2 * evals * stepping_steps
    assert evals == info.stages


# ---------------------------------------------------------------------------
# generalized Lawson


def _brute_gen_lawson_step(lam, h, u, nl_values, func):
    """Independent single-step reference: interpolate the nonlinear
    history with numpy polynomials, obtain the particular solution by
    dense Simpson quadrature, and run textbook RK4 on the transformed
    variable."""
    points = len(nl_values)
    nodes = np.array([-float(m) for m in range(points)])
    coeff = np.polyfit(nodes, np.array(nl_values), points - 1)

    def p(theta):
        return np.polyval(coeff, theta)

    def w(alpha):
        m = 2000
        s = np.linspace(0.0, alpha * h, 2 * m + 1)
        integrand = np.exp((alpha * h - s) * lam) * p(s / h)
        weights = np.ones(2 * m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return (alpha * h / (2 * m)) / 3.0 * np.sum(weights * integrand)

    def g(theta, v):
        t = theta * h
        return np.exp(-lam * t) * (func(np.exp(lam * t) * v + w(theta)) - p(theta))

    k1 = g(0.0, u)
    k2 = g(0.5, u + 0.5 * h * k1)
    k3 = g(0.5, u + 0.5 * h * k2)
    k4 = g(1.0, u + h * k3)
    v1 = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.exp(lam * h) * v1 + w(1.0)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_gen_lawson_step_matches_brute_force_transform(q):
    # the GenLawson4q tableau's step vs an independently coded RK4 on the
    # transformed equation with quadrature-evaluated particular solution
    lam = -0.7
    h = 0.1
    logistic = _oracles.logistic_probe_solution
    states = [logistic(-j * h) for j in range(q + 1)]  # u^n, u^{n-1}, ...
    nl_values = [s * s for s in states]
    system = DirectSystem(
        lam=np.array([lam + 0j]), u0=np.array([states[0] + 0j]), func=square
    )
    scheme = prepare_scheme(f"genlawson4{q}", h, system.lam)
    state = SimState(
        coeffs=np.array([states[0] + 0j]), time=0.0, step=q,
        nonlinear=tuple(np.array([v + 0j]) for v in nl_values),
        initial_norm=abs(states[0]),
    )
    out = step(state, scheme, system)
    want = _brute_gen_lawson_step(lam, h, states[0], nl_values, lambda u: u * u)
    assert abs(complex(out.coeffs[0]) - want) <= 1e-12 * abs(want)


def test_gen_lawson_fixed_point_preserved_but_not_by_lawson4():
    # u = 1 is a fixed point of u' = -u + u^2; the interpolant includes
    # the current nonlinear value, so the transformed stages vanish there
    system = DirectSystem(
        lam=np.array([-1.0 + 0j]), u0=np.array([1.0 + 0j]), func=square
    )
    gen = integrate(system, "genlawson41", 0.1, 10.0)
    law = integrate(system, "lawson4", 0.1, 10.0)
    assert abs(complex(gen.u[0]) - 1.0) <= 1e-12
    assert abs(complex(law.u[0]) - 1.0) > 1e-8


def test_equilibrium_kept_by_schemes_with_summation_property():
    # u = 1 is a fixed point of u' = -u + u^2.  Stepped in difference form,
    # every scheme with the summation property stays on it to rounding;
    # the integrating-factor schemes without it drift off.
    probe = ScalarProbe(u0=1.0, T=10.0, exact=lambda t: 1.0)
    for info in list_schemes():
        err = run_scalar_probe(info.name, probe, h=0.1)
        if info.tableau().satisfies_summation:
            assert err <= 1e-12, (info.name, err)
        else:
            assert info.name in ("lawson4", "ablawson4")
            assert err > 1e-8, (info.name, err)


def test_gen_lawson_linear_exactness():
    rng = np.random.default_rng(5)
    lam = (-np.abs(rng.standard_normal(6)) * 20).astype(complex)
    u0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    system = DirectSystem(lam=lam, u0=u0, func=zero_func)
    result = integrate(system, "genlawson43", 0.05, 1.0)
    want = np.exp(1.0 * lam) * u0
    np.testing.assert_allclose(result.u, want, rtol=1e-12)


@pytest.mark.parametrize("name, declared", [
    ("genlawson41", 4), ("genlawson42", 4), ("genlawson43", 4),
    ("genlawson44", 5), ("genlawson45", 6),
])
def test_gen_lawson_probe_orders(name, declared):
    got = empirical_order(name)
    tol = 0.4 if declared >= 6 else 0.3
    assert abs(got - declared) <= tol, (name, got)


# ---------------------------------------------------------------------------
# starting procedure


def test_starter_zero_nonlinearity_exact():
    lam = np.array([-2.0 + 0j, -5.0 + 0j])
    u0 = np.array([1.0 + 0j, 2.0 + 0j])
    system = DirectSystem(lam=lam, u0=u0, func=zero_func)
    res = start_multistep(2, 0.1, system, u0)
    np.testing.assert_allclose(res.states[1], np.exp(0.1 * lam) * u0, rtol=1e-14)
    assert res.converged


def test_starter_probe_accuracy_order_four():
    system = probe_system()
    h = 1e-3
    res = start_multistep(4, h, system, system.u0)
    assert res.converged
    for j in range(4):
        want = _oracles.logistic_probe_solution(j * h)
        assert abs(complex(res.states[j][0]) - want) <= h ** 4


def test_starter_stops_quickly_at_modest_h():
    system = probe_system()
    res = start_multistep(4, 0.1, system, system.u0)
    assert res.converged
    assert res.iterations <= 10


def test_starter_history_layout():
    system = probe_system()
    res = start_multistep(3, 0.01, system, system.u0)
    state = res.state
    assert state.step == 2
    assert state.time == pytest.approx(0.02)
    assert len(state.nonlinear) == 3
    # newest first: N(u^2), N(u^1), then N(u^0)
    np.testing.assert_allclose(state.nonlinear[2], square(system.u0), rtol=1e-15)
    np.testing.assert_allclose(state.nonlinear[0], square(res.states[2]), rtol=1e-15)


def test_starter_printed_delta0_variant_differs():
    system = probe_system()
    default = start_multistep(4, 0.01, system, system.u0)
    printed = start_multistep(4, 0.01, system, system.u0, delta0_state=True)
    d_def = abs(complex(default.states[1][0]) - _oracles.logistic_probe_solution(0.01))
    d_pri = abs(complex(printed.states[1][0]) - _oracles.logistic_probe_solution(0.01))
    assert d_pri > 10 * d_def


def test_starter_rejects_single_step():
    system = probe_system()
    with pytest.raises(ValueError):
        start_multistep(1, 0.1, system, system.u0)


def test_starter_instability():
    def cube(u):
        return u ** 3

    system = DirectSystem(
        lam=np.array([0j]), u0=np.array([1e200 + 0j]), func=cube
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(UnstableError):
            start_multistep(4, 0.1, system, system.u0)


def _nls_desk():
    problem = get_problem("nls")
    return discretize(problem, default_grid(problem))


def _count_gamma_passes(monkeypatch) -> list:
    """Record every call of the gamma kernel, cached tables aside."""
    passes = []
    kernel = phifun._gamma_rows

    def counting_kernel(rows, ks, z):
        passes.append((tuple(rows), tuple(ks)))
        return kernel(rows, ks, z)

    monkeypatch.setattr(phifun, "_gamma_rows", counting_kernel)
    return passes


def test_repeated_integration_makes_no_gamma_passes(monkeypatch):
    system = _nls_desk()
    phifun.clear_eval_cache()
    passes = _count_gamma_passes(monkeypatch)
    first = integrate(system, "pecec736", 0.01, 0.1)
    # q = 6: one pass over k = 1..5 per block, for rows 0..5
    assert set(passes) == {(tuple(range(6)), tuple(range(1, 6)))}
    passes.clear()
    second = integrate(system, "pecec736", 0.01, 0.1)
    assert passes == []
    assert np.array_equal(first.u, second.u)


def test_abnorsett4_and_genlawson43_share_gamma_tables(monkeypatch):
    system = _nls_desk()
    phifun.clear_eval_cache()
    integrate(system, "abnorsett4", 0.01, 0.1)
    tables = sorted(key[:3] for key, _ in phifun._EVAL_CACHE.items() if key[0] == "gamma")
    assert tables == [("gamma", 4, 1), ("gamma", 4, 2), ("gamma", 4, 3)]
    passes = _count_gamma_passes(monkeypatch)
    integrate(system, "genlawson43", 0.01, 0.1)
    assert passes == []


@pytest.mark.parametrize("scheme", ["etdrk4", "abnorsett4", "pecec736"])
def test_integrate_digests_its_diagonal_once(scheme, monkeypatch):
    # the engine's keyed h*L serves precompute, the starter's bootstrap and
    # its gamma tables alike
    calls = []

    def counting_digest(*arrays):
        calls.append(len(arrays))
        return real_digest(*arrays)

    real_digest = phifun.digest
    monkeypatch.setattr(phifun, "digest", counting_digest)
    integrate(_nls_desk(), scheme, 0.01, 0.1)
    assert calls == [1]


# ---------------------------------------------------------------------------
# integrate


def test_integrate_single_step_when_h_equals_T():
    system = probe_system()
    result = integrate(system, "etdrk4", 0.5, 0.5)
    assert result.steps == 1
    assert result.h == 0.5


def test_integrate_snaps_step_size():
    system = probe_system()
    result = integrate(system, "etdrk4", 0.3, 1.0)
    assert result.steps == 4
    assert result.h == pytest.approx(0.25)
    assert integrator.snap_step(0.3, 1.0) == (result.steps, result.h)


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
def test_step_size_must_be_positive_and_finite(h):
    message = "step size must be positive and finite"
    with pytest.raises(ValueError, match=message):
        integrator.snap_step(h, 1.0)
    with pytest.raises(ValueError, match=message):
        precompute(etd_euler(), h, np.array([-1.0]))
    with pytest.raises(ValueError, match=message):
        integrate(probe_system(), "etdrk4", h, 1.0)


@pytest.mark.parametrize("scheme", ["abnorsett4", "pecec736"])
def test_integrate_frees_the_starting_values_while_stepping(scheme, monkeypatch):
    # once the state has stepped past them, the starter's values u^0..u^{q-1}
    # and its N(u) history are held by nothing
    refs = []
    plain = integrator.start_multistep

    def watched(*args, **kwargs):
        result = plain(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (*result.states, *result.state.nonlinear))
        return result

    monkeypatch.setattr(integrator, "start_multistep", watched)
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=16))
    alive = []

    class Watching:
        lam, u0 = system.lam, system.u0

        def evaluator(self, buffer):
            evaluate = system.evaluator(buffer)

            def watched(coeffs, out):
                alive.append(sum(ref() is not None for ref in refs))
                return evaluate(coeffs, out)
            return watched

    integrate(Watching(), scheme, 0.005, 1.0)
    assert len(refs) == 2 * get_scheme(scheme).steps
    assert len(alive) >= 150 and alive[149] == 0, alive[149]


def test_integrate_snapshots():
    system = probe_system()
    result = integrate(
        system, "etdrk4", 0.1, 1.0, snapshot_times=[0.0, 0.52, 1.0]
    )
    steps = [s.step for s in result.snapshots]
    assert steps == [0, 5, 10]
    assert result.snapshots[1].requested_time == pytest.approx(0.52)
    assert result.snapshots[1].time == pytest.approx(0.5)
    np.testing.assert_array_equal(result.snapshots[2].coeffs, result.u)


def test_integrate_multistep_starter_flags():
    system = probe_system()
    result = integrate(system, "abnorsett4", 0.01, 1.0)
    assert result.starter_converged
    assert result.steps == 100
    want = _oracles.logistic_probe_solution(1.0)
    assert abs(complex(result.u[0]) - want) <= 1e-8


def test_integrate_rejects_horizon_shorter_than_starter():
    system = probe_system()
    with pytest.raises(ValueError, match="at least"):
        integrate(system, "abnorsett6", 1.0, 2.0)


@pytest.mark.parametrize("t", [-3.0, 7.5, math.nan])
def test_integrate_rejects_snapshot_times_outside_horizon(t, monkeypatch):
    def no_precompute(*args, **kwargs):
        raise AssertionError("precompute ran before the snapshot times were checked")

    monkeypatch.setattr(integrator, "precompute", no_precompute)
    with pytest.raises(ValueError, match=f"snapshot time {t!r}"):
        integrate(probe_system(), "etdrk4", 0.1, 1.0, snapshot_times=[0.5, t])


def test_warm_precompute_digests_its_diagonal_once(monkeypatch):
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=8))
    prepare_scheme("etdrk4", 0.1, system.lam)
    calls = []

    def counting_digest(*arrays):
        calls.append(len(arrays))
        return real_digest(*arrays)

    real_digest = phifun.digest
    monkeypatch.setattr(phifun, "digest", counting_digest)
    prepare_scheme("etdrk4", 0.1, system.lam)
    assert calls == [1]


def test_integrate_deterministic_on_pde():
    problem = get_problem("ks")
    system = discretize(problem, default_grid(problem))
    a = integrate(system, "etdrk4", 0.05, 1.0)
    b = integrate(system, "etdrk4", 0.05, 1.0)
    assert np.array_equal(a.u, b.u)


# ---------------------------------------------------------------------------
# buffered stepping


# steps stable for 20 steps of every scheme on the desk grids: real 1D
# (ks, ac, ch), complex 1D, real 2D (sh2, and schnak2 with two
# components), the half layout over two leading axes (sh3) and a complex
# n-D field (gl2)
_BUFFERED_STEP = {"ks": 0.1, "ac": 0.1, "ch": 0.001, "nls": 0.005, "sh2": 0.05,
                  "schnak2": 0.05, "sh3": 0.05, "gl2": 0.05}
# two more inputs: a desk system that offers nonlinear alone, so the
# workspace evaluates it through the copying adapter, and a desk system
# stepped with numpy's buffer below its field size, so the workspace
# runs the phi cache's float64 rows through numpy's cast
_NONLINEAR_ONLY = "ks:nonlinear-only"
_ABOVE_BUFFER = "ks:above-buffer"
# a ufunc buffer size below the entries of the desk ks field (33)
_LOW_BUFSIZE = 16


def _bufsize_below(entries: int) -> int:
    """The largest ufunc buffer size below entries (numpy takes
    multiples of 16)."""
    return 16 * ((entries - 1) // 16)


@dataclasses.dataclass(frozen=True)
class NonlinearOnlySystem:
    """A system with nonlinear and without an evaluator."""

    lam: np.ndarray
    u0: np.ndarray
    nonlinear: object


def _slot_tables(tableau, h, lam):
    """The tableau evaluated slot by slot into dicts keyed by position, as
    precompute did before it lowered tableaux into rows: the coefficient
    source of _reference_step, so that the test below pins the lowering
    as well as the buffered arithmetic.  stage_sums[i] and output_sum
    multiply N(u^n); A[(i, j)] (j >= 2, the stage_source_coeffs row for
    a chained stage) and B[i] (i >= 2) multiply N(v^j) - N(u^n); U and V
    multiply N(u^{n-j}) - N(u^n)."""
    diag = KeyedDiagonal(h * np.asarray(lam))
    evaluated: dict = {}

    def ev(expr):
        if expr not in evaluated:
            evaluated[expr] = eval_phi_expr(expr, diag)
        return evaluated[expr]

    def exp_of(c):
        return ev(exp_term(1, c))

    s, q = tableau.stages, tableau.steps
    stage_props = tuple(exp_of(tableau.C[i]) for i in range(s))
    source_props = {
        i: exp_of(tableau.C[i - 1] - tableau.C[src - 1])
        for i, src in tableau.stage_source.items()
    }
    zero = PhiExpr()
    A: dict = {}
    stage_sums: dict = {}
    for i in range(2, s + 1):
        if i in tableau.stage_source:
            row = {j: e for (si, j), e in tableau.stage_source_coeffs.items() if si == i}
        else:
            row = dict(enumerate(tableau.A[i - 1][: i - 1], start=1))
        total = sum(row.values(), zero) + sum(tableau.U[i - 1], zero)
        if not total.is_zero():
            stage_sums[i] = ev(total)
        for j, expr in row.items():
            if j > 1 and not expr.is_zero():
                A[(i, j)] = ev(expr)
    U = {
        (i, j): ev(tableau.U[i - 1][j - 1])
        for i in range(1, s + 1)
        for j in range(1, q)
        if not tableau.U[i - 1][j - 1].is_zero()
    }
    B = {i: ev(tableau.B[i - 1]) for i in range(2, s + 1) if not tableau.B[i - 1].is_zero()}
    V = {j: ev(tableau.V[j - 1]) for j in range(1, q) if not tableau.V[j - 1].is_zero()}
    total = sum(tableau.B, zero) + sum(tableau.V, zero)
    return types.SimpleNamespace(
        h=h,
        propagator=exp_of(Fraction(1)), stage_propagators=stage_props,
        source_propagators=source_props, stage_sums=stage_sums,
        output_sum=None if total.is_zero() else ev(total), A=A, U=U, B=B, V=V,
    )


def _reference_step(state, tab, scheme, system):
    """One step of the tableau tab in the arithmetic the buffered step
    must reproduce, from its _slot_tables scheme: every term as
    acc + h * (coeff * value) on fresh arrays."""
    h, u = scheme.h, state.coeffs
    s, q = tab.stages, tab.steps
    nl_now = state.nonlinear[0] if q > 1 else system.nonlinear(u)
    past = [value - nl_now for value in state.nonlinear[1:q]]
    diffs, stage_values = [None], [u]
    for i in range(2, s + 1):
        src = tab.stage_source.get(i)
        if src is not None:
            acc = scheme.source_propagators[i] * stage_values[src - 1]
        else:
            acc = scheme.stage_propagators[i - 1] * u
        terms = [(scheme.stage_sums.get(i), nl_now)]
        terms += [(scheme.A.get((i, j)), diffs[j - 1]) for j in range(2, i)]
        terms += [(scheme.U.get((i, j)), past[j - 1]) for j in range(1, q)]
        for coeff, value in terms:
            if coeff is not None:
                acc = acc + h * (coeff * value)
        stage_values.append(acc)
        diffs.append(system.nonlinear(acc) - nl_now)
    out = scheme.propagator * u
    terms = [(scheme.output_sum, nl_now)]
    terms += [(scheme.B.get(i), diffs[i - 1]) for i in range(2, s + 1)]
    terms += [(scheme.V.get(j), past[j - 1]) for j in range(1, q)]
    for coeff, value in terms:
        if coeff is not None:
            out = out + h * (coeff * value)
    return SimState(
        coeffs=out, time=state.time + h, step=state.step + 1,
        nonlinear=(system.nonlinear(out), *state.nonlinear[: q - 1]) if q > 1 else (),
        initial_norm=state.initial_norm,
    )


def _desk_start(key, scheme, h):
    """A desk system, its prepared scheme, the starting coefficients u^0..u^{q-1} and the stepping-ready state,
    from the starter for multistep schemes."""
    problem = get_problem(key)
    system = discretize(problem, default_grid(problem))
    engine = prepare_scheme(scheme, h, system.lam)
    u0 = np.array(system.u0, dtype=complex)
    norm = float(np.max(np.abs(u0)))
    if engine.steps > 1:
        starter = start_multistep(engine.steps, h, system, u0, initial_norm=norm)
        return system, engine, list(starter.states), starter.state
    return system, engine, [u0], SimState(coeffs=u0, time=0.0, step=0, initial_norm=norm)


def _same_state(a, b):
    return (a.coeffs.tobytes() == b.coeffs.tobytes()
            and a.time == b.time and a.step == b.step
            and len(a.nonlinear) == len(b.nonlinear)
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.nonlinear, b.nonlinear)))


def _is_binding(evaluate, system) -> bool:
    """Whether a workspace evaluates through the system's own evaluator
    binding rather than the copying adapter."""
    return evaluate.__qualname__.startswith(f"{type(system).__name__}.evaluator.")


@pytest.mark.parametrize("case", [*sorted(_BUFFERED_STEP), _NONLINEAR_ONLY, _ABOVE_BUFFER])
@pytest.mark.parametrize("scheme", [info.name for info in list_schemes()])
def test_buffered_step_equals_fresh_step_bit_for_bit(case, scheme):
    # fresh and buffered steps run the workspace's cast-free rows and
    # evaluate through its binding (the system's evaluator, or the
    # copying adapter); the reference runs the float64 slot tables in
    # fresh arithmetic and evaluates through system.nonlinear, the plain
    # path
    key, _, view = case.partition(":")
    with np.errstate():
        if view == "above-buffer":
            np.setbufsize(_LOW_BUFSIZE)
        system, engine, _, start = _desk_start(key, scheme, _BUFFERED_STEP[key])
        tab = get_scheme(scheme).tableau()
        tables = _slot_tables(tab, engine.h, system.lam)
        if view == "nonlinear-only":
            system = NonlinearOnlySystem(system.lam, system.u0, system.nonlinear)
        work = _StepWork(engine, start.coeffs.shape, system)
        assert _is_binding(work.evaluate, system) != (view == "nonlinear-only")
        laid = _row_arrays(work)
        if view == "above-buffer":
            assert all(a.dtype == np.float64 for a in laid)
        else:
            assert all(a.dtype == np.complex128 for a in laid)
        fresh = buffered = reference = start
        for _ in range(20):
            fresh = step(fresh, engine, system)
            buffered = step(buffered, engine, system, work=work)
            reference = _reference_step(reference, tab, tables, system)
            assert _same_state(buffered, fresh), (scheme, key, fresh.step)
            assert _same_state(fresh, reference), (scheme, key, fresh.step)
    assert np.all(np.isfinite(buffered.coeffs))
    assert any(buffered.coeffs is out for out in work.outputs)


def _check_laid_rows(laid, own, copies: bool) -> None:
    """laid.rows are own.rows made cast-free: the same sources and
    operands; with copies, every float64 array run as one complex128
    copy of it (shared where the array is) and every complex array as
    itself; without, every array as itself."""
    assert [(source, [op for _, op in terms]) for _, source, terms in laid.rows] == [
        (source, [op for _, op in terms]) for _, source, terms in own.rows]
    laid_of: dict = {}
    for ran, mine in zip(_row_arrays(laid), _row_arrays(own), strict=True):
        if copies and mine.dtype == np.float64:
            assert ran.dtype == np.complex128
            assert ran.tobytes() == mine.astype(np.complex128).tobytes()
            assert laid_of.setdefault(id(mine), ran) is ran
        else:
            assert ran is mine


# the workspaces whose rows test_workspace_rows_follow_the_buffer_rule checks
_RULE_SCHEMES = ("etdrk4", "lawson4", "abnorsett4", "genlawson43", "pecec736")


@pytest.mark.parametrize("key", problem_names())
def test_workspace_rows_follow_the_buffer_rule(key):
    # every registry problem's desk field fits in numpy's ufunc buffer,
    # so its workspace rows are complex128 (copies of the real ones);
    # with the buffer below the field size they are the phi cache's own
    # arrays, so a large field's rows add no memory
    problem = get_problem(key)
    system = discretize(problem, default_grid(problem))
    assert system.lam.size <= np.getbufsize()
    h = problem.desk_T / 64
    for name in _RULE_SCHEMES:
        engine = prepare_scheme(name, h, system.lam)
        work = _StepWork(engine, system.u0.shape, system)
        _check_laid_rows(work, engine, copies=True)
        assert all(a.dtype == np.complex128 for a in _row_arrays(work))
        with np.errstate():
            np.setbufsize(_bufsize_below(system.lam.size))
            above = _StepWork(engine, system.u0.shape, system)
        _check_laid_rows(above, engine, copies=False)


def test_3d_workspace_rows_are_the_phi_cache_arrays():
    # sh3 at 32^3 has 17,408 entries per row, above numpy's default buffer
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=32))
    assert system.lam.size > np.getbufsize()
    for name in _RULE_SCHEMES:
        engine = prepare_scheme(name, 0.05, system.lam)
        work = _StepWork(engine, system.u0.shape, system)
        _check_laid_rows(work, engine, copies=False)
        assert all(a.dtype == np.float64 for a in _row_arrays(work))


def _starter_rows(monkeypatch, system, q, h, bufsize=None):
    """The gamma rows the starter runs for q at h, recorded at _run as
    (propagator, source slot, ((gamma, operand slot), ...)), and its
    keyed diagonal; the starter runs under bufsize when given."""
    recorded = []
    plain = integrator._run

    def recording(ops, slots, product, h, evaluate):
        # a map's row is one _START op and its _TERM ops; a step's
        # schedule always evaluates, and the differences and the
        # evaluations of the map run as ops of their own
        if {op[0] for op in ops} == {integrator._START, integrator._TERM}:
            (_, propagator, source, _), *terms = ops
            recorded.append((propagator, source, tuple((c, a) for _, c, a, _ in terms)))
        return plain(ops, slots, product, h, evaluate)

    monkeypatch.setattr(integrator, "_run", recording)
    diag = KeyedDiagonal(h * np.asarray(system.lam))
    u0 = np.array(system.u0, dtype=complex)
    with np.errstate():
        if bufsize is not None:
            np.setbufsize(bufsize)
        result = start_multistep(q, h, system, u0, diag=diag)
    assert result.iterations >= 1
    return recorded[: q - 1], diag


@pytest.mark.parametrize("size", [None, 32], ids=["desk", "32"])
@pytest.mark.parametrize("lowered", [False, True], ids=["default-buffer", "lowered-buffer"])
def test_starter_rows_follow_the_buffer_rule(monkeypatch, size, lowered):
    # the starter's propagators and gamma rows follow the workspace's
    # rule: complex128 copies within numpy's buffer, the phi cache's own
    # arrays (views of its gamma tables) above it
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=size))
    q, h = 4, 0.05
    bufsize = _bufsize_below(system.lam.size) if lowered else None
    rows, diag = _starter_rows(monkeypatch, system, q, h, bufsize)
    copies = not lowered and system.lam.size <= np.getbufsize()
    assert copies == (size is None and not lowered)
    propagators = eval_phi_exprs([exp_term(1, j) for j in range(1, q)], diag)
    for j, (row, propagator) in enumerate(zip(rows, propagators, strict=True), start=1):
        table = phifun.gamma_tables(q, (j,), diag)[0]
        # slot 0 holds u^0 and slot l + 1 Delta^l N(u^0)
        own = (propagator, 0, tuple((gamma, l + 1) for l, gamma in enumerate(table)))
        if copies:
            _check_laid_rows(types.SimpleNamespace(rows=[row]),
                             types.SimpleNamespace(rows=[own]), copies=True)
        else:
            assert row[0] is propagator
            # views of the cached table itself, not copies
            assert [(gamma.ctypes.data, gamma.dtype) for gamma, _ in row[2]] == [
                (g.ctypes.data, g.dtype) for g in table]


@functools.lru_cache(maxsize=None)
def _desk_work(key):
    problem = get_problem(key)
    system = discretize(problem, default_grid(problem))
    engine = prepare_scheme("etdrk4", problem.desk_T / 64, system.lam)
    return system, _StepWork(engine, system.u0.shape, system)


@pytest.mark.parametrize("key", problem_names())
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1e-3, 0.1, 1.0]))
def test_workspace_evaluator_equals_nonlinear_bit_for_bit(key, seed, spread):
    # the workspace's evaluation, the system's evaluator bound over the
    # workspace's product, gives the plain path's bits at fields near u^0
    # for every registry problem
    system, work = _desk_work(key)
    values = to_values(system.u0, system.grid)
    rng = np.random.default_rng(seed)
    values = values * (1.0 + spread * rng.standard_normal(values.shape))
    coeffs = to_coeffs(values, system.grid, real=values.dtype.kind != "c")
    assert coeffs.shape == system.u0.shape
    out = np.full_like(coeffs, np.nan)
    assert _is_binding(work.evaluate, system)
    assert work.evaluate(coeffs, out) is out
    assert out.tobytes() == system.nonlinear(coeffs).tobytes()


@pytest.mark.parametrize("scheme", ["etdrk4", "abnorsett4", "pecec736"])
def test_buffered_steps_allocate_no_field_of_their_own(scheme):
    # after q + 2 warm-up steps, the buffered loop's arithmetic between
    # two evaluations allocates no field (its transforms, rows and
    # differences write into the workspace, and a multistep N(u^{n+1})
    # into its ring), and an evaluation no more than the problem's own
    # pointwise func makes; tracemalloc marks at each evaluation's entry
    # and exit keep the two bounds apart; at 48^3 the arithmetic runs in
    # two halves, one on the lane's worker
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=48))
    engine = prepare_scheme(scheme, 0.05, system.lam)
    u0 = np.array(system.u0, dtype=complex)
    state = SimState(coeffs=u0, time=0.0, step=0, initial_norm=float(np.max(np.abs(u0))))
    if engine.steps > 1:
        state = start_multistep(engine.steps, 0.05, system, u0).state
    marking = _MarkingSystem(system)
    work = _StepWork(engine, u0.shape, marking)
    for _ in range(engine.steps + 2):
        state = step(state, engine, marking, work=work)
    values = to_values(state.coeffs, system.grid)
    nsteps = 5
    tracemalloc.start()
    try:
        system.op.func(values)
        _, func_peak = tracemalloc.get_traced_memory()
        marking.marks.clear()
        marking._mark()
        for _ in range(nsteps):
            state = step(state, engine, marking, work=work)
        marking._mark()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(state.coeffs))
    marks = marking.marks
    assert len(marks) == 2 + 2 * nsteps * len(engine.rows)
    grown = [b[1] - a[0] for a, b in zip(marks, marks[1:])]
    slack = 16 * 1024
    # numpy's cast buffer, of at most bufsize entries, for a real
    # coefficient array times a complex field: one in each lane
    cast = np.getbufsize() * 16
    assert 2 * cast + slack <= min(values.nbytes, u0.nbytes) / 2
    assert max(grown[::2]) <= 2 * cast + slack, grown
    assert max(grown[1::2]) <= func_peak + slack, (grown, func_peak)


@pytest.mark.parametrize("scheme", [info.name for info in list_schemes()])
def test_workspace_step_keeps_the_previous_state_and_returns_its_own_arrays(scheme):
    # the reuse rule: a state returned by a workspace step stays intact
    # through the next step, and once the starter's arrays have left the
    # state (q steps), every array of a new state is a workspace slot
    system, engine, _, state = _desk_start("nls", scheme, _BUFFERED_STEP["nls"])
    q = engine.steps
    work = _StepWork(engine, state.coeffs.shape, system)
    for _ in range(q):
        state = step(state, engine, system, work=work)
    slots = [*work.outputs, *work.ring]
    assert len(work.ring) == (q + 1 if q > 1 else 0)
    for _ in range(q + 3):
        before = [a.copy() for a in (state.coeffs, *state.nonlinear)]
        new = step(state, engine, system, work=work)
        assert [a.tobytes() for a in (state.coeffs, *state.nonlinear)] == [
            a.tobytes() for a in before], (scheme, new.step)
        assert len(new.nonlinear) == (q if q > 1 else 0)
        for arr in (new.coeffs, *new.nonlinear):
            assert any(arr is slot for slot in slots), (scheme, new.step)
        state = new


def _live_at_once(rows, q):
    """The most workspace fields live at once in one step of rows, from a
    plain replay of the step's order: N(u^n) (q = 1); the output row's
    start and each of its terms, in order, once the term's operand
    exists; each stage row whole, then N(v^i) - N(u^n); a history
    difference just before its first reader.  A value is live from the
    op that writes it to its last reader, both included; u^n and the
    state's nonlinear values are the state's, not the workspace's."""
    *stages, (_, out_source, out_terms) = rows
    ops = []  # (written value or None, values read)
    made = {("v", 0), ("d", 0)}

    def need(k):
        if ("d", k) not in made:  # a history difference
            ops.append((("d", k), [("d", 0)]))
            made.add(("d", k))

    pending = list(out_terms)

    def flush():
        while pending and (("d", pending[0][1]) in made or pending[0][1] < q):
            k = pending.pop(0)[1]
            need(k)
            ops.append((None, [("d", k)]))

    if q == 1:
        ops.append((("d", 0), [("v", 0)]))
    ops.append((None, [("v", out_source)]))
    flush()
    for i, (_, source, terms) in enumerate(stages, start=1):
        for _, k in terms:
            need(k)
        ops.append((("v", i), [("v", source), *(("d", k) for _, k in terms)]))
        ops.append((("d", q + i - 1), [("v", i), ("d", 0)]))
        made.add(("d", q + i - 1))
        flush()
    assert not pending
    born, last = {}, {}
    for t, (wrote, read) in enumerate(ops):
        for value in read:
            last[value] = t
        if wrote is not None:
            born[wrote] = t
    state = {("v", 0)} | ({("d", 0)} if q > 1 else set())
    return max(sum(born[v] <= t <= last.get(v, born[v]) for v in born if v not in state)
               for t in range(len(ops)))


def _held_fields(work, shape):
    """(complex, real): the distinct arrays owning the memory of the
    field-shaped arrays a fresh workspace holds, its rows aside."""
    owners = {}
    for name in type(work).__slots__:
        if name in ("rows", "schedule"):
            continue
        value = getattr(work, name)
        for arr in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(arr, np.ndarray) and arr.shape == shape:
                while arr.base is not None:
                    arr = arr.base
                owners[id(arr)] = arr
    kinds = [arr.dtype.kind for arr in owners.values()]
    return kinds.count("c"), len(kinds) - kinds.count("c")


@pytest.mark.parametrize("scheme", [info.name for info in list_schemes()])
def test_workspace_holds_only_the_fields_live_at_once(scheme):
    # the pooled fields are those live at once in a plain replay of the
    # step; besides them a workspace holds product (whose first bytes
    # take the stability check's moduli, so there is no real field), its
    # two outputs and, for q >= 2, the q + 1 slots of its ring
    system = discretize(get_problem("sh2"), default_grid(get_problem("sh2")))
    engine = prepare_scheme(scheme, 0.05, system.lam)
    q = engine.steps
    work = _StepWork(engine, system.u0.shape, system)
    held, real = _held_fields(work, system.u0.shape)
    assert real == 0
    assert held <= _live_at_once(engine.rows, q) + 3 + (q + 1 if q > 1 else 0), scheme
    if scheme == "etdrk4":
        assert held == 7  # 10 complex and 1 real before the buffers were pooled


def test_integrate_peak_in_fields():
    # ETDRK4 on sh3 at 40^3: the workspace's 7 fields (u^0 moves into
    # one of its outputs), the map's temporary and the rows (seven real
    # arrays of half a field) peak at 11.5 fields, and so does the run at
    # 64^3
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=40))
    field = system.u0.nbytes
    integrate(system, "etdrk4", 0.1, 0.2)  # first-call set-up stays out of the trace
    phifun.clear_eval_cache()
    tracemalloc.start()
    try:
        result = integrate(system, "etdrk4", 0.1, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.steps == 4 and np.all(np.isfinite(result.u))
    assert peak <= 12 * field, peak / field


@pytest.mark.parametrize("q, bound", [(4, 23), (6, 37)])
def test_starter_peak_in_fields(q, bound):
    # the starter on sh3 at 40^3 holds u^0, the q - 1 iterates, the q
    # values N(u^j) (over which the differences are formed), the ETDRK2
    # workspace (whose outputs serve as the spare iterate and the change's
    # moduli, and whose three pooled fields hold the first three N(u^j)),
    # the map's temporary and the rows (q - 1 propagators and q - 1 gamma
    # tables of q real arrays, each half a field): 21.0 fields for q = 4
    # and 35.0 for q = 6
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=40))
    field = system.u0.nbytes
    u0 = np.array(system.u0, dtype=complex)
    start_multistep(q, 0.05, system, u0)  # first-call set-up stays out of the trace
    phifun.clear_eval_cache()
    tracemalloc.start()
    try:
        result = start_multistep(q, 0.05, system, u0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations >= 1 and np.all(np.isfinite(result.state.coeffs))
    assert peak <= bound * field, peak / field


def _reference_starter(q, h, system, u0, delta0_state=False):
    """The fixed-point starter in the arithmetic the buffered one must
    reproduce: fresh ETDRK2 steps, forward differences as lists of new
    arrays, every term as acc + h * (coeff * value) and every N through
    system.nonlinear."""
    diag = KeyedDiagonal(h * np.asarray(system.lam))
    boot = prepare_scheme("etdrk2", h, diag)
    state = SimState(coeffs=u0, time=0.0, step=0, initial_norm=float(np.max(np.abs(u0))))
    states = [u0]
    for _ in range(q - 1):
        state = step(state, boot, system)
        states.append(state.coeffs)
    gammas = {j: phifun.gamma_tables(q, (j,), diag)[0] for j in range(1, q)}
    propagators = {j: eval_phi_expr(exp_term(1, j), diag) for j in range(1, q)}
    nl_values = [system.nonlinear(u) for u in states]
    converged, iterations = False, 0
    tol = max(h ** q, integrator.STARTER_FLOOR)
    for iterations in range(1, integrator.MAX_STARTER_ITERATIONS + 1):
        diffs, current = [nl_values[0]], list(nl_values)
        for _ in range(1, q):
            current = [b - a for a, b in zip(current, current[1:])]
            diffs.append(current[0])
        if delta0_state:
            diffs[0] = states[0]
        new_states = [states[0]]
        for j in range(1, q):
            acc = propagators[j] * states[0]
            for l in range(q):
                acc = acc + h * (gammas[j][l] * diffs[l])
            new_states.append(acc)
        scale = max(float(np.max(np.abs(u))) for u in new_states[1:])
        change = max(float(np.max(np.abs(new - old)))
                     for new, old in zip(new_states[1:], states[1:]))
        assert math.isfinite(scale) and math.isfinite(change)
        states = new_states
        for j in range(1, q):
            nl_values[j] = system.nonlinear(states[j])
        if scale == 0.0 or change <= tol * scale:
            converged = True
            break
    return types.SimpleNamespace(
        states=tuple(states), iterations=iterations, converged=converged,
        nonlinear=tuple(nl_values[::-1]))


@pytest.mark.parametrize("delta0", [False, True])
@pytest.mark.parametrize("q", sorted({info.steps for info in list_schemes()} - {1}))
@pytest.mark.parametrize("key", ["ks", "nls", "sh2", "sh3"])
def test_starter_equals_reference_starter_bit_for_bit(key, q, delta0):
    problem = get_problem(key)
    system = discretize(problem, default_grid(problem))
    h = _BUFFERED_STEP[key]
    u0 = np.array(system.u0, dtype=complex)
    got = start_multistep(q, h, system, u0, delta0_state=delta0)
    want = _reference_starter(q, h, system, u0, delta0)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert [u.tobytes() for u in got.states] == [u.tobytes() for u in want.states]
    assert got.state.coeffs is got.states[-1]
    assert [v.tobytes() for v in got.state.nonlinear] == [v.tobytes() for v in want.nonlinear]


@st.composite
def _random_tableaux(draw):
    """A complete tableau of 1-5 stages and 1-3 steps: nondecreasing
    nodes, random zero patterns in A, B, U and V, and stages propagated
    from an earlier stage (stage sources) with coefficient rows of
    their own."""
    s, q = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    zero = PhiExpr()

    def weight():  # zero, or a phi or exponential weight of a small coefficient
        kind = draw(st.sampled_from(["zero", "phi", "exp"]))
        if kind == "zero":
            return zero
        coeff = draw(st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1)]))
        scale = draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
        if kind == "exp":
            return exp_term(coeff, scale)
        return phi(draw(st.integers(1, 3)), coeff, scale)

    nodes = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                           Fraction(1)]), min_size=s - 1, max_size=s - 1))
    A = tuple(tuple(None if j == 0 < i else weight() if j < i else zero for j in range(s))
              for i in range(s))
    U = tuple(tuple(weight() if i else zero for _ in range(q - 1)) for i in range(s))
    sources = {i: draw(st.integers(1, i - 1)) for i in range(2, s + 1) if draw(st.booleans())}
    rows = {(i, j): weight() for i in sources for j in range(1, i)}
    return complete_summation(Tableau(
        name="random", order=1, stages=s, steps=q, C=(0, *sorted(nodes)), A=A,
        B=(None, *(weight() for _ in range(s - 1))), U=U,
        V=tuple(weight() for _ in range(q - 1)), stage_source=sources,
        stage_source_coeffs={key: w for key, w in rows.items() if not w.is_zero()}))


@settings(max_examples=100, deadline=None)
@given(tab=_random_tableaux(), key=st.sampled_from(["nls", "ks"]),
       starter_q=st.sampled_from([7, 8]), delta0=st.booleans(),
       scale=st.sampled_from([0.5, 1.0, 2.0]))
def test_random_tableaux_step_bit_for_bit_in_the_fields_live_at_once(
        tab, key, starter_q, delta0, scale):
    # any explicit tableau, not only the catalog's, steps in its
    # workspace with the bits of the reference step, on a full-layout
    # (nls) and a half-layout (ks) desk problem, and pools no more fields
    # than are live at once; its starting values come from the starter
    # at a q beyond the catalog's, which equals the reference starter
    system = _desk_work(key)[0]
    h = _BUFFERED_STEP[key] * scale
    u0 = np.array(system.u0, dtype=complex)
    got = start_multistep(starter_q, h, system, u0, delta0_state=delta0)
    want = _reference_starter(starter_q, h, system, u0, delta0)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert [u.tobytes() for u in got.states] == [u.tobytes() for u in want.states]
    assert [v.tobytes() for v in got.state.nonlinear] == [v.tobytes() for v in want.nonlinear]
    q = tab.steps
    engine = precompute(tab, h, system.lam)
    work = _StepWork(engine, u0.shape, system)
    assert len(work.slots) - integrator._state_slots(q) <= _live_at_once(work.rows, q)
    tables = _slot_tables(tab, h, system.lam)
    buffered = reference = dataclasses.replace(
        got.state, nonlinear=got.state.nonlinear[:q] if q > 1 else ())
    for _ in range(3):
        buffered = step(buffered, engine, system, work=work)
        reference = _reference_step(reference, tab, tables, system)
        assert _same_state(buffered, reference), buffered.step


def _count_splits(patch) -> list:
    """Lower the split threshold to 0 through patch (a MonkeyPatch) and
    record the function of every lane.split call."""
    calls, plain = [], lane.split

    def counting(fn, first, second):
        calls.append(fn)
        plain(fn, first, second)

    patch.setattr(lane, "MIN_SPLIT_ENTRIES", 0)
    patch.setattr(lane, "split", counting)
    return calls


# desk 3D fields of one component (sh3) and of two (schnak3)
_SPLIT_KEYS = ("sh3", "schnak3")


@settings(max_examples=40, deadline=None)
@given(tab=_random_tableaux(), key=st.sampled_from(_SPLIT_KEYS),
       scale=st.sampled_from([0.5, 1.0]))
def test_random_tableaux_step_in_halves_bit_for_bit(tab, key, scale):
    # with the threshold lowered, a desk 3D workspace runs its row
    # arithmetic and its transforms in halves, one on the lane's worker;
    # its steps keep the bits of the reference step, run whole
    system = _desk_work(key)[0]
    h, q = 0.05 * scale, tab.steps
    u0 = np.array(system.u0, dtype=complex)
    engine = precompute(tab, h, system.lam)
    tables = _slot_tables(tab, h, system.lam)
    start = SimState(coeffs=u0, time=0.0, step=0, initial_norm=float(np.max(np.abs(u0))))
    if q > 1:
        start = start_multistep(q, h, system, u0).state
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_splits(patch)
        work = _StepWork(engine, u0.shape, system)
        assert work.halves is not None
        buffered = start
        for _ in range(3):
            buffered = step(buffered, engine, system, work=work)
    assert integrator._run in calls and spectral._passes in calls
    reference = start
    for _ in range(3):
        reference = _reference_step(reference, tab, tables, system)
    assert _same_state(buffered, reference)


@pytest.mark.parametrize("delta0", [False, True])
@pytest.mark.parametrize("q", sorted({info.steps for info in list_schemes()} - {1}))
@pytest.mark.parametrize("key", _SPLIT_KEYS)
def test_starter_in_halves_equals_reference_starter_bit_for_bit(monkeypatch, key, q, delta0):
    # the starter's differences and maps run in halves on a desk 3D
    # field with the threshold lowered, and its starting values keep the
    # bits of the reference starter, run whole
    problem = get_problem(key)
    system = discretize(problem, default_grid(problem))
    u0 = np.array(system.u0, dtype=complex)
    want = _reference_starter(q, 0.05, system, u0, delta0)
    calls = _count_splits(monkeypatch)
    got = start_multistep(q, 0.05, system, u0, delta0_state=delta0)
    assert integrator._run in calls
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert [u.tobytes() for u in got.states] == [u.tobytes() for u in want.states]
    assert [v.tobytes() for v in got.state.nonlinear] == [v.tobytes() for v in want.nonlinear]


class _MarkingSystem:
    """A desk system that records the traced (current, peak) memory and
    resets the peak on entry to and exit from every evaluation, through
    nonlinear or its evaluator, so for consecutive marks a, b the most
    allocated in between is b[1] - a[0]."""

    def __init__(self, system):
        self.system, self.lam, self.u0 = system, system.lam, system.u0
        self.marks = []

    def _mark(self):
        self.marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    def nonlinear(self, coeffs):
        self._mark()
        try:
            return self.system.nonlinear(coeffs)
        finally:
            self._mark()

    def evaluator(self, buffer):
        evaluate = self.system.evaluator(buffer)

        def marked(coeffs, out):
            self._mark()
            try:
                return evaluate(coeffs, out)
            finally:
                self._mark()
        return marked


def test_starter_loop_allocates_no_field_of_its_own():
    # every iteration of the fixed-point loop evaluates N(u^1..u^{q-1});
    # from the first loop evaluation on, the loop's arithmetic between
    # two evaluations allocates no field, and an evaluation no more than
    # the problem's own pointwise func makes; at 48^3 the arithmetic runs
    # in two halves, one on the lane's worker
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=48))
    u0 = np.array(system.u0, dtype=complex)
    q, h = 4, 0.05
    values = to_values(u0, system.grid)
    marking = _MarkingSystem(system)
    tracemalloc.start()
    try:
        system.op.func(values)
        _, func_peak = tracemalloc.get_traced_memory()
        result = start_multistep(q, h, marking, u0)
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations >= 2
    loop = marking.marks[-2 * result.iterations * (q - 1):]
    grown = [b[1] - a[0] for a, b in zip(loop, loop[1:])]
    slack = 16 * 1024
    # numpy's cast buffer, of at most bufsize entries, for a real
    # coefficient array times a complex field: one in each lane
    cast = np.getbufsize() * 16
    assert 2 * cast + slack <= min(values.nbytes, u0.nbytes) / 2
    assert max(grown[1::2]) <= 2 * cast + slack, grown
    assert max(grown[::2]) <= func_peak + slack, (grown, func_peak)


def test_starter_evaluates_through_the_evaluator_binding(monkeypatch):
    calls = []
    plain = DiscreteSystem.nonlinear

    def counting(self, coeffs):
        calls.append(1)
        return plain(self, coeffs)

    monkeypatch.setattr(DiscreteSystem, "nonlinear", counting)
    system = _nls_desk()
    result = start_multistep(4, 0.01, system, np.array(system.u0, dtype=complex))
    assert result.iterations >= 1
    assert calls == []


def test_prepare_then_integrate_evaluates_no_contour_twice(monkeypatch):
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem))
    phifun.clear_eval_cache()
    calls = []
    plain = phifun._rows

    def counting(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(phifun, "_rows", counting)
    prepare_scheme("etdrk4", 0.125, system.lam)
    # one pass per argument scale: phi_1..phi_3 at z, phi_1 at z/2
    assert len(calls) == 2
    calls.clear()
    integrate(system, "etdrk4", 0.125, 0.5)
    assert calls == []


@pytest.mark.parametrize("scheme", ["etdrk4", "abnorsett4"])
def test_integrate_snapshots_are_private_copies_of_every_step(scheme):
    T, nsteps = 1.2, 12
    h = T / nsteps  # the step integrate snaps to
    system, engine, plain, state = _desk_start("ks", scheme, h)
    while state.step < nsteps:
        state = step(state, engine, system)
        plain.append(state.coeffs)
    result = integrate(system, scheme, h, T,
                       snapshot_times=[k * h for k in range(nsteps + 1)])
    assert [snap.step for snap in result.snapshots] == list(range(nsteps + 1))
    for snap, want in zip(result.snapshots, plain):
        assert snap.coeffs.tobytes() == want.tobytes(), snap.step
        assert not np.shares_memory(snap.coeffs, result.u)
    assert result.u.tobytes() == plain[-1].tobytes()
    for a, b in zip(result.snapshots, result.snapshots[1:]):
        assert not np.shares_memory(a.coeffs, b.coeffs)


def test_step_without_workspace_returns_its_own_coefficients():
    system, engine, _, state = _desk_start("ks", "etdrk4", 0.1)
    first = step(state, engine, system)
    kept = first.coeffs.copy()
    second = step(first, engine, system)
    step(second, engine, system)
    assert first.coeffs.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.coeffs, second.coeffs)


def test_kdv_single_soliton_vs_analytic():
    # one soliton crossing ~1/30 of the box: fully resolved in space, so
    # the measured error is the time integrator's
    c = 100.0
    problem = get_problem("kdv")
    grid = Grid.uniform(1, 256, problem.interval)
    (x,) = grid.meshgrid()
    u0 = kdv_soliton(c, 0.0, 0.0, x)[None]
    system = dataclasses.replace(
        discretize(problem, grid), u0=to_coeffs(u0, grid, real=True)
    )
    T = 1e-3
    result = integrate(system, "etdrk4", 1e-6, T)
    got = to_values(result.u, grid, real=True)[0]
    want = kdv_soliton(c, 0.0, T, x)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-6


def test_nls_breather_short_run():
    problem = get_problem("nls")
    grid = Grid.uniform(1, 128, problem.interval)
    system = discretize(problem, grid)
    T = 0.1
    result = integrate(system, "etdrk4", 1e-4, T)
    (x,) = grid.meshgrid()
    want = nls_breather(2.0, 1.0, T, x)
    got = to_values(result.u, grid)[0]
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-5


def test_nls_mass_drift_is_fourth_order():
    problem = get_problem("nls")
    grid = Grid.uniform(1, 128, problem.interval)
    system = discretize(problem, grid)
    mass0 = np.linalg.norm(to_values(system.u0, grid))

    def drift(h):
        result = integrate(system, "etdrk4", h, 0.5)
        mass = np.linalg.norm(to_values(result.u, grid))
        return abs(mass - mass0) / mass0

    drifts = [drift(h) for h in (2e-3, 1e-3, 5e-4)]
    for a, b in zip(drifts, drifts[1:]):
        assert 6 <= a / b <= 40, drifts


# ---------------------------------------------------------------------------
# scalar probe and orders


def test_run_scalar_probe_error_positive_and_small():
    err = run_scalar_probe("etdrk4", ScalarProbe(), 0.05)
    assert 0 < err < 1e-6


@pytest.mark.parametrize("name", ["etdrk4", "abnorsett4"])
def test_run_scalar_probe_steps_in_one_workspace_with_the_fresh_bits(monkeypatch, name):
    plain_step, plain_work = integrator.step, integrator._StepWork
    works = []

    def counting(scheme, shape, system):
        works.append((plain_work(scheme, shape, system), system))
        return works[-1][0]

    monkeypatch.setattr(integrator, "_StepWork", counting)
    buffered = run_scalar_probe(name, ScalarProbe(), 0.05)
    assert len(works) == 1
    work, system = works[0]
    assert work.evaluate.__qualname__.startswith("_copying_evaluator.")  # nonlinear alone
    monkeypatch.setattr(integrator, "step", lambda state, scheme, system, work=None:
                        plain_step(state, scheme, system))
    assert run_scalar_probe(name, ScalarProbe(), 0.05) == buffered


def test_probe_rejects_inconsistent_override():
    probe = ScalarProbe(lam=-2.0)
    with pytest.raises(ValueError, match="exact"):
        probe.solution(1.0)


def test_probe_custom_exact():
    # pure decay u' = -u with N = 0
    probe = ScalarProbe(lam=-1.0, u0=1.0, func=zero_func,
                        exact=lambda t: math.exp(-t))
    err = run_scalar_probe("etdrk2", probe, 0.1)
    assert err < 1e-13


@pytest.mark.parametrize("name, declared", [
    ("etdeuler", 1), ("etdrk2", 2), ("etdrk4", 4),
    ("abnorsett4", 4), ("pec423", 4), ("pecec534", 5), ("lawson4", 4),
])
def test_empirical_orders_spot_checks(name, declared):
    got = empirical_order(name)
    assert abs(got - declared) <= 0.3, (name, got)
