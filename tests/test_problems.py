"""Problem-registry tests: closed-form spot values, PDE residuals for the
analytic reference solutions, and discretization invariants."""
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from phistep import problems
from phistep.problems import (
    default_grid,
    discretize,
    get_problem,
    kdv_phase_shifts,
    kdv_soliton,
    list_problems,
    nls_breather,
    problem_names,
)
from phistep.spectral import Grid, diff_symbol, laplacian_symbol, to_coeffs, to_values

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# registry and lookup


def test_problem_names():
    assert problem_names() == [
        "ac", "ch", "gl2", "gl3", "kdv", "ks", "nls",
        "schnak2", "schnak3", "sh2", "sh3",
    ]


def test_lookup_by_suffix_and_dims():
    assert get_problem("gl2") is get_problem("gl", 2)
    assert get_problem("schnakenberg", 3) is get_problem("schnak3")
    assert get_problem("KdV").name == "kdv"


def test_lookup_errors():
    with pytest.raises(KeyError, match="available"):
        get_problem("burgers")
    with pytest.raises(KeyError, match="dimensions"):
        get_problem("gl")  # ambiguous without dims
    with pytest.raises(KeyError):
        get_problem("ac", 2)


def test_kdv_horizon():
    assert get_problem("kdv", 1).T == pytest.approx(0.01)


def test_listing_rows():
    rows = list_problems()
    assert ("kdv", "1D", "third-order dispersive") in rows
    assert ("gl", "2D & 3D", "second-order diffusive") in rows
    assert ("ks", "1D", "fourth-order diffusive") in rows
    assert ("nls", "1D", "second-order dispersive") in rows
    assert ("schnak", "2D & 3D", "second-order diffusive") in rows
    assert ("sh", "2D & 3D", "fourth-order diffusive") in rows
    assert len(rows) == 8


def test_stiff_part_labels():
    labels = {name: get_problem(name).label for name in problem_names()}
    assert labels["ac"] == "second-order diffusive"
    assert labels["ch"] == "fourth-order diffusive"
    assert labels["kdv"] == "third-order dispersive"
    assert labels["ks"] == "fourth-order diffusive"
    assert labels["nls"] == "second-order dispersive"
    assert labels["gl2"] == labels["gl3"] == "second-order diffusive"
    assert labels["schnak2"] == labels["schnak3"] == "second-order diffusive"
    assert labels["sh2"] == labels["sh3"] == "fourth-order diffusive"


def test_field_kinds():
    assert get_problem("nls").real is False
    assert get_problem("gl2").real is False
    for name in ("ac", "ch", "kdv", "ks", "schnak2", "sh3"):
        assert get_problem(name).real is True
    assert get_problem("schnak2").components == 2
    assert get_problem("sh3").components == 1


def test_default_grids():
    ks = get_problem("ks")
    assert default_grid(ks, paper_scale=True).shape == (512,)
    assert default_grid(ks).shape == (64,)
    assert default_grid(get_problem("gl3"), paper_scale=True).shape == (128,) * 3
    assert default_grid(get_problem("schnak2")).shape == (32, 32)
    assert default_grid(ks, size=48).shape == (48,)


# ---------------------------------------------------------------------------
# initial conditions: scalar spot checks recomputed independently


def test_ac_initial_condition_values():
    p = get_problem("ac")
    g = default_grid(p, size=512)
    vals = p.ic(g)[0]
    x = g.axis_points(0)
    i = np.argmin(np.abs(x - np.pi / 2))
    xi = x[i]
    expected = (
        math.tanh(2 * math.sin(xi)) / 3
        - math.exp(-23.5 * (xi - math.pi / 2) ** 2)
        + math.exp(-27 * (xi - 4.2) ** 2)
        + math.exp(-38 * (xi - 5.4) ** 2)
    )
    assert vals[i] == pytest.approx(expected, rel=1e-14)
    # near pi/2 the profile is dominated by tanh(2)/3 - 1
    assert vals[i] == pytest.approx(math.tanh(2) / 3 - 1, abs=1e-3)


def test_ch_initial_condition_values():
    p = get_problem("ch")
    g = Grid.uniform(1, 8, p.interval)
    vals = p.ic(g)[0]
    # x = 0.5: sin(2*pi) = 0 so only the -0.8 sin(pi x) term survives
    assert g.axis_points(0)[6] == pytest.approx(0.5)
    assert vals[6] == pytest.approx(-0.8, abs=1e-14)


def test_kdv_initial_condition_is_two_solitons():
    p = get_problem("kdv")
    g = Grid.uniform(1, 512, p.interval)
    vals = p.ic(g)[0]
    x = g.axis_points(0)
    manual = (3 * 625.0 / np.cosh(12.5 * (x + 2)) ** 2
              + 3 * 256.0 / np.cosh(8.0 * (x + 1)) ** 2)
    np.testing.assert_allclose(vals, manual, rtol=1e-13, atol=1e-13)
    assert vals.max() == pytest.approx(1875.0, rel=1e-3)


def test_ks_initial_condition_values():
    p = get_problem("ks")
    g = Grid.uniform(1, 4, p.interval)
    vals = p.ic(g)[0]
    assert vals[0] == pytest.approx(1.0)  # cos 0 * (1 + sin 0)
    assert vals[1] == pytest.approx(0.0, abs=1e-15)  # x = 8*pi: cos(pi/2) = 0


def test_nls_initial_condition_matches_closed_form():
    p = get_problem("nls")
    g = Grid.uniform(1, 64, p.interval)
    vals = p.ic(g)[0]
    x = g.axis_points(0)
    a, b = 2.0, 1.0
    manual = 2 * a * b * b / (2 - math.sqrt(2) * math.sqrt(2 - b * b) * np.cos(a * b * x)) - a
    np.testing.assert_allclose(vals, manual, rtol=1e-13, atol=1e-14)
    assert np.iscomplexobj(vals)


def test_gl_initial_condition_peak_at_center():
    p = get_problem("gl2")
    g = Grid.uniform(2, 32, p.interval)
    vals = p.ic(g)[0]
    assert g.axis_points(0)[16] == pytest.approx(50.0)
    assert vals[16, 16] == pytest.approx(1.0)
    assert vals[0, 0] == pytest.approx(math.exp(-0.1 * 2 * 50.0 ** 2), abs=1e-18)


def test_schnak3_v_component_at_center():
    p = get_problem("schnak3")
    g = Grid.uniform(3, 8, p.interval)
    vals = p.ic(g)
    assert g.axis_points(0)[4] == pytest.approx(15.0)
    assert vals[1][4, 4, 4] == pytest.approx(1.9)


def test_schnak_v_anisotropy():
    # exponent -2[(x-15)^2 + 2(y-15)^2]: displacing x by d decays slower
    # than displacing y by the same d
    p = get_problem("schnak2")
    g = Grid.uniform(2, 8, p.interval)
    vals = p.ic(g)[1]
    base = 0.9 / (0.1 + 0.9) ** 2
    dx_only = vals[5, 4] - base  # x = 18.75, y = 15
    dy_only = vals[4, 5] - base
    d2 = 3.75 ** 2
    assert dx_only == pytest.approx(math.exp(-2 * d2), rel=1e-12)
    assert dy_only == pytest.approx(math.exp(-4 * d2), rel=1e-12)


def test_schnak_u_component():
    p = get_problem("schnak2")
    g = Grid.uniform(2, 8, p.interval)
    u = p.ic(g)[0]
    x = g.axis_points(0)
    c = 30.0 / 2.15
    manual = 1 - np.exp(-2 * ((x[:, None] - c) ** 2 + (x[None, :] - c) ** 2))
    np.testing.assert_allclose(u, manual, rtol=1e-13, atol=1e-15)


def test_sh_initial_condition_values():
    p2 = get_problem("sh2")
    g2 = Grid.uniform(2, 8, p2.interval)
    vals = p2.ic(g2)[0]
    # (x, y) = (5, 5): slow terms sin(pi/2) = 1 each, fast product 1
    assert g2.axis_points(0)[2] == pytest.approx(5.0)
    assert vals[2, 2] == pytest.approx(0.75)
    p3 = get_problem("sh3")
    g3 = Grid.uniform(3, 8, p3.interval)
    v3 = p3.ic(g3)[0]
    # (5, 5, 5): three slow terms and three pair products
    assert v3[2, 2, 2] == pytest.approx(0.25 * (3 + 3))


# ---------------------------------------------------------------------------
# analytic references satisfy their PDEs


def test_kdv_soliton_traveling_wave_identity():
    # u(x, t) = f(x - c t) solves u_t = -u_xxx - u u_x iff
    # f''' + f f' - c f' = 0; verify spectrally on a profile whose tails
    # vanish to machine precision on the box
    c = 400.0
    g = Grid.uniform(1, 2048, (-np.pi, np.pi))
    (x,) = g.meshgrid()
    f = kdv_soliton(c, 0.0, 0.0, x)
    ch = to_coeffs(f, g)
    d1 = to_values(diff_symbol(1, 0, g) * ch, g, real=True)
    d3 = to_values(diff_symbol(3, 0, g) * ch, g, real=True)
    residual = d3 + f * d1 - c * d1
    assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(c * d1))


def test_kdv_soliton_travels():
    c = 100.0
    x = np.linspace(-3, 3, 7)
    t = 5e-3
    np.testing.assert_allclose(
        kdv_soliton(c, 0.0, t, x), kdv_soliton(c, c * t, 0.0, x), rtol=1e-13
    )


def test_kdv_soliton_amplitude():
    assert kdv_soliton(625.0, -2.0, 0.0, np.array([-2.0]))[0] == pytest.approx(1875.0)
    assert kdv_soliton(256.0, -1.0, 0.0, np.array([-1.0]))[0] == pytest.approx(768.0)


def test_kdv_soliton_validation():
    with pytest.raises(ValueError):
        kdv_soliton(-1.0, 0.0, 0.0, np.zeros(3))


def test_kdv_phase_shifts_literal():
    fwd, back = kdv_phase_shifts(25.0, 16.0)
    # (1/a) log(((a+b)/(a-b))^2) with a=25, b=16: 2 log(41/9) / 25, and
    # the slower wave recoils by 2 log(41/9) / 16.
    assert fwd == pytest.approx(2.0 * math.log(41.0 / 9.0) / 25.0, rel=1e-15)
    assert back == pytest.approx(-2.0 * math.log(41.0 / 9.0) / 16.0, rel=1e-15)
    assert fwd == pytest.approx(0.12130779914944707, rel=1e-14)
    assert back == pytest.approx(-0.18954343617101105, rel=1e-14)
    assert fwd > 0 > back


def test_kdv_phase_shifts_validation():
    with pytest.raises(ValueError):
        kdv_phase_shifts(16.0, 25.0)
    with pytest.raises(ValueError):
        kdv_phase_shifts(1.0, 1.0)


def test_breather_reduces_to_initial_profile():
    x = np.linspace(-np.pi, np.pi, 17)
    for a, b in ((2.0, 1.0), (1.3, 0.9)):
        got = nls_breather(a, b, 0.0, x)
        manual = 2 * a * b * b / (2 - math.sqrt(2) * math.sqrt(2 - b * b) * np.cos(a * b * x)) - a
        np.testing.assert_allclose(got, manual.astype(complex), rtol=1e-14, atol=1e-15)


def test_breather_pde_residual():
    # u_t = i u_xx + i |u|^2 u, checked with a centered difference in time
    a, b = 2.0, 1.0
    g = Grid.uniform(1, 256, (-np.pi, np.pi))
    (x,) = g.meshgrid()
    t, dt = 0.37, 1e-5
    u = nls_breather(a, b, t, x)
    u_t = (nls_breather(a, b, t + dt, x) - nls_breather(a, b, t - dt, x)) / (2 * dt)
    u_xx = to_values(diff_symbol(2, 0, g) * to_coeffs(u, g), g)
    rhs = 1j * u_xx + 1j * np.abs(u) ** 2 * u
    assert np.max(np.abs(u_t - rhs)) <= 1e-6 * np.max(np.abs(rhs))


def test_breather_amplitude_oscillates():
    a, b = 2.0, 1.0
    x = np.linspace(-np.pi, np.pi, 257)
    peak0 = np.max(np.abs(nls_breather(a, b, 0.0, x)))
    peak1 = np.max(np.abs(nls_breather(a, b, 0.5, x)))
    assert peak0 != pytest.approx(peak1, rel=1e-3)


def test_breather_validation():
    with pytest.raises(ValueError):
        nls_breather(2.0, 0.0, 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        nls_breather(2.0, 1.5, 0.0, np.zeros(3))
    nls_breather(2.0, math.sqrt(2), 0.0, np.zeros(3))  # boundary value allowed


# ---------------------------------------------------------------------------
# discretization


def test_discretize_shapes_and_dtypes():
    for name in problem_names():
        p = get_problem(name)
        g = default_grid(p)
        sys = discretize(p, g)
        if p.real:
            expected = (p.components, *g.shape[:-1], g.shape[-1] // 2 + 1)
        else:
            expected = (p.components, *g.shape)
        assert sys.lam.shape == expected
        assert sys.u0.shape == expected
        assert np.iscomplexobj(sys.u0)
        # realness is the layout: half-layout states give real values
        assert np.isrealobj(to_values(sys.u0, g)) == p.real
        assert sys.grid is g


def test_discretize_dims_mismatch():
    with pytest.raises(ValueError):
        discretize(get_problem("ac"), Grid.uniform(2, 8, (0.0, TWO_PI)))


def test_discretize_names_an_initial_condition_without_a_component_axis():
    # ic must return (components, *grid.shape); one that drops the
    # component axis is refused before the transform, naming the problem
    # and both shapes
    p = get_problem("ks")
    g = default_grid(p)
    bare = dataclasses.replace(p, ic=lambda grid: p.ic(grid)[0])
    message = (f"{p.name}: initial condition values have shape {g.shape}, "
               f"expected (components, *grid.shape) = {(1, *g.shape)}")
    with pytest.raises(ValueError, match=re.escape(message)):
        discretize(bare, g)


def test_symbol_classification():
    # diffusive problems have real symbols, dispersive purely imaginary
    for name in problem_names():
        p = get_problem(name)
        lam = np.asarray(p.symbol(default_grid(p)))
        if "dispersive" in p.label:
            assert np.all(lam.real == 0), name
            assert np.any(lam.imag != 0), name
        else:
            assert np.all(lam.imag == 0), name


def test_ac_symbol_peak():
    p = get_problem("ac")
    lam = p.symbol(default_grid(p, size=512))[0]
    assert np.max(lam.real) == 1.0
    assert lam[0] == 1.0  # at k = 0 only the +u term remains


def test_mode_zero_symbol_values():
    expected = {
        "ac": 1.0, "ch": 0.0, "kdv": 0.0, "ks": 0.0, "nls": 0.0,
        "gl2": 1.0, "sh2": -0.9,
    }
    for name, value in expected.items():
        p = get_problem(name)
        lam = p.symbol(default_grid(p))
        zero = (0,) * p.dims
        assert lam[(0, *zero)] == pytest.approx(value, abs=1e-15), name
    schnak = get_problem("schnak2")
    lam = schnak.symbol(default_grid(schnak))
    assert lam[0][0, 0] == pytest.approx(-3.0)
    assert lam[1][0, 0] == 0.0


def test_kdv_symbol_first_mode():
    p = get_problem("kdv")
    lam = p.symbol(Grid.uniform(1, 8, p.interval))[0]
    assert lam[1] == 1j  # -d^3/dx^3 has symbol +i k^3
    assert lam[7] == -1j
    assert lam[4] == 0.0  # Nyquist zeroed


def test_ks_symbol_values():
    p = get_problem("ks")
    lam = p.symbol(Grid.uniform(1, 64, p.interval))[0]
    k1 = 1.0 / 16.0
    assert lam[1] == pytest.approx(k1 ** 2 - k1 ** 4, rel=1e-14)
    assert lam.max() <= 0.25 + 1e-12  # k^2 - k^4 peaks at 1/4


def test_ch_symbol_value():
    p = get_problem("ch")
    lam = p.symbol(Grid.uniform(1, 8, p.interval))[0]
    k1 = np.pi  # interval length 2 scales mode 1 to pi
    assert lam[1] == pytest.approx(1e-2 * (k1 ** 2 - 1e-3 * k1 ** 4), rel=1e-14)


def test_sh_symbol_value():
    p = get_problem("sh2")
    lam = p.symbol(Grid.uniform(2, 8, p.interval))[0]
    k2 = (2 * np.pi / 20.0) ** 2  # |k|^2 for mode (1, 0)
    assert lam[1, 0] == pytest.approx((0.1 - 1.0) + 2 * k2 - k2 ** 2, rel=1e-14)


def test_gl_rhs_on_constant_state():
    # d/dt of a constant field c is (lap + 1)c - (1 + 1.5i) c|c|^2;
    # at c = 1 this is 1 - (1 + 1.5i) = -1.5i
    p = get_problem("gl2")
    g = Grid.uniform(2, 8, p.interval)
    sys = discretize(p, g)
    state = to_coeffs(np.ones((1, 8, 8), dtype=complex), g)
    rhs = sys.lam * state + sys.nonlinear(state)
    assert rhs[0, 0, 0] == pytest.approx(-1.5j, abs=1e-13)


def test_schnak_fixed_point():
    # (u, v) = (a + b, b / (a + b)^2) is a spatially constant steady state
    for name in ("schnak2", "schnak3"):
        p = get_problem(name)
        g = Grid.uniform(p.dims, 8, p.interval)
        sys = discretize(p, g)
        shape = (1,) * p.dims
        state = np.zeros_like(sys.u0)
        state[0][(0,) * p.dims] = 1.0
        state[1][(0,) * p.dims] = 0.9
        rhs = sys.lam * state + sys.nonlinear(state)
        assert np.max(np.abs(rhs)) <= 1e-13, name


def test_ch_nonlinearity_carries_outer_symbol():
    # N(u) = alpha (u^3)_xx: with u = cos(pi x), u^3 = (3 cos(pi x) + cos(3 pi x))/4
    # so N(u) = alpha (-3 pi^2 cos(pi x) - 9 pi^2 cos(3 pi x))/4 in closed form
    p = get_problem("ch")
    g = Grid.uniform(1, 32, p.interval)
    sys = discretize(p, g)
    (x,) = g.meshgrid()
    state = to_coeffs(np.cos(np.pi * x)[None], g, real=True)
    out = sys.nonlinear(state)
    analytic = 1e-2 * (-3 * np.pi ** 2 * np.cos(np.pi * x)
                       - 9 * np.pi ** 2 * np.cos(3 * np.pi * x)) / 4
    np.testing.assert_allclose(out, to_coeffs(analytic[None], g, real=True), atol=1e-13)


def test_ac_initial_spectrum_decays():
    p = get_problem("ac")
    sys = discretize(p, default_grid(p, size=512))
    mags = np.abs(sys.u0[0])
    tail = mags[206:306]  # modes with |k| > 200
    assert tail.max() <= 1e-13 * mags.max()


def test_nls_discretized_initial_state_is_breather():
    p = get_problem("nls")
    g = default_grid(p, size=128)
    sys = discretize(p, g)
    (x,) = g.meshgrid()
    expected = to_coeffs(nls_breather(2.0, 1.0, 0.0, x)[None], g)
    np.testing.assert_allclose(sys.u0, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# set-up from per-axis factors: the full-grid builders they replaced


def _parent_diff_symbol(p, axis, grid):
    """The full-grid diff_symbol that _axis_symbol replaced, verbatim."""
    k = grid.wavenumbers(axis)
    k2 = k * k
    if p == 1:
        sym = 1j * k
    elif p == 2:
        sym = -k2
    elif p == 3:
        sym = -1j * (k2 * k)
    else:
        sym = k2 * k2
    if p % 2:
        sym = sym.copy()
        sym[grid.sizes[axis] // 2] = 0.0
    shape = [1] * grid.dims
    shape[axis] = grid.sizes[axis]
    per_axis = sym.reshape(shape)
    if grid.dims == 1:
        return per_axis.reshape(grid.sizes)
    return np.broadcast_to(per_axis, grid.shape).copy()


def _parent_laplacian_symbol(grid):
    """The sum of full-grid symbols that laplacian_symbol replaced, verbatim."""
    out = _parent_diff_symbol(2, 0, grid)
    for axis in range(1, grid.dims):
        out = out + _parent_diff_symbol(2, axis, grid)
    return out


def _parent_gl_ic(grid):
    """The full-grid initial data that _axis_coords replaced, verbatim
    (as are the two below)."""
    coords = grid.meshgrid()
    r2 = sum((c - 50.0) ** 2 for c in coords)
    return np.stack([np.exp(-0.1 * r2).astype(complex)])


def _parent_schnak_ic(grid):
    coords = grid.meshgrid()
    g = problems.SCHNAK_G
    u = 1.0 - np.exp(-2.0 * sum((c - g / 2.15) ** 2 for c in coords))
    v_exp = (coords[0] - g / 2) ** 2 + 2.0 * sum((c - g / 2) ** 2 for c in coords[1:])
    v = problems.SCHNAK_B / (problems.SCHNAK_A + problems.SCHNAK_B) ** 2 + np.exp(-2.0 * v_exp)
    return np.stack([u, v])


def _parent_sh_ic(grid):
    coords = grid.meshgrid()
    slow = sum(np.sin(np.pi * c / 10) for c in coords)
    fast = [np.sin(np.pi * c / 2) for c in coords]
    pairs = sum(fast[i] * fast[j] for i in range(len(fast)) for j in range(i + 1, len(fast)))
    return np.stack([0.25 * (slow + pairs)])


_PARENT_IC = {"gl": _parent_gl_ic, "schnak": _parent_schnak_ic, "sh": _parent_sh_ic}
_SEPARABLE = ["gl2", "gl3", "schnak2", "schnak3", "sh2", "sh3"]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _oracle_grids(problem):
    # the desk grid, and a non-cubic one on which a swapped axis would show
    sizes, domain = (6, 8, 10)[: problem.dims], ((0.0, 7.0), (1.0, 9.5), (-2.0, 3.0))
    return [default_grid(problem), Grid(sizes, (problem.interval,) * problem.dims),
            Grid(sizes, domain[: problem.dims])]


@pytest.mark.parametrize("key", _SEPARABLE)
def test_per_axis_setup_equals_the_full_grid_builders(monkeypatch, key):
    problem = get_problem(key)
    for grid in _oracle_grids(problem):
        assert _same(problem.ic(grid), _PARENT_IC[problem.name](grid)), (key, grid)
        assert _same(laplacian_symbol(grid), _parent_laplacian_symbol(grid)), grid
        got = problem.symbol(grid)
        # the symbol builders are unchanged but for the Laplacian they call
        monkeypatch.setattr(problems, "laplacian_symbol", _parent_laplacian_symbol)
        assert _same(got, problem.symbol(grid)), (key, grid)
        monkeypatch.undo()


@pytest.mark.parametrize("sizes", [(8,), (6, 8), (6, 8, 10), (10, 6, 8)])
def test_diff_symbols_equal_the_full_grid_builder(sizes):
    grid = Grid(sizes, ((0.0, 7.0), (1.0, 9.5), (-2.0, 3.0))[: len(sizes)])
    for axis in range(grid.dims):
        for p in (1, 2, 3, 4):
            got = diff_symbol(p, axis, grid)
            assert _same(got, _parent_diff_symbol(p, axis, grid)), (axis, p)
            assert got.flags.writeable and got.flags.c_contiguous
    assert _same(laplacian_symbol(grid), _parent_laplacian_symbol(grid))


@pytest.mark.parametrize("key, fields", [("sh3", 4), ("gl3", 5), ("schnak3", 5)])
def test_initial_data_memory_at_64_cubed(key, fields):
    # the full-grid builders traced 10 float64 fields for sh3 and 8 for
    # gl3 and schnak3; per-axis terms only reach full size when summed
    # over every axis, beside per-plane partial sums (1/64 of a field)
    problem = get_problem(key)
    grid = default_grid(problem, size=64)
    field = 8 * grid.npoints
    problem.ic(grid)  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        problem.ic(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (fields + 1 / 16) * field, peak / field


# ---------------------------------------------------------------------------
# pointwise maps in place


def _plain_abs2(u):
    return u.real * u.real + u.imag * u.imag


def _plain_schnak(uv):
    u, v = uv[0], uv[1]
    u2v = u * u * v
    return np.stack([problems.SCHNAK_GAMMA * (problems.SCHNAK_A + u2v),
                     problems.SCHNAK_GAMMA * (problems.SCHNAK_B - u2v)])


# each map as the plain expression it evaluated when it returned a new
# array, frozen here: the in-place maps must give these bits
_PLAIN_MAPS = {
    "ac": lambda u: -(u * u * u),
    "ch": lambda u: u * u * u,
    "kdv": lambda u: u * u,
    "ks": lambda u: u * u,
    "nls": lambda u: 1j * _plain_abs2(u) * u,
    "gl": lambda u: -(1 + 1j * problems.GL_B) * u * _plain_abs2(u),
    "schnak": _plain_schnak,
    "sh": lambda u: u * u * (problems.SH_G - u),
}
# signed zeros, subnormals, huge values, infinities and NaN
_SPECIAL = np.array([0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan])


def _map_values(problem, grid, scale, seed=17):
    """A values array as the map sees it (real for a real problem), with
    _SPECIAL in its first entries."""
    rng = np.random.default_rng(seed)
    shape = (problem.components, *grid.shape)
    u = scale * rng.standard_normal(shape)
    if not problem.real:
        u = u + 1j * scale * rng.standard_normal(shape)
    flat, k = u.reshape(-1), len(_SPECIAL)
    flat[:k] = _SPECIAL
    if not problem.real:
        with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part
            flat[k:2 * k] = _SPECIAL[::-1] + 1j * _SPECIAL
    return u


@pytest.mark.parametrize("key", problem_names())
def test_maps_run_in_place_with_the_bits_of_their_plain_expressions(key):
    # every registry map overwrites its argument, returns it, and gives
    # the bits of its plain expression, special values included
    problem = get_problem(key)
    grid = default_grid(problem)
    func = problem.nonlinear(grid).func
    for scale in (1e-3, 1.0, 1e3):
        u = _map_values(problem, grid, scale)
        values = u.copy()
        with np.errstate(all="ignore"):
            want = _PLAIN_MAPS[problem.name](u)
            got = func(values)
        assert got is values, key
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (key, scale)


@pytest.mark.parametrize("key", problem_names())
def test_every_discretization_holds_the_problem_map(key):
    # the map is one function, so it identifies N wherever it is held
    problem = get_problem(key)
    first, second = (discretize(problem, default_grid(problem, size=n)) for n in (8, 16))
    assert first.op.func is second.op.func is problem.func


# a size per dimension at which a value field holds at least 64 KiB, so
# that numpy's small objects (views, shapes; about 2 KiB in all) stay
# far below one field
_MAP_TRACE_SIZES = {1: 8192, 2: 128, 3: 32}


@pytest.mark.parametrize("key", problem_names())
def test_maps_make_at_most_one_field_sized_temporary(key):
    # a cubic map keeps u * u (or |u|^2) beside its argument, the
    # advective map of ks and kdv nothing
    problem = get_problem(key)
    grid = default_grid(problem, size=_MAP_TRACE_SIZES[problem.dims])
    func = problem.nonlinear(grid).func
    values = _map_values(problem, grid, 1.0)
    with np.errstate(all="ignore"):
        func(values.copy())  # first-call set-up stays out of the trace
        tracemalloc.start()
        try:
            func(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    slack = 4096
    assert values.nbytes >= 16 * slack
    fields = 0 if problem.name in ("ks", "kdv") else 1
    assert peak <= fields * values.nbytes + slack, (key, peak / values.nbytes)
