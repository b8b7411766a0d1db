"""Real problems on the half spectrum against the full-layout path.

Real problems store coefficients in the rfftn half layout and evaluate
their nonlinearities as plain products.  The oracle here is the path
that layout replaced: the same problem on the full mode grid, complex
transforms, and the original power forms of the pointwise maps.  Both
must agree to roundoff in value space.
"""
import dataclasses

import numpy as np
import pytest

from phistep.integrator import integrate
from phistep.problems import (
    GL_B,
    SCHNAK_A,
    SCHNAK_B,
    SCHNAK_GAMMA,
    SH_G,
    DiscreteSystem,
    default_grid,
    discretize,
    get_problem,
    problem_names,
)
from phistep.spectral import to_coeffs, to_values


def _schnak_power_form(uv):
    u, v = uv[0], uv[1]
    return np.stack([SCHNAK_GAMMA * (SCHNAK_A + u ** 2 * v),
                     SCHNAK_GAMMA * (SCHNAK_B - u ** 2 * v)])


# the pointwise maps as first written, with ** and np.abs
POWER_FORMS = {
    "ac": lambda u: -u ** 3,
    "ch": lambda u: u ** 3,
    "kdv": lambda u: u ** 2,
    "ks": lambda u: u ** 2,
    "nls": lambda u: 1j * (np.abs(u) ** 2) * u,
    "gl": lambda u: -(1 + 1j * GL_B) * u * np.abs(u) ** 2,
    "schnak": _schnak_power_form,
    "sh": lambda u: SH_G * u ** 2 - u ** 3,
}

REAL = [name for name in problem_names() if get_problem(name).real]


def _rel_max(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _full_layout_system(name: str) -> DiscreteSystem:
    """The problem at its desk size on the full mode grid with power forms.

    Full-layout coefficients give complex values, so the power form is
    applied to their real part."""
    problem = get_problem(name)
    grid = default_grid(problem)
    op = problem.nonlinear(grid)
    power = POWER_FORMS[problem.name]
    return DiscreteSystem(
        name=name, grid=grid, lam=problem.symbol(grid),
        op=dataclasses.replace(op, func=lambda u: power(u.real)),
        u0=to_coeffs(np.asarray(problem.ic(grid)).astype(complex), grid),
    )


def test_real_problems_store_the_half_layout():
    assert REAL == ["ac", "ch", "kdv", "ks", "schnak2", "schnak3", "sh2", "sh3"]
    for name in REAL:
        system = discretize(get_problem(name), default_grid(get_problem(name)))
        n = system.grid.sizes[-1]
        assert system.lam.shape[-1] == system.u0.shape[-1] == n // 2 + 1, name
        assert system.op.outer is None or system.op.outer.shape[-1] == n // 2 + 1


@pytest.mark.parametrize("name", problem_names())
def test_nonlinearity_matches_its_power_form(name):
    problem = get_problem(name)
    grid = default_grid(problem)
    rng = np.random.default_rng(11)
    u = 2.0 * rng.standard_normal((problem.components, *grid.shape))
    if not problem.real:
        u = u + 2.0j * rng.standard_normal(u.shape)
    # func overwrites its argument, so it gets a copy of u
    got = problem.nonlinear(grid).func(u.copy())
    want = POWER_FORMS[problem.name](u)
    assert got.dtype == want.dtype
    assert _rel_max(got, want) <= 1e-15, name


@pytest.mark.parametrize("name", REAL)
def test_half_layout_nonlinearity_matches_full_layout(name):
    half = discretize(get_problem(name), default_grid(get_problem(name)))
    full = _full_layout_system(name)
    grid = half.grid
    assert _rel_max(to_values(half.u0, grid), to_values(full.u0, grid, real=True)) <= 1e-15
    got = to_values(half.nonlinear(half.u0), grid)
    want = to_values(full.nonlinear(full.u0), grid, real=True)
    # ch's outer symbol (up to ~400 at N = 128) lifts roundoff to ~2e-14
    assert _rel_max(got, want) <= 1e-13, name


@pytest.mark.parametrize("name", REAL)
def test_half_layout_etdrk4_matches_full_layout(name):
    half = discretize(get_problem(name), default_grid(get_problem(name)))
    full = _full_layout_system(name)
    grid = half.grid
    h = get_problem(name).desk_T / 100
    for steps in (1, 20):
        a = integrate(half, "etdrk4", h, steps * h)
        b = integrate(full, "etdrk4", h, steps * h)
        assert a.steps == b.steps == steps
        assert a.fft_count == b.fft_count == 8 * steps
        got = to_values(a.u, grid)
        want = to_values(b.u, grid, real=True)
        assert _rel_max(got, want) <= 1e-14, (name, steps)
