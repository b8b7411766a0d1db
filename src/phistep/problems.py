"""Model problem registry: semilinear PDEs u_t = L u + N(u) on periodic boxes.

Each problem splits into a constant-coefficient linear part L (applied
diagonally in Fourier space) and a nonlinearity N evaluated in value
space by a map that is pointwise over grid points (spectral.NonlinearOp),
with the closed-form initial condition, domain, horizon and default
grid sizes used by the benchmark harness.  The catalog covers
five 1D problems (Allen-Cahn, Cahn-Hilliard, Korteweg-de Vries,
Kuramoto-Sivashinsky, nonlinear Schrodinger) and three problems posed in
both 2D and 3D (complex Ginzburg-Landau, Schnakenberg, Swift-Hohenberg).

Constant source terms (Schnakenberg's gamma*a and gamma*b) are folded
into the nonlinearity so L stays exactly the stiff linear part.  Initial
data are sampled on the grid and transformed; for real data the Nyquist
coefficient produced by the FFT already equals the common value of the
two extreme modes, so no separate halving convention is needed.
Nonlinearities are written as plain products (u*u*u, not u**3), which
numpy evaluates without the general power routine, and they run in place:
each overwrites the values array it is given and returns it, in the
operation order of its plain expression (quoted in its docstring), so
its bits are that expression's.  A cubic map makes one temporary of the
field's size (on a 3D field that runs in halves, one of half that size
per half, spectral.to_coeffs), the quadratic advective map none.  Each
map is a module-level function: every discretization of a problem
holds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .spectral import (Grid, NonlinearOp, apply_nonlinear, diff_symbol, laplacian_symbol,
                       to_coeffs, value_view)

__all__ = [
    "Problem",
    "DiscreteSystem",
    "get_problem",
    "list_problems",
    "problem_names",
    "default_grid",
    "discretize",
    "kdv_soliton",
    "kdv_phase_shifts",
    "nls_breather",
]


@dataclass(frozen=True)
class Problem:
    """One model problem: splitting builders plus benchmark defaults."""

    name: str
    label: str  # stiff linear part classification, e.g. "third-order dispersive"
    dims: int
    components: int
    real: bool
    interval: tuple
    T: float
    paper_size: int
    desk_size: int
    desk_T: float
    symbol: Callable[[Grid], np.ndarray]
    func: Callable[[np.ndarray], np.ndarray]  # the map of N, pointwise over grid points
    ic: Callable[[Grid], np.ndarray]
    outer: Optional[Callable[[Grid], np.ndarray]] = None  # the symbol on func's transform

    def nonlinear(self, grid: Grid) -> NonlinearOp:
        """N on grid: the problem's one map, with its outer symbol if any."""
        return NonlinearOp(self.func, None if self.outer is None else self.outer(grid))

    @property
    def key(self) -> str:
        """Registry name: the base name in 1D, with a dims suffix otherwise."""
        return self.name if self.dims == 1 else f"{self.name}{self.dims}"


@dataclass(frozen=True)
class DiscreteSystem:
    """A problem sampled on a grid: everything the time stepper needs.

    lam holds the per-component diagonal of L over the mode grid and u0
    the initial Fourier coefficients in the same layout.  For a real
    problem that is the half (rfftn) layout of spectral.py,
    (components, *grid.shape[:-1], N/2 + 1) with N the last grid size,
    and so are the op's outer symbol and every state stepped from u0;
    complex problems use the full layout (components, *grid.shape).  The
    layout is the only record of whether the field is real.
    """

    name: str
    grid: Grid
    lam: np.ndarray
    op: NonlinearOp
    u0: np.ndarray

    def nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        """N(coeffs) as a new array: apply_nonlinear in two fresh buffers."""
        return apply_nonlinear(coeffs, self.op, self.grid)

    def evaluator(self, buffer: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The evaluation of a stepping loop, bound once over buffer, a
        C-contiguous complex array shaped like the coefficients: the
        returned evaluate(coeffs, out) writes N(coeffs) into out, with
        the bits of nonlinear, and returns it.  func's values are laid
        over buffer here (value_view), so every call overwrites buffer
        and allocates no field of its own outside func."""
        op, grid, values = self.op, self.grid, value_view(buffer, self.grid)

        def evaluate(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
            return apply_nonlinear(coeffs, op, grid, out, values)

        return evaluate


def _stack(*arrays) -> np.ndarray:
    return np.stack([np.asarray(a) for a in arrays])


def _axis_coords(grid: Grid) -> tuple:
    """The coordinates of grid.meshgrid() as one array per axis, shaped
    for broadcasting over the grid.  Initial data combine per-axis terms
    on these in the order they would on the full-grid coordinates, so
    each entry gets the same bits while only the sums of terms over
    every axis reach full size."""
    return tuple(np.meshgrid(*(grid.axis_points(i) for i in range(grid.dims)),
                             indexing="ij", sparse=True))


def _abs2(u: np.ndarray) -> np.ndarray:
    """|u|^2 = u.real * u.real + u.imag * u.imag as a new C-contiguous
    complex array |u|^2 + 0j, the operand numpy's cast makes of the real
    |u|^2 in a product with a complex array.  There is no square root,
    as in np.abs, and for a C-contiguous u no other temporary: the real
    and imaginary parts are squared as one contiguous array of floats."""
    out = np.empty(u.shape, u.dtype)
    floats = np.ascontiguousarray(u).view(u.real.dtype)
    np.multiply(floats, floats, out.view(floats.dtype))
    imag = out.imag
    np.add(out.real, imag, out.real)
    imag.fill(0)
    return out


def _cube(u: np.ndarray) -> np.ndarray:
    """u * u * u in place, through one temporary (u * u)."""
    return np.multiply(np.multiply(u, u), u, u)


# ---------------------------------------------------------------------------
# 1D problems


def _ac_symbol(grid: Grid) -> np.ndarray:
    return _stack(5e-2 * diff_symbol(2, 0, grid) + 1.0)


def _ac_map(u: np.ndarray) -> np.ndarray:
    """-(u * u * u) in place."""
    return np.negative(_cube(u), u)


def _ac_ic(grid: Grid) -> np.ndarray:
    (x,) = grid.meshgrid()
    return _stack(
        np.tanh(2 * np.sin(x)) / 3
        - np.exp(-23.5 * (x - np.pi / 2) ** 2)
        + np.exp(-27.0 * (x - 4.2) ** 2)
        + np.exp(-38.0 * (x - 5.4) ** 2)
    )


_CH_ALPHA, _CH_GAMMA = 1e-2, 1e-3


def _ch_symbol(grid: Grid) -> np.ndarray:
    d2 = diff_symbol(2, 0, grid)
    d4 = diff_symbol(4, 0, grid)
    return _stack(_CH_ALPHA * (-d2 - _CH_GAMMA * d4))


def _ch_outer(grid: Grid) -> np.ndarray:
    return _CH_ALPHA * diff_symbol(2, 0, grid)


def _ch_ic(grid: Grid) -> np.ndarray:
    (x,) = grid.meshgrid()
    return _stack(np.sin(4 * np.pi * x) ** 5 / 5 - 0.8 * np.sin(np.pi * x))


def _advective_map(u: np.ndarray) -> np.ndarray:
    """u * u in place: with _advective_outer, -u u_x = -(1/2) d/dx (u^2),
    the convective term of KdV and KS."""
    return np.multiply(u, u, u)


def _advective_outer(grid: Grid) -> np.ndarray:
    return -0.5 * diff_symbol(1, 0, grid)


def _kdv_symbol(grid: Grid) -> np.ndarray:
    return _stack(-diff_symbol(3, 0, grid))


KDV_A, KDV_B = 25.0, 16.0


def _kdv_ic(grid: Grid) -> np.ndarray:
    (x,) = grid.meshgrid()
    return _stack(
        kdv_soliton(KDV_A ** 2, -2.0, 0.0, x) + kdv_soliton(KDV_B ** 2, -1.0, 0.0, x)
    )


def _ks_symbol(grid: Grid) -> np.ndarray:
    return _stack(-diff_symbol(2, 0, grid) - diff_symbol(4, 0, grid))


def _ks_ic(grid: Grid) -> np.ndarray:
    (x,) = grid.meshgrid()
    return _stack(np.cos(x / 16) * (1 + np.sin(x / 16)))


NLS_A, NLS_B = 2.0, 1.0


def _nls_symbol(grid: Grid) -> np.ndarray:
    return _stack(1j * diff_symbol(2, 0, grid))


def _nls_map(u: np.ndarray) -> np.ndarray:
    """1j * |u|^2 * u in place."""
    factor = _abs2(u)
    return np.multiply(np.multiply(1j, factor, factor), u, u)


def _nls_ic(grid: Grid) -> np.ndarray:
    (x,) = grid.meshgrid()
    return _stack(nls_breather(NLS_A, NLS_B, 0.0, x).astype(complex))


# ---------------------------------------------------------------------------
# 2D/3D problems

GL_A, GL_B = 0.0, 1.5


def _gl_symbol(grid: Grid) -> np.ndarray:
    lap = laplacian_symbol(grid)
    # GL_A = 0 keeps the symbol real; the general form is (1 + i*GL_A) lap + 1
    sym = (1 + 1j * GL_A) * lap + 1.0 if GL_A else lap + 1.0
    return _stack(sym)


def _gl_map(u: np.ndarray) -> np.ndarray:
    """-(1 + 1j * GL_B) * u * |u|^2 in place."""
    abs2 = _abs2(u)
    return np.multiply(np.multiply(-(1 + 1j * GL_B), u, u), abs2, u)


def _gl_ic(grid: Grid) -> np.ndarray:
    coords = _axis_coords(grid)
    r2 = sum((c - 50.0) ** 2 for c in coords)
    return _stack(np.exp(-0.1 * r2).astype(complex))


SCHNAK_EPS_U, SCHNAK_EPS_V, SCHNAK_GAMMA = 1.0, 10.0, 3.0
SCHNAK_A, SCHNAK_B = 0.1, 0.9
SCHNAK_G = 30.0


def _schnak_symbol(grid: Grid) -> np.ndarray:
    lap = laplacian_symbol(grid)
    return _stack(SCHNAK_EPS_U * lap - SCHNAK_GAMMA, SCHNAK_EPS_V * lap)


def _schnak_map(uv: np.ndarray) -> np.ndarray:
    """(SCHNAK_GAMMA * (SCHNAK_A + u * u * v),
    SCHNAK_GAMMA * (SCHNAK_B - u * u * v)) in place."""
    u, v = uv[0], uv[1]
    u2v = np.multiply(u, u)
    np.multiply(u2v, v, u2v)
    np.multiply(SCHNAK_GAMMA, np.add(SCHNAK_A, u2v, u), u)
    np.multiply(SCHNAK_GAMMA, np.subtract(SCHNAK_B, u2v, v), v)
    return uv


def _schnak_ic(grid: Grid) -> np.ndarray:
    coords = _axis_coords(grid)
    g = SCHNAK_G
    u = 1.0 - np.exp(-2.0 * sum((c - g / 2.15) ** 2 for c in coords))
    # the second and later axes carry an extra factor 2 in the exponent
    v_exp = (coords[0] - g / 2) ** 2 + 2.0 * sum((c - g / 2) ** 2 for c in coords[1:])
    v = SCHNAK_B / (SCHNAK_A + SCHNAK_B) ** 2 + np.exp(-2.0 * v_exp)
    return _stack(u, v)


SH_R, SH_G = 0.1, 1.0


def _sh_symbol(grid: Grid) -> np.ndarray:
    lap = laplacian_symbol(grid)
    return _stack((SH_R - 1.0) - 2.0 * lap - lap * lap)


def _sh_map(u: np.ndarray) -> np.ndarray:
    """u * u * (SH_G - u) in place."""
    square = np.multiply(u, u)
    return np.multiply(square, np.subtract(SH_G, u, u), u)


def _sh_ic(grid: Grid) -> np.ndarray:
    coords = _axis_coords(grid)
    slow = sum(np.sin(np.pi * c / 10) for c in coords)
    fast = [np.sin(np.pi * c / 2) for c in coords]
    pairs = sum(fast[i] * fast[j] for i in range(len(fast)) for j in range(i + 1, len(fast)))
    return _stack(0.25 * (slow + pairs))


# ---------------------------------------------------------------------------
# analytic references


def kdv_soliton(c: float, x0: float, t: float, x) -> np.ndarray:
    """Traveling-wave solution 3c sech^2((sqrt(c)/2)(x - x0 - c t)) of
    u_t = -u_xxx - u u_x: amplitude 3c, speed c."""
    if c <= 0:
        raise ValueError(f"soliton speed must be positive, got {c}")
    arg = 0.5 * math.sqrt(c) * (np.asarray(x, dtype=float) - x0 - c * t)
    return 3.0 * c / np.cosh(arg) ** 2


def kdv_phase_shifts(a: float, b: float) -> tuple:
    """Two-soliton interaction shifts for amplitude parameters a > b > 0.

    For solitons 3c sech^2((sqrt(c)/2)(x - x0 - ct)) with speeds a^2 > b^2
    (inverse-scattering wavenumbers a/2 and b/2), the classical result is
    that the faster wave emerges shifted forward by
    (1/a) log(((a+b)/(a-b))^2) and the slower one backward by the same
    logarithm scaled by -1/b; both waves are otherwise unchanged.
    """
    if not a > b > 0:
        raise ValueError(f"phase shifts need a > b > 0, got {a}, {b}")
    log_sq = math.log(((a + b) / (a - b)) ** 2)
    return log_sq / a, -log_sq / b


def nls_breather(a: float, b: float, t: float, x) -> np.ndarray:
    """Breather solution of u_t = i u_xx + i |u|^2 u for 0 < b <= sqrt(2):
    a spatially periodic profile whose amplitude oscillates in time."""
    if not 0 < b <= math.sqrt(2):
        raise ValueError(f"breather parameter must satisfy 0 < b <= sqrt(2), got {b}")
    x = np.asarray(x, dtype=float)
    # b = sqrt(2) squares to one ulp above 2; clamp so the boundary case works
    root = math.sqrt(max(0.0, 2.0 - b * b))
    theta = a * a * b * root * t
    numer = 2 * b * b * math.cosh(theta) + 2j * b * root * math.sinh(theta)
    denom = 2 * math.cosh(theta) - math.sqrt(2.0) * root * np.cos(a * b * x)
    return a * (numer / denom - 1.0) * np.exp(1j * a * a * t)


# ---------------------------------------------------------------------------
# registry


def _problem(name, label, dims, interval, T, desk_size, desk_T, symbol, func, ic,
             real=True, components=1, outer=None) -> Problem:
    """A registry row; the paper's grid is 512 points in 1D and 128 per axis otherwise."""
    return Problem(
        name=name, label=label, dims=dims, components=components, real=real,
        interval=interval, T=T, paper_size=512 if dims == 1 else 128,
        desk_size=desk_size, desk_T=desk_T,
        symbol=symbol, func=func, ic=ic, outer=outer,
    )


def _build_registry() -> dict:
    problems = {}

    def add(p: Problem) -> None:
        problems[(p.name, p.dims)] = p

    add(_problem("ac", "second-order diffusive", 1, (0.0, 2 * np.pi), 60.0, 128, 10.0,
                 _ac_symbol, _ac_map, _ac_ic))
    add(_problem("ch", "fourth-order diffusive", 1, (-1.0, 1.0), 12.0, 128, 2.0,
                 _ch_symbol, _cube, _ch_ic, outer=_ch_outer))
    add(_problem("kdv", "third-order dispersive", 1, (-np.pi, np.pi), 1e-2, 256, 1e-3,
                 _kdv_symbol, _advective_map, _kdv_ic, outer=_advective_outer))
    # The desk horizon must reach the chaotic regime (developed around
    # t ~ 15-20 from this initial condition): that is where the multistep
    # schemes' stability gap versus one-step schemes shows up.
    add(_problem("ks", "fourth-order diffusive", 1, (0.0, 32 * np.pi), 100.0, 64, 30.0,
                 _ks_symbol, _advective_map, _ks_ic, outer=_advective_outer))
    add(_problem("nls", "second-order dispersive", 1, (-np.pi, np.pi), 2.0, 128, 0.5,
                 _nls_symbol, _nls_map, _nls_ic, real=False))
    for dims, desk in ((2, 32), (3, 16)):
        add(_problem("gl", "second-order diffusive", dims, (0.0, 100.0), 10.0, desk, 2.0,
                     _gl_symbol, _gl_map, _gl_ic, real=False))
        add(_problem("schnak", "second-order diffusive", dims, (0.0, SCHNAK_G), 20.0,
                     desk, 2.0, _schnak_symbol, _schnak_map, _schnak_ic,
                     components=2))
        add(_problem("sh", "fourth-order diffusive", dims, (0.0, 20.0), 20.0, desk, 2.0,
                     _sh_symbol, _sh_map, _sh_ic))
    return problems


_REGISTRY = _build_registry()
_ALIASES = {"schnakenberg": "schnak", "ginzburg-landau": "gl", "swift-hohenberg": "sh"}


def problem_names() -> list:
    """CLI-facing names: 1D problems by base name, others with a dims suffix."""
    return sorted(p.key for p in _REGISTRY.values())


def get_problem(name: str, dims: Optional[int] = None) -> Problem:
    """Look up a problem by base name + dims, or by a suffixed name like
    'gl2'; 1D problems need no suffix."""
    key = name.strip().lower()
    if dims is None and key and key[-1] in "123" and not key[-2:-1].isdigit():
        base, dims = key[:-1], int(key[-1])
        if (_ALIASES.get(base, base), dims) in _REGISTRY:
            key = base
        else:
            dims = None
    key = _ALIASES.get(key, key)
    if dims is None:
        matches = sorted(d for (b, d) in _REGISTRY if b == key)
        if not matches:
            raise KeyError(
                f"unknown problem {name!r}; available: {', '.join(problem_names())}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"problem {name!r} exists in {matches} dimensions; "
                f"use e.g. {key}{matches[0]}"
            )
        dims = matches[0]
    if (key, dims) not in _REGISTRY:
        raise KeyError(
            f"unknown problem {name!r} in {dims}D; available: {', '.join(problem_names())}"
        )
    return _REGISTRY[(key, dims)]


def list_problems() -> list:
    """Rows (display name, dims label, stiff-part label) grouped per base name."""
    by_base: dict = {}
    for (base, dims), p in sorted(_REGISTRY.items()):
        by_base.setdefault(base, (p.label, []))[1].append(dims)
    rows = []
    for base, (label, dims_list) in sorted(by_base.items()):
        dims_label = " & ".join(f"{d}D" for d in sorted(dims_list))
        rows.append((base, dims_label, label))
    return rows


def default_grid(problem: Problem, paper_scale: bool = False, size: Optional[int] = None) -> Grid:
    n = size if size is not None else (problem.paper_size if paper_scale else problem.desk_size)
    return Grid.uniform(problem.dims, n, problem.interval)


def discretize(problem: Problem, grid: Grid) -> DiscreteSystem:
    """Sample the problem on a grid: diagonal L, grid-bound nonlinearity,
    and the initial condition's Fourier coefficients.

    A real problem keeps the half layout: its full-grid symbols are cut
    to the modes 0 .. N/2 of the last axis.  The cut is exact, because an
    even symbol ignores the sign of the Nyquist wavenumber and an odd one
    is zero there."""
    if grid.dims != problem.dims:
        raise ValueError(f"{problem.name} is {problem.dims}D but the grid is {grid.dims}D")
    lam = problem.symbol(grid)
    op = problem.nonlinear(grid)
    values = np.asarray(problem.ic(grid))
    shape = (problem.components, *grid.shape)
    if lam.shape != shape:
        raise ValueError(f"symbol shape {lam.shape} inconsistent with {problem.name}")
    if values.shape != shape:
        raise ValueError(f"{problem.name}: initial condition values have shape {values.shape}, "
                         f"expected (components, *grid.shape) = {shape}")
    if problem.real:
        kept = slice(0, grid.half_shape[-1])
        lam = np.ascontiguousarray(lam[..., kept])
        if op.outer is not None:
            op = replace(op, outer=np.ascontiguousarray(op.outer[..., kept]))
        u0 = to_coeffs(values, grid, real=True)
    else:
        u0 = to_coeffs(values.astype(complex), grid)
    return DiscreteSystem(name=problem.key, grid=grid, lam=lam, op=op, u0=u0)
