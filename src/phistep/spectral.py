"""Periodic Fourier spectral discretization in one to three dimensions.

Fields live on tensor grids of even sizes over per-axis intervals [a, b).
Fourier coefficients use FFT storage order with the forward transform
scaled by 1/prod(sizes) (so a constant field has coefficient 1 at mode
zero) and the inverse unscaled.  Constant-coefficient differential
operators act diagonally: the symbol of d^p/dx^p is (ik)^p over the
scaled integer wavenumbers -N/2 .. N/2-1, with the Nyquist entry of
odd-order symbols set to zero so real fields stay real.

Spectral symbols are plain ndarrays over the mode grid (one per
component when stacked); nothing here assumes more structure than
elementwise multiplication.

Coefficient arrays come in two layouts.  The full layout covers every
mode (shape ending in grid.shape) and holds any field.  The half layout
is numpy's rfftn layout: the last grid axis keeps only the modes
0 .. N/2 (shape ending in (*grid.shape[:-1], N/2 + 1)), which determines
a real field completely because the missing modes are the complex
conjugates of kept ones.  Real problems store their symbols, initial
data and every stepped state in the half layout (see
problems.discretize); to_coeffs(..., real=True) produces it, and
to_values and apply_nonlinear accept either layout, telling them apart
by shape.  On grids whose last axis has two points the two layouts
coincide (such arrays are read as full).  Max norms agree between the
layouts, because conjugate modes have equal modulus.

The multi-axis forward transforms and the multi-axis complex inverse
write into one array that to_coeffs/to_values allocate first: numpy then
transforms axis after axis in place instead of allocating a copy per
axis, with the same bits.
"""
from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Grid",
    "NonlinearOp",
    "wavenumbers",
    "diff_symbol",
    "laplacian_symbol",
    "to_coeffs",
    "to_values",
    "apply_nonlinear",
    "fft_counter",
    "install_fft_counter",
    "remove_fft_counter",
]


@dataclass(frozen=True)
class Grid:
    """Tensor-product periodic grid: per-axis sizes and intervals [a, b).

    half_shape is the grid part of the half layout, (*shape[:-1], N/2 + 1),
    fixed at construction so that a layout check is a tuple comparison.
    """

    sizes: tuple
    domain: tuple
    half_shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        domain = tuple((float(a), float(b)) for a, b in self.domain)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "domain", domain)
        if not 1 <= len(sizes) <= 3:
            raise ValueError(f"grids are 1D to 3D, got {len(sizes)} axes")
        if len(domain) != len(sizes):
            raise ValueError("one interval per axis required")
        for n in sizes:
            if n <= 0 or n % 2:
                raise ValueError(f"axis sizes must be even and positive, got {n}")
        for a, b in domain:
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError(f"degenerate interval [{a}, {b})")
        object.__setattr__(self, "half_shape", (*sizes[:-1], sizes[-1] // 2 + 1))

    @classmethod
    def uniform(cls, dims: int, size: int, interval) -> "Grid":
        """A dims-dimensional grid with the same size and interval per axis."""
        return cls((size,) * dims, (tuple(interval),) * dims)

    @property
    def dims(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple:
        return self.sizes

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    def spacing(self, axis: int = 0) -> float:
        a, b = self.domain[axis]
        return (b - a) / self.sizes[axis]

    def axis_points(self, axis: int) -> np.ndarray:
        a, b = self.domain[axis]
        n = self.sizes[axis]
        return a + (b - a) * np.arange(n) / n

    def meshgrid(self) -> tuple:
        """Coordinate arrays of shape self.shape (matrix indexing)."""
        axes = [self.axis_points(i) for i in range(self.dims)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers(self, axis: int) -> np.ndarray:
        return wavenumbers(self.sizes[axis], self.domain[axis])


def wavenumbers(n: int, interval) -> np.ndarray:
    """Scaled integer wavenumbers -N/2 .. N/2-1 in FFT storage order.

    On [0, 2*pi) these are the integers (0, 1, ..., N/2-1, -N/2, ..., -1);
    other intervals scale them by 2*pi/(b - a).
    """
    if n <= 0 or n % 2:
        raise ValueError(f"axis size must be even and positive, got {n}")
    a, b = interval
    return np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / (b - a))


def _axis_view(grid: Grid, axis: int, values: np.ndarray) -> np.ndarray:
    """Reshape a per-axis array for broadcasting over the mode grid."""
    shape = [1] * grid.dims
    shape[axis] = grid.sizes[axis]
    return values.reshape(shape)


def diff_symbol(p: int, axis: int, grid: Grid) -> np.ndarray:
    """Diagonal symbol of d^p/dx_axis^p over the full mode grid.

    Even p yields a real array, odd p an imaginary complex array with the
    Nyquist mode zeroed (its derivative sign is ambiguous on an even grid;
    zeroing keeps real fields real).  Powers are built by squaring the
    same scaled-wavenumber intermediate, so diff_symbol(2)**2 equals
    diff_symbol(4) entrywise exactly.
    """
    if p not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be 1..4, got {p}")
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
    per_axis = _axis_view(grid, axis, sym)
    if grid.dims == 1:
        return per_axis.reshape(grid.sizes)
    return np.broadcast_to(per_axis, grid.shape).copy()


def laplacian_symbol(grid: Grid) -> np.ndarray:
    """Symbol of the Laplacian: broadcast sum of the per-axis -k^2 arrays."""
    out = diff_symbol(2, 0, grid)
    for axis in range(1, grid.dims):
        out = out + diff_symbol(2, axis, grid)
    return out


# ---------------------------------------------------------------------------
# transforms

_FFT_COUNTER: contextvars.ContextVar = contextvars.ContextVar("fft_counter", default=None)


def install_fft_counter() -> tuple:
    """Start counting whole-field transforms in this execution context.

    Returns (cell, token): cell[0] accumulates the count; pass the token
    to remove_fft_counter when done.  Counters are context-local, so
    concurrent integrations in different threads do not share counts.
    """
    cell = [0]
    token = _FFT_COUNTER.set(cell)
    return cell, token


def remove_fft_counter(token) -> None:
    _FFT_COUNTER.reset(token)


def fft_counter() -> Optional[list]:
    return _FFT_COUNTER.get()


def _count_fft() -> None:
    cell = _FFT_COUNTER.get()
    if cell is not None:
        cell[0] += 1


def _grid_axes(grid: Grid) -> tuple:
    return tuple(range(-grid.dims, 0))


def _is_half(coeffs: np.ndarray, grid: Grid) -> bool:
    """Whether a coefficient array is in the half layout (shape checked)."""
    tail = coeffs.shape[-grid.dims:]
    if tail == grid.shape:
        return False
    if tail == grid.half_shape:
        return True
    raise ValueError(
        f"coefficient shape {coeffs.shape} ends in neither {grid.shape} "
        f"nor the half layout {grid.half_shape}"
    )


def to_coeffs(values: np.ndarray, grid: Grid, real: bool = False) -> np.ndarray:
    """Forward transform over the trailing grid axes, scaled by 1/npoints.

    Leading axes (e.g. a component axis) are preserved.  With real=True
    the values are taken as real (an imaginary part is dropped) and the
    result is in the half layout.
    """
    values = np.asarray(values)
    if values.shape[-grid.dims:] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not end in {grid.shape}")
    _count_fft()
    if real:
        if values.dtype.kind == "c":
            values = values.real
        if grid.dims == 1:
            return np.fft.rfft(values, norm="forward")
        out = np.empty((*values.shape[:-grid.dims], *grid.half_shape),
                       dtype=np.result_type(values.dtype, 1j))
        return np.fft.rfftn(values, axes=_grid_axes(grid), norm="forward", out=out)
    if grid.dims == 1:
        return np.fft.fft(values, norm="forward")
    out = np.empty(values.shape, dtype=np.result_type(values.dtype, 1j))
    return np.fft.fftn(values, axes=_grid_axes(grid), norm="forward", out=out)


def to_values(coeffs: np.ndarray, grid: Grid, real: bool = False) -> np.ndarray:
    """Inverse transform over the trailing grid axes (unscaled).

    Half-layout coefficients give a contiguous real array whatever real
    says.  For full-layout coefficients real=True drops the imaginary
    residue, which is exact for coefficient arrays with Hermitian
    symmetry (real-valued fields).
    """
    coeffs = np.asarray(coeffs)
    half = _is_half(coeffs, grid)
    _count_fft()
    if half:
        if grid.dims == 1:
            return np.fft.irfft(coeffs, grid.sizes[0], norm="forward")
        return np.fft.irfftn(coeffs, grid.shape, axes=_grid_axes(grid), norm="forward")
    if grid.dims == 1:
        out = np.fft.ifft(coeffs, norm="forward")
    else:
        out = np.fft.ifftn(coeffs, axes=_grid_axes(grid), norm="forward",
                           out=np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j)))
    return out.real if real else out


# ---------------------------------------------------------------------------
# nonlinear evaluation


@dataclass(frozen=True)
class NonlinearOp:
    """Value-space pointwise map with an optional diagonal outer symbol.

    func maps the (components, *grid.shape) value array to an array of the
    same shape; outer, when present, multiplies the transformed result in
    coefficient space (e.g. the -D/2 factor of an advective nonlinearity
    -u u_x = -(1/2)(u^2)_x) and must be in the layout of the coefficients
    the op is applied to.  The layout also decides what func sees: real
    values for half-layout coefficients, complex values for full-layout
    ones.
    """

    func: Callable[[np.ndarray], np.ndarray]
    outer: Optional[np.ndarray] = None


def apply_nonlinear(coeffs: np.ndarray, op: NonlinearOp, grid: Grid) -> np.ndarray:
    """Evaluate F(N(F^{-1} coeffs)): transform to value space, apply the
    pointwise map, transform back, then apply the outer symbol if any.

    The result is a new array in the layout of coeffs that shares no
    memory with it.  The layout is read once, by to_values: half-layout
    coefficients give real values, full-layout ones complex values, so
    the dtype of the values says which forward transform to run."""
    values = to_values(coeffs, grid)
    out = to_coeffs(op.func(values), grid, real=values.dtype.kind != "c")
    if op.outer is not None:
        np.multiply(out, op.outer, out)
    return out
