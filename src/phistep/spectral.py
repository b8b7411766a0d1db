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

The transforms call numpy's pocketfft gufuncs (numpy.fft's own
kernels, in numpy.fft._pocketfft_umath) directly, one axis at a time and
in numpy's order, so for float64 and complex128 fields their bits are
those of numpy's fftn/ifftn/rfftn/irfftn without its Python wrappers
(the forward 1/N factor is a double, so other precisions may differ
from numpy's in the last bit): the forward transforms run the last
grid axis first (rfft on it for the half layout) and then fft on the
other axes in descending order, in place in their output; the
full-layout inverse runs ifft the same way; the half-layout inverse
copies the coefficients once into a complex work array shaped like them,
runs its leading-axis inverse FFTs there in place in ascending order,
and then the last-axis irfft from it into its real output.  The copy is
one contiguous pass; without it the first leading-axis FFT would run out
of place, reading the coefficients along a strided axis (33.8 KB apart
at 64^3), which costs more than the copy and the in-place FFT together.
Each axis's gufunc axes argument and forward 1/N factor are fixed on the
Grid.

A 3D transform of at least lane.MIN_SPLIT_ENTRIES coefficient entries
runs in two phases, each on the two halves of one grid axis, one half
on the lane's worker thread (lane.split): the passes over the last two
axes on the halves of the first axis (axis -3; for one component each
half is one contiguous block), and the pass over the first axis on
the halves of the second (axis -2), the half-layout inverse's copy into
work going with it.  A phase is split along an axis that none of its
passes transforms, so every line stays whole and goes through the same
kernel, with the same bits; and along the outer of the axes it leaves
free, so each half is a few long stretches of memory.  Split along the
last axis instead, the first-axis pass gained little (1.03 ms split
against 1.09 ms whole at 64^3), while split along axis -2 a 64^3 real
forward transform took 1.59 ms split against 2.09 ms whole and its
inverse 1.83 against 2.25 ms, on two cores.

Callers that evaluate nonlinearities in a loop can hand every array in:
to_coeffs and to_values take out= (and to_values work=, the complex
array above) and then allocate nothing field-sized.  apply_nonlinear
takes out, a complex array shaped like the coefficients that receives
N(coeffs) and first serves as the inverse transform's work array, and
values, the array func sees; either is allocated for the call when not
given.  value_view lays that values array over a complex buffer shaped
like the coefficients once, so a loop can keep it: the buffer itself
for the full layout, and for the half layout a contiguous real array
over its first bytes (N/2 + 1 complex numbers hold N + 2 reals).
"""
from __future__ import annotations

import contextvars
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import lane
from .errors import PhistepError

try:
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError as exc:
    raise PhistepError(
        f"numpy {np.__version__} has no numpy.fft._pocketfft_umath, whose FFT kernels "
        "the transforms call; phistep needs numpy>=2.0,<3 and was tested with numpy 2.4"
    ) from exc

__all__ = [
    "Grid",
    "NonlinearOp",
    "wavenumbers",
    "diff_symbol",
    "laplacian_symbol",
    "to_coeffs",
    "to_values",
    "apply_nonlinear",
    "value_view",
    "fft_counter",
    "install_fft_counter",
    "remove_fft_counter",
]


@dataclass(frozen=True)
class Grid:
    """Tensor-product periodic grid: per-axis sizes and intervals [a, b).

    dims is the number of axes and half_shape the grid part of the half
    layout, (*shape[:-1], N/2 + 1), both fixed at construction so that a
    layout check is an attribute read and a tuple comparison.
    So are the transforms' per-axis arguments: axis_args[i] is the axes
    argument of a pocketfft gufunc over grid axis i (counted from the
    end, so leading component axes pass through) and forward_scales[i]
    its forward 1/N factor, numpy's norm="forward" value.
    """

    sizes: tuple
    domain: tuple
    dims: int = field(init=False, repr=False, compare=False)
    half_shape: tuple = field(init=False, repr=False, compare=False)
    axis_args: tuple = field(init=False, repr=False, compare=False)
    forward_scales: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for n in self.sizes:
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ValueError(f"axis sizes must be integers, got {n!r}")
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
        object.__setattr__(self, "dims", len(sizes))
        object.__setattr__(self, "half_shape", (*sizes[:-1], sizes[-1] // 2 + 1))
        axes = range(-len(sizes), 0)
        object.__setattr__(self, "axis_args", tuple([(a,), (), (a,)] for a in axes))
        object.__setattr__(self, "forward_scales", tuple(1.0 / n for n in sizes))

    @classmethod
    def uniform(cls, dims: int, size: int, interval) -> "Grid":
        """A dims-dimensional grid with the same size and interval per axis."""
        return cls((size,) * dims, (tuple(interval),) * dims)

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


def _axis_symbol(p: int, axis: int, grid: Grid) -> np.ndarray:
    """Symbol of d^p/dx_axis^p on its own axis, shaped for broadcasting
    over the mode grid (diff_symbol without the broadcast)."""
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
    return _axis_view(grid, axis, sym)


def diff_symbol(p: int, axis: int, grid: Grid) -> np.ndarray:
    """Diagonal symbol of d^p/dx_axis^p over the full mode grid.

    Even p yields a real array, odd p an imaginary complex array with the
    Nyquist mode zeroed (its derivative sign is ambiguous on an even grid;
    zeroing keeps real fields real).  Powers are built by squaring the
    same scaled-wavenumber intermediate, so diff_symbol(2)**2 equals
    diff_symbol(4) entrywise exactly.  The values are those of the
    per-axis symbol (_axis_symbol), broadcast over the grid and copied.
    """
    per_axis = _axis_symbol(p, axis, grid)
    if grid.dims == 1:
        return per_axis
    return np.broadcast_to(per_axis, grid.shape).copy()


def laplacian_symbol(grid: Grid) -> np.ndarray:
    """Symbol of the Laplacian: the sum of the per-axis -k^2 symbols in
    axis order, broadcast from their per-axis views (_axis_symbol), so
    only the partial sums reach full size; the bits of adding the
    full-grid diff_symbol(2, axis) arrays."""
    out = _axis_symbol(2, 0, grid)
    for axis in range(1, grid.dims):
        out = out + _axis_symbol(2, axis, grid)
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


def _layout_error(coeffs: np.ndarray, grid: Grid) -> ValueError:
    return ValueError(
        f"coefficient shape {coeffs.shape} ends in neither {grid.shape} "
        f"nor the half layout {grid.half_shape}"
    )


def _is_half(coeffs: np.ndarray, grid: Grid) -> bool:
    """Whether a coefficient array is in the half layout (shape checked)."""
    tail = coeffs.shape[-grid.dims:]
    if tail == grid.shape:
        return False
    if tail == grid.half_shape:
        return True
    raise _layout_error(coeffs, grid)


def to_coeffs(values: np.ndarray, grid: Grid, real: bool = False,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward transform over the trailing grid axes, scaled by 1/npoints.

    Leading axes (e.g. a component axis) are preserved.  With real=True
    the values are taken as real (an imaginary part is dropped) and the
    result is in the half layout.  out, when given, is the complex array
    of the result's shape that receives it and is returned; it must not
    overlap values.  For float64 or complex128 values the bits are
    numpy's rfftn (real) or fftn with norm="forward": the last axis
    first, then the others in place in descending order.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values)
    if values.shape[-grid.dims:] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not end in {grid.shape}")
    cell = _FFT_COUNTER.get()
    if cell is not None:
        cell[0] += 1
    if real and values.dtype.kind == "c":
        values = values.real
    if out is None:
        shape = (*values.shape[:-grid.dims], *grid.half_shape) if real else values.shape
        out = np.empty(shape, dtype=np.result_type(values.dtype, 1j))
    args, scales = grid.axis_args, grid.forward_scales
    last = _pocketfft.rfft_n_even if real else _pocketfft.fft
    if grid.dims == 3 and out.size >= lane.MIN_SPLIT_ENTRIES:
        fft = _pocketfft.fft
        _split(grid, (0, ((last, values, scales[2], args[2], out),
                          (fft, out, scales[1], args[1], out))),
               (1, ((fft, out, scales[0], args[0], out),)))
        return out
    last(values, scales[-1], axes=args[-1], out=out)
    for axis in range(grid.dims - 2, -1, -1):
        _pocketfft.fft(out, scales[axis], axes=args[axis], out=out)
    return out


def to_values(coeffs: np.ndarray, grid: Grid, real: bool = False,
              out: Optional[np.ndarray] = None,
              work: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse transform over the trailing grid axes (unscaled).

    Half-layout coefficients give a real array whatever real says.  For
    full-layout coefficients real=True drops the imaginary residue, which
    is exact for coefficient arrays with Hermitian symmetry (real-valued
    fields).

    out, when given, receives the values (real for the half layout,
    complex for the full layout; real=True then returns its real view)
    and may be strided.  work is a complex array shaped like coeffs, of
    their complex type, into which a multi-axis half-layout inverse
    copies coeffs once and then runs its leading-axis inverse FFTs in
    place (out of place, the first would read coeffs along a strided
    axis, which costs more than the copy); it is overwritten, and
    allocated here when not given.  Neither may overlap coeffs, which is
    left untouched.  For complex128 coefficients the bits are numpy's
    irfftn (leading axes in ascending order, then the last-axis irfft)
    or ifftn (the last axis first) with norm="forward".
    """
    if type(coeffs) is not np.ndarray:
        coeffs = np.asarray(coeffs)
    tail = coeffs.shape[-grid.dims:]
    half = tail != grid.shape
    if half and tail != grid.half_shape:
        raise _layout_error(coeffs, grid)
    cell = _FFT_COUNTER.get()
    if cell is not None:
        cell[0] += 1
    if grid.dims == 3 and coeffs.size >= lane.MIN_SPLIT_ENTRIES:
        return _to_values_in_halves(coeffs, grid, half, real, out, work)
    args = grid.axis_args
    if half:
        if grid.dims > 1:
            if work is None:
                work = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
            np.copyto(work, coeffs)
            coeffs = work
            for axis in range(grid.dims - 1):
                _pocketfft.ifft(work, 1.0, axes=args[axis], out=work)
        if out is None:
            shape = (*coeffs.shape[:-1], grid.sizes[-1])
            out = np.empty(shape, dtype=np.result_type(coeffs.real.dtype, 1.0))
        return _pocketfft.irfft(coeffs, 1.0, axes=args[-1], out=out)
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
    _pocketfft.ifft(coeffs, 1.0, axes=args[-1], out=out)
    for axis in range(grid.dims - 2, -1, -1):
        _pocketfft.ifft(out, 1.0, axes=args[axis], out=out)
    return out.real if real else out


def _to_values_in_halves(coeffs: np.ndarray, grid: Grid, half: bool, real: bool,
                         out: Optional[np.ndarray], work: Optional[np.ndarray]) -> np.ndarray:
    """to_values of a 3D field as two phases of halves (_split), with the
    same arrays allocated when not given and the same bits."""
    args, ifft = grid.axis_args, _pocketfft.ifft
    if half:
        if work is None:
            work = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
        if out is None:
            shape = (*coeffs.shape[:-1], grid.sizes[-1])
            out = np.empty(shape, dtype=np.result_type(work.real.dtype, 1.0))
        _split(grid, (1, ((None, coeffs, None, None, work), (ifft, work, 1.0, args[0], work))),
               (0, ((ifft, work, 1.0, args[1], work), (_pocketfft.irfft, work, 1.0, args[2], out))))
        return out
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
    _split(grid, (0, ((ifft, coeffs, 1.0, args[2], out), (ifft, out, 1.0, args[1], out))),
           (1, ((ifft, out, 1.0, args[0], out),)))
    return out.real if real else out


def _passes(passes: tuple, index: tuple) -> None:
    """Run passes (gufunc, src, scale, axes, dst), in order, from
    src[index] into dst[index]; a None gufunc copies."""
    for gufunc, src, scale, axes, dst in passes:
        if gufunc is None:
            np.copyto(dst[index], src[index])
        else:
            gufunc(src[index], scale, axes=axes, out=dst[index])


def _split(grid: Grid, *phases: tuple) -> None:
    """Run a 3D transform as phases (axis, passes), in order, each on the
    two halves of grid axis axis (0 or 1), one half on the lane's worker
    (lane.split).  No pass of a phase transforms along its split axis,
    so each half's lines are whole, and every line goes through the same
    kernel as in one call, with the same bits."""
    for axis, passes in phases:
        cut, rest = grid.sizes[axis] // 2, (slice(None),) * (2 - axis)
        lane.split(_passes, (passes, (Ellipsis, slice(None, cut), *rest)),
                   (passes, (Ellipsis, slice(cut, None), *rest)))


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
    ones.  The values are apply_nonlinear's values array, allocated for
    the call or, in a stepping loop, laid once over a workspace buffer
    (value_view) that the next evaluation overwrites, so func must keep
    no reference to its argument.  func may overwrite that array and
    return it, as every registry map does (so a map makes no output
    array of its own), or return a new array; apply_nonlinear transforms
    whatever it returns, in one path.
    """

    func: Callable[[np.ndarray], np.ndarray]
    outer: Optional[np.ndarray] = None


def value_view(buffer: np.ndarray, grid: Grid) -> np.ndarray:
    """The values array of apply_nonlinear laid over buffer, a
    C-contiguous complex array shaped like the coefficients: buffer
    itself for the full layout; for the half layout the contiguous real
    array of buffer's precision, shaped like the field, over buffer's
    first bytes.  It shares buffer's memory for as long as both live."""
    if not _is_half(buffer, grid):
        return buffer
    shape = (*buffer.shape[:-1], grid.sizes[-1])
    return buffer.reshape(-1).view(buffer.real.dtype)[: math.prod(shape)].reshape(shape)


def apply_nonlinear(coeffs: np.ndarray, op: NonlinearOp, grid: Grid,
                    out: Optional[np.ndarray] = None,
                    values: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate F(N(F^{-1} coeffs)): transform to value space, apply the
    pointwise map, transform back, then apply the outer symbol if any.

    The result is in the layout of coeffs, which is left untouched.  out
    is a C-contiguous complex array shaped like coeffs that receives the
    result (and is returned) and first serves as to_values' work array.
    values is the array func sees, which to_values fills: for half-layout
    coefficients a contiguous real array shaped like the field, for
    full-layout ones a complex array shaped like coeffs (value_view lays
    either over a buffer).  Each is allocated here when not given (out of
    coeffs' complex type, values by to_values), so a plain call returns a
    new array; given ones must be distinct from coeffs and from each
    other, and they hold nothing the caller needs afterwards (func may
    overwrite values)."""
    if out is None:
        out = np.empty(coeffs.shape, np.result_type(coeffs.dtype, 1j))
    values = to_values(coeffs, grid, out=values, work=out)
    out = to_coeffs(op.func(values), grid, values.dtype.kind == "f", out)
    if op.outer is not None:
        np.multiply(out, op.outer, out)
    return out
