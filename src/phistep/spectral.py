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
those of numpy's fftn/ifftn/rfftn/irfftn without its Python wrappers.
The forward 1/N factor is a double, so on single-precision fields the
forward kernels compute in double and round each axis's result to
single: numpy's 1D transforms of the double-precision array, axis by
axis, and not numpy's single-precision fftn.  Each transform is written
once, as a plan fixed on the Grid (Grid.plans, under numpy's name for
it): passes (call, source, scale, destination) over the roles input,
output and work, bound once when the Grid is built, in the form a call
takes.  A pass on the last grid axis calls the gufunc itself, with no
axes argument, since the gufunc's default core axis is the last one; a
pass on another axis calls it with that axis bound.  The forward
transforms run the last grid axis first (rfft on
it for the half layout) and then fft on the other axes in descending
order, in place in their output; the full-layout inverse runs ifft the
same way; the half-layout inverse copies the coefficients once into a
complex work array shaped like them, runs its leading-axis inverse FFTs
there in place in ascending order, and then the last-axis irfft from it
into its real output.  The copy is one contiguous pass; without it the
first leading-axis FFT would run out of place, reading the coefficients
along a strided axis (33.8 KB apart at 64^3), which costs more than the
copy and the in-place FFT together.

A field runs whole (1D, 2D, and 3D below lane.MIN_SPLIT_ENTRIES
coefficient entries): to_coeffs and to_values make their checks, count
the transform and call the plan's passes in order, in the calling
thread, with no runner between them and the kernels.  A 3D field that
lane.halves splits, the one rule for it, runs the plan's two phases
instead (_split), each on the two halves of one grid axis, one half on
the lane's worker thread (lane.split, through _passes).
The forward transforms and the full-layout inverse split their passes
over the last two axes along the first axis (axis -3; for one component
each half is one contiguous block) and their pass over the first axis
along the second (axis -2); the half-layout inverse splits its copy
into work and its first-axis pass along axis -2, then its last two
passes along axis -3.  A phase is split along an axis that none of its
passes transforms, so every line stays whole and goes through the same
kernel, with the same bits; and along the outer of the axes it leaves
free, so each half is a few long stretches of memory.  Split along the
last axis instead, the first-axis pass gained little (1.03 ms split
against 1.09 ms whole at 64^3), while split along axis -2 a 64^3 real
forward transform took 1.59 ms split against 2.09 ms whole and its
inverse 1.83 against 2.25 ms, on two cores.

to_coeffs(values, func=f) transforms f(values): on a whole field f
runs once, before the first pass; in halves it runs in the forward
plan's first phase, on each half of axis -3 before that half's passes
over the last two axes on the same thread, so the half that the
inverse's last phase just wrote is mapped by the core that wrote it and
each thread's map temporaries are half a field; apply_nonlinear
evaluates every nonlinearity this way.  Without out, f runs first in
halves too, because the result's type is that of what f returns.
Either way one check (_mapped) rejects a result whose shape is not its
argument's.

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
import functools
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
    "real_view",
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
    its forward 1/N factor, numpy's norm="forward" value; and the
    transforms themselves: plans maps "fftn", "rfftn", "ifftn" and
    "irfftn" to its plan (_plans), whose passes to_coeffs and to_values
    call in order, or run in halves (_split).
    """

    sizes: tuple
    domain: tuple
    dims: int = field(init=False, repr=False, compare=False)
    half_shape: tuple = field(init=False, repr=False, compare=False)
    axis_args: tuple = field(init=False, repr=False, compare=False)
    forward_scales: tuple = field(init=False, repr=False, compare=False)
    plans: dict = field(init=False, repr=False, compare=False)

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
            raise ValueError(f"one interval per axis required, got {len(domain)} "
                             f"for {len(sizes)} axes")
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
        object.__setattr__(self, "plans", _plans(len(sizes), self.axis_args, self.forward_scales))

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


# the roles of a plan's arrays: the transform's input, its output and
# the half-layout inverse's work array
_IN, _OUT, _WORK = 0, 1, 2


def _copy(values: np.ndarray, _scale: None, out: np.ndarray) -> None:
    """A plan's copy pass, called as its kernels are."""
    np.copyto(out, values)


def _plans(dims: int, args: tuple, scales: tuple) -> dict:
    """Grid.plans of a grid of dims axes, whose gufunc axes arguments are
    args and forward factors scales (Grid.axis_args, forward_scales).

    A plan is (passes, phases).  passes are (call, src, scale, dst),
    each run, in order, as call(arrays[src], scale, out=arrays[dst])
    over the arrays in the roles input, output and work: on the last
    grid axis call is the pocketfft gufunc itself, whose default core
    axis is the last one, on another axis the gufunc with its axes
    argument bound (functools.partial), and _copy for a copy.  On a 3D
    grid phases are the same passes as two phases (axis, passes), the
    first two passes and the other two, each of which may run on the two
    halves of axis axis of the field (_split); on other grids phases is
    ()."""
    fft, ifft, irfft = _pocketfft.fft, _pocketfft.ifft, _pocketfft.irfft

    def on(kernel, axis: int) -> Callable:
        return kernel if axis == dims - 1 else functools.partial(kernel, axes=args[axis])

    def plan(passes: tuple, axes: tuple) -> tuple:
        return passes, (((axes[0], passes[:2]), (axes[1], passes[2:])) if dims == 3 else ())

    def last_first(last, kernel, factors: tuple) -> tuple:
        # last from the input on the last axis, then kernel in place in
        # the output on the others in descending order
        return plan(((last, _IN, factors[-1], _OUT),
                     *((on(kernel, a), _OUT, factors[a], _OUT)
                       for a in range(dims - 2, -1, -1))), (-3, -2))

    if dims == 1:
        half = ((irfft, _IN, 1.0, _OUT),)
    else:
        half = ((_copy, _IN, None, _WORK),
                *((on(ifft, a), _WORK, 1.0, _WORK) for a in range(dims - 1)),
                (irfft, _WORK, 1.0, _OUT))
    return {"fftn": last_first(fft, fft, scales),
            "rfftn": last_first(_pocketfft.rfft_n_even, fft, scales),
            "ifftn": last_first(ifft, ifft, (1.0,) * dims),
            "irfftn": plan(half, (-2, -3))}


def _split(phases: tuple, shape: tuple, arrays: tuple, func: Optional[Callable] = None,
           real: bool = False) -> bool:
    """Run a 3D plan's phases over arrays (input, output, work) in
    halves, when lane.halves cuts a field whose coefficients are shaped
    shape, and return True; else run nothing and return False, and the
    caller runs the plan's passes whole.  Each phase runs, in order,
    through _passes on the two halves of its axis, one half on the
    lane's worker (lane.split), func (_passes') mapping in the first.
    No pass of a phase transforms along its split axis, so each half's
    lines are whole, and every line goes through the same kernel as in
    one call, with the same bits."""
    cuts = [lane.halves(shape, axis) for axis, _ in phases]
    if cuts[0] is None:
        return False
    for (_, phase), (first, second) in zip(phases, cuts):
        lane.split(_passes, (phase, arrays, first, func, real),
                   (phase, arrays, second, func, real))
        func = None
    return True


def _passes(passes: tuple, arrays: tuple, index: tuple, func: Optional[Callable] = None,
            real: bool = False) -> None:
    """Run passes, in order, from the parts at index of their src arrays
    into the parts at index of their dst arrays.  func, when given, maps
    the first pass's part (_mapped) and that pass reads what it returns.
    A half of grid axis -3 holds whole grid points, every component of
    each, so func gives each point the bits it gives it over the whole
    field."""
    for call, src, scale, dst in passes:
        part = arrays[src][index]
        if func is not None:
            part, func = _mapped(func, part, real), None
        call(part, scale, out=arrays[dst][index])


def _mapped(func: Callable, values: np.ndarray, real: bool) -> np.ndarray:
    """func(values) as an ndarray (its real part when real), which must
    have values' shape: func must be pointwise.  values itself, which a
    map that overwrites its argument returns, has it."""
    mapped = func(values)
    if mapped is not values:
        if type(mapped) is not np.ndarray:
            mapped = np.asarray(mapped)
        if mapped.shape != values.shape:
            raise ValueError(f"func returned shape {mapped.shape} for values of shape "
                             f"{values.shape}; it must be pointwise")
    return mapped.real if real and mapped.dtype.kind == "c" else mapped


def to_coeffs(values: np.ndarray, grid: Grid, real: bool = False,
              out: Optional[np.ndarray] = None,
              func: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """Forward transform over the trailing grid axes, scaled by 1/npoints.

    Leading axes (e.g. a component axis) are preserved.  With real=True
    the values are taken as real (an imaginary part is dropped) and the
    result is in the half layout.  out, when given, is the complex array
    of the result's shape that receives it and is returned; it must not
    overlap values.  For float64 or complex128 values the bits are
    numpy's rfftn (real) or fftn with norm="forward": the last axis
    first, then the others in place in descending order.

    func, when given, is a pointwise map (NonlinearOp) applied to values
    first: the result is to_coeffs(func(values), grid, real, out), bit
    for bit.  It runs once, before the first pass, or, on a field in
    halves with out given, in the first phase, on each half of grid axis
    -3 (without out, whose type is that of what func returns, it runs
    first there too); what it returns must have its argument's shape.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values)
    if values.shape[-grid.dims:] != grid.sizes:
        raise ValueError(f"field shape {values.shape} does not end in {grid.shape}")
    cell = _FFT_COUNTER.get()
    if cell is not None:
        cell[0] += 1
    if func is not None and out is None:
        values, func = _mapped(func, values, real), None
    elif real and func is None and values.dtype.kind == "c":
        values = values.real
    if out is None:
        shape = (*values.shape[:-grid.dims], *grid.half_shape) if real else values.shape
        out = np.empty(shape, dtype=np.result_type(values.dtype, 1j))
    passes, phases = grid.plans["rfftn" if real else "fftn"]
    if phases and _split(phases, out.shape, (values, out, None), func, real):
        return out
    if func is not None:
        values = _mapped(func, values, real)
    arrays = (values, out, None)
    for call, src, scale, dst in passes:
        call(arrays[src], scale, out=arrays[dst])
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
    half = tail != grid.sizes
    if half and tail != grid.half_shape:
        raise _layout_error(coeffs, grid)
    cell = _FFT_COUNTER.get()
    if cell is not None:
        cell[0] += 1
    if half:
        if work is None and grid.dims > 1:
            work = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
        if out is None:
            shape, inner = (*coeffs.shape[:-1], grid.sizes[-1]), coeffs if work is None else work
            out = np.empty(shape, dtype=np.result_type(inner.real.dtype, 1.0))
        passes, phases = grid.plans["irfftn"]
    else:
        if out is None:
            out = np.empty(coeffs.shape, dtype=np.result_type(coeffs.dtype, 1j))
        passes, phases = grid.plans["ifftn"]
    arrays = (coeffs, out, work)
    if not (phases and _split(phases, coeffs.shape, arrays)):
        for call, src, scale, dst in passes:
            call(arrays[src], scale, out=arrays[dst])
    return out.real if real and not half else out


# ---------------------------------------------------------------------------
# nonlinear evaluation


@dataclass(frozen=True)
class NonlinearOp:
    """Value-space pointwise map with an optional diagonal outer symbol.

    func maps the (components, *grid.shape) value array to an array of the
    same shape, pointwise over grid points: the values it returns at a
    point depend only on the values at that point, and may couple the
    components there.  So func may be applied to any part of the field
    that holds whole points, each of its components, and gives each
    point the same bits; on a 3D field that runs in halves, to_coeffs
    applies it to the two halves of grid axis -3, one on the lane's
    worker thread.  outer, when present, multiplies the transformed
    result in coefficient space (e.g. the -D/2 factor of an advective nonlinearity
    -u u_x = -(1/2)(u^2)_x) and must be in the layout of the coefficients
    the op is applied to.  The layout also decides what func sees: real
    values for half-layout coefficients, complex values for full-layout
    ones.  The values are apply_nonlinear's values array, allocated for
    the call or, in a stepping loop, laid once over a workspace buffer
    (value_view) that the next evaluation overwrites, so func must keep
    no reference to its argument.  func may overwrite that array and
    return it, as every registry map does (so a map makes no output
    array of its own), or return a new array; apply_nonlinear transforms
    whatever it returns, in one path (to_coeffs with func).
    """

    func: Callable[[np.ndarray], np.ndarray]
    outer: Optional[np.ndarray] = None


def real_view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """A contiguous real array of buffer's precision, shaped shape, over
    the first bytes of buffer, a C-contiguous complex array with at
    least as many entries.  It shares buffer's memory for as long as
    both live."""
    return buffer.reshape(-1).view(buffer.real.dtype)[: math.prod(shape)].reshape(shape)


def value_view(buffer: np.ndarray, grid: Grid) -> np.ndarray:
    """The values array of apply_nonlinear laid over buffer, a
    C-contiguous complex array shaped like the coefficients: buffer
    itself for the full layout; for the half layout the real array
    shaped like the field over buffer's first bytes (real_view)."""
    if not _is_half(buffer, grid):
        return buffer
    return real_view(buffer, (*buffer.shape[:-1], grid.sizes[-1]))


def apply_nonlinear(coeffs: np.ndarray, op: NonlinearOp, grid: Grid,
                    out: Optional[np.ndarray] = None,
                    values: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate F(N(F^{-1} coeffs)): transform to value space, apply the
    pointwise map and transform back (to_coeffs with func, which on a
    3D field in halves maps each half inside the forward transform's
    first phase), then apply the outer symbol if any.

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
    values = to_values(coeffs, grid, False, values, out)
    out = to_coeffs(values, grid, values.dtype.kind == "f", out, op.func)
    if op.outer is not None:
        np.multiply(out, op.outer, out)
    return out
