"""Grid, wavenumber, symbol, and transform tests with closed-form oracles."""
import concurrent.futures
import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phistep import lane, spectral
from phistep.spectral import (
    Grid,
    NonlinearOp,
    apply_nonlinear,
    diff_symbol,
    fft_counter,
    install_fft_counter,
    laplacian_symbol,
    remove_fft_counter,
    to_coeffs,
    to_values,
    value_view,
    wavenumbers,
)

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# grids


def test_grid_uniform_properties():
    g = Grid.uniform(2, 4, (0.0, TWO_PI))
    assert g.dims == 2
    assert g.shape == (4, 4)
    assert g.npoints == 16
    assert g.spacing(0) == pytest.approx(np.pi / 2)
    np.testing.assert_allclose(g.axis_points(0), [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    x, y = g.meshgrid()
    assert x.shape == (4, 4)
    assert x[1, 0] == x[1, 3]  # matrix indexing: first axis varies down rows
    assert y[0, 1] == y[3, 1]


def test_grid_half_shape():
    g = Grid((6, 8, 10), ((0.0, 1.0),) * 3)
    assert (g.dims, g.shape, g.half_shape) == (3, (6, 8, 10), (6, 8, 6))
    assert Grid.uniform(1, 16, (0.0, 1.0)).half_shape == (9,)
    same = Grid([6, 8, 10], [(0, 1)] * 3)
    assert same == g and hash(same) == hash(g)


def test_grid_stored_fields_change_nothing_visible():
    # dims, half_shape and the transform arguments are stored at
    # construction but take no part in equality, hashing or the repr, and
    # replace and pickling rebuild or restore them
    g = Grid((8, 12), ((0.0, 1.0), (0.0, 2.0)))
    assert [f.name for f in dataclasses.fields(g) if f.compare] == ["sizes", "domain"]
    assert g == Grid((8, 12), ((0, 1), (0, 2)))
    assert hash(g) == hash(((8, 12), ((0.0, 1.0), (0.0, 2.0))))
    assert repr(g) == "Grid(sizes=(8, 12), domain=((0.0, 1.0), (0.0, 2.0)))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.dims = 3
    wider = dataclasses.replace(g, sizes=(8, 12, 4), domain=(*g.domain, (0.0, 1.0)))
    assert (wider.dims, wider.half_shape, len(wider.axis_args)) == (3, (8, 12, 3), 3)
    assert dataclasses.replace(g) == g and dataclasses.replace(g).dims == 2
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and repr(back) == repr(g)
    assert (back.dims, back.half_shape, back.axis_args, back.forward_scales) == (
        g.dims, g.half_shape, g.axis_args, g.forward_scales)


def test_grid_interval_open_at_right_end():
    g = Grid.uniform(1, 8, (-1.0, 1.0))
    pts = g.axis_points(0)
    assert pts[0] == -1.0
    assert pts[-1] == pytest.approx(0.75)
    assert 1.0 not in pts


@pytest.mark.parametrize(
    "sizes, domain",
    [
        ((5,), ((0.0, 1.0),)),  # odd size
        ((0,), ((0.0, 1.0),)),  # empty axis
        ((4, 4, 4, 4), ((0.0, 1.0),) * 4),  # too many dims
        ((4,), ((1.0, 1.0),)),  # empty interval
        ((4,), ((2.0, 1.0),)),  # reversed interval
        ((4,), ((0.0, np.inf),)),  # non-finite end
        ((4, 4), ((0.0, 1.0),)),  # domain/sizes length mismatch
    ],
)
def test_grid_validation(sizes, domain):
    with pytest.raises(ValueError):
        Grid(sizes, domain)


@pytest.mark.parametrize("size", [32.5, 32.0, "32", True])
def test_grid_rejects_a_size_that_is_not_an_integer(size):
    # int(32.5) once made a 32-point axis
    with pytest.raises(ValueError, match=f"axis sizes must be integers, got {size!r}"):
        Grid((size,), ((0.0, 1.0),))


def test_grid_takes_numpy_integer_sizes_as_ints():
    grid = Grid(np.array([8, 6]), ((0.0, 1.0),) * 2)
    assert grid == Grid((8, 6), ((0.0, 1.0),) * 2)
    assert all(type(n) is int for n in grid.sizes)


# ---------------------------------------------------------------------------
# wavenumbers


def test_wavenumbers_unit_circle():
    k = wavenumbers(4, (0.0, TWO_PI))
    np.testing.assert_array_equal(k, [0.0, 1.0, -2.0, -1.0])
    assert k.dtype == np.float64


def test_wavenumbers_unit_interval():
    k = wavenumbers(4, (0.0, 1.0))
    np.testing.assert_allclose(k, [0.0, TWO_PI, -2 * TWO_PI, -TWO_PI], rtol=1e-15)


def test_wavenumbers_wide_interval_scale():
    # [0, 32*pi) scales the integer modes by 1/16
    k = wavenumbers(512, (0.0, 32 * np.pi))
    assert k[1] == pytest.approx(1.0 / 16.0)
    assert k.min() == pytest.approx(-16.0)  # mode -256 present
    assert k.max() == pytest.approx(16.0 - 1.0 / 16.0)  # +256 absent


def test_wavenumbers_integer_exactness():
    # On [0, 2*pi) the scale factor is exactly 1, stored order starts at 0
    k = wavenumbers(64, (0.0, TWO_PI))
    np.testing.assert_array_equal(k, np.fft.fftfreq(64, d=1.0 / 64))
    assert all(float(v).is_integer() for v in k)


def test_wavenumbers_odd_size_rejected():
    with pytest.raises(ValueError):
        wavenumbers(7, (0.0, 1.0))


# ---------------------------------------------------------------------------
# differentiation symbols


def test_diff2_small_grid_exact():
    g = Grid.uniform(1, 4, (0.0, TWO_PI))
    sym = diff_symbol(2, 0, g)
    np.testing.assert_array_equal(sym, [0.0, -1.0, -4.0, -1.0])
    assert not np.iscomplexobj(sym)


def test_diff1_nyquist_zeroed():
    g = Grid.uniform(1, 4, (0.0, TWO_PI))
    sym = diff_symbol(1, 0, g)
    np.testing.assert_array_equal(sym, [0.0, 1j, 0.0, -1j])


def test_diff3_nyquist_zeroed():
    g = Grid.uniform(1, 4, (0.0, TWO_PI))
    sym = diff_symbol(3, 0, g)
    np.testing.assert_array_equal(sym, [0.0, -1j, 0.0, 1j])


def test_diff4_small_grid_exact():
    g = Grid.uniform(1, 4, (0.0, TWO_PI))
    np.testing.assert_array_equal(diff_symbol(4, 0, g), [0.0, 1.0, 16.0, 1.0])


@pytest.mark.parametrize("p", [0, 5, -1])
def test_diff_order_out_of_range(p):
    g = Grid.uniform(1, 4, (0.0, TWO_PI))
    with pytest.raises(ValueError):
        diff_symbol(p, 0, g)


@pytest.mark.parametrize(
    "grid",
    [
        Grid.uniform(1, 64, (0.0, TWO_PI)),
        Grid.uniform(1, 32, (0.0, 32 * np.pi)),
        Grid.uniform(1, 16, (-1.0, 1.0)),
        Grid.uniform(1, 16, (0.0, np.e)),
        Grid.uniform(2, 8, (0.0, 100.0)),
        Grid.uniform(3, 4, (0.0, 30.0)),
    ],
)
def test_diff2_squared_is_diff4_bitwise(grid):
    for axis in range(grid.dims):
        d2 = diff_symbol(2, axis, grid)
        d4 = diff_symbol(4, axis, grid)
        assert np.array_equal(d2 * d2, d4)


def test_laplacian_2d_entry():
    g = Grid.uniform(2, 4, (0.0, TWO_PI))
    lap = laplacian_symbol(g)
    assert lap.shape == (4, 4)
    assert lap[1, 2] == -5.0  # modes (1, -2): -(1 + 4)
    assert lap[0, 0] == 0.0


def test_laplacian_3d_matches_sum_of_axes():
    g = Grid.uniform(3, 4, (0.0, 17.0))
    lap = laplacian_symbol(g)
    manual = sum(diff_symbol(2, axis, g) for axis in range(3))
    np.testing.assert_array_equal(lap, manual)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_trig_polynomial_differentiation(p):
    g = Grid.uniform(1, 32, (0.0, TWO_PI))
    (x,) = g.meshgrid()
    u = np.sin(3 * x) + np.cos(5 * x)
    # p-th derivative in closed form via the rotation sin -> cos -> -sin ...
    derivs = {
        1: 3 * np.cos(3 * x) - 5 * np.sin(5 * x),
        2: -9 * np.sin(3 * x) - 25 * np.cos(5 * x),
        3: -27 * np.cos(3 * x) + 125 * np.sin(5 * x),
        4: 81 * np.sin(3 * x) + 625 * np.cos(5 * x),
    }
    got = to_values(diff_symbol(p, 0, g) * to_coeffs(u, g), g, real=True)
    np.testing.assert_allclose(got, derivs[p], atol=1e-11 * 5 ** p)


def test_trig_differentiation_scaled_interval():
    g = Grid.uniform(1, 64, (0.0, 32 * np.pi))
    (x,) = g.meshgrid()
    u = np.sin(x / 16)
    got = to_values(diff_symbol(1, 0, g) * to_coeffs(u, g), g, real=True)
    np.testing.assert_allclose(got, np.cos(x / 16) / 16, atol=1e-14)


def test_diff_symbol_broadcast_shape_2d():
    g = Grid.uniform(2, 6, (0.0, 1.0))
    dx = diff_symbol(1, 0, g)
    dy = diff_symbol(1, 1, g)
    assert dx.shape == dy.shape == (6, 6)
    # axis-0 symbol constant along axis 1 and vice versa
    assert np.all(dx == dx[:, :1])
    assert np.all(dy == dy[:1, :])


# ---------------------------------------------------------------------------
# transforms


def test_constant_field_is_delta():
    g = Grid.uniform(1, 16, (0.0, TWO_PI))
    c = to_coeffs(np.full(16, 3.5), g)
    assert c[0] == pytest.approx(3.5, abs=1e-15)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-14)


def test_single_mode_lands_in_slot_one():
    g = Grid.uniform(1, 8, (0.0, TWO_PI))
    (x,) = g.meshgrid()
    c = to_coeffs(np.exp(1j * x), g)
    assert c[1] == pytest.approx(1.0, abs=1e-15)
    mask = np.ones(8, bool)
    mask[1] = False
    np.testing.assert_allclose(c[mask], 0.0, atol=1e-15)


def test_roundtrip():
    rng = np.random.default_rng(7)
    g = Grid.uniform(2, 16, (0.0, 3.0))
    u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    back = to_values(to_coeffs(u, g), g)
    np.testing.assert_allclose(back, u, atol=1e-13)


def test_roundtrip_with_component_axis():
    rng = np.random.default_rng(8)
    g = Grid.uniform(1, 32, (0.0, 1.0))
    u = rng.standard_normal((2, 32))
    back = to_values(to_coeffs(u, g), g, real=True)
    assert back.shape == (2, 32)
    np.testing.assert_allclose(back, u, atol=1e-14)


def test_to_values_real_flag():
    g = Grid.uniform(1, 8, (0.0, TWO_PI))
    u = np.cos(g.axis_points(0))
    vals = to_values(to_coeffs(u, g), g, real=True)
    assert vals.dtype == np.float64


def test_transform_shape_validation():
    g = Grid.uniform(2, 8, (0.0, 1.0))
    field_error = r"field shape \(8,\) does not end in \(8, 8\)"
    layout_error = r"coefficient shape \(8, 4\) ends in neither \(8, 8\) nor the half layout \(8, 5\)"
    with pytest.raises(ValueError, match=field_error):
        to_coeffs(np.zeros(8), g)
    with pytest.raises(ValueError, match=layout_error):
        to_values(np.zeros((8, 4)), g)



def test_numpy_without_the_pocketfft_kernels_fails_the_import_by_name():
    # the transforms call numpy's private kernels; a numpy without them
    # fails `import phistep` with a PhistepError naming them
    import phistep
    src = os.path.dirname(os.path.dirname(phistep.__file__))
    code = ("import sys; sys.modules['numpy.fft._pocketfft_umath'] = None\n"
            "try:\n    import phistep\n"
            "except Exception as exc:\n    print(type(exc).__name__, exc)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120).stdout
    assert out.startswith("PhistepError numpy ")
    assert "numpy.fft._pocketfft_umath" in out and "numpy>=2.0,<3" in out

_LAYOUT_GRIDS = [
    Grid((16,), ((0.0, TWO_PI),)),
    Grid((8, 12), ((0.0, 1.0), (0.0, 2.0))),
    Grid((6, 8, 10), ((0.0, 1.0),) * 3),
]


def _field(grid, real, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, *grid.shape))
    return values if real else values + 1j * rng.standard_normal(values.shape)


def _check_transforms_match_numpy(values, grid, real):
    # to_coeffs and to_values run numpy's pocketfft kernels axis by axis;
    # with and without out/work their bits are those of the public
    # np.fft n-D transforms.  A last axis of 2 has coinciding layouts, so
    # its coefficients are read as full.
    axes = tuple(range(-grid.dims, 0))
    want = (np.fft.rfftn if real else np.fft.fftn)(values, axes=axes, norm="forward")
    coeffs = to_coeffs(values, grid, real=real)
    assert coeffs.tobytes() == want.tobytes()
    out = np.empty_like(want)
    assert to_coeffs(values, grid, real=real, out=out) is out
    assert out.tobytes() == want.tobytes()
    half = real and grid.sizes[-1] > 2
    if half:
        inverse = np.fft.irfftn(coeffs, grid.shape, axes=axes, norm="forward")
    else:
        inverse = np.fft.ifftn(coeffs, axes=axes, norm="forward")
    kept = coeffs.copy()
    assert to_values(coeffs, grid).tobytes() == inverse.tobytes()
    if not half:
        assert to_values(coeffs, grid, real=True).tobytes() == inverse.real.tobytes()
    # out may be a strided view or a row-strided front of a wider array;
    # work receives a half-layout inverse's leading axes
    n = inverse.shape[-1]
    wide = np.empty((*inverse.shape[:-1], 2 * n), inverse.dtype)
    for into in (wide[..., ::2], wide[..., :n]):
        work = np.empty_like(coeffs)
        assert to_values(coeffs, grid, out=into, work=work) is into
        assert into.tobytes() == inverse.tobytes()
    assert coeffs.tobytes() == kept.tobytes()
    # coeffs may be strided too, the front of a wider array: a half-layout
    # inverse copies it into work and gives the same bits, and the wider
    # array is left untouched
    m = coeffs.shape[-1]
    wider = np.zeros((*coeffs.shape[:-1], m + 3), coeffs.dtype)
    wider[..., :m] = coeffs
    front = wider[..., :m]
    assert to_values(front, grid).tobytes() == inverse.tobytes()
    assert to_values(front, grid, work=np.empty_like(coeffs)).tobytes() == inverse.tobytes()
    assert front.tobytes() == kept.tobytes() and not wider[..., m:].any()


@pytest.mark.parametrize("grid", _LAYOUT_GRIDS, ids=lambda g: f"{g.dims}d")
@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
def test_transforms_match_numpy_bit_for_bit(grid, real):
    _check_transforms_match_numpy(_field(grid, real), grid, real)


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.sampled_from(range(2, 17, 2)), min_size=1, max_size=3),
       components=st.integers(1, 2), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_transforms_equal_public_numpy_fft_on_random_grids(sizes, components, real, seed):
    grid = Grid(sizes, ((0.0, 1.0),) * len(sizes))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((components, *grid.shape))
    if not real:
        values = values + 1j * rng.standard_normal(values.shape)
    _check_transforms_match_numpy(values, grid, real)


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


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
def test_3d_transforms_in_halves_match_numpy_bit_for_bit(monkeypatch, real, components):
    # with the threshold lowered, a 3D transform of either layout runs
    # its passes in two phases of two halves, one on the lane's worker,
    # and keeps numpy's bits, also into strided out and from a strided
    # coeffs view
    calls = _count_splits(monkeypatch)
    grid = _LAYOUT_GRIDS[2]
    _check_transforms_match_numpy(_field(grid, real)[:components], grid, real)
    assert calls and set(calls) == {spectral._passes}


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.sampled_from(range(2, 17, 2)), min_size=3, max_size=3),
       components=st.integers(1, 2), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_3d_transforms_in_halves_equal_public_numpy_fft_on_random_grids(
        sizes, components, real, seed):
    grid = Grid(sizes, ((0.0, 1.0),) * 3)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((components, *grid.shape))
    if not real:
        values = values + 1j * rng.standard_normal(values.shape)
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_splits(patch)
        _check_transforms_match_numpy(values, grid, real)
    assert calls


class _RecordingKernels:
    """Stands in for spectral._pocketfft: calls its kernels and records
    each call as (kernel name, input, axes, out)."""

    def __init__(self, kernels):
        self.kernels, self.calls = kernels, []

    def __getattr__(self, name):
        kernel = getattr(self.kernels, name)

        def record(a, factor, axes, out):
            self.calls.append((name, a, axes, out))
            return kernel(a, factor, axes=axes, out=out)
        return record


@pytest.mark.parametrize("grid", _LAYOUT_GRIDS[1:], ids=lambda g: f"{g.dims}d")
@pytest.mark.parametrize("given_work", [True, False], ids=["work", "no-work"])
def test_half_layout_inverse_runs_its_leading_axes_in_place_in_work(
        grid, given_work, monkeypatch):
    # the leading-axis iffts of a half-layout inverse read and write work
    # (one copy of coeffs, then in place), in ascending axis order, and
    # the last-axis irfft reads work: no ifft reads coeffs along a
    # strided leading axis
    coeffs = to_coeffs(_field(grid, real=True), grid, real=True)
    kept = coeffs.copy()
    want = np.fft.irfftn(coeffs, grid.shape, axes=tuple(range(-grid.dims, 0)),
                         norm="forward")
    work = np.empty_like(coeffs) if given_work else None
    kernels = _RecordingKernels(spectral._pocketfft)
    monkeypatch.setattr(spectral, "_pocketfft", kernels)
    got = to_values(coeffs, grid, work=work)
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes()
    assert coeffs.tobytes() == kept.tobytes()
    *leading, last = kernels.calls
    assert [(name, axes) for name, _, axes, _ in leading] == [
        ("ifft", grid.axis_args[axis]) for axis in range(grid.dims - 1)]
    inside = leading[0][1]
    assert not np.shares_memory(inside, coeffs)
    if given_work:
        assert inside is work
    for _, a, _, out in leading:
        assert a is out is inside
    assert last[0] == "irfft" and last[1] is inside and last[3] is got


@pytest.mark.parametrize("grid", _LAYOUT_GRIDS, ids=lambda g: f"{g.dims}d")
def test_to_coeffs_real_drops_the_imaginary_part_of_complex_values(grid):
    # real=True on complex values transforms their real part: the bits of
    # the same call on values.real
    values = _field(grid, real=False)
    got = to_coeffs(values, grid, real=True)
    assert got.shape == (2, *grid.half_shape)
    assert got.tobytes() == to_coeffs(values.real, grid, real=True).tobytes()


# ---------------------------------------------------------------------------
# nonlinear evaluation


@pytest.mark.parametrize("grid", _LAYOUT_GRIDS, ids=lambda g: f"{g.dims}d")
@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("func", [lambda u: u, lambda u: u * u], ids=["identity", "square"])
def test_apply_nonlinear_returns_a_new_array_from_two_transforms(grid, real, func):
    coeffs = to_coeffs(_field(grid, real), grid, real=real)
    kept = coeffs.copy()
    outer = _field(grid, real, seed=1)[0][..., : coeffs.shape[-1]]
    cell, token = install_fft_counter()
    try:
        out = apply_nonlinear(coeffs, NonlinearOp(func, outer=outer), grid)
        assert cell[0] == 2
        plain = apply_nonlinear(coeffs, NonlinearOp(func), grid)
        assert cell[0] == 4
    finally:
        remove_fft_counter(token)
    assert out.shape == coeffs.shape and out.dtype == np.complex128
    assert not np.shares_memory(out, coeffs)
    assert not np.shares_memory(plain, coeffs)
    assert coeffs.tobytes() == kept.tobytes()
    want = to_coeffs(func(to_values(coeffs, grid)), grid, real=real) * outer
    assert out.tobytes() == want.tobytes()
    # the buffered form: the result in out, the values laid over scratch
    # once (value_view), the same two transforms and the same bits,
    # coeffs untouched
    into, scratch = np.full_like(coeffs, np.nan), np.full_like(coeffs, np.nan)
    values = value_view(scratch, grid)
    assert values.shape == (2, *grid.shape)
    assert values.__array_interface__["data"][0] == scratch.__array_interface__["data"][0]
    seen = []

    def watched(u):
        seen.append((u is values, np.shares_memory(u, scratch), u.flags.c_contiguous,
                     u.dtype.kind))
        return func(u)

    cell, token = install_fft_counter()
    try:
        got = apply_nonlinear(coeffs, NonlinearOp(watched, outer=outer), grid,
                              out=into, values=values)
        assert cell[0] == 2
    finally:
        remove_fft_counter(token)
    assert got is into
    assert seen == [(True, True, True, "f" if real else "c")]
    assert into.tobytes() == out.tobytes()
    assert apply_nonlinear(coeffs, NonlinearOp(func), grid, into,
                           values).tobytes() == plain.tobytes()
    assert coeffs.tobytes() == kept.tobytes()


@pytest.mark.parametrize("grid", _LAYOUT_GRIDS, ids=lambda g: f"{g.dims}d")
@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
def test_apply_nonlinear_keeps_single_precision(grid, real):
    # the buffers a plain call allocates are of the coefficients' complex
    # type, so complex64 coefficients give float32 or complex64 values and
    # a complex64 result with the bits of the two transforms in that type
    coeffs = to_coeffs(_field(grid, real), grid, real=real).astype(np.complex64)
    seen = []

    def square(u):
        seen.append(u.dtype)
        return u * u

    out = apply_nonlinear(coeffs, NonlinearOp(square), grid)
    assert seen == [np.dtype(np.float32 if real else np.complex64)]
    assert out.dtype == np.complex64 and out.shape == coeffs.shape
    values = to_values(coeffs, grid)
    want = to_coeffs(values * values, grid, real=real)
    assert want.dtype == np.complex64
    assert out.tobytes() == want.tobytes()


def test_cube_of_constant():
    g = Grid.uniform(1, 16, (0.0, TWO_PI))
    op = NonlinearOp(lambda u: u ** 3)
    c = to_coeffs(np.full((1, 16), 2.0), g, real=True)
    out = apply_nonlinear(c, op, g)
    assert out[0, 0] == pytest.approx(8.0, abs=1e-14)
    np.testing.assert_allclose(out[0, 1:], 0.0, atol=1e-13)


def test_advective_nonlinearity_on_sine():
    # -(1/2) d/dx (u^2) with u = sin x equals -sin x cos x
    g = Grid.uniform(1, 32, (0.0, TWO_PI))
    (x,) = g.meshgrid()
    half = slice(0, 32 // 2 + 1)
    op = NonlinearOp(lambda u: u ** 2, outer=-0.5 * diff_symbol(1, 0, g)[half])
    out = apply_nonlinear(to_coeffs(np.sin(x)[None], g, real=True), op, g)
    expected = to_coeffs((-np.sin(x) * np.cos(x))[None], g, real=True)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_two_component_constant_state():
    # reaction terms gamma*(a + u^2 v), gamma*(b - u^2 v) at (u, v) = (1, 1)
    gamma, a, b = 3.0, 0.1, 0.9
    g = Grid.uniform(2, 8, (0.0, 30.0))

    def func(uv):
        u, v = uv[0], uv[1]
        return np.stack([gamma * (a + u * u * v), gamma * (b - u * u * v)])

    op = NonlinearOp(func)
    state = to_coeffs(np.ones((2, 8, 8)), g, real=True)
    out = apply_nonlinear(state, op, g)
    assert out[0, 0, 0] == pytest.approx(3.3, abs=1e-13)
    assert out[1, 0, 0] == pytest.approx(-0.3, abs=1e-13)


# ---------------------------------------------------------------------------
# transform counting


def test_counter_counts_two_per_nonlinear_evaluation():
    g = Grid.uniform(1, 16, (0.0, TWO_PI))
    op = NonlinearOp(lambda u: u ** 2)
    c = to_coeffs(np.ones((1, 16)), g, real=True)
    cell, token = install_fft_counter()
    try:
        before = cell[0]
        apply_nonlinear(c, op, g)
        assert cell[0] - before == 2
        apply_nonlinear(c, op, g)
        assert cell[0] - before == 4
    finally:
        remove_fft_counter(token)
    assert fft_counter() is None


def test_counter_absent_by_default():
    g = Grid.uniform(1, 8, (0.0, 1.0))
    assert fft_counter() is None
    to_coeffs(np.zeros(8), g)  # must not raise without a counter


def test_counter_is_context_local():
    g = Grid.uniform(1, 16, (0.0, TWO_PI))
    op = NonlinearOp(lambda u: u ** 2)
    c = to_coeffs(np.ones((1, 16)), g, real=True)
    cell, token = install_fft_counter()
    try:
        def work():
            inner, tok = install_fft_counter()
            try:
                apply_nonlinear(c, op, g)
                return inner[0]
            finally:
                remove_fft_counter(tok)

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            inner_count = pool.submit(work).result()
        assert inner_count == 2
        assert cell[0] == 0  # the other thread's transforms are not ours
    finally:
        remove_fft_counter(token)
