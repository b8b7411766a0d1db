"""The lane: split's hand-off, errors, context, fork and references, and
where the package uses it."""
import dataclasses
import gc
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phistep import integrator, lane, spectral
from phistep.integrator import SimState, _StepWork, integrate, prepare_scheme, step
from phistep.problems import default_grid, discretize, get_problem
from phistep.spectral import Grid, NonlinearOp, apply_nonlinear, to_coeffs, to_values


@pytest.fixture
def fresh_lane(monkeypatch):
    """A new, unstarted lane in place of the module's, for this test."""
    monkeypatch.setattr(lane, "_lane", lane._Lane())
    return lane._lane


def _fill(out, value, pause=0.0):
    time.sleep(pause)
    out[...] = value


def _fail(message, pause=0.0):
    time.sleep(pause)
    raise KeyError(message)


def _transform_pair(n=16):
    """A 3D half-layout field and numpy's rfftn of it."""
    grid = Grid.uniform(3, n, (0.0, 1.0))
    values = np.random.default_rng(5).standard_normal((1, *grid.shape))
    return grid, values, np.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")


def test_split_runs_first_on_the_worker_and_second_on_the_caller(fresh_lane):
    seen = []
    lane.split(lambda tag: seen.append((tag, threading.get_ident())), ("first",), ("second",))
    assert dict(seen) == {"first": fresh_lane.thread.ident, "second": threading.get_ident()}
    assert fresh_lane.thread.daemon and not fresh_lane.claim.locked()


@pytest.mark.parametrize("failing", ["first", "second"])
def test_an_error_in_either_half_reaches_the_caller_and_the_next_call_is_sound(
        fresh_lane, monkeypatch, failing):
    # the other half is slow, so the error is raised while it still
    # runs: the caller waits for the worker's half before raising, and
    # the next split, a transform in halves, gives numpy's bits
    out = np.zeros(4)
    halves = {"first": (_fail, ("boom",)), "second": (_fill, (out, 1.0, 0.05))}
    if failing == "second":
        halves = {"first": (_fill, (out, 1.0, 0.05)), "second": (_fail, ("boom",))}

    def run(which, *args):
        fn, fixed = halves[which]
        fn(*fixed)

    with pytest.raises(KeyError, match="boom"):
        lane.split(run, ("first",), ("second",))
    assert out.tolist() == [1.0] * 4
    assert not fresh_lane.claim.locked()
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0)
    grid, values, want = _transform_pair()
    assert to_coeffs(values, grid, real=True).tobytes() == want.tobytes()


def test_a_busy_lane_runs_both_halves_on_the_caller(fresh_lane):
    # a split while another holds the lane, or inside a half on the
    # worker, neither queues nor nests: both halves run inline
    here = threading.get_ident()
    seen = []
    with fresh_lane.claim:
        lane.split(lambda tag: seen.append((tag, threading.get_ident())), (1,), (2,))
    assert seen == [(1, here), (2, here)]
    inner = []

    def nested(tag):
        if tag == "first":
            lane.split(lambda t: inner.append((t, threading.get_ident())), ("a",), ("b",))

    lane.split(nested, ("first",), ("second",))
    worker = fresh_lane.thread.ident
    assert inner == [("a", worker), ("b", worker)]


def test_concurrent_splits_keep_their_bits():
    # more threads than cores transform at once; at most one holds the
    # lane, the others run inline, and every result is numpy's
    grid, values, want = _transform_pair()
    results, failures = [], []

    def work():
        try:
            for _ in range(20):
                results.append(to_coeffs(values, grid, real=True).tobytes() == want.tobytes())
        except BaseException as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    saved = lane.MIN_SPLIT_ENTRIES
    lane.MIN_SPLIT_ENTRIES = 0
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        lane.MIN_SPLIT_ENTRIES = saved
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and len(results) == 80 and all(results)


def test_the_worker_half_runs_in_the_callers_errstate(fresh_lane):
    big, out = np.full(8, 1e300), np.empty(8)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            lane.split(np.multiply, (big, big, out), (np.ones(8), np.ones(8), np.empty(8)))


def _square_of_inverse(coeffs, grid):
    """numpy's rfftn of the square of numpy's irfftn of coeffs."""
    axes = (-3, -2, -1)
    values = np.fft.irfftn(coeffs, grid.shape, axes=axes, norm="forward")
    return np.fft.rfftn(values * values, axes=axes, norm="forward")


def test_an_error_in_the_workers_half_of_the_map_reaches_the_caller(fresh_lane, monkeypatch):
    # the map raises on the worker's half only; the error reaches the
    # caller, as a map's error does whole, and the next evaluation, in
    # halves, gives numpy's bits
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0)
    grid, _, coeffs = _transform_pair()
    here = threading.get_ident()

    def fail_on_the_worker(u):
        if threading.get_ident() != here:
            raise KeyError("worker half")
        return u * u

    with pytest.raises(KeyError, match="worker half"):
        apply_nonlinear(coeffs, NonlinearOp(fail_on_the_worker), grid)
    assert fresh_lane.thread is not None and not fresh_lane.claim.locked()
    got = apply_nonlinear(coeffs, NonlinearOp(lambda u: u * u), grid)
    assert got.tobytes() == _square_of_inverse(coeffs, grid).tobytes()


@pytest.mark.parametrize("split", [False, True], ids=["whole", "halves"])
def test_an_overflowing_map_raises_under_errstate(fresh_lane, monkeypatch, split):
    # the values overflow when squared in the first half of axis -3 only,
    # the worker's when the map runs in halves: FloatingPointError reaches
    # the caller either way, and the next evaluation gives numpy's bits
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0 if split else 1 << 62)
    grid, values, coeffs = _transform_pair()
    values[:, : grid.sizes[0] // 2] = 1e200
    out = np.empty_like(coeffs)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            to_coeffs(values, grid, real=True, out=out, func=lambda u: u * u)
        got = apply_nonlinear(coeffs, NonlinearOp(lambda u: u * u), grid)
    assert (fresh_lane.thread is not None) == split
    assert got.tobytes() == _square_of_inverse(coeffs, grid).tobytes()


def test_a_step_in_halves_makes_eight_transforms():
    # the map runs inside the forward transform: an ETDRK4 step on
    # sh3 48^3 still counts 8 transforms, 2 per evaluation
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=48))
    assert system.u0.size >= lane.MIN_SPLIT_ENTRIES
    result = integrate(system, "etdrk4", 0.1, 0.3)
    assert result.steps == 3 and result.fft_total == 8 * 3


@dataclasses.dataclass(frozen=True)
class _ZeroSystem:
    """A system whose nonlinearity is zero."""

    lam: np.ndarray
    u0: np.ndarray

    def nonlinear(self, coeffs):
        return np.zeros_like(coeffs)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "halves"])
def test_an_overflowing_step_raises_under_errstate(monkeypatch, split):
    # sh3's L is positive at the mode (0, 1, 3), in the first half of
    # axis -3 (the worker's), so e^{hL} u^n overflows there; the
    # nonlinearity is zero, so the overflow is the row arithmetic's
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0 if split else 1 << 62)
    monkeypatch.setattr(lane, "_lane", lane._Lane())
    system = discretize(get_problem("sh3"), default_grid(get_problem("sh3")))
    assert system.lam[0, 0, 1, 3] > 0
    quiet = _ZeroSystem(system.lam, system.u0)
    engine = prepare_scheme("etdrk4", 0.05, system.lam)
    u = np.zeros_like(system.u0, dtype=complex)
    u[0, 0, 1, 3] = np.finfo(float).max
    work = _StepWork(engine, u.shape, quiet)
    assert (work.halves is not None) == split
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            step(SimState(coeffs=u, time=0.0, step=0, initial_norm=1.0), engine, quiet,
                 work=work)
    assert (lane._lane.thread is not None) == split


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_split_step(monkeypatch):
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0)
    system = discretize(get_problem("sh3"), default_grid(get_problem("sh3")))
    want = integrate(system, "etdrk4", 0.1, 0.2).u
    assert lane._lane.thread is not None  # the parent's worker is running
    pid = os.fork()
    if pid == 0:  # the child: leaves through os._exit whatever happens
        code = 1
        try:
            got = integrate(system, "etdrk4", 0.1, 0.2).u
            started = lane._lane.thread is not None and lane._lane.thread.is_alive()
            code = 0 if started and got.tobytes() == want.tobytes() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its split step")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def _record_splits(patch) -> list:
    """Record the function of every lane.split call, through patch (a
    MonkeyPatch)."""
    calls, plain = [], lane.split

    def recording(fn, first, second):
        calls.append(fn)
        plain(fn, first, second)

    patch.setattr(lane, "split", recording)
    return calls


@pytest.mark.parametrize("short", [0, 1], ids=["at", "one-short"])
def test_a_field_at_the_threshold_splits_its_transforms_and_its_rows(monkeypatch, short):
    # one rule (lane.halves) decides for the transforms and the row
    # arithmetic: with the threshold at a sh3 field's coefficient count
    # both run in halves, one entry short of it both run whole, and the
    # bits are those of the whole path
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem))
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 1 << 62)
    want = integrate(system, "etdrk4", 0.1, 0.3).u
    calls = _record_splits(monkeypatch)
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", system.u0.size + short)
    got = integrate(system, "etdrk4", 0.1, 0.3).u
    assert got.tobytes() == want.tobytes()
    assert set(calls) == (set() if short else {spectral._passes, integrator._run})


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.sampled_from(range(2, 13, 2)), min_size=3, max_size=3),
       real=st.booleans(), short=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_a_3d_transform_without_a_component_axis_follows_the_same_rule(sizes, real, short, seed):
    # a field shaped like the grid, with no component axis, runs in
    # halves from the threshold at its coefficient count on, and whole one
    # entry short of it, with numpy's bits either way
    grid = Grid(sizes, ((0.0, 1.0),) * 3)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape)
    if not real:
        values = values + 1j * rng.standard_normal(grid.shape)
    axes = (-3, -2, -1)
    want = (np.fft.rfftn if real else np.fft.fftn)(values, axes=axes, norm="forward")
    half = real and sizes[-1] > 2
    back = (np.fft.irfftn(want, grid.shape, axes=axes, norm="forward") if half
            else np.fft.ifftn(want, axes=axes, norm="forward"))
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_splits(patch)
        patch.setattr(lane, "MIN_SPLIT_ENTRIES", want.size + short)
        coeffs = to_coeffs(values, grid, real=real)
        got = to_values(coeffs, grid)
    assert coeffs.tobytes() == want.tobytes() and got.tobytes() == back.tobytes()
    assert calls == ([] if short else [spectral._passes] * 4)


def test_1d_and_small_runs_start_no_thread(fresh_lane):
    count = threading.active_count()
    for key, scheme in (("ks", "etdrk4"), ("sh3", "etdrk4"), ("sh3", "abnorsett4")):
        problem = get_problem(key)
        system = discretize(problem, default_grid(problem))
        result = integrate(system, scheme, problem.desk_T / 64, problem.desk_T / 8)
        assert np.all(np.isfinite(result.u))
    assert fresh_lane.thread is None
    assert threading.active_count() == count


@pytest.mark.parametrize("scheme", ["etdrk4", "abnorsett4"])
def test_the_worker_holds_no_workspace_after_integrate(fresh_lane, monkeypatch, scheme):
    # sh3 at 40^3 runs in halves; once integrate returns, no workspace
    # field it made (the step's, and for abnorsett4 the starter's) is
    # held, by the lane's worker or anything else
    refs = []

    class Recording(_StepWork):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            assert self.halves is not None
            refs.append(weakref.ref(self.product))
            refs.append(weakref.ref(self.slots[-1]))

    monkeypatch.setattr(integrator, "_StepWork", Recording)
    problem = get_problem("sh3")
    system = discretize(problem, default_grid(problem, size=40))
    assert system.u0.size >= lane.MIN_SPLIT_ENTRIES
    result = integrate(system, scheme, 0.1, 0.4)
    assert fresh_lane.thread is not None and np.all(np.isfinite(result.u))
    assert len(refs) == (4 if scheme == "abnorsett4" else 2)
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * len(refs)


def test_split_transforms_allocate_nothing_of_their_own(monkeypatch):
    # the halves are views; with out and work given, a transform in
    # halves allocates no field
    monkeypatch.setattr(lane, "MIN_SPLIT_ENTRIES", 0)
    grid, values, coeffs = _transform_pair(32)
    back, work, again = np.empty_like(values), np.empty_like(coeffs), np.empty_like(coeffs)
    tracemalloc.start()
    try:
        to_values(coeffs, grid, out=back, work=work)
        to_coeffs(back, grid, real=True, out=again)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    axes = (-3, -2, -1)
    assert back.tobytes() == np.fft.irfftn(coeffs, grid.shape, axes=axes, norm="forward").tobytes()
    assert again.tobytes() == np.fft.rfftn(back, axes=axes, norm="forward").tobytes()
    assert peak < 16 * 1024, peak
