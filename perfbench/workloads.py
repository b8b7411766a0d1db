"""Workload definitions and seeded inputs for the phistep benchmark.

Each workload is one call sequence of the public ``phistep`` API, the
same one that ``phistep run`` or ``phistep bench`` performs.  The seed
only perturbs the problem's initial condition (a small, smooth sum of
low Fourier modes), so every seed does the same amount of work and the
package receives nothing but generated inputs.  NOTES.md records why each
workload exists.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Relative size of the seeded perturbation against max |ic|.  At 1e-3 the
# finest pecec736 point of nls-sweep moved by up to 5.9x between seeds, so
# its output check could not tell a changed input from a changed program.
PERTURBATION = 1e-4
# Fourier modes 1..PERTURBED_MODES per axis carry the perturbation.
PERTURBED_MODES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "run" mirrors ``phistep run``: discretize, integrate, to_values,
    save_field.  Its output check compares the final field with the same
    scheme at step ``h / 2`` and accepts a relative L2 distance up to
    ``tolerance``.

    kind "sweep" mirrors ``phistep bench``: make_plan, run_sweep, export.
    Its output check requires every point to be stable and each error to
    lie within ``ERROR_FACTOR`` of the error recorded at the seed commit
    (``baseline_errors``, keyed by scheme and ladder rung).
    """

    name: str
    kind: str
    problem: str
    T: float
    size: Optional[int] = None
    paper_scale: bool = False
    scheme: str = "etdrk4"
    h: float = 0.0
    tolerance: float = 0.0
    schemes: Tuple[str, ...] = ()
    count: int = 0
    # the kind of speed sample its times are scaled by (speed.py)
    speed: str = "1d"
    baseline_errors: Tuple[Tuple[float, ...], ...] = ()

    def params(self) -> dict:
        """The workload's parameters, for the run report."""
        out = dataclasses.asdict(self)
        out.pop("baseline_errors")
        return {k: v for k, v in out.items() if v not in (None, 0, 0.0, (), "")}


# A sweep error may move by this factor either way before the check fails;
# seeds move the errors by at most 16 % (see NOTES.md).
ERROR_FACTOR = 2.0

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ks-run", kind="run", problem="ks", T=100.0, paper_scale=True,
            scheme="etdrk4", h=1.0 / 80.0, tolerance=1e-5,
        ),
        Workload(
            name="sh3-run", kind="run", problem="sh3", T=1.2, size=64,
            scheme="etdrk4", h=0.1, tolerance=1e-3, speed="3d",
        ),
        Workload(
            name="nls-sweep", kind="sweep", problem="nls", T=0.5,
            schemes=("etdrk4", "abnorsett4", "genlawson43", "pecec736"), count=3,
            # rows follow `schemes`, columns the ladder h = T/16, T/32, T/64;
            # measured at the seed commit on the unperturbed problem
            baseline_errors=(
                (3.391015632496847e-02, 2.1758836004931253e-03, 1.2080371625242425e-04),
                (1.1553925548734417e-01, 1.0042295965305e-02, 7.609449538399876e-04),
                (3.352285888547158e-02, 1.5700563690554682e-04, 4.416922050613927e-06),
                (2.2745443888725217e-03, 5.032941754039675e-05, 3.799370918046766e-07),
            ),
        ),
    )
}


def perturbed(problem, seed: int):
    """A copy of ``problem`` whose ic adds a seeded, smooth perturbation.

    The perturbation is a sum of cosines in the lowest Fourier modes of
    each axis, with amplitudes and phases drawn from ``seed`` and scaled to
    PERTURBATION times max |ic|.  Complex problems get complex amplitudes.
    """
    rng = np.random.default_rng(seed)
    shape = (problem.dims, PERTURBED_MODES)
    amplitudes = rng.standard_normal(shape)
    if not problem.real:
        amplitudes = amplitudes + 1j * rng.standard_normal(shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, shape)
    base_ic = problem.ic

    def ic(grid):
        u = np.asarray(base_ic(grid))
        bump = np.zeros(grid.shape, dtype=amplitudes.dtype)
        for axis, x in enumerate(grid.meshgrid()):
            a, b = grid.domain[axis]
            for k in range(PERTURBED_MODES):
                angle = 2.0 * np.pi * (k + 1) * (x - a) / (b - a) + phases[axis, k]
                bump = bump + amplitudes[axis, k] * np.cos(angle)
        scale = PERTURBATION * float(np.max(np.abs(u))) / float(np.max(np.abs(bump)))
        return u + scale * bump

    return dataclasses.replace(problem, ic=ic)
