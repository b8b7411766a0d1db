"""Exponential integrators for periodic semilinear stiff PDEs.

The package discretizes u_t = L u + N(u) on periodic boxes with a Fourier
spectral method and advances the Fourier coefficients with a catalog of
exponential time integrators (ETD Runge-Kutta, ETD multistep,
predictor-corrector and Lawson-type schemes), evaluating the phi-function
coefficients stably by series and recurrence kernels.  A benchmarking
harness sweeps time steps, measures accuracy against a fine reference
solution, and renders cost/accuracy comparisons.
"""
from types import ModuleType as _ModuleType

from .errors import NoDataError, PhistepError, TableauFileError, UnstableError
from .phifun import (
    PhiExpr,
    PhiTerm,
    const_term,
    eval_phi_expr,
    exp_term,
    gamma_scalar,
    gamma_values,
    phi,
    phi_scalar,
    phi_values,
    psi,
)
from .tableau import (
    REGISTRY,
    SchemeInfo,
    Tableau,
    build_abnorsett,
    build_pec,
    build_pecec,
    complete_summation,
    etd_ab_weights,
    etd_am_weights,
    etd_euler,
    etdrk2,
    etdrk4,
    get_scheme,
    lawson4,
    ablawson4,
    build_gen_lawson,
    list_schemes,
    load_tableau_file,
)
from .spectral import (
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
    wavenumbers,
)
from .problems import (
    DiscreteSystem,
    Problem,
    default_grid,
    discretize,
    get_problem,
    kdv_phase_shifts,
    kdv_soliton,
    list_problems,
    nls_breather,
    problem_names,
)
from .integrator import (
    IntegrationResult,
    PrecomputedScheme,
    ScalarProbe,
    SimState,
    Snapshot,
    StarterResult,
    empirical_order,
    integrate,
    precompute,
    prepare_scheme,
    run_scalar_probe,
    start_multistep,
    step,
)
from .bench import (
    SweepPlan,
    SweepRecord,
    estimate_order,
    export,
    geometric_ladder,
    load_field,
    make_plan,
    plan_from_manifest,
    plan_to_manifest,
    read_records,
    reference_solution,
    rel_l2_error,
    run_sweep,
    save_field,
)

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
