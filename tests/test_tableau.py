"""Tests for the scheme catalog: exact classical reductions at z = 0,
symbolic summation identities, and the tableau file format."""
import dataclasses
from fractions import Fraction as F

import mpmath as mp
import pytest

from phistep.errors import TableauFileError
from phistep.phifun import PhiExpr, const_term, exp_term, phi, psi
from phistep.tableau import (
    REGISTRY,
    Tableau,
    ablawson4,
    build_abnorsett,
    build_gen_lawson,
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
    list_schemes,
    load_tableau_file,
    summation_residuals,
)

from _oracles import classical_ab_weights, classical_am_weights, frozen_catalog, phi_reference

ZERO = PhiExpr()


def mp_num(x):
    if isinstance(x, F):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpmathify(x)


def expr_eval_mp(expr, z):
    """Evaluate a PhiExpr at scalar z through the high-precision oracle,
    independently of the package's own evaluators."""
    z = mp.mpmathify(z)
    total = mp.mpf(0)
    for t in expr.terms:
        c = mp_num(t.coeff)
        if t.index == 0 and t.scale == 0:
            total += c
        elif t.index == 0:
            total += c * mp.exp(mp_num(t.scale) * z)
        else:
            total += c * phi_reference(t.index, mp_num(t.scale) * z)
    return total


def at_zero_list(exprs):
    return [e.at_zero() for e in exprs]


# ---------------------------------------------------------------------------
# Adams-type weights


def test_ab_weights_q2_hand_expanded():
    b1, hist = etd_ab_weights(2)
    assert b1 == phi(1) + phi(2)
    assert hist == (-1 * phi(2),)


def test_am_weights_q2_trapezoid():
    w = etd_am_weights(2)
    assert w == (phi(2), phi(1) - phi(2))
    assert at_zero_list(w) == [F(1, 2), F(1, 2)]


@pytest.mark.parametrize("q", range(2, 9))
def test_ab_weights_reduce_to_classical(q):
    b1, hist = etd_ab_weights(q)
    assert at_zero_list((b1, *hist)) == list(classical_ab_weights(q))


def test_ab4_literal():
    b1, hist = etd_ab_weights(4)
    assert at_zero_list((b1, *hist)) == [F(55, 24), F(-59, 24), F(37, 24), F(-9, 24)]


@pytest.mark.parametrize("q", range(2, 9))
def test_am_weights_reduce_to_classical(q):
    assert at_zero_list(etd_am_weights(q)) == list(classical_am_weights(q))


def test_am4_literal():
    assert at_zero_list(etd_am_weights(4)) == [F(3, 8), F(19, 24), F(-5, 24), F(1, 24)]


@pytest.mark.parametrize("q", range(2, 9))
def test_weights_sum_to_phi1(q):
    b1, hist = etd_ab_weights(q)
    assert (sum(hist, b1) - phi(1)).is_zero()
    assert (sum(etd_am_weights(q), ZERO) - phi(1)).is_zero()


def test_weights_match_quadrature_oracle():
    # Independent check of the whole Lagrange-integral machinery: compare
    # each q=3 weight at z=-1 against direct quadrature of its defining
    # integral over the cardinal polynomial.
    z = mp.mpf(-1)
    for nodes, weights in (
        ([0, -1, -2], (lambda w: [w[0], *w[1]])(etd_ab_weights(3))),
        ([1, 0, -1], list(etd_am_weights(3))),
    ):
        for i, xi in enumerate(nodes):
            def cardinal(theta, i=i, xi=xi):
                val = mp.mpf(1)
                for j, xj in enumerate(nodes):
                    if j != i:
                        val *= (theta - xj) / (xi - xj)
                return val
            want = mp.quad(lambda s: mp.exp((1 - s) * z) * cardinal(s), [0, 1])
            got = expr_eval_mp(weights[i], z)
            assert abs(got - want) <= 1e-12 * max(1, abs(want))


def test_weight_range_checks():
    with pytest.raises(ValueError):
        etd_ab_weights(1)
    with pytest.raises(ValueError):
        etd_ab_weights(9)
    with pytest.raises(ValueError):
        etd_am_weights(1)


# ---------------------------------------------------------------------------
# catalog builders


def test_etd_euler():
    t = etd_euler()
    assert (t.order, t.stages, t.steps) == (1, 1, 1)
    assert t.B == (phi(1),)
    assert t.B[0].at_zero() == 1


def test_etdrk2():
    t = etdrk2()
    assert t.A[1][0] == phi(1)
    assert t.B[1] == phi(2)
    assert t.B[0] == phi(1) - phi(2)
    assert at_zero_list(t.B) == [F(1, 2), F(1, 2)]
    assert t.A[1][0].at_zero() == 1


def test_etdrk4_reduces_to_classical_rk4():
    t = etdrk4()
    a = [[e.at_zero() for e in row] for row in t.A]
    assert a[1][0] == F(1, 2)
    assert a[2][0] == 0 and a[2][1] == F(1, 2)
    assert a[3][0] == 0 and a[3][1] == 0 and a[3][2] == 1
    assert at_zero_list(t.B) == [F(1, 6), F(1, 3), F(1, 3), F(1, 6)]
    assert t.C == (0, F(1, 2), F(1, 2), 1)


def test_etdrk4_b1_closed_form():
    assert etdrk4().B[0] == phi(1) - 3 * phi(2) + 4 * phi(3)


def test_etdrk4_a41_closed_form():
    assert etdrk4().A[3][0] == phi(1) - 2 * psi(1, F(1, 2))


def test_etdrk4_a32_at_zero():
    assert etdrk4().A[2][1].at_zero() == F(1, 2)


def test_etdrk4_b4_at_zero():
    assert etdrk4().B[3].at_zero() == F(1, 6)


def test_etdrk4_override_identity():
    # The chained stage-4 form e^{z/2} v2 - path relies on
    # e^{z/2} psi_12(z) - psi_12(z) = A41(z); check at stiff, oscillatory
    # and large arguments through the high-precision oracle.
    t = etdrk4()
    psi12 = psi(1, F(1, 2))
    for z in (mp.mpf(-3), mp.mpc(0, 2), mp.mpf(-100), mp.mpc(-1, 40)):
        lhs = mp.exp(z / 2) * expr_eval_mp(psi12, z) - expr_eval_mp(psi12, z)
        rhs = expr_eval_mp(t.A[3][0], z)
        assert abs(lhs - rhs) <= 1e-25 * max(1, abs(rhs))
    assert t.stage_source == {4: 2}
    assert set(t.stage_source_coeffs) == {(4, 1), (4, 3)}


def test_registry_tableau_is_built_once():
    for info in REGISTRY.values():
        assert info.tableau() is info.tableau(), info.name
    assert REGISTRY["genlawson45"].tableau().coefficients_equal(build_gen_lawson(5))


@pytest.mark.parametrize("info", list(REGISTRY.values()), ids=lambda r: r.name)
def test_summation_residuals(info):
    t = info.tableau()
    if t.satisfies_summation:
        assert all(r.is_zero() for r in summation_residuals(t))
    else:
        with pytest.raises(ValueError):
            complete_summation(t)


@pytest.mark.parametrize("q", (4, 5, 6))
def test_abnorsett_b1_is_direct_weight(q):
    t = build_abnorsett(q)
    b1, hist = etd_ab_weights(q)
    assert t.B[0] == b1
    assert t.V == hist
    assert (t.order, t.stages, t.steps) == (q, 1, q)


def test_abnorsett_range():
    with pytest.raises(ValueError):
        build_abnorsett(3)
    with pytest.raises(ValueError):
        build_abnorsett(7)


@pytest.mark.parametrize("p", (4, 5, 6, 7))
def test_pec_slots(p):
    t = build_pec(p)
    _, pred_hist = etd_ab_weights(p - 1)
    cw = etd_am_weights(p)
    assert (t.order, t.stages, t.steps) == (p, 2, p - 1)
    assert t.A[1][0] == etd_ab_weights(p - 1)[0]  # summation fill = AB head weight
    assert t.U[1] == pred_hist
    assert t.B == (cw[1], cw[0])
    assert t.V == tuple(cw[2:])


@pytest.mark.parametrize("p", (4, 5, 6, 7))
def test_pecec_slots(p):
    t = build_pecec(p)
    cw = etd_am_weights(p)
    assert (t.order, t.stages, t.steps) == (p, 3, p - 1)
    assert t.A[2][1] == cw[0]
    assert t.A[2][0] == cw[1]
    assert t.U[2] == tuple(cw[2:])
    assert t.B == (cw[1], ZERO, cw[0])
    assert t.V == tuple(cw[2:])


def test_pec_examples_from_catalog():
    assert (build_pec(4).order, build_pec(4).stages, build_pec(4).steps) == (4, 2, 3)
    assert (build_pecec(7).order, build_pecec(7).stages, build_pecec(7).steps) == (7, 3, 6)


def test_pec_range():
    for bad in (3, 8):
        with pytest.raises(ValueError):
            build_pec(bad)
        with pytest.raises(ValueError):
            build_pecec(bad)


@pytest.mark.parametrize("q", [0, 8])
def test_gen_lawson_range(q):
    with pytest.raises(ValueError, match=rf"q must be in \[1, 7\], got {q}"):
        build_gen_lawson(q)


def test_lawson4_reduces_to_classical_rk4():
    t = lawson4()
    assert not t.satisfies_summation
    a = [[e.at_zero() for e in row] for row in t.A]
    assert a[1][0] == F(1, 2) and a[2][1] == F(1, 2) and a[3][2] == 1
    assert at_zero_list(t.B) == [F(1, 6), F(1, 3), F(1, 3), F(1, 6)]
    # all entries are pure exponentials (or constants): no phi_{l>=1} terms
    for row in t.A:
        for e in row:
            assert all(term.index == 0 for term in e.terms)
    for e in t.B:
        assert all(term.index == 0 for term in e.terms)


def test_ablawson4_reduces_to_classical_ab4():
    t = ablawson4()
    assert not t.satisfies_summation
    vals = at_zero_list((t.B[0], *t.V))
    assert vals == list(classical_ab_weights(4))
    scales = [term.scale for e in (t.B[0], *t.V) for term in e.terms]
    assert scales == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# registry


def test_registry_size_and_lookup():
    assert len(REGISTRY) >= 15
    info = get_scheme("ETDRK4")
    assert info.name == "etdrk4"
    assert (info.display, info.family) == ("ETDRK4", "ETD Runge–Kutta")
    with pytest.raises(KeyError):
        get_scheme("rk4")


def test_registry_rows_match_reference_table():
    expected = {
        "abnorsett4": ("ETD Adams–Bashforth", 4, 1, 4),
        "abnorsett5": ("ETD Adams–Bashforth", 5, 1, 5),
        "abnorsett6": ("ETD Adams–Bashforth", 6, 1, 6),
        "etdrk4": ("ETD Runge–Kutta", 4, 4, 1),
        "ablawson4": ("Lawson", 4, 1, 4),
        "lawson4": ("Lawson", 4, 4, 1),
        "genlawson41": ("Gen. Lawson", 4, 4, 1),
        "genlawson42": ("Gen. Lawson", 4, 4, 2),
        "genlawson43": ("Gen. Lawson", 4, 4, 3),
        "genlawson44": ("Gen. Lawson", 5, 4, 4),
        "genlawson45": ("Gen. Lawson", 6, 4, 5),
        "pec423": ("Exp. Predictor-Corrector", 4, 2, 3),
        "pecec433": ("Exp. Predictor-Corrector", 4, 3, 3),
        "pec524": ("Exp. Predictor-Corrector", 5, 2, 4),
        "pecec534": ("Exp. Predictor-Corrector", 5, 3, 4),
        "pec625": ("Exp. Predictor-Corrector", 6, 2, 5),
        "pecec635": ("Exp. Predictor-Corrector", 6, 3, 5),
        "pec726": ("Exp. Predictor-Corrector", 7, 2, 6),
        "pecec736": ("Exp. Predictor-Corrector", 7, 3, 6),
    }
    for name, (family, order, s, q) in expected.items():
        info = REGISTRY[name]
        assert (info.family, info.order, info.stages, info.steps) == (family, order, s, q)


def test_catalog_tableaux_equal_the_frozen_builders():
    # the family constructions give, field for field, the tableaux that
    # the scheme-by-scheme builders gave
    frozen = frozen_catalog()
    assert sorted(frozen) == sorted(REGISTRY)
    compared = [f.name for f in dataclasses.fields(Tableau) if f.compare]
    for name, info in REGISTRY.items():
        got, want = info.tableau(), frozen[name]
        for slot in compared:
            assert getattr(got, slot) == getattr(want, slot), (name, slot)


def test_registry_tableau_consistency():
    for info in list_schemes():
        t = info.tableau()
        # GenLawson4q keeps u^n and q past values: q + 1 tableau steps
        steps = info.steps + 1 if info.family == "Gen. Lawson" else info.steps
        assert (t.order, t.stages, t.steps) == (info.order, info.stages, steps)
        assert t.is_complete


# ---------------------------------------------------------------------------
# validation


def test_tableau_validation():
    with pytest.raises(ValueError):  # C[0] != 0
        Tableau("x", 1, 1, 1, C=(1,), A=((ZERO,),), B=(phi(1),))
    with pytest.raises(ValueError):  # nonzero upper triangle
        Tableau(
            "x", 2, 2, 1, C=(0, 1),
            A=((ZERO, phi(1)), (phi(1), ZERO)), B=(phi(1), phi(2)),
        )
    with pytest.raises(ValueError):  # B length
        Tableau("x", 1, 1, 1, C=(0,), A=((ZERO,),), B=(phi(1), phi(2)))
    with pytest.raises(ValueError):  # history fed into stage 1
        Tableau(
            "x", 2, 1, 2, C=(0,), A=((ZERO,),), B=(phi(1),),
            U=((phi(2),),), V=(ZERO,),
        )
    with pytest.raises(ValueError):  # stage source out of range
        Tableau(
            "x", 2, 2, 1, C=(0, 1),
            A=((ZERO, ZERO), (phi(1), ZERO)), B=(phi(1) - phi(2), phi(2)),
            stage_source={2: 2},
        )


_VALID = dict(
    name="x", order=1, stages=2, steps=2, C=(0, 1),
    A=((ZERO, ZERO), (phi(1), ZERO)), B=(phi(1) - phi(2), phi(2)),
    U=((ZERO,), (phi(2),)), V=(exp_term(1, 2),),
)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"stages": 0}, r"stages must be in \[1, 12\], got 0"),
        ({"stages": 13}, r"stages must be in \[1, 12\], got 13"),
        ({"steps": 0}, r"steps must be in \[1, 8\], got 0"),
        ({"steps": 9}, r"steps must be in \[1, 8\], got 9"),
        ({"order": 0}, r"order must be positive, got 0"),
        ({"C": (0,)}, r"C must have one node per stage \(2\), got 1"),
        ({"C": (1, 1)}, r"C\[0\] must be 0, got 1"),
        ({"A": ((ZERO, ZERO),)}, r"A must be 2x2"),
        ({"A": ((ZERO,), (phi(1),))}, r"A must be 2x2"),
        ({"B": (phi(1),)}, r"B must have 2 entries"),
        ({"U": ((ZERO,),)}, r"U must be 2x1"),
        ({"U": ((ZERO, ZERO), (ZERO, ZERO))}, r"U must be 2x1"),
        ({"V": (ZERO, ZERO)}, r"V must have 1 entries"),
        ({"A": ((ZERO, phi(1)), (phi(1), ZERO))}, r"A\[1\]\[2\] must be zero"),
        ({"A": ((ZERO, ZERO), (phi(1), None))}, r"A\[2\]\[2\] cannot await summation"),
        ({"U": ((ZERO,), (None,))}, r"U\[2\]\[1\] cannot await summation"),
        ({"U": ((phi(2),), (ZERO,))}, r"U\[1\]\[1\] must be zero"),
        ({"V": (None,)}, r"V entries cannot await summation"),
        ({"B": (phi(1), None)}, r"only B\[1\] may await summation"),
        ({"stage_source": {2: 2}}, r"stage source 2 <- 2 out of range"),
        ({"stage_source_coeffs": {(2, 1): phi(1)}},
         r"source coefficient \(2,1\) without a stage source"),
    ],
    ids=["stages-0", "stages-13", "steps-0", "steps-9", "order-0", "C-length", "C0", "A-rows",
         "A-cols", "B-length", "U-rows", "U-cols", "V-length", "A-upper", "A-sum-column-2",
         "U-sum", "U-stage-1", "V-sum", "B-sum", "stage-source", "source-coeff"],
)
def test_tableau_rejects_each_bad_input_naming_its_slot(changes, message):
    Tableau(**_VALID)  # the unchanged coefficients are valid
    with pytest.raises(ValueError, match=message):
        Tableau(**{**_VALID, **changes})


def test_incomplete_tableau_rejects_residuals():
    t = Tableau("x", 2, 2, 1, C=(0, 1), A=((ZERO, ZERO), (phi(1), ZERO)), B=(None, phi(2)))
    assert not t.is_complete
    with pytest.raises(ValueError):
        summation_residuals(t)


# ---------------------------------------------------------------------------
# tableau files

ETDRK4_FILE = """
# strict-form encoding of the fourth-order ETD Runge-Kutta scheme
name: etdrk4-file
order: 4
stages: 4
steps: 1
C: 0 1/2 1/2 1
A[2][1] = 1/2*phi1(1/2*z)
A[3][1] = sum
A[3][2] = 0.5*phi1(0.5*z)
A[4][1] = sum
A[4][3] = phi1(1/2*z)
B[1] = sum
B[2] = 2*phi2(z) - 4*phi3(z)
B[3] = 2*phi2(z) - 4*phi3(z)
B[4] = -phi2(z) + 4*phi3(z)
"""

ETD_EULER_FILE = """
name: euler-file
order: 1
stages: 1
steps: 1
C: 0
B[1] = phi1(z)
"""

ABLAWSON4_FILE = """
name: ablawson4-file
order: 4
stages: 1
steps: 4
summation: no
C: 0
B[1] = 55/24*exp(z)
V[1] = -59/24*exp(2*z)
V[2] = 37/24*exp(3*z)
V[3] = -9/24*exp(4*z)
"""


def _load(tmp_path, text, name="scheme.tab"):
    f = tmp_path / name
    f.write_text(text)
    return load_tableau_file(f)


def test_file_round_trip_etdrk4(tmp_path):
    t = _load(tmp_path, ETDRK4_FILE)
    assert t.coefficients_equal(etdrk4())
    assert t.name == "etdrk4-file"


def test_file_etd_euler(tmp_path):
    t = _load(tmp_path, ETD_EULER_FILE)
    assert t.B == (phi(1),)
    assert t.coefficients_equal(etd_euler())


def test_file_ablawson4(tmp_path):
    t = _load(tmp_path, ABLAWSON4_FILE)
    assert t.coefficients_equal(ablawson4())
    assert not t.satisfies_summation


def test_file_expression_forms(tmp_path):
    t = _load(
        tmp_path,
        """
name: forms
order: 1
stages: 2
steps: 1
summation: no
C: 0 1
A[2][1] = 1/2 + 0.25*exp(-1*z) - phi2(2*z)
B[1] = phi1(z)
B[2] = 0
""",
    )
    assert t.A[1][0] == const_term(F(1, 2)) + exp_term(F(1, 4), -1) - phi(2, 1, 2)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("A[2][2] = phi1(z)", "triangle"),
        ("A[1][1] = phi1(z)", "triangle"),
        ("B[5] = phi1(z)", "out of range"),
        ("B[9] = phi1(z)", "line 17: B index out of range"),
        ("V[1] = phi1(z)", "out of range"),
        ("B[2] = garbage(z)", "cannot parse"),
        ("B[2] = phi1(z", "cannot parse"),
        ("bogus: 3", "unknown header"),
        ("V[2] = sum", "out of range"),
    ],
)
def test_file_errors(tmp_path, mutation, fragment):
    text = ETDRK4_FILE + mutation + "\n"
    with pytest.raises(TableauFileError) as err:
        _load(tmp_path, text)
    assert fragment in str(err.value)


MULTISTEP_FILE = """name: x
order: 1
stages: 2
steps: 2
summation: no
C: 0 1
A[2][1] = phi1(z)
B[1] = phi1(z) - phi2(z)
B[2] = phi2(z)
U[2][1] = 1/2*phi2(z)
V[1] = exp(2*z)
"""


def test_file_multistep_entries(tmp_path):
    t = _load(tmp_path, MULTISTEP_FILE)
    assert t.U == ((ZERO,), (phi(2, F(1, 2)),)) and t.V == (exp_term(1, 2),)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("C: 0 1", "C: 0 x", r"line 6: not a rational number: 'x'"),
        ("B[2] = phi2(z)", "B[2] =", r"line 9: empty coefficient expression"),
        ("B[2] = phi2(z)", "X[2] = phi2(z)", r"line 9: bad entry slot 'X\[2\]'"),
        ("B[2] = phi2(z)", "B[2] phi2(z)", r"line 9: expected 'key: value' or 'SLOT = expr'"),
        ("order: 1", "order: one", r"line 2: order must be an integer, got 'one'"),
        ("stages: 2", "stages: 2.0", r"line 3: stages must be an integer, got '2\.0'"),
        ("steps: 2", "steps: two", r"line 4: steps must be an integer, got 'two'"),
        ("summation: no", "summation: maybe", r"line 5: summation must be yes or no"),
        ("B[2] = phi2(z)", "B[2][1] = phi2(z)", r"line 9: wrong number of indices for B"),
        ("U[2][1] =", "U[2] =", r"line 10: wrong number of indices for U"),
        ("U[2][1] =", "U[2][2] =", r"line 10: U index out of range"),
        ("B[2] = phi2(z)", "B[2] = sum\nsummation: yes", r"line 9: only B\[1\] and A\[i\]\[1\]"),
        ("steps: 2", "steps: 9", r"steps must be in \[1, 8\], got 9"),
        ("B[2] = phi2(z)", "B[2] = phi13(z)",
         r"line 9: phi index must be an int in \[0, 12\], got 13"),
        ("B[2] = phi2(z)", "B[2] = phi1(0*z)",
         r"line 9: scale 0 is only allowed for the constant term"),
    ],
    ids=["rational", "empty", "slot", "statement", "order", "stages", "steps", "summation",
         "B-indices", "U-indices", "U-range", "sum-slot", "tableau-error", "phi13", "scale-0"],
)
def test_file_input_errors_name_their_line_or_slot(tmp_path, old, new, message):
    assert MULTISTEP_FILE.count(old) == 1
    with pytest.raises(TableauFileError, match=message):
        _load(tmp_path, MULTISTEP_FILE.replace(old, new))


def test_file_error_lineno(tmp_path):
    text = ETDRK4_FILE + "A[2][2] = phi1(z)\n"
    lineno = len(text.strip().splitlines()) + 1  # leading blank line stripped by parser
    with pytest.raises(TableauFileError) as err:
        _load(tmp_path, text)
    assert f"line {lineno}" in str(err.value)


def test_file_missing_header(tmp_path):
    with pytest.raises(TableauFileError) as err:
        _load(tmp_path, "name: x\norder: 1\nstages: 1\nC: 0\nB[1] = phi1(z)\n")
    assert "steps" in str(err.value)


def test_file_c_count_mismatch(tmp_path):
    with pytest.raises(TableauFileError):
        _load(tmp_path, "name: x\norder: 1\nstages: 2\nsteps: 1\nC: 0\nB[1] = phi1(z)\n")


def test_file_sum_requires_summation(tmp_path):
    bad = ABLAWSON4_FILE.replace("B[1] = 55/24*exp(z)", "B[1] = sum")
    with pytest.raises(TableauFileError) as err:
        _load(tmp_path, bad)
    assert "summation" in str(err.value)


def test_file_false_summation_claim(tmp_path):
    # declares the summation property but ships AB-Lawson coefficients
    bad = ABLAWSON4_FILE.replace("summation: no", "summation: yes")
    with pytest.raises(TableauFileError) as err:
        _load(tmp_path, bad)
    assert "summation" in str(err.value)
