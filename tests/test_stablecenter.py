"""Prediction tables, prediction-versus-computation sweeps, cross-q
families, and exact polynomial fitting in q and in [n]_q."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq import classcalc, stablecenter
from glq.field import field_make
from glq.gltype import empty_type, parse_gltype
from glq.stablecenter import (FIT_FAMILIES, CheckReport, Prediction,
                              check_case, fit_family_in_q, fit_polynomial_in_n,
                              fit_polynomial_in_q, predict_reflection_product,
                              sweep_merge_irreducible, sweep_two_reflections,
                              sweep_union_distinct, sweep_union_equal)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def T(field, text):
    return parse_gltype(field, text)


def predict(field, case, **params):
    """The closed-form prediction of one case, validated as check_case does."""
    return stablecenter._build(field, case, params)[3]


# ---------------------------------------------------------------------------
# the two-reflection table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "field,xi,eta,nu,value",
    [
        (F3, 2, 2, "1,1@t-2", 12),       # q² + q
        (F5, 1, 4, "2@t-2", 5),          # q: eigenvalue off the pair
        (F5, 2, 2, "2@t-2", 10),         # 2q: eigenvalue on the pair
        (F3, 2, 2, "1@t^2+1", 4),        # q + 1: irreducible quadratic
        (F3, 1, 2, "1@t-1;1@t-2", 5),    # 2q − 1: the matching pair
        (F5, 1, 2, "1@t-3;1@t-4", 4),    # q − 1: some other pair
        (F3, 2, 2, "1,1@t-1", 0),        # column at the wrong eigenvalue
    ],
)
def test_reflection_table_frozen_values(field, xi, eta, nu, value):
    p = predict_reflection_product(field, xi, eta, T(field, nu))
    assert p.value == value
    assert p.status == "proved"


@pytest.mark.parametrize(
    "field,xi,eta,nu",
    [
        (F3, 1, 2, "1,1@t-2"),     # det 4 ≠ 2
        (F3, 2, 2, "1@t-1;1@t-2"), # det 2 ≠ 4
        (F5, 2, 3, "2@t-2"),       # det 4 ≠ 6
    ],
)
def test_reflection_table_determinant_gate(field, xi, eta, nu):
    p = predict_reflection_product(field, xi, eta, T(field, nu))
    assert p.value == 0
    assert p.status == "zero-by-grading"


def test_reflection_table_rejects_bad_arguments():
    with pytest.raises(ValueError, match="eigenvalue 0 is not a unit of F_3"):
        predict_reflection_product(F3, 0, 2, T(F3, "1,1@t-2"))
    with pytest.raises(ValueError, match="eigenvalue 4 is not a unit of F_3"):
        predict_reflection_product(F3, 1, 4, T(F3, "1,1@t-2"))
    with pytest.raises(ValueError, match="‖ν‖ = 2"):
        predict_reflection_product(F3, 2, 2, T(F3, "1@t-2"))


@pytest.mark.parametrize("field,cases", [(F2, 3), (F3, 32)], ids=["q2", "q3"])
def test_reflection_sweep_matches_computation(field, cases):
    reports = sweep_two_reflections(field)
    assert len(reports) == cases
    assert all(r.match for r in reports)
    assert not any(r.is_failure for r in reports)


def test_reflection_sweep_reads_one_stable_product_per_pair(monkeypatch):
    # four (ξ, η) at q = 3; one constant per ν would make 16 products
    calls = []
    real = classcalc.multiply_class_sums

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classcalc, "multiply_class_sums", spy)
    reports = sweep_two_reflections(F3)
    assert len(reports) == 32 and all(r.match for r in reports)
    assert len(calls) <= 10


def test_reflection_spot_checks_q5():
    r = check_case(F5, "two-reflections", xi=1, eta=4, nu=T(F5, "2@t-2"))
    assert r.computed == r.predicted.value == 5
    r = check_case(F5, "two-reflections", xi=1, eta=2, nu=T(F5, "1@t-3;1@t-4"))
    assert r.computed == r.predicted.value == 4
    r = check_case(F5, "two-reflections", xi=2, eta=2, nu=T(F5, "1,1@t-2"))
    assert r.computed == r.predicted.value == 30


# ---------------------------------------------------------------------------
# union and merge predictors
# ---------------------------------------------------------------------------

def test_union_predictor_frozen_values():
    assert predict(F3, "union-distinct", xs=(1, 2)).value == 5
    assert predict(F5, "union-distinct", xs=(1, 2, 3)).value == 81
    assert predict(F3, "union-equal", xi=2, c=1, d=1).value == 12
    assert predict(F3, "union-equal", xi=2, c=1, d=2).value == 117
    assert predict(F3, "union-mixed", xs=(2, 1), cs=(1, 1)).value == 60
    assert predict(F3, "union-poly", xi=2, f=(1, 0, 1)).value == 17
    assert predict(
        F3, "union-poly-mixed", xi=2, c1=1, factors=(((1, 0, 1), 1),)).value == 204


def test_union_predictor_statuses():
    assert predict(F3, "union-distinct", xs=(1, 2)).status == "proved"
    assert predict(F3, "union-equal", xi=2, c=1, d=1).status == "proved"
    for case, params in [
        ("union-mixed", dict(xs=(2, 1), cs=(1, 1))),
        ("union-poly", dict(xi=2, f=(1, 0, 1))),
        ("union-poly-mixed", dict(xi=2, c1=0, factors=(((1, 0, 1), 1),))),
    ]:
        assert predict(F3, case, **params).status == "conjectural"


def test_merge_predictor_is_gated_by_constant_term():
    # target constant must equal −ξ·(source constant)
    p = predict(F3, "merge-irreducible",
                      xi=2, fprime=(2, 1, 1), f=(2, 2, 0, 1))
    assert p.value == 13 and p.status == "conjectural"
    p = predict(F5, "merge-irreducible",
                      xi=2, fprime=(2, 4, 1), f=(1, 1, 0, 1))
    assert p.value == 31 and p.status == "conjectural"
    p = predict(F5, "merge-irreducible",
                      xi=2, fprime=(2, 4, 1), f=(2, 0, 1, 1))
    assert p.value == 0 and p.status == "zero-by-grading"


def test_union_predictor_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown case"):
        predict(F3, "no-such-case")
    with pytest.raises(ValueError, match="distinct"):
        predict(F3, "union-distinct", xs=(2, 2))
    with pytest.raises(ValueError, match="≠ 0, 1"):
        predict(F3, "union-equal", xi=1, c=1, d=1)
    with pytest.raises(ValueError, match="differ from the reflection"):
        predict(F3, "union-poly", xi=2, f=(1, 1))
    with pytest.raises(ValueError, match="degree 3 up"):
        predict(F3, "merge-irreducible",
                      xi=2, fprime=(2, 1), f=(1, 0, 1))


def test_prediction_value_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        Prediction(-1, "proved", "nowhere")


# ---------------------------------------------------------------------------
# prediction-versus-computation checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F3, F5], ids=["q3", "q5"])
def test_union_distinct_sweep(field):
    reports = sweep_union_distinct(field, 2)
    assert len(reports) == (field.q - 1) * (field.q - 2)
    assert all(r.match for r in reports)
    assert {r.predicted.value for r in reports} == {2 * field.q - 1}


def test_union_distinct_three_eigenvalues():
    assert sweep_union_distinct(F3, 3) == []  # needs three distinct units
    r = check_case(F5, "union-distinct", xs=(1, 2, 3))
    assert r.computed == r.predicted.value == 81
    assert r.match


def test_union_distinct_needs_an_eigenvalue():
    for call in (lambda: check_case(F3, "union-distinct", xs=()),
                 lambda: predict(F3, "union-distinct", xs=()),
                 lambda: sweep_union_distinct(F3, 0),
                 lambda: check_case(F3, "union-mixed", xs=(), cs=())):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            call()


@pytest.mark.parametrize("case, params", [
    ("union-distinct", dict(xs=(1, 3))),
    ("union-equal", dict(xi=4, c=1, d=1)),
    ("union-mixed", dict(xs=(2, -1), cs=(1, 1))),
    ("union-poly", dict(xi=3, f=(1, 0, 1))),
    ("union-poly-mixed", dict(xi=-1, c1=0, factors=(((1, 0, 1), 1),))),
    ("merge-irreducible", dict(xi=0, fprime=(2, 1, 1), f=(2, 2, 0, 1))),
])
def test_every_eigenvalue_must_be_a_unit(case, params):
    with pytest.raises(ValueError, match="is not a unit of F_3"):
        predict(F3, case, **params)


def test_union_equal_sweep_q3():
    reports = sweep_union_equal(F3)  # ξ = 2 only at q = 3
    assert [r.computed for r in reports] == [12, 117, 117]
    assert all(r.match for r in reports)


def test_union_equal_sweep_q5_squares():
    reports = sweep_union_equal(F5, pairs=((1, 1),))
    assert len(reports) == 3  # ξ ∈ {2, 3, 4}
    assert {r.computed for r in reports} == {30}
    assert all(r.match for r in reports)


def test_union_mixed_matches_computation():
    r = check_case(F3, "union-mixed", xs=(2, 1), cs=(1, 1))
    assert r.computed == r.predicted.value == 60
    assert r.predicted.status == "conjectural" and r.match


def test_union_poly_mixed_matches_computation():
    r = check_case(F3, "union-poly-mixed", xi=2, c1=1,
                   factors=(((1, 0, 1), 1),))
    assert r.computed == r.predicted.value == 204
    assert r.match


def test_merge_sweep_q3_reproduces_cubic_table():
    reports = sweep_merge_irreducible(F3, 2, (2, 1, 1))
    assert len(reports) == 8  # all monic irreducible cubics over F_3
    assert all(r.match for r in reports)
    hits = {str(r.nu): r.computed for r in reports if r.computed}
    assert hits == {
        "1@t^3+2*t+2": 13,
        "1@t^3+t^2+2": 13,
        "1@t^3+t^2+t+2": 13,
        "1@t^3+2*t^2+2*t+2": 13,
    }
    zeros = [r for r in reports if not r.computed]
    assert all(r.predicted.status == "zero-by-grading" for r in zeros)


def test_merge_sweep_q5_reproduces_cubic_table():
    reports = sweep_merge_irreducible(F5, 2, (2, 4, 1))
    assert len(reports) == 40  # all monic irreducible cubics over F_5
    assert all(r.match for r in reports)
    hits = [r for r in reports if r.computed]
    assert len(hits) == 10 and {r.computed for r in hits} == {31}
    # the surviving targets are exactly those with the forced constant term
    assert all(r.nu.entries[0][0][0] == 1 for r in hits)


def test_conjectural_mismatch_is_finding_not_failure():
    empty = empty_type(F3)
    finding = CheckReport(case="demo", params="", lam=empty, mu=empty,
                          nu=empty, computed=1,
                          predicted=Prediction(2, "conjectural", "demo"),
                          match=False)
    assert not finding.is_failure
    failure = CheckReport(case="demo", params="", lam=empty, mu=empty,
                          nu=empty, computed=1,
                          predicted=Prediction(2, "proved", "demo"),
                          match=False)
    assert failure.is_failure


# ---------------------------------------------------------------------------
# polynomial fitting in q
# ---------------------------------------------------------------------------

def test_fit_in_q_frozen_quadratic():
    fit = fit_polynomial_in_q([(3, 17), (5, 49), (7, 97)])
    assert fit.coefficients == (Fraction(-1), Fraction(0), Fraction(2))
    assert fit.shifted == (Fraction(1), Fraction(4), Fraction(2))
    assert fit.all_integer and fit.all_nonnegative_shifted
    assert fit.evaluate(11) == 241


def test_fit_in_q_linear_and_constant():
    fit = fit_polynomial_in_q([(2, 3), (3, 4), (5, 6)])
    assert fit.coefficients == (Fraction(1), Fraction(1))
    fit = fit_polynomial_in_q([(2, 7), (3, 7)])
    assert fit.coefficients == (Fraction(7),)


def test_fit_in_q_fractional_coefficients_are_reported():
    fit = fit_polynomial_in_q([(0, 0), (1, 0), (2, 1)])  # x(x−1)/2
    assert fit.coefficients == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert not fit.all_integer


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-10**6, 10**6)),
                min_size=2, max_size=7, unique_by=lambda point: point[0]))
def test_fit_in_q_reproduces_points_and_shifts_by_one(points):
    fit = fit_polynomial_in_q(points)
    assert all(fit.evaluate(x) == v for x, v in points)
    around = replace(fit, coefficients=fit.shifted)  # p(x+1) as a fit
    assert len(fit.shifted) == len(fit.coefficients)
    for x in (-7, -1, 0, 1, 2, 13):
        assert around.evaluate(x) == fit.evaluate(x + 1)


def test_fit_in_q_rejects_bad_points():
    with pytest.raises(ValueError, match="duplicate"):
        fit_polynomial_in_q([(3, 17), (3, 18)])
    with pytest.raises(ValueError, match="at least two"):
        fit_polynomial_in_q([(3, 17)])


# ---------------------------------------------------------------------------
# polynomial fitting in [n]_q
# ---------------------------------------------------------------------------

def test_fit_in_n_transvection_class_sizes():
    lam = T(F2, "1@t-1")
    fit = fit_polynomial_in_n(lam, lam, empty_type(F2), F2, n_list=(2, 3, 4))
    assert fit.points == ((3, 3), (7, 21), (15, 105))  # abscissa is [n]_2
    assert fit.coefficients == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert not fit.all_integer
    assert "degree" in fit.warning


def test_fit_in_n_top_degree_is_constant():
    fit = fit_polynomial_in_n(T(F2, "1@t-1"), T(F2, "1@t^2+t+1"),
                              T(F2, "1@t-1;1@t^2+t+1"), F2, n_list=(4, 5))
    assert fit.coefficients == (Fraction(7),)  # stability: 2q² − 1 at q = 2


def test_fit_in_n_round_trip_q3():
    lam = T(F3, "1@t-1")
    fit = fit_polynomial_in_n(lam, lam, lam, F3, n_list=(2, 3, 4))
    for x, value in fit.points:
        assert fit.evaluate(x) == value


def test_fit_in_n_rejects_bad_ranks():
    lam = T(F2, "1@t-1")
    with pytest.raises(ValueError, match="at least two"):
        fit_polynomial_in_n(lam, lam, empty_type(F2), F2, n_list=(3,))
    with pytest.raises(ValueError, match="at least k"):
        fit_polynomial_in_n(lam, lam, T(F2, "1,1@t-1"), F2, n_list=(3, 4))


# ---------------------------------------------------------------------------
# cross-q families
# ---------------------------------------------------------------------------

def test_fit_families_are_integral_and_positive():
    frozen = {
        "pair-same-eigenvalue": (Fraction(0), Fraction(1), Fraction(1)),
        "pair-distinct-eigenvalues": (Fraction(-1), Fraction(2)),
        "quadratic-join": (Fraction(-1), Fraction(0), Fraction(2)),
    }
    for name, coefficients in frozen.items():
        fit, reports, skipped = fit_family_in_q(name)
        assert skipped == [] and all(r.match for r in reports)
        assert fit.coefficients == coefficients
        assert fit.all_integer and fit.all_nonnegative_shifted


@pytest.mark.slow
def test_fit_family_two_column_join():
    fit, reports, skipped = fit_family_in_q("column-two-distinct")
    assert skipped == [] and all(r.match for r in reports)
    assert fit.points == ((3, 17), (5, 49), (7, 97))
    assert fit.coefficients == (Fraction(-1), Fraction(0), Fraction(2))


def test_fit_family_skips_degenerate_reductions():
    # at q = 2 the label t−2 reduces to t, so the family skips that point
    fit, reports, skipped = fit_family_in_q("quadratic-join", q_list=(2, 3, 5))
    assert skipped == [2]
    assert len(reports) == 2 and fit is not None


def test_fit_family_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown family"):
        fit_family_in_q("no-such-family")
    with pytest.raises(ValueError, match="prime fields"):
        fit_family_in_q("quadratic-join", q_list=(4,))


def test_fit_family_catalog_is_documented():
    for name, (description, builder) in FIT_FAMILIES.items():
        assert description and callable(builder)


def test_factor_columns_are_ascii_digits():
    # int() would read '1_0' as 10 columns
    with pytest.raises(ValueError, match="is not 'poly:columns'"):
        stablecenter.parse_case_params(F3, "union-poly-mixed",
                                       {"factors": "t^2+1:1_0"})
