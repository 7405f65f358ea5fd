"""Closed-form predictions for stable structure constants — the proved
two-reflection and column-union tables and the conjectured union/merge
formulas — plus a harness comparing every prediction against direct
computation, and exact polynomial fitting in q and in [n]_q.

Proved formulas are safe to assert; conjectured ones carry
status "conjectural" so a disagreement is a reportable finding, never a
silent assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import polyalg
from .classcalc import (DEFAULT_MEMORY_BOUND, _constants_at_ranks,
                        stable_constant, stable_product)
from .errors import InvariantError
from .field import field_of_order
from .gltype import (GLType, _format_key, det_of_type, enumerate_plain_types,
                     gltype_make, min_rank, norm, parse_gltype, q_binomial,
                     q_int)

if TYPE_CHECKING:
    from .field import Field

__all__ = [
    "Prediction", "FitResult", "CheckReport",
    "predict_reflection_product", "check_case", "CASES",
    "parse_case_params",
    "sweep_two_reflections", "sweep_union_distinct", "sweep_union_equal",
    "sweep_merge_irreducible",
    "fit_polynomial_in_q", "fit_polynomial_in_n",
    "FIT_FAMILIES", "fit_family_in_q",
]

PROVED = "proved"
CONJECTURAL = "conjectural"
ZERO_BY_GRADING = "zero-by-grading"


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    """A closed-form value with its trust level and a descriptive source."""

    value: int
    status: str
    source: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("predicted structure constants are nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Exact interpolation through (abscissa, value) points.

    `coefficients` are in the standard basis (low degree first);
    `shifted` are the coefficients of p(x+1), i.e. the expansion around
    q−1, whose conjectured nonnegativity is worth reporting.
    """

    variable: str
    points: tuple
    coefficients: tuple
    shifted: tuple
    all_integer: bool
    all_nonnegative_shifted: bool
    warning: str | None = None

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class CheckReport:
    """One prediction-versus-computation comparison."""

    case: str
    params: str
    lam: GLType
    mu: GLType
    nu: GLType
    computed: int
    predicted: Prediction
    match: bool

    @property
    def is_failure(self) -> bool:
        """True only when a *proved* formula disagrees with the computation."""
        return (not self.match) and self.predicted.status != CONJECTURAL


# ---------------------------------------------------------------------------
# type-building helpers
# ---------------------------------------------------------------------------

def _t_minus(field: "Field", xi: int) -> tuple:
    """t − ξ for an eigenvalue ξ, which must be a unit of F_q."""
    if xi not in field.units():
        raise ValueError(f"eigenvalue {xi} is not a unit of F_{field.q} "
                         f"(codes 1..{field.q - 1})")
    return polyalg.t_minus(field, xi)


def _reflection(field: "Field", xi: int) -> GLType:
    return gltype_make(field, {_t_minus(field, xi): (1,)})


def _column_type(field: "Field", entries) -> GLType:
    """{poly: column height c} as the type {poly: (1,…,1)}, dropping c = 0."""
    return gltype_make(field, {f: (1,) * c for f, c in entries if c})


def _union(a: GLType, b: GLType) -> GLType:
    merged = {f: list(parts) for f, parts in a.entries}
    for f, parts in b.entries:
        merged.setdefault(f, []).extend(parts)
    return gltype_make(
        a.field,
        {f: tuple(sorted(parts, reverse=True)) for f, parts in merged.items()})


def _linear_root(field: "Field", f) -> int | None:
    return field.neg(f[0]) if len(f) == 2 else None


# ---------------------------------------------------------------------------
# the proved two-reflection table
# ---------------------------------------------------------------------------

def predict_reflection_product(field: "Field", xi: int, eta: int,
                               nu: GLType) -> Prediction:
    """The complete norm-2 coefficient table for a product of two
    reflection class sums with eigenvalues ξ and η."""
    _t_minus(field, xi), _t_minus(field, eta)  # ValueError unless units
    if norm(nu) != 2:
        raise ValueError(f"the table covers ‖ν‖ = 2 only, got {norm(nu)}")
    q = field.q
    if det_of_type(nu) != field.mul(xi, eta):
        return Prediction(0, ZERO_BY_GRADING, "determinant grading")
    entries = nu.entries
    if len(entries) == 2:  # two distinct eigenvalue columns (1) ∪ (1)
        roots = {_linear_root(field, f) for f, _ in entries}
        value = 2 * q - 1 if roots == {xi, eta} else q - 1
        return Prediction(value, PROVED, "two-reflection product table")
    (f, parts), = entries
    root = _linear_root(field, f)
    if parts == (1, 1):
        value = q * q + q if root == xi == eta else 0
        return Prediction(value, PROVED, "two-reflection product table")
    if parts == (2,):
        value = 2 * q if root in (xi, eta) else q
        return Prediction(value, PROVED, "two-reflection product table")
    if parts != (1,) or len(f) != 3:
        raise InvariantError("norm-2 shapes are exhausted")
    return Prediction(q + 1, PROVED, "two-reflection product table")


# ---------------------------------------------------------------------------
# the check cases: each builder validates its parameters and returns
# (λ, μ, ν, prediction); ν is λ ∪ μ except for the two-reflection and merge
# cases, whose target is a parameter
# ---------------------------------------------------------------------------

def _joined(lam: GLType, mu: GLType, predicted: Prediction) -> tuple:
    return lam, mu, _union(lam, mu), predicted


def _two_reflections(field: "Field", xi: int, eta: int, nu: GLType) -> tuple:
    predicted = predict_reflection_product(field, xi, eta, nu)
    return _reflection(field, xi), _reflection(field, eta), nu, predicted


def _union_distinct(field: "Field", xs) -> tuple:
    xs = tuple(xs)
    return _union_mixed(field, xs, (0,) + (1,) * (len(xs) - 1), PROVED,
                        "union of distinct eigenvalue columns")


def _union_equal(field: "Field", xi: int, c: int, d: int) -> tuple:
    if xi in (0, 1):
        raise ValueError("the column-merge formula needs an eigenvalue ≠ 0, 1")
    if c < 1 or d < 1:
        raise ValueError("column heights must be positive")
    q, f = field.q, _t_minus(field, xi)
    return _joined(_column_type(field, [(f, c)]), _column_type(field, [(f, d)]),
                   Prediction(q ** (c * d) * q_binomial(q, c + d, c), PROVED,
                              "equal-eigenvalue column merge"))


def _union_mixed(field: "Field", xs, cs, status: str = CONJECTURAL,
                 source: str = "mixed union with a repeated eigenvalue",
                 ) -> tuple:
    xs, cs = tuple(xs), tuple(cs)
    if not xs:
        raise ValueError("the union needs at least one eigenvalue")
    if len(xs) != len(cs):
        raise ValueError("one column height per eigenvalue")
    return _union_poly_mixed(
        field, xs[0], cs[0],
        [(_t_minus(field, x), c) for x, c in zip(xs[1:], cs[1:])],
        status, source)


def _union_poly(field: "Field", xi: int, f) -> tuple:
    return _union_poly_mixed(field, xi, 0, [(f, 1)], CONJECTURAL,
                             "reflection joined to an irreducible factor")


def _union_poly_mixed(field: "Field", xi: int, c1: int, factors,
                      status: str = CONJECTURAL,
                      source: str = "mixed union with irreducible factors",
                      ) -> tuple:
    """The one column-union formula behind the four union cases: the
    reflection 1@t-ξ joined to the columns (t−ξ)^{c₁}·∏ f^{c_f} has the
    coefficient q^{c₁}·[c₁+1]_q·∏_f (2q^{deg f·c_f} − 1) at their union."""
    entries = [(_t_minus(field, xi), c1)]
    if c1 < 0:
        raise ValueError("the repeated column height may not be negative")
    q = field.q
    value = q ** c1 * q_int(q, c1 + 1)
    for f, c in factors:
        f = tuple(f)
        if any(f == g for g, _ in entries):
            raise ValueError(
                f"column {_format_key(field, f)} repeats: the columns "
                "must be distinct and differ from the reflection's own")
        if not polyalg.is_irreducible(field, f) or f[0] == 0 or c < 1:
            raise ValueError("factors must be irreducible, prime to t, with "
                             "positive column heights")
        entries.append((f, c))
        value *= 2 * q ** ((len(f) - 1) * c) - 1
    return _joined(_reflection(field, xi), _column_type(field, entries),
                   Prediction(value, status, source))


def _merge_irreducible(field: "Field", xi: int, fprime, f) -> tuple:
    """Coefficient of a single irreducible factor one degree up: the q-integer
    [d] when the constant terms are compatible, zero by grading otherwise."""
    lam, fprime, f = _reflection(field, xi), tuple(fprime), tuple(f)
    for g in (fprime, f):
        if not polyalg.is_irreducible(field, g) or g[0] == 0:
            raise ValueError("both factors must be irreducible and prime to t")
    if len(f) != len(fprime) + 1:
        raise ValueError("the target factor must be one degree higher")
    d = len(f) - 1
    if d < 3:
        raise ValueError("the merge formula applies from degree 3 up")
    if f[0] != field.neg(field.mul(xi, fprime[0])):
        predicted = Prediction(0, ZERO_BY_GRADING, "determinant grading")
    else:
        predicted = Prediction(q_int(field.q, d), CONJECTURAL,
                               "reflection merging into one irreducible factor")
    return (lam, _column_type(field, [(fprime, 1)]),
            _column_type(field, [(f, 1)]), predicted)


def _parse_factors(field: "Field", text: str) -> tuple:
    pairs = []
    for chunk in text.split(","):
        poly_txt, sep, count = chunk.partition(":")
        bad = f"factor {chunk!r} is not 'poly:columns'"
        if not sep:
            raise ValueError(bad)
        pairs.append((polyalg.parse_poly(field, poly_txt),
                      polyalg.parse_int(count, bad)))
    return tuple(pairs)


def _show_factors(field: "Field", factors) -> str:
    return "(" + ",".join(f"{polyalg.format_poly(field, tuple(f))}^{c}"
                          for f, c in factors) + ")"


class ParamKind(NamedTuple):
    """How a case parameter is read from text and shown in a report."""

    parse: Callable  # (field, text) -> value
    show: Callable   # (field, value) -> text


def _parse_int(field: "Field", text: str) -> int:
    return polyalg.parse_int(text, f"bad integer {text!r}")


INT = ParamKind(_parse_int, lambda field, v: str(v))
INTS = ParamKind(lambda field, text: tuple(_parse_int(field, x)
                                           for x in text.split(",")),
                 lambda field, v: str(v))
POLY = ParamKind(lambda field, text: polyalg.parse_poly(field, text),
                 lambda field, f: polyalg.format_poly(field, tuple(f)))
FACTORS = ParamKind(_parse_factors, _show_factors)
TYPE = ParamKind(lambda field, text: parse_gltype(field, text),
                 lambda field, T: str(T))

#: case name → (builder, {parameter: kind}); the parameters in report order
CASES = {
    "two-reflections": (_two_reflections, {"xi": INT, "eta": INT, "nu": TYPE}),
    "union-distinct": (_union_distinct, {"xs": INTS}),
    "union-equal": (_union_equal, {"xi": INT, "c": INT, "d": INT}),
    "union-mixed": (_union_mixed, {"xs": INTS, "cs": INTS}),
    "union-poly": (_union_poly, {"xi": INT, "f": POLY}),
    "union-poly-mixed": (_union_poly_mixed,
                         {"xi": INT, "c1": INT, "factors": FACTORS}),
    "merge-irreducible": (_merge_irreducible,
                          {"xi": INT, "fprime": POLY, "f": POLY}),
}


def _kinds(case: str, keys) -> dict:
    """The declared parameters of a case; an unknown case or a key it does
    not declare raises a ValueError that names it."""
    try:
        kinds = CASES[case][1]
    except KeyError:
        raise ValueError(
            f"unknown case {case!r}; choose from {sorted(CASES)}") from None
    for key in keys:
        if key not in kinds:
            raise ValueError(f"case {case!r} takes no parameter {key}; "
                             f"it takes {', '.join(kinds)}")
    return kinds


def _build(field: "Field", case: str, params: dict) -> tuple:
    for key in _kinds(case, params):
        if key not in params:
            raise ValueError(f"case {case!r} needs the parameter {key}")
    return CASES[case][0](field, **params)


def parse_case_params(field: "Field", case: str, texts: dict) -> dict:
    """Parameter texts {name: text} read as the kinds the case declares."""
    kinds = _kinds(case, texts)
    return {key: kinds[key].parse(field, text) for key, text in texts.items()}


# ---------------------------------------------------------------------------
# prediction-versus-computation checks
# ---------------------------------------------------------------------------

def check_case(field: "Field", case: str, *,
               memory_bound: int = DEFAULT_MEMORY_BOUND,
               **params) -> CheckReport:
    """Compute the stable coefficient directly and compare it with the
    matching closed form; the prediction is never trusted."""
    lam, mu, nu, predicted = built = _build(field, case, params)
    return _report(field, case, params, built,
                   stable_constant(lam, mu, nu, field, memory_bound))


def _report(field: "Field", case: str, params: dict, built: tuple,
            computed: int) -> CheckReport:
    lam, mu, nu, predicted = built
    kinds = CASES[case][1]
    return CheckReport(
        case=case, lam=lam, mu=mu, nu=nu, computed=computed,
        params=" ".join(f"{k}={kinds[k].show(field, v)}"
                        for k, v in params.items()),
        predicted=predicted, match=computed == predicted.value)


def sweep_two_reflections(field: "Field", *,
                          memory_bound: int = DEFAULT_MEMORY_BOUND,
                          ) -> list:
    """Every (ξ, η, ν) with ‖ν‖ = 2 — the table's entire domain at this q.
    Each (ξ, η) makes one stable product, and every ν is read from it."""
    reports = []
    for xi in field.units():
        for eta in field.units():
            product = stable_product(_reflection(field, xi),
                                     _reflection(field, eta), field,
                                     memory_bound)
            for nu in enumerate_plain_types(field, 2):  # read as modified
                params = {"xi": xi, "eta": eta, "nu": nu}
                reports.append(_report(
                    field, "two-reflections", params,
                    _build(field, "two-reflections", params), product.get(nu)))
    return reports


def sweep_union_distinct(field: "Field", d: int, *,
                         memory_bound: int = DEFAULT_MEMORY_BOUND) -> list:
    """All ordered tuples of d distinct unit eigenvalues."""
    import itertools
    return [check_case(field, "union-distinct", memory_bound=memory_bound,
                       xs=xs)
            for xs in itertools.permutations(field.units(), d)]


def sweep_union_equal(field: "Field",
                      pairs=((1, 1), (1, 2), (2, 1)), *,
                      memory_bound: int = DEFAULT_MEMORY_BOUND) -> list:
    reports = []
    for xi in field.units():
        if xi == 1:
            continue
        for c, d in pairs:
            reports.append(check_case(field, "union-equal",
                                      memory_bound=memory_bound,
                                      xi=xi, c=c, d=d))
    return reports


def sweep_merge_irreducible(field: "Field", xi: int, fprime, *,
                            memory_bound: int = DEFAULT_MEMORY_BOUND) -> list:
    """One report per monic irreducible target one degree above f′ — both the
    compatible constant terms (predicted [d]) and the graded zeros."""
    fprime = tuple(fprime)
    d = len(fprime)  # degree of the targets = deg f′ + 1
    targets = [f for f in polyalg.enumerate_phi(field, d) if len(f) == d + 1]
    return [check_case(field, "merge-irreducible", memory_bound=memory_bound,
                       xi=xi, fprime=fprime, f=f)
            for f in targets]


# ---------------------------------------------------------------------------
# exact polynomial fitting
# ---------------------------------------------------------------------------

def _expand(coeffs, nodes) -> list:
    """Coefficients, low degree first, of Σ_i c_i·∏_{j<i}(x − a_j), by
    Horner's step out ← out·(x − a_i) + c_i from the top term down.  With
    Newton's divided differences and their abscissae this is the
    interpolating polynomial; with every a_i = −1 it turns the coefficients
    of p(x) into those of p(x+1)."""
    out = []
    for c, a in zip(reversed(coeffs), reversed(nodes)):
        out.insert(0, Fraction(0))  # out·x, then −a·out below
        for i in range(len(out) - 1):
            out[i] -= a * out[i + 1]
        out[0] += c
    return out


def fit_polynomial_in_q(points) -> FitResult:
    """Newton interpolation through exact integer points (q_i, value_i)."""
    pts = [(Fraction(a), Fraction(v)) for a, v in points]
    if len(pts) < 2:
        raise ValueError("at least two points are required")
    if len({a for a, _ in pts}) != len(pts):
        raise ValueError("duplicate abscissae")
    xs = [a for a, _ in pts]
    diffs = [v for _, v in pts]  # Newton's divided differences, in place
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    coeffs = _expand(diffs, xs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    coefficients = tuple(coeffs)
    shifted = tuple(_expand(coefficients, [-1] * len(coefficients)))
    result = FitResult(
        variable="q",
        points=tuple((int(a), int(v)) for a, v in pts),
        coefficients=coefficients,
        shifted=shifted,
        all_integer=all(c.denominator == 1 for c in coefficients),
        all_nonnegative_shifted=all(c >= 0 for c in shifted),
    )
    if any(result.evaluate(a) != v for a, v in pts):
        raise InvariantError("interpolation must reproduce inputs")
    return result


def fit_polynomial_in_n(lam: GLType, mu: GLType, nu: GLType,
                        field: "Field" = None, n_list=(None,),
                        memory_bound: int = DEFAULT_MEMORY_BOUND) -> FitResult:
    """Interpolate a^ν_λμ(n) in the variable x = [n]_q over the given ranks,
    computed from the highest down and fitted in the given order."""
    F = field if field is not None else lam.field
    ns = tuple(n_list)
    if len(ns) < 2 or len(set(ns)) != len(ns):
        raise ValueError("at least two distinct ranks are required")
    k = min_rank(nu)
    if any(n is None or n < k for n in ns):
        raise ValueError(f"every rank must be at least k = {k}")
    values = _constants_at_ranks(lam, mu, nu, ns, F, memory_bound)
    pts = [(q_int(F.q, n), values[n]) for n in ns]
    return replace(fit_polynomial_in_q(pts), variable="x",
                   warning=f"degree is determined only up to {len(pts) - 1}; "
                           "more ranks could reveal higher terms")


# ---------------------------------------------------------------------------
# cross-q families (integer polynomial labels, reduced modulo each q)
# ---------------------------------------------------------------------------

def _reduce_label(field: "Field", label) -> tuple | None:
    """An integer-coefficient monic label as a polynomial over F_q, or None
    when reduction degenerates (becomes t, drops degree, or turns reducible)."""
    f = tuple(c % field.p for c in label)
    if field.e != 1:
        raise ValueError("integer labels reduce into prime fields only")
    if f[-1] != 1 or f[0] == 0:
        return None
    if len(f) > 2 and not polyalg.is_irreducible(field, f):
        return None
    return f


#: label → (description, builder); the builder returns case parameters for
#: check_case from reduced labels, or None when this q must be skipped.
FIT_FAMILIES = {
    "pair-same-eigenvalue": (
        "two reflections with one shared eigenvalue merging into a column",
        lambda field: _family_union_mixed(field, ((-2, 1),), (1,))),
    "pair-distinct-eigenvalues": (
        "two reflections with distinct eigenvalues joining up",
        lambda field: _family_union_mixed(field, ((-2, 1), (-1, 1)), (0, 1))),
    "column-two-distinct": (
        "a reflection joining a two-column class of another eigenvalue",
        lambda field: _family_union_mixed(field, ((-1, 1), (-2, 1)), (0, 2))),
    "quadratic-join": (
        "a reflection joining an irreducible quadratic factor",
        lambda field: _family_union_poly(field, (-2, 1), (-4, 1, 1))),
}


def _family_union_mixed(field: "Field", labels, cs):
    reduced = []
    for label in labels:
        f = _reduce_label(field, label)
        if f is None:
            return None
        reduced.append(f)
    if len(set(reduced)) != len(reduced):
        return None  # labels collided after reduction
    xs = tuple(field.neg(f[0]) for f in reduced)
    return {"case": "union-mixed", "xs": xs, "cs": tuple(cs)}


def _family_union_poly(field: "Field", xi_label, f_label):
    lin = _reduce_label(field, xi_label)
    f = _reduce_label(field, f_label)
    if lin is None or f is None or len(f) != 3:
        return None
    return {"case": "union-poly", "xi": field.neg(lin[0]), "f": f}


def fit_family_in_q(name: str, q_list=(3, 5, 7)):
    """Run one labeled family at several q and fit the results in q.

    Returns (FitResult or None, reports, skipped) where `reports` holds the
    per-q CheckReports and `skipped` the q values whose label reduction
    degenerated.
    """
    try:
        description, builder = FIT_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(FIT_FAMILIES)}"
        ) from None
    points, reports, skipped = [], [], []
    for q in q_list:
        field = field_of_order(q)
        params = builder(field)
        if params is None:
            skipped.append(q)
            continue
        case = params.pop("case")
        report = check_case(field, case, **params)
        reports.append(report)
        points.append((q, report.computed))
    fit = fit_polynomial_in_q(points) if len(points) >= 2 else None
    return fit, reports, skipped
