"""Polynomial arithmetic over F_q, irreducibility, and the canonical list of
monic irreducibles (other than t) that indexes conjugacy data.

A polynomial is a tuple of field-element codes in ascending degree with no
trailing zeros; () is zero.  The canonical ordering used everywhere is
poly_key: by degree, then degree-1 polynomials t - xi by their root xi, then
higher degrees by ascending integer encoding of the coefficient tuple.

glq's one text grammar lives here: sums of ``c*v^k`` terms, read by
parse_poly and printed by format_terms.  Polynomials are read in t over F_q,
and field elements of F_{p^e}, e > 1, in x over F_p (Field.parse_element),
so this module needs nothing from field at run time.  Every integer in
text (exponents, partition parts, prime-field elements, option and
parameter values) is read by parse_digits, in ASCII digits only, and a
signed one by parse_int.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantError, ResourceBoundError
from .memo import memo

if TYPE_CHECKING:
    from .field import Field

__all__ = [
    "poly_trim", "poly_degree", "poly_scale", "poly_mul",
    "poly_divmod", "poly_mod", "poly_eval", "t_minus",
    "t_minus_one", "poly_key", "is_irreducible",
    "enumerate_phi", "factor_monic", "companion", "jordan_block",
    "format_poly", "parse_poly", "parse_digits", "parse_int",
    "to_digits", "from_digits",
]


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def poly_trim(coeffs) -> tuple[int, ...]:
    """Drop trailing zeros; the zero polynomial is ()."""
    cs = tuple(coeffs)
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    return cs[:end]


def poly_degree(f) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def t_minus(field: Field, xi: int) -> tuple[int, int]:
    """The linear polynomial t - xi."""
    return (field.neg(xi), 1)


def t_minus_one(field: Field) -> tuple[int, int]:
    return (field.neg(1), 1)


def poly_scale(field: Field, a: int, f) -> tuple[int, ...]:
    if not a:
        return ()
    mul = field.mul_table[a]
    return poly_trim(mul[c] for c in f)


def poly_mul(field: Field, f, g) -> tuple[int, ...]:
    if not f or not g:
        return ()
    add, mul = field.add_table, field.mul_table
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        row = mul[a]
        for j, b in enumerate(g):
            if b:
                out[i + j] = add[out[i + j]][row[b]]
    return poly_trim(out)


def poly_divmod(field: Field, f, g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    lead_inv = field.inv(g[-1])
    dg = len(g) - 1
    rem = list(f)
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if not c:
            continue
        factor = mul[c][lead_inv]
        quo[i - dg] = factor
        row = mul[factor]
        for j, b in enumerate(g):
            rem[i - dg + j] = add[rem[i - dg + j]][neg[row[b]]]
    return poly_trim(quo), poly_trim(rem)


def poly_mod(field: Field, f, g) -> tuple[int, ...]:
    return poly_divmod(field, f, g)[1]


def poly_eval(field: Field, f, a: int) -> int:
    """Horner evaluation at a field element."""
    add, mul = field.add_table, field.mul_table
    acc = 0
    for c in reversed(f):
        acc = add[mul[acc][a]][c]
    return acc


# ---------------------------------------------------------------------------
# canonical ordering, Phi, factoring
# ---------------------------------------------------------------------------

def poly_key(field: Field, f) -> tuple[int, int]:
    """Canonical sort key: (degree, root) for linear, (degree, encoding) else."""
    d = len(f) - 1
    if d == 1:
        return (1, field.neg(f[0]))
    enc = 0
    for c in reversed(f[:-1]):
        enc = enc * field.q + c
    return (d, enc)


def to_digits(codes, q: int, m: int) -> np.ndarray:
    """The vectors v of F_q^m whose codes code(v) = Σ v_j·q^{m−1−j} are
    `codes`, as uint8 entries along a new last axis; from_digits inverts
    it."""
    out = np.empty(np.shape(codes) + (m,), dtype=np.uint8)
    for j in range(m - 1, -1, -1):  # no int64 array of every entry
        codes, out[..., j] = np.divmod(codes, q)
    return out


def from_digits(vectors: np.ndarray, q: int) -> np.ndarray:
    """code(v) = Σ v_j·q^{m−1−j} of each vector v along the last axis."""
    return vectors @ q ** np.arange(vectors.shape[-1] - 1, -1, -1)


def _gauss_count(q: int, d: int) -> int:
    """Gauss's count (1/d)·Σ_{e|d} μ(d/e)·q^e of the monic irreducibles of
    degree d over F_q, through its inverse q^d = Σ_{e|d} e·count(e)."""
    return (q ** d - sum(e * _gauss_count(q, e)
                         for e in range(1, d) if d % e == 0)) // d


# The sieve at degree d marks q^d codes; at 2^20 codes it takes about 3 s
# and 220 MB at q = 2, so a larger degree is refused before any allocation.
_SIEVE_BOUND = 1 << 20


@memo(64)
def _phi_cached(field: Field, dmax: int) -> tuple[tuple[int, ...], ...]:
    """Phi up to degree dmax by a sieve: at each degree d, the products of
    every known irreducible of degree a <= d/2 with every monic of degree
    d - a, and the multiples of t, are marked by the code of
    (f_0, ..., f_{d-1}); the unmarked codes are the irreducibles of
    degree d, and their count must be Gauss's."""
    if dmax < 1:
        return ()
    q, d = field.q, dmax
    if q ** d > _SIEVE_BOUND:  # also caps the recursion below at 20 levels
        raise ResourceBoundError(
            f"listing the irreducibles of degree {d} over {field!r} needs a "
            f"sieve of {q}^{d} codes, above the bound of {_SIEVE_BOUND}")
    known = _phi_cached(field, d - 1)
    reducible = np.zeros(q ** d, dtype=bool)
    reducible[:q ** (d - 1)] = True  # constant term 0: divisible by t
    for g in known:
        a = len(g) - 1
        if 2 * a > d:
            break
        # every monic h of degree d - a, one per row
        h = np.ones((q ** (d - a), d - a + 1), dtype=np.uint8)
        h[:, :-1] = to_digits(np.arange(q ** (d - a)), q, d - a)
        prod = np.zeros((len(h), d + 1), dtype=np.uint8)
        for i, c in enumerate(g):
            if c:
                window = prod[:, i:i + d - a + 1]
                window[:] = field.add_np[window, field.mul_np[c, h]]
        reducible[from_digits(prod[:, :d], q)] = True
    codes = np.flatnonzero(~reducible)
    expected = _gauss_count(q, d) - (d == 1)  # t is not in Phi
    if len(codes) != expected:
        raise InvariantError(
            f"the sieve left {len(codes)} irreducibles of degree {d} over "
            f"{field!r}, but Gauss's count gives {expected}")
    found = [(*coeffs, 1) for coeffs in to_digits(codes, q, d).tolist()]
    found.sort(key=lambda g: poly_key(field, g))
    return known + tuple(found)


def enumerate_phi(field: Field, dmax: int) -> list[tuple[int, ...]]:
    """All monic irreducibles of degree <= dmax except t, canonically ordered.
    Raises ResourceBoundError when q^dmax exceeds the sieve bound."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    return list(_phi_cached(field, dmax))


def is_irreducible(field: Field, f) -> bool:
    """Whether f, scaled to be monic, is irreducible of positive degree.
    Raises ResourceBoundError when deciding it needs Phi beyond the sieve
    bound: for f without linear factors, from degree 42 over F_2 and from
    degree 10 over F_25."""
    f = poly_trim(f)
    if len(f) < 3:  # constants are not irreducible, linears are
        return len(f) == 2
    f = poly_scale(field, field.inv(f[-1]), f)
    return factor_monic(field, f) == ((f, 1),)


def factor_monic(field: Field, f) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Factor a monic polynomial into (irreducible, multiplicity) pairs.

    Trial division: linear factors, t among them, via a root scan, then
    enumerated irreducibles of degree <= deg/2; whatever remains is itself
    irreducible.  Result sorted by poly_key (t first when present, encoded
    as degree-1 with root 0).  Raises ResourceBoundError when the remaining
    degree needs Phi beyond the sieve bound.
    """
    return _factor_monic(field, poly_trim(f))


# a product classifies thousands of matrices with a few characteristic
# polynomials: each is factored once per process
@memo(4096)
def _factor_monic(field: Field, f: tuple) -> tuple:
    if not f or f[-1] != 1:
        raise ValueError("factor_monic requires a monic polynomial")
    factors: list[tuple[tuple[int, ...], int]] = []
    # linear factors by root scan, t itself as t - 0
    for xi in field.elements():
        if len(f) == 1:
            break
        if poly_eval(field, f, xi) == 0:
            g = t_minus(field, xi)
            m = 0
            while True:
                quo, rem = poly_divmod(field, f, g)
                if rem:
                    break
                f, m = quo, m + 1
            factors.append((g, m))
    # higher-degree factors by trial division
    for g in _phi_cached(field, max(poly_degree(f) // 2, 1)):
        if poly_degree(g) < 2:
            continue
        if 2 * poly_degree(g) > poly_degree(f):
            break
        m = 0
        while True:
            quo, rem = poly_divmod(field, f, g)
            if rem:
                break
            f, m = quo, m + 1
        if m:
            factors.append((g, m))
    if len(f) > 1:
        factors.append((f, 1))
    factors.sort(key=lambda fm: poly_key(field, fm[0]))
    return tuple(factors)


# ---------------------------------------------------------------------------
# companion and block matrices
# ---------------------------------------------------------------------------

def companion(field: Field, f) -> np.ndarray:
    """Companion matrix: 1's on the superdiagonal, negated low coefficients
    of f across the last row."""
    d = poly_degree(f)
    if d < 1 or f[-1] != 1:
        raise ValueError("companion requires a monic polynomial of degree >= 1")
    neg = field.neg_table
    M = np.zeros((d, d), dtype=np.uint8)
    for i in range(d - 1):
        M[i, i + 1] = 1
    M[d - 1, :] = [neg[c] for c in f[:-1]]
    return M


def jordan_block(field: Field, f, m: int) -> np.ndarray:
    """m diagonal copies of companion(f) with identity blocks on the block
    superdiagonal."""
    if m < 1:
        raise ValueError("block count must be >= 1")
    d = poly_degree(f)
    J = companion(field, f)
    M = np.zeros((d * m, d * m), dtype=np.uint8)
    eye = np.eye(d, dtype=np.uint8)
    for i in range(m):
        M[i * d:(i + 1) * d, i * d:(i + 1) * d] = J
        if i + 1 < m:
            M[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = eye
    return M


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def split_terms(s: str) -> list[tuple[int, str]]:
    """Split ``a+b-c`` into [(+1,'a'), (+1,'b'), (-1,'c')] at paren depth 0.

    Accepts the unicode minus sign as a synonym for '-'; whitespace is
    ignored.  Raises ValueError on empty terms or unbalanced parentheses.
    """
    s = s.replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty expression")
    terms: list[tuple[int, str]] = []
    sign, depth, start = 1, 0, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur = start
    for i, ch in enumerate(s[start:], start):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in {s!r}")
        elif ch in "+-" and depth == 0:
            if i == cur:
                raise ValueError(f"empty term in {s!r}")
            terms.append((sign, s[cur:i]))
            sign = -1 if ch == "-" else 1
            cur = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced '(' in {s!r}")
    if cur == len(s):
        raise ValueError(f"trailing operator in {s!r}")
    terms.append((sign, s[cur:]))
    return terms


def parse_term(term: str, var: str) -> tuple[str | None, int]:
    """Parse one product term into (coefficient text or None, power of var).

    Recognized forms: ``c``, ``c*v^k``, ``c*v``, ``v^k``, ``v`` where the
    coefficient text may be parenthesized; a ``c`` with a ``*`` but no ``v``
    after it, like ``2*x`` with v = t, is one coefficient.
    """
    if term == var:
        return None, 1
    if term.startswith(var + "^"):
        return None, parse_digits(term[len(var) + 1:],
                                  f"bad exponent in {term!r}")
    if "*" in term:
        coeff, _, vpart = term.rpartition("*")
        if vpart == var:
            return coeff, 1
        if vpart.startswith(var + "^"):
            return coeff, parse_digits(vpart[len(var) + 1:],
                                       f"bad exponent in {term!r}")
        if var in vpart:
            raise ValueError(
                f"expected a power of {var!r} after '*' in {term!r}")
        # a constant written as a product, as format_poly prints 2*x in F_9
    return term, 0


def parse_digits(text: str, error: str) -> int:
    """The integer that `text` writes in ASCII digits; ValueError(error)
    for any other text, where int() would also read signs, '_' separators,
    spaces and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(error)
    return int(text)


def parse_int(text: str, error: str) -> int:
    """The integer that `text` writes as an optional sign and ASCII digits,
    with spaces around them allowed; ValueError(error) for any other text."""
    text = text.strip()
    sign = -1 if text[:1] == "-" else 1
    return sign * parse_digits(text[1:] if text[:1] in ("-", "+") else text,
                               error)


def format_terms(coeffs, var: str, fmt_coeff) -> str:
    """Render ascending coefficients as a descending-degree sum.

    ``fmt_coeff`` maps a nonzero coefficient code to text (already
    parenthesized if composite).  Returns "0" for the zero polynomial.
    """
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            parts.append(fmt_coeff(c))
        else:
            v = var if k == 1 else f"{var}^{k}"
            parts.append(v if c == 1 else f"{fmt_coeff(c)}*{v}")
    return "+".join(parts) if parts else "0"


def format_coeff(field: Field, c: int) -> str:
    """Element text as a coefficient or root inside polynomial or type text:
    composite element text is parenthesized."""
    text = field.format_element(c)
    return f"({text})" if ("+" in text or "-" in text) else text


def format_poly(field: Field, f, var: str = "t") -> str:
    """Descending-degree text with coefficients in the field's element syntax;
    composite coefficients are parenthesized."""
    return format_terms(poly_trim(f), var, lambda c: format_coeff(field, c))


def parse_poly(field: Field, s: str, var: str = "t") -> tuple[int, ...]:
    """Parse polynomial text, normalizing to canonical ascending coefficients."""
    add = field.add_table
    coeffs: dict[int, int] = {}
    for sign, term in split_terms(s):
        coeff_text, k = parse_term(term, var)
        if coeff_text is None:
            c = 1
        else:
            if coeff_text.startswith("(") and coeff_text.endswith(")"):
                coeff_text = coeff_text[1:-1]
            c = field.parse_element(coeff_text)
        if sign < 0:
            c = field.neg_table[c]
        coeffs[k] = add[coeffs.get(k, 0)][c]
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, c in coeffs.items():
        out[k] = c
    return poly_trim(out)
