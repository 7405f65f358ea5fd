"""Field construction, table arithmetic, and element text."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.cli import main
from glq.field import Field, field_make, field_of_order, MAX_Q


def scan_modulus(p: int, e: int) -> tuple[int, ...]:
    """Independent oracle: first irreducible monic of degree e over F_p in
    ascending-encoding order, by brute-force divisibility (no library code)."""

    def poly_from(enc: int, deg: int) -> tuple[int, ...]:
        cs = []
        for _ in range(deg):
            cs.append(enc % p)
            enc //= p
        return tuple(cs) + (1,)

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return tuple(out)

    monics = {d: [poly_from(m, d) for m in range(p ** d)] for d in range(1, e)}
    for enc in range(p ** e):
        f = poly_from(enc, e)
        products = (
            times(a, b)
            for d in range(1, e // 2 + 1)
            for a in monics[d]
            for b in monics[e - d]
        )
        if f not in products:
            return f
    raise AssertionError("no irreducible found")


def test_prime_field_has_no_modulus():
    F = field_make(3, 1)
    assert (F.p, F.e, F.q) == (3, 1, 3)
    assert F.modulus is None


@pytest.mark.parametrize("p,e", [(2, 2), (5, 2), (3, 2), (2, 3), (2, 4)])
def test_modulus_matches_exhaustive_scan(p, e):
    assert field_make(p, e).modulus == scan_modulus(p, e)


def test_modulus_frozen_values():
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    assert field_make(5, 2).modulus == (2, 0, 1)  # x^2+2


def test_basic_ops():
    F3 = field_make(3, 1)
    assert F3.add(2, 2) == 1
    F5 = field_make(5, 1)
    assert F5.inv(2) == 3
    F4 = field_make(2, 2)
    x = 2  # coefficients (0, 1)
    assert F4.mul(x, x) == 3  # x + 1, forced by the modulus


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    F = field_of_order(q)
    els = list(F.elements())
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25])
def test_fermat_and_pow(q):
    F = field_of_order(q)
    for a in F.units():
        assert F.pow(a, q - 1) == 1
        assert F.pow(a, -1) == F.inv(a)
    assert F.pow(0, 3) == 0 and F.pow(0, 0) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25])
def test_element_text_round_trip(q):
    F = field_of_order(q)
    for a in F.elements():
        assert F.parse_element(F.format_element(a)) == a


def test_element_text_forms():
    F4 = field_make(2, 2)
    assert F4.format_element(3) == "x+1"
    assert F4.parse_element("1+x") == 3
    assert F4.parse_element("x") == 2
    F25 = field_make(5, 2)
    assert F25.parse_element("2*x+3") == F25.from_coeffs((3, 2))
    assert F25.parse_element("-1") == 4
    F3 = field_make(3, 1)
    assert F3.parse_element("5") == 2


def _power_text(k: int, with_coeff: bool, draw) -> str:
    """x^k written as the canonical printer would, or as x^1 or x^0."""
    forms = {0: ["x^0"], 1: ["x", "x^1"]}.get(k, [f"x^{k}"])
    if with_coeff:
        forms = [f"*{v}" for v in forms] + ([""] if k == 0 else [])
    return draw(st.sampled_from(forms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_element_text_in_equivalent_forms(data):
    # every writing of an element's coefficients in the polynomial grammar
    # reads back as the element: terms in any order, explicit 1* and x^1,
    # x^0, zero terms, coefficients c + k·p, either minus sign, and spaces
    draw = data.draw
    F = field_of_order(draw(st.sampled_from([4, 8, 9, 16, 25])))
    a = draw(st.integers(0, F.q - 1))
    p = F.p
    terms = []
    for k, c in enumerate(F.coeffs(a)):
        if not c and draw(st.booleans()):
            continue
        sign = draw(st.sampled_from(["+", "-", "−"]))
        d = (c if sign == "+" else -c) % p + p * draw(st.integers(0, 2))
        coeff = "" if d == 1 and draw(st.booleans()) else str(d)
        terms.append((sign, coeff + _power_text(k, bool(coeff), draw)))
    text = "".join(draw(st.sampled_from(["", " "])) + sign
                   + draw(st.sampled_from(["", " "])) + body
                   for sign, body in draw(st.permutations(terms))) or "0"
    assert F.parse_element(text) == a, text


def test_element_text_keeps_exponents_below_e():
    F9 = field_of_order(9)
    with pytest.raises(ValueError, match=r"x\^2 is not reduced"):
        F9.parse_element("x^2")
    with pytest.raises(ValueError, match=r"x\^3 is not reduced"):
        F9.parse_element("x^3+x")


def test_parenthesized_coefficient_inside_element_text_is_a_usage_error(
        capsys):
    # element text is a polynomial over F_p: its coefficients are integers
    code = main(["mul", "--q", "9", "--n", "2", "--lambda", "1@t-((x+1)*x)",
                 "--mu", "∅", "--no-cache"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: bad element 'x+1' for F_3\n"


def test_generator_orders():
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        F = field_of_order(q)
        g = F.multiplicative_generator()
        seen = set()
        a = 1
        for _ in range(q - 1):
            a = F.mul(a, g)
            seen.add(a)
        assert len(seen) == q - 1 and 1 in seen
    assert field_make(2, 2).multiplicative_generator() == 2  # x itself


def test_construction_errors():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(3, 0)
    with pytest.raises(ValueError):
        field_make(2, 6)  # 64 > MAX_Q
    with pytest.raises(ValueError):
        field_of_order(6)
    with pytest.raises(ZeroDivisionError):
        field_make(3, 1).inv(0)
    assert field_of_order(9).p == 3 and field_of_order(MAX_Q).q == MAX_Q


def test_interning_and_pickle():
    F = field_make(3, 1)
    assert F is field_make(3, 1)
    assert pickle.loads(pickle.dumps(F)) is F
    assert field_of_order(4) is field_make(2, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_equal_fields_hash_equal(q):
    # the hash is kept from construction; a field built directly, not
    # interned, and a pickled copy equal the interned field and hash alike
    F = field_of_order(q)
    for other in (Field(F.p, F.e), pickle.loads(pickle.dumps(F)),
                  pickle.loads(pickle.dumps(Field(F.p, F.e)))):
        assert other == F and hash(other) == hash(F)
    assert {F: q}[Field(F.p, F.e)] == q
    assert len({hash(field_of_order(r)) for r in (2, 3, 4, 5, 8, 9)}) == 6
