"""Polynomial ring operations, irreducibility, Phi enumeration, companions."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import poly_add
from glq.errors import InvariantError, ResourceBoundError
from glq.field import field_make, field_of_order
from glq import polyalg as pa

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


def mobius_irreducible_count(q: int, d: int) -> int:
    """Independent oracle: number of monic irreducibles of degree d over F_q
    by the necklace formula (1/d) * sum over r | d of mu(r) q^{d/r}."""

    def mu(n: int) -> int:
        out, r = 1, 2
        while r * r <= n:
            if n % r == 0:
                n //= r
                if n % r == 0:
                    return 0
                out = -out
            r += 1
        return -out if n > 1 else out

    total = sum(mu(r) * q ** (d // r) for r in range(1, d + 1) if d % r == 0)
    assert total % d == 0
    return total // d


def test_mul_frozen_example():
    F3 = field_make(3, 1)
    assert pa.poly_mul(F3, (1, 1), (2, 1)) == (2, 0, 1)  # (t+1)(t+2) = t^2+2


def test_divmod_round_trip():
    F = field_make(5, 1)
    f = (3, 1, 4, 0, 2, 1)
    for g in [(1, 1), (2, 3, 1), (4, 0, 0, 1), (2,)]:
        quo, rem = pa.poly_divmod(F, f, g)
        assert poly_add(F, pa.poly_mul(F, quo, g), rem) == f
        assert pa.poly_degree(rem) < pa.poly_degree(g)
    with pytest.raises(ZeroDivisionError):
        pa.poly_divmod(F, f, ())


def test_eval_and_scale():
    F = field_make(5, 1)
    f = (1, 2, 1)  # (t+1)^2
    assert [pa.poly_eval(F, f, a) for a in range(5)] == [1, 4, 4, 1, 0]
    assert pa.poly_scale(F, 2, f) == (2, 4, 2)


def test_is_irreducible_examples():
    F3, F5 = field_make(3, 1), field_make(5, 1)
    assert pa.is_irreducible(F3, (1, 0, 1))  # t^2+1 has no root mod 3
    assert not pa.is_irreducible(F5, (1, 0, 1))  # 2^2+1 = 0 mod 5
    for xi in range(1, 5):
        assert pa.is_irreducible(F5, pa.t_minus(F5, xi))


def test_is_irreducible_on_zero_constants_and_non_monics():
    F3, F4, F5 = field_make(3, 1), field_make(2, 2), field_make(5, 1)
    for f in [(), (0,), (1,), (2,)]:
        assert not pa.is_irreducible(F3, f)
    assert pa.is_irreducible(F3, (0, 2))  # 2t
    assert pa.is_irreducible(F3, (2, 2))  # 2t+2
    assert pa.is_irreducible(F3, (2, 0, 2))  # 2(t^2+1)
    assert not pa.is_irreducible(F3, (1, 0, 2))  # 2(t^2+2) = 2(t-1)(t+1)
    assert not pa.is_irreducible(F5, (2, 0, 2))  # 2(t^2+1), 2^2+1 = 0 mod 5
    assert pa.is_irreducible(F3, (1, 1, 0, 2))  # 2(t^3+2t+2), no root
    assert not pa.is_irreducible(F4, (1, 0, 2))  # a square in characteristic 2


@pytest.mark.parametrize("d,q", [(d, q) for q in PRIME_POWERS
                                 for d in (1, 2, 3, 4) if d < 4 or q <= 16])
def test_irreducible_counts_match_necklace_formula(q, d):
    F = field_of_order(q)
    phi = pa.enumerate_phi(F, d)
    count = sum(1 for f in phi if pa.poly_degree(f) == d)
    expected = mobius_irreducible_count(q, d)
    if d == 1:
        expected -= 1  # t itself is excluded from Phi
    assert count == expected


def _monics(q: int, d: int) -> list:
    """Every monic polynomial of degree d over F_q."""
    return [(*coeffs, 1) for coeffs in itertools.product(range(q), repeat=d)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_phi_members_exactly_the_irreducibles(q):
    # independent of the sieve: a monic of degree d is reducible exactly when
    # it is a product g·h of monics of degrees a and d - a, 1 <= a <= d/2
    F = field_of_order(q)
    dmax = 4 if q <= 5 else 3
    phi = pa.enumerate_phi(F, dmax)
    for d in range(1, dmax + 1):
        products = {pa.poly_mul(F, g, h) for a in range(1, d // 2 + 1)
                    for g in _monics(q, a) for h in _monics(q, d - a)}
        irreducible = set(_monics(q, d)) - products - {(0, 1)}
        assert {f for f in phi if len(f) == d + 1} == irreducible
        for f in _monics(q, d):
            assert pa.is_irreducible(F, f) == (f in irreducible
                                               or f == (0, 1))


def test_a_count_off_gauss_is_an_invariant_error(monkeypatch):
    F = field_of_order(7)
    count = pa._gauss_count
    monkeypatch.setattr(pa, "_gauss_count",
                        lambda q, d: count(q, d) + (d == 2))
    pa._phi_cached.cache_clear()  # list afresh, so every count is checked
    assert len(pa.enumerate_phi(F, 1)) == 6
    with pytest.raises(InvariantError, match="Gauss's count gives 22"):
        pa.enumerate_phi(F, 2)


def test_a_sieve_past_the_bound_is_refused_before_it_starts(monkeypatch):
    F = field_of_order(3)
    with pytest.raises(ResourceBoundError, match="2\\^21 codes"):
        pa.enumerate_phi(field_of_order(2), 21)
    monkeypatch.setattr(pa, "_SIEVE_BOUND", 27)
    pa._phi_cached.cache_clear()  # list afresh, so every bound is checked
    assert len(pa.enumerate_phi(F, 3)) == 2 + 3 + 8
    with pytest.raises(ResourceBoundError, match="3\\^4 codes"):
        pa.enumerate_phi(F, 4)
    # a quartic needs Phi to degree 2 only, an octic without roots to 4
    assert not pa.is_irreducible(F, (1, 0, 0, 0, 1))  # (t²+t+2)(t²+2t+2)
    with pytest.raises(ResourceBoundError, match="3\\^4 codes"):
        pa.is_irreducible(F, (1, 0, 0, 0, 0, 0, 0, 0, 1))


def test_phi_frozen_orderings():
    F2 = field_make(2, 1)
    assert pa.enumerate_phi(F2, 2) == [(1, 1), (1, 1, 1)]  # t+1, t^2+t+1
    F3 = field_make(3, 1)
    # degree 1 ordered by root: t-1 = t+2 before t-2 = t+1
    assert pa.enumerate_phi(F3, 1) == [(2, 1), (1, 1)]
    F5 = field_make(5, 1)
    phi5 = pa.enumerate_phi(F5, 2)
    assert phi5[:4] == [(4, 1), (3, 1), (2, 1), (1, 1)]
    assert phi5[4] == (2, 0, 1)  # t^2+2 leads the quadratics by encoding


def test_factor_monic():
    F3 = field_make(3, 1)
    f = pa.poly_mul(F3, pa.poly_mul(F3, (1, 1), (1, 1)), (2, 1))
    assert pa.factor_monic(F3, f) == (((2, 1), 1), ((1, 1), 2))
    g = pa.poly_mul(F3, (0, 0, 1), (1, 1))  # t^2 (t+1)
    assert pa.factor_monic(F3, g) == (((0, 1), 2), ((1, 1), 1))
    irr = (2, 2, 0, 1)  # cubic with no roots mod 3: 2, 2+2+2=0? check below
    if all(pa.poly_eval(F3, irr, a) for a in range(3)):
        assert pa.factor_monic(F3, irr) == ((irr, 1),)
    # multiplicities recombine
    F2 = field_make(2, 1)
    h = pa.poly_mul(F2, (1, 1, 1), (1, 1, 1))
    assert pa.factor_monic(F2, h) == (((1, 1, 1), 2),)


def test_factor_monic_memo_takes_any_sequence():
    F3 = field_make(3, 1)
    f = (2, 0, 1)  # t²-1 = (t-1)(t+1)
    expected = (((2, 1), 1), ((1, 1), 1))
    assert pa.factor_monic(F3, list(f)) == expected
    assert pa.factor_monic(F3, f) == expected
    assert pa.factor_monic(F3, [2, 0, 1, 0]) == expected  # trimmed first
    assert pa._factor_monic.cache_info().hits == 2
    for _ in range(2):  # errors are not cached
        with pytest.raises(ValueError, match="monic"):
            pa.factor_monic(F3, (1, 2))


def test_companion_and_jordan_blocks():
    F3 = field_make(3, 1)
    assert pa.companion(F3, (1, 0, 1)).tolist() == [[0, 1], [2, 0]]
    assert pa.companion(F3, pa.t_minus(F3, 2)).tolist() == [[2]]
    J = pa.jordan_block(F3, pa.t_minus_one(F3), 2)
    assert J.tolist() == [[1, 1], [0, 1]]
    f = (1, 0, 1)
    assert np.array_equal(pa.jordan_block(F3, f, 1), pa.companion(F3, f))
    J2 = pa.jordan_block(F3, f, 2)
    assert J2.tolist() == [
        [0, 1, 1, 0],
        [2, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 2, 0],
    ]


def test_poly_text_round_trip():
    F3 = field_make(3, 1)
    assert pa.format_poly(F3, (1, 2, 1)) == "t^2+2*t+1"
    assert pa.parse_poly(F3, "t^2+2*t+1") == (1, 2, 1)
    assert pa.parse_poly(F3, "t-1") == (2, 1)
    assert pa.format_poly(F3, (2, 1)) == "t+2"
    assert pa.parse_poly(F3, "t^2 - t") == (0, 2, 1)
    F4 = field_make(2, 2)
    f = (0, 3, 1)  # t^2 + (x+1) t
    text = pa.format_poly(F4, f)
    assert text == "t^2+(x+1)*t"
    assert pa.parse_poly(F4, text) == f
    assert pa.parse_poly(F4, "t^2+x*t+(x+1)") == (3, 2, 1)
    for bad in ["", "t^", "t+", "(t", "t^2++1", "@"]:
        with pytest.raises(ValueError):
            pa.parse_poly(F3, bad)


def test_parse_poly_merges_repeated_powers():
    F5 = field_make(5, 1)
    assert pa.parse_poly(F5, "t+t+t") == (0, 3)
    assert pa.parse_poly(F5, "2*t^2-t^2+4") == (4, 0, 1)


def test_codes_hold_one_int64_per_vector():
    # a product with the weights q^j would first cast every entry to int64,
    # 9.3 times the bytes of this (10, 1, 9⁵, 6) stack of digits; Horner's
    # rule keeps one int64 per vector
    vectors = pa.to_digits(np.arange(10 * 9 ** 5).reshape(10, 1, -1) % 9 ** 6,
                           9, 6)
    tracemalloc.start()
    try:
        codes = pa.from_digits(vectors, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (10, 1, 9 ** 5) and codes.dtype == np.int64
    assert codes.ravel().tolist() == [c % 9 ** 6 for c in range(10 * 9 ** 5)]
    assert peak < 2 * vectors.nbytes
