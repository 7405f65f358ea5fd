"""Exact arithmetic in small finite fields F_q, q = p^e (desk scale, q <= 25).

An element of F_q is a canonical int in [0, q).  For e = 1 it is the residue
mod p; for e > 1 the element with coefficient tuple (a_0, ..., a_{e-1}) in the
generator ``x`` is encoded as sum(a_i * p**i).  Every binary operation goes
through a q x q lookup table built once per field, so scalar work in hot
loops is plain list indexing on small ints.

Fields are interned: ``field_make(p, e)`` always returns the same object for
the same arguments, so identity, equality and pickling all agree.

Element text for e > 1 is a polynomial in x over F_p of degree below e, in
the one term grammar that polyalg keeps (split_terms, parse_term,
format_terms); this module has no parser of its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import polyalg

__all__ = ["Field", "field_make", "field_of_order", "MAX_Q"]

MAX_Q = 25


def _is_prime(n: int) -> bool:
    """Trial-division primality check, adequate at desk scale."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# the field type
# ---------------------------------------------------------------------------

class Field:
    """The finite field F_q with table-driven arithmetic on int-coded elements.

    Do not construct directly; use field_make(p, e) so instances are interned.
    The *_table attributes are plain nested lists for fast scalar indexing;
    add_np/mul_np/neg_np are the same tables as numpy arrays for vectorized
    matrix work.
    """

    __slots__ = (
        "p", "e", "q", "modulus", "zero", "one",
        "add_table", "neg_table", "mul_table", "inv_table",
        "add_np", "mul_np", "neg_np", "_generator", "_hash",
    )

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"exponent e = {e} must be >= 1")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the desk-scale bound {MAX_Q}")
        self.p, self.e, self.q = p, e, q
        self.zero, self.one = 0, 1
        self._generator = None
        # every memo key holding a field or a type hashes it
        self._hash = hash((Field, p, e))

        if e == 1:
            self.modulus = None
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            self.modulus = self._find_modulus(p, e)
            digits = [self.coeffs(a) for a in range(q)]
            self.add_table = [
                [self.from_coeffs(tuple((x + y) % p for x, y in zip(da, db)))
                 for db in digits]
                for da in digits
            ]
            self.mul_table = [
                [self._poly_mul_mod(da, db) for db in digits] for da in digits
            ]

        self.neg_table = [self.add_table[a].index(0) for a in range(q)]
        # a⁻¹ by row scan of the multiplication table (0 is a sentinel)
        self.inv_table = [0] + [self.mul_table[a].index(1) for a in range(1, q)]
        self.add_np = np.array(self.add_table, dtype=np.uint8)
        self.mul_np = np.array(self.mul_table, dtype=np.uint8)
        self.neg_np = np.array(self.neg_table, dtype=np.uint8)

    @staticmethod
    def _find_modulus(p: int, e: int) -> tuple[int, ...]:
        """First monic irreducible of degree e over F_p by ascending encoding
        sum(a_i * p**i) of t^e + a_{e-1} t^{e-1} + ... + a_0; the winner is
        deterministic across runs."""
        phi = polyalg.enumerate_phi(field_make(p, 1), e)
        return next(f for f in phi if len(f) == e + 1)

    def _poly_mul_mod(self, da: tuple[int, ...], db: tuple[int, ...]) -> int:
        """Product of two digit tuples reduced mod the modulus (table build)."""
        prime = field_make(self.p, 1)
        prod = polyalg.poly_mul(prime, da, db)
        rem = polyalg.poly_mod(prime, prod, self.modulus)
        return self.from_coeffs(tuple(rem) + (0,) * (self.e - len(rem)))

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        return self.inv_table[a]

    def pow(self, a: int, k: int) -> int:
        """Square-and-multiply; negative k inverts first."""
        if k < 0:
            a, k = self.inv(a), -k
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul_table[result][base]
            base = self.mul_table[base][base]
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient tuple (a_0, ..., a_{e-1}) of an element code."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        """Element code from (up to e) coefficients, reduced mod p."""
        if len(cs) > self.e:
            raise ValueError(f"too many coefficients for {self!r}: {cs}")
        enc = 0
        for c in reversed(tuple(cs)):
            enc = enc * self.p + c % self.p
        return enc

    def multiplicative_generator(self) -> int:
        """Smallest generator of F_q^*; for e > 1 the element x is preferred."""
        if self._generator is None:
            candidates = list(range(2, self.q)) or [1]
            if self.e > 1:
                x = self.p  # the element with coefficients (0, 1, 0, ...)
                candidates.remove(x)
                candidates.insert(0, x)
            for g in candidates:
                k, a = 1, g
                while a != 1:
                    a = self.mul_table[a][g]
                    k += 1
                if k == self.q - 1:
                    self._generator = g
                    break
        return self._generator

    # -- text ---------------------------------------------------------------

    def format_element(self, a: int) -> str:
        """Canonical text: decimal for e = 1, polynomial in x otherwise."""
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for {self!r}")
        if self.e == 1:
            return str(a)
        return polyalg.format_terms(self.coeffs(a), "x", str)

    def parse_element(self, s: str) -> int:
        """Parse element text, normalizing coefficients mod p: an integer
        for e = 1, else a polynomial in x over F_p of degree below e."""
        s = s.strip()
        if self.e == 1:
            return polyalg.parse_int(
                s, f"bad element {s!r} for {self!r}") % self.p
        f = polyalg.parse_poly(field_make(self.p), s, "x")
        if len(f) > self.e:
            raise ValueError(f"exponent x^{len(f) - 1} is not reduced in "
                             f"{self!r} (e = {self.e})")
        return self.from_coeffs(f)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return field_make, (self.p, self.e)

    def __repr__(self) -> str:
        if self.e == 1:
            return f"F_{self.p}"
        mod = polyalg.format_terms(self.modulus, "x", str)
        return f"F_{self.q}=F_{self.p}[x]/({mod})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> Field:
    """Construct (and intern) the field F_{p^e}."""
    return Field(p, e)


def field_of_order(q: int) -> Field:
    """The field with exactly q elements; q must be a prime power <= 25."""
    if q < 2:
        raise ValueError(f"no field of order {q}")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    e = 0
    m = q
    while m > 1:
        if m % p:
            raise ValueError(f"{q} is not a prime power")
        m //= p
        e += 1
    return field_make(p, e)
