"""Conjugacy types for GL_n(q): per-polynomial partition data, the
modification/lift calculus between ambient ranks, canonical block
representatives, and exact q-series counting formulas.

A *plain* type records the full Jordan data of a matrix (norm = matrix size).
A *modified* type additionally decrements every part of the t-1 partition,
which is exactly the data preserved when a class is transported between
GL_n(q) for varying n.  Both are carried by the same immutable GLType value;
which reading applies is part of each operation's contract.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import matfq, polyalg
from .errors import ClassEmptyError, InvariantError
from .memo import memo

if TYPE_CHECKING:
    from .field import Field

__all__ = [
    "Partition", "is_partition", "conjugate_partition", "enumerate_partitions",
    "GLType", "gltype_make", "empty_type", "gltype_sort_key",
    "norm", "type_of", "modified_type_of", "modify", "lift",
    "canonical_matrix", "reflection_length", "det_of_type",
    "q_int", "q_factorial", "q_binomial", "a_partition",
    "centralizer_order", "gl_order", "class_size", "stable_class_size",
    "enumerate_plain_types", "format_gltype", "parse_gltype",
]

Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(parts) -> bool:
    return all(isinstance(p, int) and p > 0 for p in parts) and \
        all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def conjugate_partition(parts: Partition) -> Partition:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


@memo(4096)
def _partitions(n: int, maxpart: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, parts descending, listed largest-first."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return list(_partitions(n, n if n else 1))


# ---------------------------------------------------------------------------
# the type value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLType:
    """Sorted, immutable map from monic irreducibles to partitions."""

    field: "Field"
    entries: tuple[tuple[tuple[int, ...], Partition], ...]

    def __post_init__(self):
        seen = []
        for f, parts in self.entries:
            if len(f) < 2 or f[-1] != 1:
                raise ValueError(f"type key {f} is not monic non-constant")
            if f[0] == 0:
                raise ValueError("type key t is not allowed (units only)")
            if not parts or not is_partition(parts):
                raise ValueError(f"bad partition {parts}")
            seen.append(polyalg.poly_key(self.field, f))
        if sorted(seen) != seen or len(set(seen)) != len(seen):
            raise ValueError("entries must be strictly sorted by polynomial")

    def get(self, f) -> Partition:
        for g, parts in self.entries:
            if g == f:
                return parts
        return ()

    def __str__(self) -> str:
        return format_gltype(self)


def gltype_make(field: "Field", items) -> GLType:
    """Build a GLType from any iterable/mapping of poly → partition."""
    pairs = items.items() if hasattr(items, "items") else items
    entries = sorted(
        ((tuple(f), tuple(parts)) for f, parts in pairs),
        key=lambda fp: polyalg.poly_key(field, fp[0]),
    )
    return GLType(field, tuple(entries))


def empty_type(field: "Field") -> GLType:
    return GLType(field, ())


def gltype_sort_key(T: GLType):
    return tuple((polyalg.poly_key(T.field, f), parts) for f, parts in T.entries)


def norm(T: GLType) -> int:
    """Total degree-weighted size Σ d(f)·|λ(f)|."""
    return sum((len(f) - 1) * sum(parts) for f, parts in T.entries)


# ---------------------------------------------------------------------------
# extraction from matrices
# ---------------------------------------------------------------------------

def type_of(field: "Field", A: np.ndarray) -> GLType:
    """Plain conjugacy type of an invertible matrix from its kernel
    filtrations: the i-th column of the partition at f has height
    (ker f(A)^i − ker f(A)^{i−1}) / d(f)."""
    return _type_of_invariant(field, matfq.conjugacy_invariant(field, A)[1])


def modified_type_of(field: "Field", A: np.ndarray, cp=None) -> GLType:
    """Modified type of an invertible matrix; cp, when given, is its known
    characteristic polynomial (see matfq.conjugacy_invariant)."""
    return _modified_type(field, matfq.conjugacy_invariant(field, A, cp)[1])


# a product classifies thousands of matrices into a few types: each
# invariant is turned into a type once per process
@memo(4096)
def _modified_type(field: "Field", data: tuple) -> GLType:
    return _type_of_invariant(field, data, modified=True)


def _type_of_invariant(field: "Field", data: tuple,
                       modified: bool = False) -> GLType:
    """The plain type of the kernel filtrations `data`, or its modified
    type, built as one GLType."""
    entries = []
    for f, dims in data:
        d = len(f) - 1
        cols = []
        prev = 0
        for k in dims:
            c, rem = divmod(k - prev, d)
            if rem:
                raise InvariantError(
                    "kernel filtration not divisible by degree")
            cols.append(c)
            prev = k
        if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
            raise InvariantError("kernel filtration increments must decrease")
        entries.append((f, conjugate_partition(tuple(cols))))
    if modified:
        entries = _modified_entries(entries, polyalg.t_minus_one(field))
    return gltype_make(field, entries)


# ---------------------------------------------------------------------------
# modification and lifting
# ---------------------------------------------------------------------------

def modify(T: GLType) -> GLType:
    """Decrement every part of the t-1 partition; other entries unchanged."""
    return gltype_make(T.field, _modified_entries(
        T.entries, polyalg.t_minus_one(T.field)))


def _modified_entries(entries, unit):
    """The (f, partition) entries with every part at f = unit one less,
    and that entry dropped once no part is left."""
    for f, parts in entries:
        if f == unit:
            parts = tuple(p - 1 for p in parts if p > 1)
            if not parts:
                continue
        yield f, parts


def lift(T: GLType, n: int) -> GLType:
    """Inverse of modify into GL_n: increment the t-1 parts and pad with 1's.

    Raises ClassEmptyError when n < ‖T‖ + ℓ(T(t−1)), i.e. the class has no
    members in GL_n(q).
    """
    unit = polyalg.t_minus_one(T.field)
    new_e = _lifted_unit_partition(T, unit, n)
    entries = [(f, parts) for f, parts in T.entries if f != unit]
    if new_e:
        entries.append((unit, new_e))
    return gltype_make(T.field, entries)


def _lifted_unit_partition(T: GLType, unit, n: int) -> Partition:
    """The t-1 partition of lift(T, n): every part of T(unit) plus one,
    padded with 1's; ClassEmptyError when n < ‖T‖ + ℓ(T(t−1))."""
    e_parts = T.get(unit)
    k = norm(T) + len(e_parts)
    if n < k:
        raise ClassEmptyError(
            f"class empty in G_{n}: modified type needs n >= {k}")
    return tuple(p + 1 for p in e_parts) + (1,) * (n - k)


def min_rank(T: GLType) -> int:
    """Smallest n in which the modified type T has members: ‖T‖ + ℓ(T(t−1))."""
    return norm(T) + len(T.get(polyalg.t_minus_one(T.field)))


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------

def _block_key(field: "Field", f) -> tuple:
    # t-1 blocks come last so that lifting a type pads with a trailing
    # identity: the canonical matrix at rank n is diag(canonical at rank k, I).
    if f == polyalg.t_minus_one(field):
        return (1 << 30,)
    return polyalg.poly_key(field, f)


def canonical_matrix(T: GLType) -> np.ndarray:
    """Block representative J of a plain type: one block tower per polynomial,
    parts in descending order, t-1 blocks trailing."""
    blocks = []
    for f, parts in sorted(T.entries, key=lambda fp: _block_key(T.field, fp[0])):
        for m in parts:
            blocks.append(polyalg.jordan_block(T.field, f, m))
    return matfq.block_diag(blocks) if blocks else np.zeros((0, 0), dtype=np.uint8)


def reflection_length(field: "Field", A: np.ndarray) -> int:
    """Word length of an invertible matrix over the set of all reflections,
    which equals rank(A − I)."""
    n = A.shape[0]
    r = matfq.rank(field, matfq.mat_sub(field, A, matfq.identity(n)))
    if n <= 4 and r != norm(modified_type_of(field, A)):
        raise InvariantError(
            "rank(A - I) disagrees with the modified-type norm")
    return r


def det_of_type(T: GLType) -> int:
    """Determinant (a field element) shared by all matrices whose plain or
    modified type is T; t-1 parts and identity padding contribute 1."""
    F = T.field
    out = F.one
    for f, parts in T.entries:
        d = len(f) - 1
        block_det = f[0] if d % 2 == 0 else F.neg(f[0])
        out = F.mul(out, F.pow(block_det, sum(parts)))
    return out


# ---------------------------------------------------------------------------
# q-series and counting
# ---------------------------------------------------------------------------

def q_int(q: int, m: int) -> int:
    """[m] = 1 + q + … + q^{m−1}."""
    if m < 0:
        raise ValueError("q_int needs m >= 0")
    return (q ** m - 1) // (q - 1)


def q_factorial(q: int, m: int) -> int:
    return _product([q_int(q, i) for i in range(1, m + 1)])


def q_binomial(q: int, m: int, b: int) -> int:
    if not 0 <= b <= m:
        raise ValueError(f"q_binomial needs 0 <= b <= m, got ({m}, {b})")
    num = q_factorial(q, m)
    den = q_factorial(q, b) * q_factorial(q, m - b)
    out, rem = divmod(num, den)
    if rem:
        raise InvariantError("q-binomial must be integral")
    return out


# exact and pure, read by every class size
@memo(4096)
def a_partition(parts: Partition, Q: int) -> int:
    """Centralizer-order factor a_λ(Q) = Q^{|λ|+2n(λ)} ∏_i ∏_{j≤m_i} (1−Q^{−j}),
    in integers: Q^e ∏_i ∏_{j≤m_i} (Q^j − 1) with
    e = |λ| + 2n(λ) − Σ_i m_i(m_i+1)/2."""
    if Q < 2:
        raise ValueError("a_partition needs Q >= 2")
    if not is_partition(parts):
        raise ValueError(f"bad partition {parts}")
    n_stat = sum(i * p for i, p in enumerate(parts))
    multiplicities = Counter(parts).values()
    e = sum(parts) + 2 * n_stat - sum(m * (m + 1) // 2 for m in multiplicities)
    if e < 0:
        raise InvariantError("a_λ(Q) must have a nonnegative power of Q")
    total = Q ** e * _product([Q ** j - 1 for m in multiplicities
                               for j in range(1, m + 1)])
    if total <= 0:
        raise InvariantError("a_λ(Q) must be a positive integer")
    return total


def centralizer_order(T: GLType) -> int:
    """|centralizer in GL_‖T‖(q)| of a matrix of plain type T."""
    q = T.field.q
    out = 1
    for f, parts in T.entries:
        out *= a_partition(parts, q ** (len(f) - 1))
    return out


def gl_order(field: "Field", n: int) -> int:
    """|GL_n(q)| = ∏_{i<n} (q^n − q^i)."""
    q = field.q
    return _product([q ** n - q ** i for i in range(n)])


def _product(factors: list) -> int:
    """The product of the integers `factors`, split in halves until a few
    are left, so that big factors are multiplied by numbers of like size:
    far cheaper than one at a time for many big factors."""
    if len(factors) <= 8:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def class_size(T: GLType, n: int) -> int:
    """Number of members of the modified-type-T class inside GL_n(q)."""
    return _class_size(T, n)  # one memo entry for positional and keyword n


# exact and pure in (T, n), so computed once per process
@memo(4096)
def _class_size(T: GLType, n: int) -> int:
    """|GL_n(q)| / |C(g)|, g of plain type lift(T, n): |C(g)| is the product
    of the a_λ(q^deg f) of T's partitions off t-1 and the lifted one at t-1."""
    q, unit = T.field.q, polyalg.t_minus_one(T.field)
    order = a_partition(_lifted_unit_partition(T, unit, n), q)
    for f, parts in T.entries:
        if f != unit:
            order *= a_partition(parts, q ** (len(f) - 1))
    out, rem = divmod(gl_order(T.field, n), order)
    if rem:
        raise InvariantError("centralizer order must divide the group order")
    return out


def stable_class_size(T: GLType) -> Fraction:
    """L(T) = lim_{n→∞} |𝒦_T(n)| / q^{2n‖T‖}, which is
    q^{2rk−k²}·|𝒦_T(k)| / |GL_k(q)| with k = min_rank(T), r = k − ‖T‖.
    Every top-degree product satisfies Σ_ν a^ν_λμ·L(ν) = L(λ)·L(μ): the
    counting identity divided by q^{2n(‖λ‖+‖μ‖)}, as n grows."""
    k = min_rank(T)
    r = k - norm(T)
    return (Fraction(T.field.q) ** (2 * r * k - k * k)
            * class_size(T, k) / gl_order(T.field, k))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_plain_types(field: "Field", n: int) -> list[GLType]:
    """All plain types of norm exactly n, sorted canonically; a fresh list
    each call, from one computation per (field, n) and process."""
    if n < 0:
        raise ValueError("norm must be nonnegative")
    return list(_plain_types(field, n))


@memo(64)
def _plain_types(field: "Field", n: int) -> tuple[GLType, ...]:
    polys = sorted(polyalg.enumerate_phi(field, n) if n else [], key=len)
    out: list[GLType] = []

    def rec(start: int, remaining: int, acc: list):
        # each level takes one more polynomial, so the depth is at most n
        if remaining == 0:
            out.append(gltype_make(field, list(acc)))
            return
        for i in range(start, len(polys)):
            f = polys[i]
            d = len(f) - 1
            if d > remaining:
                break  # polys run by degree
            for m in range(1, remaining // d + 1):
                for parts in enumerate_partitions(m):
                    acc.append((f, parts))
                    rec(i + 1, remaining - m * d, acc)
                    acc.pop()

    rec(0, n, [])
    return tuple(sorted(out, key=gltype_sort_key))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _format_key(field: "Field", f) -> str:
    if len(f) == 2:  # linear keys display by root: t-ξ
        return f"t-{polyalg.format_coeff(field, field.neg(f[0]))}"
    return polyalg.format_poly(field, f)


def format_gltype(T: GLType) -> str:
    """Semicolon-joined `partition@poly` items, e.g. "1@t-1;2,1@t^2+t+2"."""
    if not T.entries:
        return "∅"
    return ";".join(
        ",".join(str(p) for p in parts) + "@" + _format_key(T.field, f)
        for f, parts in T.entries
    )


def parse_gltype(field: "Field", s: str) -> GLType:
    s = s.strip()
    if s in ("", "∅"):
        return empty_type(field)
    items = []
    for chunk in s.split(";"):
        head, sep, tail = chunk.partition("@")
        if not sep:
            raise ValueError(f"missing '@' in type item {chunk!r}")
        bad = f"bad partition {head!r} (descending positive parts)"
        parts = tuple(polyalg.parse_digits(x.strip(), bad)
                      for x in head.split(","))
        if not is_partition(parts):
            raise ValueError(bad)
        f = polyalg.parse_poly(field, tail)
        if not polyalg.is_irreducible(field, f):
            raise ValueError(f"type key {tail!r} is reducible over {field!r}")
        items.append((f, parts))
    if len({f for f, _ in items}) != len(items):
        raise ValueError(f"repeated polynomial in {s!r}")
    return gltype_make(field, items)
