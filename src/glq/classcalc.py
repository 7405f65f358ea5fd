"""Conjugacy-class orbits in GL_n(q), exact class-sum products and structure
constants, their stable large-n values, and the block normal form for
length-additive factorizations.

The product of two class sums K_λ(n)·K_μ(n) = Σ_ν a^ν_λμ(n)·K_ν(n) is
computed by counting, never by floating point, on one path for every caller:
the smaller class is enumerated, the other is represented by its canonical
matrix h₀, and one element per orbit of sampled centralizer elements
c ∈ C(h₀) is classified.  Structure constants and stable products are read
from these full products.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from . import matfq
from .errors import (ClassEmptyError, ClassTooLargeError, InvariantError,
                     LengthNotAdditiveError, ResourceBoundError)
from .gltype import (GLType, canonical_matrix, class_size, det_of_type,
                     enumerate_plain_types, format_gltype, gl_order,
                     gltype_sort_key, lift, min_rank, modified_type_of, norm,
                     reflection_length)

if TYPE_CHECKING:
    from .field import Field

__all__ = [
    "ClassOrbit", "ClassSumExpansion", "TripleNormalForm", "StabilityReport",
    "generators", "enumerate_class", "enumerate_group",
    "enumerate_modified_types", "structure_constant_at", "multiply_class_sums",
    "multiply_oracle", "stable_constant", "stable_product", "verify_stability",
    "normalize_triple",
    "DEFAULT_MEMORY_BOUND", "DEFAULT_PAIR_BOUND", "DEFAULT_GROUP_BOUND",
]

DEFAULT_MEMORY_BOUND = 5_000_000
DEFAULT_PAIR_BOUND = 10 ** 8
DEFAULT_GROUP_BOUND = 10 ** 7
CENTRALIZER_SAMPLES = 3


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassOrbit:
    """A fully enumerated conjugacy class 𝒦_μ(n).  A reflection class
    (modified type 1@t-ξ) is built in closed form: element i is
    I + u_i·φ_iᵀ, and `pairs` holds the codes of u and φ (see
    ReflectionPairs), so a pair's position is arithmetic in its codes.
    Every other class is built breadth-first, and `index` maps each
    element's bytes to its position."""

    field: "Field"
    mu: GLType
    n: int
    rep: np.ndarray
    size: int
    index: dict | None = None
    pairs: ReflectionPairs | None = None

    @cached_property
    def elements(self) -> np.ndarray:
        """The class as a read-only (size, n, n) uint8 stack; a reflection
        class builds it on first read."""
        if self.pairs is None:
            return np.frombuffer(b"".join(self.index), np.uint8).reshape(
                self.size, self.n, self.n)
        stack = self.members(np.arange(self.size))
        stack.flags.writeable = False
        return stack

    def members(self, positions: np.ndarray) -> np.ndarray:
        """The elements at `positions` as a stack; a reflection class
        builds I + u·φᵀ for these positions only."""
        if self.pairs is None:
            return self.elements[positions]
        F, n = self.field, self.n
        vectors = _vector_tables(F, n).vectors
        rows, cols = np.divmod(positions, self.pairs.phi.shape[1])
        u = vectors[self.pairs.u[rows]]
        phi = vectors[self.pairs.phi[rows, cols]]
        stack = F.mul_np[u[:, :, None], phi[:, None, :]]
        d = np.arange(n)
        stack[:, d, d] = F.add_np[stack[:, d, d], 1]
        return stack

    def __contains__(self, A) -> bool:
        """A linear scan; no counting path asks for membership."""
        return A.shape == self.rep.shape and \
            bool(np.all(self.elements == A, axis=(1, 2)).any())

    def __len__(self) -> int:
        return self.size

    def conjugation_permutation(self, c: np.ndarray) -> np.ndarray:
        """perm with c·elements[i]·c⁻¹ = elements[perm[i]] for every i."""
        F = self.field
        if self.pairs is not None:
            perm, found = _permute_pairs(F, self.n, self.pairs, c)
        else:
            step = self.n * self.n
            raw = matfq.conjugate_stack(F, c, self.elements).tobytes()
            look = self.index.get
            perm = np.fromiter(
                (look(raw[at:at + step], -1) for at in range(0, len(raw), step)),
                dtype=np.int64, count=self.size)
            found = perm >= 0
        if not found.all():
            raise InvariantError(
                f"a conjugate of an element of {format_gltype(self.mu)} "
                "is not in its class")
        return perm


@dataclass
class ClassSumExpansion:
    """Terms of K_λ(n)·K_μ(n) = Σ a^ν·K_ν(n); n is None for stable products."""

    field: "Field"
    n: int | None
    lam: GLType
    mu: GLType
    terms: dict

    def get(self, nu: GLType) -> int:
        return self.terms.get(nu, 0)

    def items_sorted(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (norm(kv[0]), gltype_sort_key(kv[0])))


@dataclass
class TripleNormalForm:
    """z conjugates (g, h, gh) simultaneously into diag(·, I) block form."""

    z: np.ndarray
    gbar: np.ndarray
    hbar: np.ndarray


@dataclass
class StabilityReport:
    lam: GLType
    mu: GLType
    nu: GLType
    values: tuple
    passed: bool
    constant: int | None


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def generators(field: "Field", n: int) -> list:
    """A standard generating set of GL_n(q): diag(γ,1,…), the n-cycle, and
    the transvection I + E_{12} (the first alone for n = 1, none for the
    trivial group GL_0(q))."""
    if n == 0:
        return []
    gamma = field.multiplicative_generator()
    D = matfq.identity(n)
    D[0, 0] = gamma
    if n == 1:
        return [D]
    P = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        P[i, (i + 1) % n] = 1
    T = matfq.identity(n)
    T[0, 1] = 1
    return [D, P, T]


def _bfs_orbit(field: "Field", J: np.ndarray, expected: int) -> dict:
    """Closure of J under conjugation by the generators, one breadth-first
    level per step, as {element bytes: position}; the order is that of a
    first-in first-out queue."""
    n = J.shape[0]
    step = n * n
    gens = generators(field, n)
    index = {J.tobytes(): 0}
    frontier = [J.tobytes()] if gens else []  # GL_0(q): J is its own class
    while frontier:
        level = np.frombuffer(b"".join(frontier), np.uint8).reshape(-1, n, n)
        images = [matfq.conjugate_stack(field, s, level).tobytes()
                  for s in gens]
        frontier = []
        for at in range(0, len(images[0]), step):
            for raw in images:
                key = raw[at:at + step]
                if key not in index:
                    index[key] = len(index)
                    frontier.append(key)
    if len(index) != expected:
        raise InvariantError(
            f"orbit size {len(index)} != class size {expected}")
    return index


def _reflection_eigenvalue(mu: GLType) -> int | None:
    """ξ when μ is 1@t-ξ, the modified type of a reflection; else None."""
    if len(mu.entries) != 1:
        return None
    (f, parts), = mu.entries
    return mu.field.neg(f[0]) if len(f) == 2 and parts == (1,) else None


def _all_vectors(q: int, m: int) -> np.ndarray:
    """Every vector of F_q^m as a row, in ascending order of its code
    code(v) = Σ v_j·q^{m−1−j}."""
    weights = q ** np.arange(m - 1, -1, -1)
    return (np.arange(q ** m)[:, None] // weights % q).astype(np.uint8)


class VectorTables(NamedTuple):
    """Look-up tables over the codes of all qⁿ vectors v of F_q^n.  `scaled`
    and `dropped` are flat: entry a·qⁿ + code(v) is code(a·v), and entry
    j·qⁿ + code(v) the code of v without coordinate j.  `position` is the
    place of a normalized u (first nonzero entry 1) when they are ordered
    by the index of that entry, then by the code of what follows it."""

    vectors: np.ndarray     # (qⁿ, n) uint8, row code(v) is v
    weights: np.ndarray     # q^{n−1−j}: code(v) = v @ weights
    lead: np.ndarray        # index of the first nonzero entry (0 for v = 0)
    lead_value: np.ndarray  # that entry (0 for v = 0)
    normal: np.ndarray      # code(v / lead_value)
    scaled: np.ndarray
    position: np.ndarray
    dropped: np.ndarray


@lru_cache(maxsize=8)
def _vector_tables(field: "Field", n: int) -> VectorTables:
    """The tables of F_q^n, built once per (field, n) for every class and
    every sample: their size is qⁿ, not the class size."""
    q, size = field.q, field.q ** n
    vectors = _all_vectors(q, n)
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = np.arange(size)
    lead = np.argmax(vectors != 0, axis=1)
    lead_value = vectors[codes, lead].astype(np.intp)
    scaled = np.stack([field.mul_np[a, vectors] @ weights for a in range(q)])
    inv = np.array(field.inv_table, dtype=np.intp)
    normal = scaled[inv[lead_value], codes]
    block = q ** (n - 1 - lead)  # codes of the normalized u with this lead
    position = (size - q * block) // (q - 1) + codes - block
    position[0] = 0  # v = 0 has no place; keep it in range
    dropped = np.stack([codes // (q * q ** (n - 1 - j)) * q ** (n - 1 - j)
                        + codes % q ** (n - 1 - j) for j in range(n)])
    tables = VectorTables(vectors, weights, lead, lead_value, normal,
                          scaled.ravel(), position, dropped.ravel())
    for table in tables:
        table.flags.writeable = False  # shared by every class of this (q, n)
    return tables


def _pair_keys(q: int, n: int, ucode: np.ndarray,
               phicode: np.ndarray) -> np.ndarray:
    """code(u)·qⁿ + code(φ), one int64 per pair.  Keys stay below q^{2n}, at
    most 2q² times the class size, so any class that fits in memory has
    int64 keys."""
    return ucode * q ** n + phicode


class ReflectionPairs(NamedTuple):
    """A reflection class as a grid of its pairs (u, φ): row r holds the
    normalized u of position r, column k its φ with code k + shift once the
    lead coordinate of u is deleted, so pair r·#φ + k is in row r, column k.
    `shift` is 1 when ξ = 1 excludes φ = 0, else 0."""

    u: np.ndarray     # (rows,) codes of u
    phi: np.ndarray   # (rows, #φ) codes of φ
    keys: np.ndarray  # (rows·#φ,) int64 keys of the pairs, by position
    shift: int


def _reflection_pairs(field: "Field", n: int, xi: int) -> ReflectionPairs:
    """The reflections g = I + u·φᵀ of eigenvalue ξ, each as its one pair
    (u, φ) with u normalized (first nonzero entry 1), φ(u) = ξ − 1 and
    φ ≠ 0.  The rows run by the lead index of u, then by the tail of u
    after its leading 1: the order of VectorTables.position."""
    q = field.q
    target = field.sub(xi, 1)
    shift = int(target == 0)  # φ = 0 would give the identity
    free = _all_vectors(q, n - 1)[shift:]  # φ off the leading entry of u
    fcode = np.arange(shift, q ** (n - 1))
    us, phis = [], []
    for lead in range(n):
        w = q ** (n - 1 - lead)
        tails = _all_vectors(q, n - 1 - lead)  # u after its leading 1
        # φ(u) = φ_lead + Σ_{j>lead} u_j·φ_j fixes φ_lead
        dot = matfq.mat_mul(field, tails, free[:, lead:].T)
        phi_lead = field.add_np[target, field.neg_np[dot]].astype(np.int64)
        us.append(w + np.arange(w))
        phis.append(fcode // w * q * w + fcode % w + phi_lead * w)
    u, phi = np.concatenate(us), np.concatenate(phis)
    return ReflectionPairs(u, phi, _pair_keys(q, n, u[:, None], phi).ravel(),
                           shift)


def _permute_pairs(field: "Field", n: int, pairs: ReflectionPairs,
                   c: np.ndarray):
    """Where c sends each reflection pair, and whether the pair stored there
    is its image.  c·(I + u·φᵀ)·c⁻¹ = I + (c·u)·(φᵀ·c⁻¹), which with a the
    lead value of c·u is the pair (c·u/a, a·φᵀ·c⁻¹).  One product runs over
    the rows' u and one over all qⁿ vectors φ; each pair then costs a few
    integer gathers."""
    u, phi, keys, shift = pairs
    tab = _vector_tables(field, n)
    size = len(tab.vectors)
    cu = matfq.mat_mul(field, tab.vectors[u], c.T) @ tab.weights
    phic = matfq.mat_mul(field, tab.vectors,
                         matfq.inverse(field, c)) @ tab.weights
    # per row, for u' = c·u/a: the code of u', the position of its row's
    # first pair, and the rows of a and of lead(u') in the flat tables
    image_u = tab.normal[cu]
    start = tab.position[image_u] * phi.shape[1] - shift
    scale_row = tab.lead_value[cu] * size
    drop_row = tab.lead[image_u] * size
    image_phi = tab.scaled[scale_row[:, None] + phic[phi]]
    perm = (start[:, None] + tab.dropped[drop_row[:, None] + image_phi]).ravel()
    # the image is found where its key is, and never out of range
    found = keys.take(perm, mode="clip") == \
        _pair_keys(field.q, n, image_u[:, None], image_phi).ravel()
    found &= (perm >= 0) & (perm < len(keys))
    return perm, found


def _check_enumerable(mu: GLType, n: int, field: "Field",
                      memory_bound: int) -> None:
    """The checks made before the class 𝒦_μ(n) is built or a product that
    enumerates it is read: the field, then the memory bound."""
    if field != mu.field:
        raise ValueError("field mismatch")
    size = class_size(mu, n)
    if size > memory_bound:
        raise ClassTooLargeError(
            f"class of size {size} exceeds the memory bound {memory_bound}; "
            "raise it with --memory-bound (memory_bound in the library)")


def enumerate_class(mu: GLType, n: int, field: "Field" = None,
                    memory_bound: int = DEFAULT_MEMORY_BOUND) -> ClassOrbit:
    """All members of the modified-type-μ class in GL_n(q)."""
    _check_enumerable(mu, n, field if field is not None else mu.field,
                      memory_bound)
    return _build_orbit(mu, n)


# behind _check_enumerable: never serves a class the bound refuses
@lru_cache(maxsize=4)
def _build_orbit(mu: GLType, n: int) -> ClassOrbit:
    F = mu.field
    J = canonical_matrix(lift(mu, n))
    size = class_size(mu, n)
    xi = _reflection_eigenvalue(mu)
    if xi is None:
        return ClassOrbit(field=F, mu=mu, n=n, rep=J, size=size,
                          index=_bfs_orbit(F, J, size))
    pairs = _reflection_pairs(F, n, xi)
    if len(pairs.keys) != size:
        raise InvariantError(
            f"{len(pairs.keys)} reflection pairs != class size {size}")
    return ClassOrbit(field=F, mu=mu, n=n, rep=J, size=size, pairs=pairs)


def enumerate_group(field: "Field", n: int,
                    bound: int = DEFAULT_GROUP_BOUND) -> Iterator[np.ndarray]:
    """Every invertible n×n matrix exactly once, built row by row and pruning
    any prefix whose rows are dependent."""
    total = gl_order(field, n)
    if total > bound:
        raise ResourceBoundError(
            f"|GL_{n}({field.q})| = {total} exceeds the bound {bound}")
    add, mul = field.add_table, field.mul_table
    all_rows = list(itertools.product(range(field.q), repeat=n))
    zero = (0,) * n

    def extend(chosen: list, span: frozenset) -> Iterator[np.ndarray]:
        if len(chosen) == n:
            yield np.array(chosen, dtype=np.uint8)
            return
        for row in all_rows:
            if row in span:
                continue
            new_span = frozenset(
                tuple(add[a][mul[c][b]] for a, b in zip(v, row))
                for v in span for c in range(field.q)
            )
            yield from extend(chosen + [row], new_span)

    yield from extend([], frozenset({zero}))


def enumerate_modified_types(field: "Field", max_norm: int, n: int) -> list:
    """All modified types ν with ‖ν‖ ≤ max_norm that have members in GL_n(q),
    sorted by (norm, canonical type order)."""
    out = []
    for m in range(max_norm + 1):
        for ty in enumerate_plain_types(field, m):  # same data read as modified
            if min_rank(ty) <= n:
                out.append(ty)
    return sorted(out, key=lambda t: (norm(t), gltype_sort_key(t)))


# ---------------------------------------------------------------------------
# class-sum products and structure constants
# ---------------------------------------------------------------------------

def _centralizer_orbits(field: "Field", orbit: ClassOrbit, h0: np.ndarray):
    """Representatives and sizes of the orbits on `orbit` of the group that
    CENTRALIZER_SAMPLES random elements of C(h₀) generate, acting by
    conjugation.  Any such group will do: conjugating g by c ∈ C(h₀)
    conjugates g·h₀ and h₀·g, so their types are constant on each orbit."""
    samples = matfq.centralizer_samples(
        field, h0, CENTRALIZER_SAMPLES, random.Random(0)) \
        if orbit.size > 1 else []  # one element: nothing to merge
    perms = []
    for c in samples:
        if not matfq.mat_eq(matfq.mat_mul(field, c, h0),
                            matfq.mat_mul(field, h0, c)):
            raise InvariantError("a sampled conjugator does not commute "
                                 "with the fixed class representative")
        perms.append(orbit.conjugation_permutation(c))
    # connected components: propagate the least index along every edge
    # i → perm[i] both ways, with pointer jumping, until nothing moves
    label = np.arange(orbit.size)
    while True:
        new = label.copy()
        for perm in perms:
            new[perm] = np.minimum(new[perm], label)
            np.minimum(new, new[perm], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == np.arange(orbit.size))
    return reps, np.bincount(label)[reps]


def _product_det(field: "Field", lam: GLType, mu: GLType) -> int:
    """det λ·det μ: the determinant of every product of an element of 𝒦_λ
    and one of 𝒦_μ, so a^ν_λμ(n) = 0 at every n unless det ν equals it."""
    return field.mul(det_of_type(lam), det_of_type(mu))


def multiply_class_sums(lam: GLType, mu: GLType, n: int,
                        field: "Field" = None,
                        memory_bound: int = DEFAULT_MEMORY_BOUND,
                        ) -> ClassSumExpansion:
    """Full expansion K_λ(n)·K_μ(n) = Σ_ν a^ν·K_ν(n) from the smaller class:
    with h₀ fixed in the other class, #{g : g·h₀ ∈ 𝒦_ν} is independent of
    the choice of h₀, so a^ν = |other class|·#/|𝒦_ν|.  One g per orbit of
    sampled centralizer elements of h₀ is classified, weighted by the orbit
    size (see _centralizer_orbits).  Each (λ, μ, n) is computed once per
    process, and every call first checks the field and the memory bound."""
    F = field if field is not None else lam.field
    small = lam if class_size(lam, n) <= class_size(mu, n) else mu
    _check_enumerable(small, n, F, memory_bound)
    return ClassSumExpansion(field=F, n=n, lam=lam, mu=mu,
                             terms=dict(_product_terms(lam, mu, n)))


# read only behind multiply_class_sums's checks; exact and pure in
# (λ, μ, n), since the field is that of the enumerated class.  Exceptions
# are not memoized, and callers get a copy of the terms.
@lru_cache(maxsize=1024)
def _product_terms(lam: GLType, mu: GLType, n: int) -> dict:
    size_lam = class_size(lam, n)
    size_mu = class_size(mu, n)
    enum_on_left = size_lam <= size_mu
    small, other = (lam, mu) if enum_on_left else (mu, lam)
    F = small.field
    # the caller has checked the memory bound, and no class exceeds its size
    orbit = enumerate_class(small, n, F, min(size_lam, size_mu))
    h0 = canonical_matrix(lift(other, n))
    counts: Counter = Counter()
    reps, weights = _centralizer_orbits(F, orbit, h0)
    for g, weight in zip(orbit.members(reps), weights):
        prod = matfq.mat_mul(F, g, h0) if enum_on_left \
            else matfq.mat_mul(F, h0, g)
        counts[modified_type_of(F, prod)] += int(weight)
    max_norm = norm(lam) + norm(mu)
    if any(norm(nu) > max_norm or min_rank(nu) > n for nu in counts):
        raise InvariantError(
            "observed a product type outside the candidate set")
    det = _product_det(F, lam, mu)
    for nu in counts:
        if det_of_type(nu) != det:
            raise InvariantError(
                f"observed product type {format_gltype(nu)} has determinant "
                f"{det_of_type(nu)}, not det λ·det μ = {det}")
    other_size = size_mu if enum_on_left else size_lam
    terms = {}
    total = 0
    for nu, c in counts.items():
        size_nu = class_size(nu, n)
        a, rem = divmod(c * other_size, size_nu)
        if rem:
            raise InvariantError("structure constant at "
                                 f"{format_gltype(nu)} is not integral")
        terms[nu] = a
        total += a * size_nu
    if total != size_lam * size_mu:
        raise InvariantError(
            "counting identity Σ a^ν|𝒦_ν| = |𝒦_λ||𝒦_μ| failed")
    return terms


def structure_constant_at(lam: GLType, mu: GLType, nu: GLType, n: int,
                          field: "Field" = None,
                          memory_bound: int = DEFAULT_MEMORY_BOUND) -> int:
    """a^ν_λμ(n), read from the full product at rank n; ClassEmptyError when
    𝒦_ν is empty at rank n."""
    lift(nu, n)
    return multiply_class_sums(lam, mu, n, field, memory_bound).get(nu)


def multiply_oracle(lam: GLType, mu: GLType, n: int, field: "Field" = None,
                    pair_bound: int = DEFAULT_PAIR_BOUND,
                    memory_bound: int = DEFAULT_MEMORY_BOUND,
                    ) -> ClassSumExpansion:
    """Brute-force expansion over all |𝒦_λ|·|𝒦_μ| products; independent of
    multiply_class_sums and used to validate it."""
    F = field if field is not None else lam.field
    size_lam = class_size(lam, n)
    size_mu = class_size(mu, n)
    if size_lam * size_mu > pair_bound:
        raise ResourceBoundError(
            f"{size_lam}·{size_mu} products exceed the oracle bound {pair_bound}")
    K_lam = enumerate_class(lam, n, F, memory_bound)
    K_mu = enumerate_class(mu, n, F, memory_bound)
    counts: Counter = Counter()
    for g in K_lam.elements:
        for h in K_mu.elements:
            counts[modified_type_of(F, matfq.mat_mul(F, g, h))] += 1
    terms = {}
    for nu, c in counts.items():
        a, rem = divmod(c, class_size(nu, n))
        if rem:
            raise InvariantError(
                f"class {format_gltype(nu)} is not hit uniformly")
        terms[nu] = a
    return ClassSumExpansion(field=F, n=n, lam=lam, mu=mu, terms=terms)


# ---------------------------------------------------------------------------
# stable values
# ---------------------------------------------------------------------------

def stable_constant(lam: GLType, mu: GLType, nu: GLType,
                    field: "Field" = None,
                    memory_bound: int = DEFAULT_MEMORY_BOUND) -> int:
    """The n-independent top-degree coefficient a^ν_λμ, computed once at the
    smallest rank where 𝒦_ν is nonempty; 0 without computing when det ν is
    not det λ·det μ."""
    if norm(nu) != norm(lam) + norm(mu):
        raise ValueError(
            "stable constants exist only in top degree: "
            f"‖ν‖ = {norm(nu)} but ‖λ‖+‖μ‖ = {norm(lam) + norm(mu)}")
    F = field if field is not None else lam.field
    if det_of_type(nu) != _product_det(F, lam, mu):
        return 0
    k = min_rank(nu)
    if min_rank(lam) > k or min_rank(mu) > k:
        return 0  # a factor class is empty at rank k, hence at every n >= k
    return structure_constant_at(lam, mu, nu, k, field, memory_bound)


def stable_product(lam: GLType, mu: GLType, field: "Field" = None,
                   memory_bound: int = DEFAULT_MEMORY_BOUND,
                   ) -> ClassSumExpansion:
    """Top-degree part of K_λ·K_μ: every candidate ν with ‖ν‖ = ‖λ‖+‖μ‖
    and det ν = det λ·det μ, each read at its own minimal rank k from one
    full product per k; a rank with no such candidate is never computed."""
    F = field if field is not None else lam.field
    det = _product_det(F, lam, mu)
    products = {}
    terms = {}
    for nu in enumerate_plain_types(F, norm(lam) + norm(mu)):  # as modified
        k = min_rank(nu)
        if min_rank(lam) > k or min_rank(mu) > k or det_of_type(nu) != det:
            continue  # a^ν = 0 at every n, as in stable_constant
        if k not in products:
            products[k] = multiply_class_sums(lam, mu, k, F, memory_bound)
        a = products[k].get(nu)
        if a:
            terms[nu] = a
    return ClassSumExpansion(field=F, n=None, lam=lam, mu=mu, terms=terms)


def verify_stability(lam: GLType, mu: GLType, nu: GLType,
                     field: "Field" = None, n_list=None, *,
                     memory_bound: int = DEFAULT_MEMORY_BOUND,
                     ) -> StabilityReport:
    """Recompute a^ν_λμ(n) at several n and check the values agree; no
    determinant pruning, so it checks the pruned stable values."""
    if norm(nu) != norm(lam) + norm(mu):
        raise ValueError("stability applies to top-degree coefficients only")
    k = min_rank(nu)
    ns = tuple(n_list) if n_list is not None else (k, k + 1, k + 2)
    if any(n < k for n in ns):
        raise ValueError(f"every test rank must be at least k = {k}")
    values = []
    for n in ns:
        try:
            a = structure_constant_at(lam, mu, nu, n, field, memory_bound)
        except ClassEmptyError:
            a = 0
        values.append((n, a))
    distinct = {a for _, a in values}
    passed = len(distinct) == 1
    return StabilityReport(lam=lam, mu=mu, nu=nu, values=tuple(values),
                           passed=passed,
                           constant=distinct.pop() if passed else None)


# ---------------------------------------------------------------------------
# the block normal form
# ---------------------------------------------------------------------------

def normalize_triple(field: "Field", g: np.ndarray, h: np.ndarray,
                     rng: random.Random | None = None) -> TripleNormalForm:
    """For a length-additive pair, produce z with z·g·z⁻¹ = diag(ḡ, I),
    z·h·z⁻¹ = diag(h̄, I), and z·gh·z⁻¹ the canonical block matrix."""
    n = g.shape[0]
    if g.shape != (n, n) or h.shape != (n, n):
        raise ValueError("normalize_triple requires equal square shapes")
    gh = matfq.mat_mul(field, g, h)
    l_g = reflection_length(field, g)
    l_h = reflection_length(field, h)
    l_gh = reflection_length(field, gh)
    if l_gh != l_g + l_h:
        raise LengthNotAdditiveError(
            f"length not additive: ℓ(gh) = {l_gh} but ℓ(g)+ℓ(h) = {l_g + l_h}")
    nu = modified_type_of(field, gh)
    k = min_rank(nu)
    J = canonical_matrix(lift(nu, n))
    z = matfq.conjugator(field, gh, J, rng=rng)
    if z is None:
        raise InvariantError("gh is not conjugate to its canonical matrix")
    zinv = matfq.inverse(field, z)
    gp = matfq.mat_mul(field, matfq.mat_mul(field, z, g), zinv)
    hp = matfq.mat_mul(field, matfq.mat_mul(field, z, h), zinv)
    eye = matfq.identity(n - k)
    for name, M in (("g", gp), ("h", hp)):
        if not (matfq.mat_eq(M[k:, k:], eye) and not M[:k, k:].any()
                and not M[k:, :k].any()):
            raise InvariantError(
                f"conjugated {name} is not in diag(·, I) block form")
    gbar = np.ascontiguousarray(gp[:k, :k])
    hbar = np.ascontiguousarray(hp[:k, :k])
    if not matfq.mat_eq(matfq.mat_mul(field, gbar, hbar), J[:k, :k]):
        raise InvariantError("block product does not match the canonical form")
    if k:
        if modified_type_of(field, gbar) != modified_type_of(field, g) or \
                modified_type_of(field, hbar) != modified_type_of(field, h):
            raise InvariantError("corner blocks changed modified type")
    return TripleNormalForm(z=z, gbar=gbar, hbar=hbar)
