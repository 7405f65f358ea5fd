"""Conjugacy-class orbits in GL_n(q), exact class-sum products and structure
constants, their stable large-n values, and the block normal form for
length-additive factorizations.

The product of two class sums K_λ(n)·K_μ(n) = Σ_ν a^ν_λμ(n)·K_ν(n) is
computed by counting, never by floating point, on one path for every caller:
the smaller class is enumerated, the other is represented by its canonical
matrix h₀, and one element per orbit of sampled centralizer elements
c ∈ C(h₀) is classified.  A reflection class times a class of minimal rank
k is counted at rank k + 2 and reweighted to every larger rank.  Structure
constants and stable products are read from these full products.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from . import matfq
from .errors import (ClassEmptyError, ClassTooLargeError, InvariantError,
                     LengthNotAdditiveError, ResourceBoundError)
from .gltype import (GLType, canonical_matrix, class_size, det_of_type,
                     enumerate_plain_types, format_gltype, gl_order,
                     gltype_sort_key, lift, min_rank, modified_type_of, norm,
                     reflection_length, stable_class_size)
from .polyalg import _all_vectors

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
TAIL_RANK = 2  # a reflection product is read at rank min_rank(other) + this
CHEAP_ROUNDS = 8  # pull-only merge rounds before pulls along perm^(2^k)


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
        F = self.field
        u, phi = self.pair_vectors(positions)
        stack = F.mul_np[u[:, :, None], phi[:, None, :]]
        d = np.arange(self.n)
        stack[:, d, d] = F.add_np[stack[:, d, d], 1]
        return stack

    def pair_vectors(self, positions: np.ndarray):
        """The stacks of u and of φ of the reflections at `positions`."""
        vectors = _vector_tables(self.field, self.n).vectors
        rows, cols = np.divmod(positions, self.pairs.phi.shape[1])
        return vectors[self.pairs.u[rows]], vectors[self.pairs.phi[rows, cols]]

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

    def term_violation(self) -> str | None:
        """The first of the checks on single terms that fails, or None:
        every coefficient is at least 1; every ν is a candidate, that is
        ‖ν‖ ≤ ‖λ‖+‖μ‖ and min_rank(ν) ≤ n at finite n, and ‖ν‖ = ‖λ‖+‖μ‖
        for a stable product; and det ν = det λ·det μ."""
        n, top = self.n, norm(self.lam) + norm(self.mu)
        if any(a <= 0 for a in self.terms.values()):
            return "expansion holds a coefficient <= 0"
        for nu in self.terms:
            if n is None and norm(nu) != top:
                return (f"stable term {format_gltype(nu)} is not top-degree "
                        f"(‖ν‖ = {norm(nu)}, not ‖λ‖+‖μ‖ = {top})")
            if n is not None and (norm(nu) > top or min_rank(nu) > n):
                return (f"term {format_gltype(nu)} is outside the candidate "
                        f"set (‖ν‖ ≤ {top} with members at rank {n})")
        det = _product_det(self.lam, self.mu)
        for nu in self.terms:
            if det_of_type(nu) != det:
                return (f"term {format_gltype(nu)} has determinant "
                        f"{det_of_type(nu)}, not det λ·det μ = {det}")
        return None

    def violation(self) -> str | None:
        """Why these terms cannot be K_λ(n)·K_μ(n), or None: the first
        failed check of term_violation, else of the counting identity
        Σ a^ν|𝒦_ν(n)| = |𝒦_λ(n)||𝒦_μ(n)|, or for a stable product (no
        single n to count in) Σ a^ν·L(ν) = L(λ)·L(μ) (see
        gltype.stable_class_size).  Computed products and cache records
        are checked by this one rule."""
        reason = self.term_violation()
        if reason is not None:
            return reason
        stable = self.n is None
        size = stable_class_size if stable else partial(class_size, n=self.n)
        total = sum(a * size(nu) for nu, a in self.terms.items())
        want = size(self.lam) * size(self.mu)
        if total == want:
            return None
        if stable:
            return ("stable counting identity failed: Σ a^ν·L(ν) = "
                    f"{total}, not L(λ)·L(μ) = {want}")
        return (f"counting identity failed: Σ a^ν|𝒦_ν| = {total}, not "
                f"|𝒦_λ||𝒦_μ| = {want} at n={self.n}")


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


def _common_field(field: "Field | None", *types: GLType) -> "Field":
    """The one field of the given types and of field when it is given;
    ValueError when they differ."""
    fields = {T.field for T in types}
    if field is not None:
        fields.add(field)
    if len(fields) != 1:
        raise ValueError("field mismatch")
    return fields.pop()


def _check_enumerable(mu: GLType, n: int, memory_bound: int) -> None:
    """The check made before the class 𝒦_μ(n) is built or a product that
    enumerates it is read: the memory bound."""
    size = class_size(mu, n)
    if size > memory_bound:
        raise ClassTooLargeError(
            f"class of size {size} exceeds the memory bound {memory_bound}; "
            "raise it with --memory-bound (memory_bound in the library)")


def enumerate_class(mu: GLType, n: int, field: "Field" = None,
                    memory_bound: int = DEFAULT_MEMORY_BOUND) -> ClassOrbit:
    """All members of the modified-type-μ class in GL_n(q)."""
    _common_field(field, mu)
    _check_enumerable(mu, n, memory_bound)
    return _build_orbit(mu, n)


# behind _check_enumerable: never serves a class the bound refuses
@lru_cache(maxsize=4)
def _build_orbit(mu: GLType, n: int) -> ClassOrbit:
    F = mu.field
    size = class_size(mu, n)
    xi = _reflection_eigenvalue(mu)
    if xi is None:
        J = canonical_matrix(lift(mu, n))
        return ClassOrbit(field=F, mu=mu, n=n, size=size,
                          index=_bfs_orbit(F, J, size))
    pairs = _reflection_pairs(F, n, xi)
    if len(pairs.keys) != size:
        raise InvariantError(
            f"{len(pairs.keys)} reflection pairs != class size {size}")
    return ClassOrbit(field=F, mu=mu, n=n, size=size, pairs=pairs)


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

def _centralizer_orbits(field: "Field", orbit: ClassOrbit, h0: np.ndarray,
                        samples: list | None = None):
    """Representatives and sizes of the orbits on `orbit` of the group that
    `samples`, by default CENTRALIZER_SAMPLES random elements of C(h₀),
    generate, acting by conjugation.  Any such group will do: conjugating g
    by c ∈ C(h₀) conjugates g·h₀ and h₀·g, so their types are constant on
    each orbit; every sample is checked to commute with h₀.  The orbits are
    merged exactly by one-way pulls of the least label along each sample's
    permutation, with cycle doubling (see _merge_orbits)."""
    if orbit.size <= 1:  # one element: nothing to merge
        samples = []
    elif samples is None:
        samples = matfq.centralizer_samples(
            field, h0, CENTRALIZER_SAMPLES, random.Random(0))
    perms = []
    for c in samples:
        if not matfq.mat_eq(matfq.mat_mul(field, c, h0),
                            matfq.mat_mul(field, h0, c)):
            raise InvariantError("a sampled conjugator does not commute "
                                 "with the fixed class representative")
        perms.append(orbit.conjugation_permutation(c))
    return _merge_orbits(perms, orbit.size)


def _merge_orbits(perms: list, size: int):
    """Least indices and sizes of the orbits on range(size) of the group
    that the permutations `perms` generate.

    Every index carries a label, at first itself.  A round, for each perm,
    pulls along i → perm[i], label[i] ← min(label[i], label[perm[i]]), and
    then jumps pointers, label ← label[label].  After CHEAP_ROUNDS rounds it
    also pulls along perm², perm⁴, … while that still lowers a label, so a
    cycle whose labels ascend along it settles in O(log L) rounds, not L.
    The merge stops after a round that moved nothing, and that fixed point
    is exact: a label is never above its index and always an index of the
    same orbit, and at the fixed point no pull lowers a label, so labels
    are constant on every cycle of every perm, hence on orbits, and each
    is its orbit's least index."""
    label = np.arange(size)
    for rounds in itertools.count(1):
        new = label.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
            power = perm
            while rounds > CHEAP_ROUNDS:
                power = power[power]
                pulled = new[power]
                if not (pulled < new).any():
                    break
                np.minimum(new, pulled, out=new)
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == np.arange(size))
    return reps, np.bincount(label)[reps]


def _product_det(lam: GLType, mu: GLType) -> int:
    """det λ·det μ: the determinant of every product of an element of 𝒦_λ
    and one of 𝒦_μ, so a^ν_λμ(n) = 0 at every n unless det ν equals it."""
    return lam.field.mul(det_of_type(lam), det_of_type(mu))


def _always_zero(lam: GLType, mu: GLType, nu: GLType) -> bool:
    """Whether a^ν_λμ(n) = 0 at every n, known without computing: det ν is
    not det λ·det μ, or a factor class is empty at k = min_rank(ν), hence
    at every n ≥ k, and 𝒦_ν is empty below k."""
    k = min_rank(nu)
    return (det_of_type(nu) != _product_det(lam, mu)
            or min_rank(lam) > k or min_rank(mu) > k)


def multiply_class_sums(lam: GLType, mu: GLType, n: int,
                        field: "Field" = None,
                        memory_bound: int = DEFAULT_MEMORY_BOUND,
                        ) -> ClassSumExpansion:
    """Full expansion K_λ(n)·K_μ(n) = Σ_ν a^ν·K_ν(n) from the smaller class:
    with h₀ fixed in the other class, #{g : g·h₀ ∈ 𝒦_ν} is independent of
    the choice of h₀, so a^ν = |other class|·#/|𝒦_ν|.  One g per orbit of
    sampled centralizer elements of h₀ is classified, weighted by the orbit
    size (see _centralizer_orbits).  This is done at rank n itself unless
    the smaller class is a reflection class and n > k + 2, k the minimal
    rank of the other: then the counts are those of rank k + 2, split by
    tail type and reweighted to rank n (see _reweighted_counts), so every
    rank above k + 2 shares one computation.  Each {λ, μ} is computed once
    per n and process, and every call first checks the field and the memory
    bound, which counts the smaller class at rank n."""
    F = _common_field(field, lam, mu)
    small = lam if class_size(lam, n) <= class_size(mu, n) else mu
    _check_enumerable(small, n, memory_bound)
    pair = sorted((lam, mu), key=gltype_sort_key)
    return ClassSumExpansion(field=F, n=n, lam=lam, mu=mu,
                             terms=dict(_product_terms(*pair, n)))


# read only behind multiply_class_sums's checks; exact, symmetric, and pure
# in (λ, μ, n) since the field is that of the enumerated class.  Exceptions
# are not memoized, and callers get a copy of the terms.
@lru_cache(maxsize=1024)
def _product_terms(lam: GLType, mu: GLType, n: int) -> dict:
    size_lam = class_size(lam, n)
    size_mu = class_size(mu, n)
    small, other = (lam, mu) if size_lam <= size_mu else (mu, lam)
    F = small.field
    if _reflection_eigenvalue(small) is not None \
            and n - min_rank(other) > TAIL_RANK:
        counts = _reweighted_counts(small, other, n)
    else:
        # the caller has checked the memory bound; no class exceeds its size
        orbit = enumerate_class(small, n, F, min(size_lam, size_mu))
        h0 = canonical_matrix(lift(other, n))
        counts = Counter()
        reps, weights = _centralizer_orbits(F, orbit, h0)
        # h₀·g = h₀·(g·h₀)·h₀⁻¹, so g·h₀ has its type whichever side the
        # enumerated class is on
        for prod, weight in zip(
                matfq.mat_mul(F, orbit.members(reps), h0), weights):
            counts[modified_type_of(F, prod)] += int(weight)
    # the candidate and determinant checks come first: the division
    # below reads |𝒦_ν(n)|, which exists only for a candidate ν
    _check(ClassSumExpansion(F, n, lam, mu, counts).term_violation())
    terms = {}
    for nu, c in counts.items():
        a, rem = divmod(c * max(size_lam, size_mu), class_size(nu, n))
        if rem:
            raise InvariantError("structure constant at "
                                 f"{format_gltype(nu)} is not integral")
        terms[nu] = a
    _check(ClassSumExpansion(F, n, lam, mu, terms).violation())
    return terms


def _tail_sizes(q: int, m: int) -> tuple:
    """s_τ(m), the number of tails (u_t, φ_t) ∈ F_q^m × F_q^m of each type
    τ: (0, 0), (≠0, 0), (0, ≠0), and (≠0, ≠0) with φ_t(u_t) = c for one
    given c ≠ 0, then for c = 0.  GL_m(q) is transitive on each."""
    Q = q ** m
    return 1, Q - 1, Q - 1, (Q - 1) * (Q // q), (Q - 1) * (Q // q - 1)


def _tail_types(field: "Field", u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """τ, as an index into _tail_sizes, of each row pair of the stacks of
    tails u_t and φ_t."""
    c = np.zeros(len(u), dtype=np.uint8)
    for j in range(u.shape[1]):
        c = field.add_np[c, field.mul_np[u[:, j], phi[:, j]]]
    has_u, has_phi = u.any(axis=1), phi.any(axis=1)
    return np.where(has_u & has_phi, np.where(c != 0, 3, 4),
                    has_u + 2 * has_phi)


@lru_cache(maxsize=64)
def _tail_split_counts(small: GLType, other: GLType) -> Counter:
    """N_τν(r) = #{g ∈ 𝒦_small(r) of tail type τ : g·h₀ ∈ 𝒦_ν} at rank
    r = k + TAIL_RANK, k = min_rank(other), where small is a reflection
    class and h₀ = diag(J, I) with J the canonical matrix of other at rank
    k.  The tail of g = I + u·φᵀ is (u, φ) after coordinate k.  The orbits
    are those of C(J) × 1 and 1 × GL_TAIL_RANK, which keep τ."""
    F, k = small.field, min_rank(other)
    r = k + TAIL_RANK
    J = canonical_matrix(lift(other, k))
    tail = matfq.identity(TAIL_RANK)
    h0 = canonical_matrix(lift(other, r))
    if not matfq.mat_eq(h0, matfq.block_diag([J, tail])):
        raise InvariantError(f"the canonical matrix of {format_gltype(other)}"
                             f" at rank {r} is not diag(J, I)")
    samples = [matfq.block_diag([c, tail]) for c in matfq.centralizer_samples(
        F, J, CENTRALIZER_SAMPLES, random.Random(0))]
    samples += [matfq.block_diag([matfq.identity(k), s])
                for s in generators(F, TAIL_RANK)]
    orbit = enumerate_class(small, r, F, class_size(small, r))
    reps, weights = _centralizer_orbits(F, orbit, h0, samples)
    u, phi = orbit.pair_vectors(reps)
    counts: Counter = Counter()
    for prod, tau, weight in zip(matfq.mat_mul(F, orbit.members(reps), h0),
                                 _tail_types(F, u[:, k:], phi[:, k:]),
                                 weights):
        counts[int(tau), modified_type_of(F, prod)] += int(weight)
    return counts


def _reweighted_counts(small: GLType, other: GLType, n: int) -> Counter:
    """#{g ∈ 𝒦_small(n) : g·h₀ ∈ 𝒦_ν} for a reflection class small and
    m = n − min_rank(other) > TAIL_RANK, as Σ_τ N_τν(k+TAIL_RANK)·s_τ(m) /
    s_τ(TAIL_RANK) (see _tail_split_counts): with h₀ = diag(J, I_m), the
    type of g·h₀ depends only on the part of (u, φ) in J's coordinates and
    the GL_m-orbit of its tail, and h₀·g is conjugate to g·h₀."""
    q, m = small.field.q, n - min_rank(other)
    low, high = _tail_sizes(q, TAIL_RANK), _tail_sizes(q, m)
    counts: Counter = Counter()
    for (tau, nu), c in _tail_split_counts(small, other).items():
        a, rem = divmod(c * high[tau], low[tau])
        if rem:
            raise InvariantError(f"tail type {tau} count at {format_gltype(nu)}"
                                 " does not rescale to an integer")
        counts[nu] += a
    if sum(counts.values()) != class_size(small, n):
        raise InvariantError("rescaled counts do not sum to the class size "
                             f"of {format_gltype(small)} at n={n}")
    return counts


def _check(reason: str | None) -> None:
    """Raise InvariantError when a computed product broke a check."""
    if reason is not None:
        raise InvariantError(reason)


def structure_constant_at(lam: GLType, mu: GLType, nu: GLType, n: int,
                          field: "Field" = None,
                          memory_bound: int = DEFAULT_MEMORY_BOUND) -> int:
    """a^ν_λμ(n), read from the full product at rank n; ClassEmptyError when
    𝒦_ν is empty at rank n."""
    F = _common_field(field, lam, mu, nu)
    lift(nu, n)
    return multiply_class_sums(lam, mu, n, F, memory_bound).get(nu)


def multiply_oracle(lam: GLType, mu: GLType, n: int, field: "Field" = None,
                    pair_bound: int = DEFAULT_PAIR_BOUND,
                    memory_bound: int = DEFAULT_MEMORY_BOUND,
                    ) -> ClassSumExpansion:
    """Brute-force expansion over all |𝒦_λ|·|𝒦_μ| products; independent of
    multiply_class_sums and used to validate it."""
    F = _common_field(field, lam, mu)
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
    smallest rank where 𝒦_ν is nonempty; 0 without computing when
    _always_zero tells it is 0 at every n."""
    F = _common_field(field, lam, mu, nu)
    if norm(nu) != norm(lam) + norm(mu):
        raise ValueError(
            "stable constants exist only in top degree: "
            f"‖ν‖ = {norm(nu)} but ‖λ‖+‖μ‖ = {norm(lam) + norm(mu)}")
    if _always_zero(lam, mu, nu):
        return 0
    return structure_constant_at(lam, mu, nu, min_rank(nu), F, memory_bound)


def stable_product(lam: GLType, mu: GLType, field: "Field" = None,
                   memory_bound: int = DEFAULT_MEMORY_BOUND,
                   ) -> ClassSumExpansion:
    """Top-degree part of K_λ·K_μ: every candidate ν with ‖ν‖ = ‖λ‖+‖μ‖
    and det ν = det λ·det μ.  Top-degree a^ν_λμ(n) does not depend on
    n ≥ min_rank(ν), so all are read from one full product at the largest
    minimal rank of the candidates, where each has members.  The result is
    checked by ClassSumExpansion.violation."""
    F = _common_field(field, lam, mu)
    candidates = [nu for nu in enumerate_plain_types(F, norm(lam) + norm(mu))
                  if not _always_zero(lam, mu, nu)]  # plain read as modified
    terms = {}
    if candidates:
        product = multiply_class_sums(lam, mu, max(map(min_rank, candidates)),
                                      F, memory_bound)
        terms = {nu: a for nu in candidates if (a := product.get(nu))}
    expansion = ClassSumExpansion(field=F, n=None, lam=lam, mu=mu, terms=terms)
    _check(expansion.violation())
    return expansion


def verify_stability(lam: GLType, mu: GLType, nu: GLType,
                     field: "Field" = None, n_list=None, *,
                     memory_bound: int = DEFAULT_MEMORY_BOUND,
                     ) -> StabilityReport:
    """Recompute a^ν_λμ(n) at several n, by default min_rank(ν) to
    min_rank(ν) + 2, and check the values agree; no determinant pruning, so
    it checks the pruned stable values.  Each value is read from the full
    product at its rank: computed at that rank up to k + 2, and above it,
    when the smaller class is a reflection class, reweighted from rank
    k + 2 (see multiply_class_sums), k the minimal rank of the other."""
    F = _common_field(field, lam, mu, nu)
    if norm(nu) != norm(lam) + norm(mu):
        raise ValueError("stability applies to top-degree coefficients only")
    k = min_rank(nu)
    ns = tuple(n_list) if n_list is not None else (k, k + 1, k + 2)
    if any(n < k for n in ns):
        raise ValueError(f"every test rank must be at least k = {k}")
    values = []
    for n in ns:
        try:
            a = structure_constant_at(lam, mu, nu, n, F, memory_bound)
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
