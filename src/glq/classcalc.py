"""Conjugacy-class orbits in GL_n(q), exact class-sum products and structure
constants, their stable large-n values, and the block normal form for
length-additive factorizations.

The product of two class sums K_λ(n)·K_μ(n) = Σ_ν a^ν_λμ(n)·K_ν(n) is
computed by counting, never by floating point, on one path for every caller:
the other class is represented by its canonical matrix h₀, and one element
g of the smaller class per orbit of sampled centralizer elements c ∈ C(h₀)
is classified, weighted by its orbit size.  Conjugation by c keeps the type
of g·h₀, so any group of such c gives exact weights.  In a product a
reflection class, g = I + u·φᵀ with u normalized, is never enumerated: its
orbits are counted on the normalized u first, then, for each
representative u₀, on the φ of its row under a few drawn elements that fix
u₀ (_reflection_orbits states the rule), so the work is #rows·q^{n−1}
codes, and each g·h₀ is a rank-one change of h₀ whose characteristic
polynomial the determinant lemma gives for all of them at once.  Any other
class is enumerated and merged element by element.  A reflection class
times a class of minimal rank k is counted once at rank k + 2, split by
tail type, and reweighted to every larger rank; rank k + 2 itself reads
that split when it costs no more than a direct count.  Structure constants
and stable products are read from these full products.  An enumerated
class is one index of its elements' bytes, built by breadth-first search;
the convolution oracle builds reflection classes that way too.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from . import matfq, polyalg
from .errors import (ClassEmptyError, ClassTooLargeError, InvariantError,
                     LengthNotAdditiveError, ResourceBoundError)
from .gltype import (GLType, canonical_matrix, class_size, det_of_type,
                     enumerate_plain_types, format_gltype, gl_order,
                     gltype_sort_key, lift, min_rank, modified_type_of, norm,
                     reflection_length, stable_class_size)
from .memo import memo

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
DRAW_ENTRIES = 2 ** 13  # image entries of one batch of stabilizer draws


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassOrbit:
    """A fully enumerated conjugacy class 𝒦_μ(n): `index` maps each
    element's bytes to its position.  Every class is built
    breadth-first."""

    field: "Field"
    mu: GLType
    n: int
    size: int
    index: dict

    @cached_property
    def elements(self) -> np.ndarray:
        """The class as a read-only (size, n, n) uint8 stack."""
        return np.frombuffer(b"".join(self.index), np.uint8).reshape(
            self.size, self.n, self.n)

    def __len__(self) -> int:
        return self.size

    def conjugation_permutation(self, c: np.ndarray) -> np.ndarray:
        """perm with c·elements[i]·c⁻¹ = elements[perm[i]] for every i."""
        step = self.n * self.n
        raw = matfq.conjugate_stack(self.field, c, self.elements).tobytes()
        look = self.index.get
        perm = np.fromiter(
            (look(raw[at:at + step], -1) for at in range(0, len(raw), step)),
            dtype=np.int64, count=self.size)
        _check_found(self.mu, perm >= 0)
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


def _reflection_eigenvalue(mu: GLType) -> int | None:
    """ξ when μ is 1@t-ξ, the modified type of a reflection; else None."""
    if len(mu.entries) != 1:
        return None
    (f, parts), = mu.entries
    return mu.field.neg(f[0]) if len(f) == 2 and parts == (1,) else None


class ReflectionPairs(NamedTuple):
    """Rows of pairs (u, φ) of a reflection class: row r holds the
    normalized u of code u[r], column k its φ with code k + shift once the
    lead coordinate of u is deleted.  `shift` is 1 when ξ = 1 excludes
    φ = 0, else 0."""

    u: np.ndarray     # (rows,) codes of u
    phi: np.ndarray   # (rows, #φ) codes of φ
    shift: int


def _reflection_pairs(field: "Field", n: int, xi: int,
                      u: np.ndarray) -> ReflectionPairs:
    """The reflections g = I + u·φᵀ of eigenvalue ξ, each as its one pair
    (u, φ) with u normalized (first nonzero entry 1), φ(u) = ξ − 1 and
    φ ≠ 0, in the rows of the given codes u."""
    target = field.sub(xi, 1)
    shift = int(target == 0)  # φ = 0 would give the identity
    return ReflectionPairs(
        u, matfq.hyperplane_codes(field, n, u, target)[:, shift:], shift)


def _reflection_product_types(field: "Field", h0: np.ndarray, u: np.ndarray,
                              phi: np.ndarray) -> list:
    """The modified type of g·h₀ = h₀ + u·ψᵀ, ψ = h₀ᵀφ, for the reflection
    g = I + u·φᵀ of each row pair of the stacks u and φ.  Their
    characteristic polynomials come from one matfq.rank_one_char_polys
    call; the kernel filtrations are each product's own."""
    psi = matfq.mat_mul(field, phi, h0)  # rows φᵀ·h₀ = ψᵀ
    prods = field.add_np[h0, field.mul_np[u[:, :, None], psi[:, None, :]]]
    return [modified_type_of(field, A, cp) for A, cp in
            zip(prods, matfq.rank_one_char_polys(field, h0, u, psi))]


def _locate(q: int, pairs: ReflectionPairs, rows, w, phi: np.ndarray):
    """Where the codes φ are in the rows `rows` of `pairs`, as positions
    r·#φ + k, and whether the φ stored there is φ; k is φ without the lead
    coordinate of the row's u, whose weight is w = q^{n−1−lead}."""
    width, (high, low) = pairs.phi.shape[1], np.divmod(phi, w)
    col = high // q * w + low - pairs.shift
    at = rows * width + col
    found = (col >= 0) & (col < width) & (
        pairs.phi.take(at, mode="clip") == phi)
    return at, found


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
    enumerates it is read: the memory bound, which must not be negative."""
    if memory_bound < 0:
        raise ValueError(f"the memory bound {memory_bound} is negative")
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
@memo(4)
def _build_orbit(mu: GLType, n: int) -> ClassOrbit:
    """Closure of the canonical matrix under conjugation by the generators,
    one breadth-first level per step; the order is that of a first-in
    first-out queue."""
    F = mu.field
    size = class_size(mu, n)
    J = canonical_matrix(lift(mu, n))
    step = n * n
    gens = generators(F, n)
    index = {J.tobytes(): 0}
    frontier = [J.tobytes()] if gens else []  # GL_0(q): J is its own class
    while frontier:
        level = np.frombuffer(b"".join(frontier), np.uint8).reshape(-1, n, n)
        images = [matfq.conjugate_stack(F, s, level).tobytes() for s in gens]
        frontier = []
        for at in range(0, len(images[0]), step):
            for raw in images:
                key = raw[at:at + step]
                if key not in index:
                    index[key] = len(index)
                    frontier.append(key)
    if len(index) != size:
        raise InvariantError(f"orbit size {len(index)} != class size {size}")
    return ClassOrbit(field=F, mu=mu, n=n, size=size, index=index)


def enumerate_group(field: "Field", n: int,
                    bound: int = DEFAULT_GROUP_BOUND) -> Iterator[np.ndarray]:
    """Every n×n matrix over F_q of rank n, in lexicographic order of its
    entries."""
    total = gl_order(field, n)
    if total > bound:
        raise ResourceBoundError(
            f"|GL_{n}({field.q})| = {total} exceeds the bound {bound}")
    for entries in itertools.product(range(field.q), repeat=n * n):
        g = np.array(entries, dtype=np.uint8).reshape(n, n)
        if matfq.rank(field, g) == n:
            yield g


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
    conjugates g·h₀ and h₀·g, so their types are constant on each orbit;
    every sample is checked to commute with h₀.  The orbits are merged
    exactly by one-way pulls of the least label along each sample's
    permutation, with cycle doubling (see _merge_orbits)."""
    samples = [] if orbit.size <= 1 else matfq.centralizer_samples(
        field, matfq.commuting_space(field, h0, h0), CENTRALIZER_SAMPLES)
    _check_commute(field, h0, samples)
    perms = [orbit.conjugation_permutation(c) for c in samples]
    return _merge_orbits(perms, orbit.size)


def _check_commute(field: "Field", h0: np.ndarray, samples) -> None:
    """InvariantError unless every sample commutes with h₀."""
    stack = np.array(samples, dtype=np.uint8).reshape(
        (len(samples),) + h0.shape)
    if not np.array_equal(matfq.mat_mul(field, stack, h0),
                          matfq.mat_mul(field, h0, stack)):
        raise InvariantError("a sampled conjugator does not commute "
                             "with the fixed class representative")


def _check_found(mu: GLType, found: np.ndarray) -> None:
    """InvariantError unless every conjugate was found in the class of μ."""
    if not found.all():
        raise InvariantError(f"a conjugate of an element of "
                             f"{format_gltype(mu)} is not in its class")


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


def _reflection_orbits(small: GLType, n: int, h0: np.ndarray, basis,
                       samples: list):
    """Representatives (u, φ), as stacks of vectors, and weights of orbits
    of elements of C(h₀) on the reflection class 𝒦_small(n), counted on
    two levels so that no class-sized array is built.

    Rows: the `samples` act on the normalized u by u ↦ c·u/a.  Conjugation
    by c maps the pairs of row u one-to-one onto those of row c·u/a and
    keeps the type of g·h₀, so a row orbit counts |orbit| times the row of
    its representative u₀.  Within that row, elements c = I + X with X in
    the span of `basis`, an algebra commuting with h₀, and X·u₀ = 0 fix u₀
    and act by φ ↦ cᵀφ, the action of c⁻¹.  Each row keeps the first
    CENTRALIZER_SAMPLES such c that permute it, drawn by matfq.span_draws
    from one seeded stream in at most matfq.CONJUGATOR_RETRIES rounds;
    round r gives each c a row lacks 1 to r·CENTRALIZER_SAMPLES candidates,
    as many as fill one batch of DRAW_ENTRIES image entries.  On a row of
    at least 3 values c permutes it exactly when c is invertible: a
    singular c has v ≠ 0 with vᵀc = 0 and v(u₀) = 0, so it maps φ and φ + v
    to one image, or v to 0 when ξ = 1.  Rows of at most 2 values, where a
    bijection proves nothing, are not drawn.  Any group of such c gives
    exact weights: the draws change the number of φ orbits, never the
    terms.  The rows share one label space of #rows·#φ for one
    _merge_orbits call; a φ orbit weighs its size times its row orbit's."""
    F, q = small.field, small.field.q
    # the normalized u by lead index, then by code (matfq.normal_position)
    normals = np.concatenate([q ** j + np.arange(q ** j)
                              for j in range(n - 1, -1, -1)])
    _check_commute(F, h0, [*samples, *basis])
    stack = np.array(samples, dtype=np.uint8).reshape(-1, n, n)
    lead, image = matfq.normalize(F, matfq.mat_mul(
        F, polyalg.to_digits(normals, q, n), stack.swapaxes(1, 2)))
    where = matfq.normal_position(q, n, lead, image)
    _check_found(small, normals.take(where, mode="clip") == image)
    rows, row_sizes = _merge_orbits(list(where), len(normals))
    pairs = _reflection_pairs(F, n, _reflection_eigenvalue(small),
                              normals[rows])
    (R, m), u = pairs.phi.shape, polyalg.to_digits(pairs.u, q, n)
    phis = polyalg.to_digits(pairs.phi, q, n)
    w = q ** (n - 1 - np.argmax(u != 0, axis=-1))  # see _locate
    home = np.arange(R * m).reshape(R, m)  # φ's own position
    perms = np.tile(home, (CENTRALIZER_SAMPLES + 1, 1, 1))  # [-1]: surplus
    kept = np.full(R, 0 if m > 2 else CENTRALIZER_SAMPLES)
    spans, rng = matfq.annihilator_spans(F, basis, u), random.Random(0)
    eye, step = matfq.identity(n), max(1, DRAW_ENTRIES // (m * n))
    for r in range(1, matfq.CONJUGATOR_RETRIES + 1):
        need = np.maximum(CENTRALIZER_SAMPLES - kept, 0)
        if not need.any():
            break
        share = min(CENTRALIZER_SAMPLES * r, max(1, step // need.sum()))
        short = np.repeat(np.arange(R), share * need)
        for lo in range(0, len(short), step):
            at = short[lo:lo + step]
            C = F.add_np[matfq.span_draws(F, spans[at], rng), eye]
            if (matfq.mat_mul(F, C, u[at, :, None]) != u[at, :, None]).any():
                raise InvariantError("a stabilizer sample moves its row's u")
            codes = polyalg.from_digits(matfq.mat_mul(F, phis[at], C), q)
            pos, found = _locate(q, pairs, at[:, None], w[at, None], codes)
            _check_found(small, found | (codes == 0))  # 0: c is singular
            keep = found.all(1) & (np.sort(pos) == home[at]).all(1)
            at, pos = at[keep], pos[keep]
            j = kept[at] + np.arange(len(at)) - np.searchsorted(at, at)
            perms[np.minimum(j, CENTRALIZER_SAMPLES), at] = pos
            kept += np.bincount(at, minlength=R)
    reps, sizes = _merge_orbits([p.ravel() for p in perms[:-1]], R * m)
    row, col = np.divmod(reps, m)
    weights = row_sizes[row] * sizes
    if int(weights.sum()) != class_size(small, n):
        raise InvariantError(f"orbit weights sum to {weights.sum()}, not the "
                             f"class size of {format_gltype(small)}")
    return (u[row], phis[row, col]), weights


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
    size: for a reflection class by orbits on u, then on φ, so no array of
    the class's size is built (see _reflection_orbits), for any other by
    orbits on its elements (see _centralizer_orbits).  A reflection's
    g·h₀ = h₀ + u·ψᵀ is classified from the characteristic polynomial the
    determinant lemma gives (see _reflection_product_types), any other
    g·h₀ from its own char_poly.  This is done at
    rank n itself unless the smaller class is a reflection class and
    n ≥ k + 2, k the minimal rank of the other: then the counts are those
    of rank k + 2, split by tail type and reweighted to rank n (see
    _reweighted_counts), so every rank above k + 2 shares one computation.
    Rank k + 2 itself is read from the split only when the other class has
    no eigenvalue 1 or the split is built already (see _reads_tail_split);
    its terms are the same either way.  Each {λ, μ} is computed once per n
    and process, and every call first checks the field and the memory
    bound, which counts the smaller class at rank n."""
    F = _common_field(field, lam, mu)
    small = lam if class_size(lam, n) <= class_size(mu, n) else mu
    _check_enumerable(small, n, memory_bound)
    pair = sorted((lam, mu), key=gltype_sort_key)
    return ClassSumExpansion(field=F, n=n, lam=lam, mu=mu,
                             terms=dict(_product_terms(*pair, n)))


# read only behind multiply_class_sums's checks; exact, symmetric, and pure
# in (λ, μ, n) since the field is that of the counted class; callers get
# a copy of the terms
@memo(1024)
def _product_terms(lam: GLType, mu: GLType, n: int) -> dict:
    size_lam = class_size(lam, n)
    size_mu = class_size(mu, n)
    small, other = (lam, mu) if size_lam <= size_mu else (mu, lam)
    F = small.field
    if _reflection_eigenvalue(small) is not None \
            and _reads_tail_split(small, other, n):
        counts = _reweighted_counts(small, other, n)
    else:
        h0 = canonical_matrix(lift(other, n))
        # h₀·g = h₀·(g·h₀)·h₀⁻¹, so g·h₀ has its type whichever side the
        # counted class is on
        if _reflection_eigenvalue(small) is None:
            # the caller has checked the memory bound; no class exceeds it
            orbit = enumerate_class(small, n, F, min(size_lam, size_mu))
            reps, weights = _centralizer_orbits(F, orbit, h0)
            types = [modified_type_of(F, prod) for prod in
                     matfq.mat_mul(F, orbit.elements[reps], h0)]
        else:
            basis = matfq.commuting_space(F, h0, h0)
            samples = matfq.centralizer_samples(F, basis, CENTRALIZER_SAMPLES)
            (u, phi), weights = _reflection_orbits(small, n, h0, basis,
                                                   samples)
            types = _reflection_product_types(F, h0, u, phi)
        counts = Counter()
        for nu, weight in zip(types, weights):
            counts[nu] += int(weight)
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


def _reads_tail_split(small: GLType, other: GLType, n: int) -> bool:
    """Whether the product of the reflection class small and other at rank
    n is read from their tail split, k = min_rank(other): above rank
    k + TAIL_RANK, and at k + TAIL_RANK itself when that costs no more than
    a direct count.  That is when the split is built already, or when J,
    the canonical matrix of other at rank k, has no eigenvalue 1: then
    C(h₀) = C(J) × GL_TAIL_RANK(q) is all of the split's group.  Otherwise
    C(h₀) mixes J's eigenvalue-1 blocks with the tail, so a direct count
    classifies fewer orbits than the split."""
    m = n - min_rank(other)
    return m > TAIL_RANK or (m == TAIL_RANK and (
        not other.get(polyalg.t_minus_one(other.field))
        or _tail_split_counts.holds(small, other)))


# one split per pair and process, shared by every rank above k + TAIL_RANK;
# _reads_tail_split asks whether it is held
@memo(64)
def _tail_split_counts(small: GLType, other: GLType) -> Counter:
    """N_τν(r) = #{g ∈ 𝒦_small(r) of tail type τ : g·h₀ ∈ 𝒦_ν} at rank
    r = k + TAIL_RANK, k = min_rank(other), where small is a reflection
    class and h₀ = diag(J, I) with J the canonical matrix of other at rank
    k.  The tail of g = I + u·φᵀ is (u, φ) after coordinate k.  The orbits
    are those of units of 𝒜_J ⊕ M_TAIL_RANK, 𝒜_J the commutant of J: the
    row samples diag(c, I) for c ∈ C(J) and diag(I, s) for the generators
    s of GL_TAIL_RANK, and the stabilizers drawn from that algebra.  They
    keep τ."""
    F, k = small.field, min_rank(other)
    r = k + TAIL_RANK
    J = canonical_matrix(lift(other, k))
    tail = matfq.identity(TAIL_RANK)
    h0 = canonical_matrix(lift(other, r))
    if not matfq.mat_eq(h0, matfq.block_diag([J, tail])):
        raise InvariantError(f"the canonical matrix of {format_gltype(other)}"
                             f" at rank {r} is not diag(J, I)")
    corner = matfq.commuting_space(F, J, J)
    samples = [matfq.block_diag([c, tail]) for c in matfq.centralizer_samples(
        F, corner, CENTRALIZER_SAMPLES)]
    samples += [matfq.block_diag([matfq.identity(k), s])
                for s in generators(F, TAIL_RANK)]
    basis = np.zeros((len(corner) + TAIL_RANK ** 2, r, r), dtype=np.uint8)
    basis[:len(corner), :k, :k] = np.array(corner).reshape(-1, k, k)
    basis[len(corner):, k:, k:] = np.eye(TAIL_RANK ** 2).reshape(
        -1, TAIL_RANK, TAIL_RANK)
    (u, phi), weights = _reflection_orbits(small, r, h0, basis, samples)
    counts: Counter = Counter()
    for nu, tau, weight in zip(_reflection_product_types(F, h0, u, phi),
                               _tail_types(F, u[:, k:], phi[:, k:]),
                               weights):
        counts[int(tau), nu] += int(weight)
    return counts


def _reweighted_counts(small: GLType, other: GLType, n: int) -> Counter:
    """#{g ∈ 𝒦_small(n) : g·h₀ ∈ 𝒦_ν} for a reflection class small and
    m = n − min_rank(other) ≥ TAIL_RANK, as Σ_τ N_τν(k+TAIL_RANK)·s_τ(m) /
    s_τ(TAIL_RANK) (see _tail_split_counts): with h₀ = diag(J, I_m), the
    type of g·h₀ depends only on the part of (u, φ) in J's coordinates and
    the GL_m-orbit of its tail, and h₀·g is conjugate to g·h₀.  At
    m = TAIL_RANK every scale is 1 and the counts are the split's own."""
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


def _constants_at_ranks(lam: GLType, mu: GLType, nu: GLType, ns, field,
                        memory_bound: int) -> dict:
    """{n: a^ν_λμ(n)} for the ranks ns, 0 where 𝒦_ν is empty, computed from
    the highest rank down: a rank above k + 2 builds a reflection product's
    tail split first, and rank k + 2 then reads it (see _reads_tail_split)."""
    values = {}
    for n in sorted(set(ns), reverse=True):
        try:
            values[n] = structure_constant_at(lam, mu, nu, n, field,
                                              memory_bound)
        except ClassEmptyError:
            values[n] = 0
    return values


def verify_stability(lam: GLType, mu: GLType, nu: GLType,
                     field: "Field" = None, n_list=None, *,
                     memory_bound: int = DEFAULT_MEMORY_BOUND,
                     ) -> StabilityReport:
    """Recompute a^ν_λμ(n) at several n, by default min_rank(ν) to
    min_rank(ν) + 2, and check the values agree; no determinant pruning, so
    it checks the pruned stable values.  Each value is read from the full
    product at its rank: computed at that rank below k + 2, and from rank
    k + 2 up, when the smaller class is a reflection class, read from one
    tail split of rank k + 2 (see multiply_class_sums), k the minimal rank
    of the other.  The ranks are computed from the highest down (see
    _constants_at_ranks) and reported in the given order."""
    F = _common_field(field, lam, mu, nu)
    if norm(nu) != norm(lam) + norm(mu):
        raise ValueError("stability applies to top-degree coefficients only")
    k = min_rank(nu)
    ns = tuple(n_list) if n_list is not None else (k, k + 1, k + 2)
    if not ns:
        raise ValueError("at least one test rank is required")
    if any(n < k for n in ns):
        raise ValueError(f"every test rank must be at least k = {k}")
    found = _constants_at_ranks(lam, mu, nu, ns, F, memory_bound)
    values = [(n, found[n]) for n in ns]
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
