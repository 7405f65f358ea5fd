"""Exact dense linear algebra over F_q on small numpy matrices.

Matrices are numpy uint8 arrays of canonical field-element codes.
Products of prime-field matrices run through int64 numpy matmul, and those
of extension-field matrices through the field's numpy tables; everything
scalar-heavy (elimination, Hessenberg reduction) runs on plain int lists
indexed into the field's lookup tables, which is both exact and fast at
desk scale (n <= 8 or so).  The vectors of F_q^n that count reflection
classes are integer codes, converted where they are read (polyalg.to_digits
and from_digits); no table over all of F_q^n is kept.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING

import numpy as np

from . import polyalg
from .errors import InconclusiveError, InvariantError

if TYPE_CHECKING:
    from .field import Field

__all__ = [
    "identity", "mat_mul", "mat_sub", "block_diag", "mat_eq", "rank",
    "kernel_dim", "inverse", "nullspace", "char_poly", "rank_one_char_polys",
    "poly_at_matrix", "conjugacy_invariant", "commuting_space", "conjugator",
    "centralizer_samples", "annihilator_spans", "span_draws",
    "conjugate_stack", "normalize", "normal_position", "hyperplane_codes",
]

CONJUGATOR_RETRIES = 64
CONJUGATOR_EXHAUSTIVE_LIMIT = 2 ** 20
CONJUGATE_CHUNK = 4096


# ---------------------------------------------------------------------------
# construction and ring operations
# ---------------------------------------------------------------------------

def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mat_mul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A·B for two matrices, or for stacks of them broadcast over their
    leading axes.  Prime fields use integer matmul, other fields the tables."""
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    if field.e == 1:
        return ((A.astype(np.int64) @ B.astype(np.int64)) % field.p).astype(np.uint8)
    prods = field.mul_np[A[..., :, :, None], B[..., None, :, :]]
    out = np.zeros(prods.shape[:-3] + (A.shape[-2], B.shape[-1]), np.uint8)
    for s in range(A.shape[-1]):
        out = field.add_np[out, prods[..., s, :]]
    return out


def conjugate_stack(field: Field, c: np.ndarray,
                    stack: np.ndarray) -> np.ndarray:
    """c·X·c⁻¹ for every X of an (N, n, n) stack, CONJUGATE_CHUNK matrices at
    a time so the temporaries of large classes stay small."""
    ci = inverse(field, c)
    out = np.empty(stack.shape, dtype=np.uint8)
    for lo in range(0, len(stack), CONJUGATE_CHUNK):
        X = stack[lo:lo + CONJUGATE_CHUNK]
        out[lo:lo + len(X)] = mat_mul(field, mat_mul(field, c, X), ci)
    return out


def mat_sub(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} - {B.shape}")
    return field.add_np[A, field.neg_np[B]]


def block_diag(blocks) -> np.ndarray:
    """Diagonal sum of square blocks."""
    sizes = [b.shape[0] for b in blocks]
    n = sum(sizes)
    M = np.zeros((n, n), dtype=np.uint8)
    at = 0
    for b, s in zip(blocks, sizes):
        if b.shape != (s, s):
            raise ValueError("block_diag requires square blocks")
        M[at:at + s, at:at + s] = b
        at += s
    return M


def mat_eq(A: np.ndarray, B: np.ndarray) -> bool:
    return np.array_equal(A, B)


# ---------------------------------------------------------------------------
# elimination: rank, inverse, nullspace
# ---------------------------------------------------------------------------

def _echelon(field: Field, rows: list, ncols: int) -> list[int]:
    """Row echelon form of the first ncols columns of rows (int lists,
    changed in place; later columns ride along) by forward elimination
    alone, which is all a rank needs; returns the pivot columns."""
    add, mul, neg, inv = (field.add_table, field.mul_table,
                          field.neg_table, field.inv_table)
    m = len(rows)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, pinv = rows[r], inv[rows[r][c]]
        for i in range(r + 1, m):
            a = rows[i][c]
            if a:
                ri, arow = rows[i], mul[neg[mul[a][pinv]]]
                for j in range(c, len(prow)):
                    if prow[j]:
                        ri[j] = add[ri[j]][arow[prow[j]]]
        pivots.append(c)
    return pivots


def _reduce(field: Field, rows: list, ncols: int) -> list[int]:
    """Reduced row echelon form, as _echelon, followed by back-substitution:
    from the last pivot up, each pivot row is scaled to lead with 1 and
    cleared from the rows above."""
    add, mul, neg, inv = (field.add_table, field.mul_table,
                          field.neg_table, field.inv_table)
    pivots = _echelon(field, rows, ncols)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        prow, pinv = rows[r], inv[rows[r][c]]
        if pinv != 1:
            rows[r] = prow = [mul[pinv][v] for v in prow]
        for i in range(r):
            a = rows[i][c]
            if a:
                ri, arow = rows[i], mul[neg[a]]
                for j in range(c, len(prow)):
                    if prow[j]:
                        ri[j] = add[ri[j]][arow[prow[j]]]
    return pivots


def rank(field: Field, A: np.ndarray) -> int:
    """Gaussian elimination with exact pivoting, forward only."""
    return len(_echelon(field, A.tolist(), A.shape[1]))


def kernel_dim(field: Field, A: np.ndarray) -> int:
    return A.shape[1] - rank(field, A)


def inverse(field: Field, A: np.ndarray) -> np.ndarray:
    """Inverse by reducing [A | I]; singular input signals non-membership
    in GL_n(q)."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("inverse requires a square matrix")
    rows = [a + e for a, e in zip(A.tolist(), identity(n).tolist())]
    if len(_reduce(field, rows, n)) < n:
        raise ValueError("matrix is singular over " + repr(field))
    return np.array([r[n:] for r in rows], dtype=np.uint8)


def nullspace(field: Field, A: np.ndarray) -> list[np.ndarray]:
    """Basis of the right kernel {v : A v = 0} as length-cols vectors."""
    ncols = A.shape[1]
    rows = A.tolist()
    pivots = _reduce(field, rows, ncols)
    neg = field.neg_table
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg[rows[i][c]]
        basis.append(np.array(v, dtype=np.uint8))
    return basis


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly(field: Field, A: np.ndarray) -> tuple[int, ...]:
    """det(tI - A) by similarity reduction to Hessenberg form followed by the
    leading-principal-minor recurrence.  O(n^3) field operations, no zero-pivot
    trouble, and valid for any q (interpolation would need q > n)."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("char_poly requires a square matrix")
    add, mul, neg, inv = (field.add_table, field.mul_table,
                          field.neg_table, field.inv_table)
    H = A.tolist()
    for m in range(n - 2):
        piv = next((i for i in range(m + 1, n) if H[i][m]), -1)
        if piv < 0:
            continue
        if piv != m + 1:
            H[m + 1], H[piv] = H[piv], H[m + 1]
            for row in H:
                row[m + 1], row[piv] = row[piv], row[m + 1]
        pinv = inv[H[m + 1][m]]
        for i in range(m + 2, n):
            a = H[i][m]
            if a:
                u = mul[a][pinv]
                urow = mul[u]
                Hi, Hm = H[i], H[m + 1]
                for j in range(m, n):
                    if Hm[j]:
                        Hi[j] = add[Hi[j]][neg[urow[Hm[j]]]]
                for r in range(n):
                    if H[r][i]:
                        H[r][m + 1] = add[H[r][m + 1]][urow[H[r][i]]]
    # p_0 = 1; p_m = (t - H[m-1][m-1]) p_{m-1}
    #              - sum_i H[i-1][m-1] (prod_{j=i..m-1} H[j][j-1]) p_{i-1}
    polys: list[tuple[int, ...]] = [(1,)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = [0] * (m + 1)
        for k, c in enumerate(prev):
            pm[k + 1] = c
        nh = neg[H[m - 1][m - 1]]
        if nh:
            row = mul[nh]
            for k, c in enumerate(prev):
                if c:
                    pm[k] = add[pm[k]][row[c]]
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = mul[prod][H[i][i - 1]]
            if not prod:
                break
            a = H[i - 1][m - 1]
            if a:
                coef = neg[mul[a][prod]]
                row = mul[coef]
                pi = polys[i - 1]
                for k, c in enumerate(pi):
                    if c:
                        pm[k] = add[pm[k]][row[c]]
        polys.append(tuple(pm))
    return polys[n]


def rank_one_char_polys(field: Field, M: np.ndarray, u: np.ndarray,
                        psi: np.ndarray) -> list[tuple[int, ...]]:
    """det(tI − A) of A = M + u·ψᵀ for each row pair of the (N, n) stacks u
    and ψ, by the matrix determinant lemma: with χ_M = Σ_i c_i·tⁱ and
    m_j = ψᵀ·Mʲ·u, χ_A = χ_M − Σ_j m_j·Σ_{i>j} c_i·t^{i−j−1}.  One
    char_poly, n stacked products for the Mʲ·u and their dot products with
    ψ, and one (N, n)·(n, n+1) product with the c_i, whatever N."""
    n = M.shape[0]
    c = char_poly(field, M)
    m = np.empty((len(u), n), np.uint8)
    power = u  # rows (Mʲ·u)ᵀ
    for j in range(n):
        if j:
            power = mat_mul(field, power, M.T)
        m[:, j] = mat_mul(field, psi[:, None, :], power[:, :, None])[:, 0, 0]
    shifted = np.array([[c[i + j + 1] if i + j < n else 0
                         for i in range(n + 1)] for j in range(n)], np.uint8)
    chi = field.add_np[np.array(c, np.uint8),
                       field.neg_np[mat_mul(field, m, shifted)]]
    return [tuple(row) for row in chi.tolist()]


def poly_at_matrix(field: Field, f, A: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at a square matrix by Horner's rule, started
    from c_d·A + c_{d−1}·I, so degree d ≥ 1 costs d − 1 matrix products."""
    n = A.shape[0]
    idx = np.arange(n)
    *rest, lead = f or (0,)  # the empty polynomial is 0
    M = field.mul_np[lead, A if rest else identity(n)]
    for k, c in enumerate(reversed(rest)):
        if k:
            M = mat_mul(field, M, A)
        if c:
            M[idx, idx] = field.add_np[M[idx, idx], c]
    return M


# ---------------------------------------------------------------------------
# conjugacy invariants and conjugator search
# ---------------------------------------------------------------------------

def conjugacy_invariant(field: Field, A: np.ndarray, cp=None):
    """Complete conjugacy invariant for GL: the characteristic polynomial with,
    per irreducible factor f of degree d and multiplicity m, the kernel
    dimensions of f(A)^i for i = 1, 2, ... until they stabilize at d*m.

    cp, when given, is taken as A's characteristic polynomial (a reflection
    product has it from rank_one_char_polys).  Multiplicity-1 factors
    contribute (d,) with no matrix work.
    """
    if cp is None:
        cp = char_poly(field, A)
    if cp[0] == 0:
        raise ValueError("matrix is singular over " + repr(field))
    data = []
    for f, mult in polyalg.factor_monic(field, cp):
        d = len(f) - 1
        full = d * mult
        if mult == 1:
            data.append((f, (d,)))
            continue
        B = poly_at_matrix(field, f, A)
        k = kernel_dim(field, B)
        dims = [k]
        P = B
        while k < full:
            P = mat_mul(field, P, B)
            k_next = kernel_dim(field, P)
            if k_next <= k:
                raise InvariantError("kernel filtration must strictly grow")
            dims.append(k_next)
            k = k_next
        data.append((f, tuple(dims)))
    return cp, tuple(data)


def commuting_space(field: Field, A: np.ndarray, B: np.ndarray) -> list[np.ndarray]:
    """Basis of {X : X A = B X} as n x n matrices (the Sylvester-type kernel)."""
    n = A.shape[0]
    if A.shape != B.shape or A.shape != (n, n):
        raise ValueError("commuting_space requires equal square shapes")
    add, neg = field.add_table, field.neg_table
    a, b = A.tolist(), B.tolist()
    M = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            row = M[i * n + j]
            for s in range(n):
                row[i * n + s] = add[row[i * n + s]][a[s][j]]
            for r in range(n):
                row[r * n + j] = add[row[r * n + j]][neg[b[i][r]]]
    basis = nullspace(field, np.array(M, dtype=np.uint8))
    return [v.reshape(n, n) for v in basis]


def annihilator_spans(field: Field, basis, u: np.ndarray) -> np.ndarray:
    """For each u of the (R, n) stack u, a basis of {X ∈ span(basis) : X·u
    = 0} by one nullspace, zero-padded: an (R, len(basis), n, n) stack."""
    (R, n), B = u.shape, np.array(basis, dtype=np.uint8)
    K = np.zeros((R, len(B), len(B)), dtype=np.uint8)
    for r, moved in enumerate(mat_mul(field, B, u.T).T):  # X·u_r
        kernel = nullspace(field, moved)
        K[r, :len(kernel)] = np.reshape(kernel, (-1, len(B)))
    return mat_mul(field, K, B.reshape(len(B), -1)).reshape(R, len(B), n, n)


def span_draws(field: Field, bases: np.ndarray,
               rng: random.Random) -> np.ndarray:
    """One seeded element of the span of each basis of the (N, s, n, n)
    stack `bases`, in one stacked product; coefficient i of draw k is word
    k·s + i of rng's 32-bit stream mod q, so N one-draw calls draw alike."""
    (N, s), n = bases.shape[:2], bases.shape[-1]
    words = np.frombuffer(rng.randbytes(4 * N * s), dtype="<u4")
    coeffs = (words % field.q).astype(np.uint8).reshape(N, 1, s)
    return mat_mul(field, coeffs, bases.reshape(N, s, n * n)).reshape(N, n, n)


def conjugator(field: Field, A: np.ndarray, B: np.ndarray,
               rng: random.Random | None = None) -> np.ndarray | None:
    """Invertible X with X A X^-1 = B, or None if A and B are not conjugate,
    as complete conjugacy invariants decide.  For a conjugate pair X is one
    centralizer_samples draw from the solution space of X A = B X, which
    raises InconclusiveError rather than ever returning a false None."""
    n = A.shape[0]
    if A.shape != B.shape or A.shape != (n, n):
        raise ValueError("conjugator requires equal square shapes")
    if conjugacy_invariant(field, A) != conjugacy_invariant(field, B):
        return None
    return centralizer_samples(field, commuting_space(field, A, B), 1, rng)[0]


def centralizer_samples(field: Field, basis: list[np.ndarray], count: int,
                        rng: random.Random | None = None) -> list[np.ndarray]:
    """`count` invertible elements of the span of `basis`, which spans
    {X : X A = B X} for two matrices with matching invariants (for A = B,
    the centralizer C(A)).  Each round draws the missing samples with
    span_draws and keeps those of full rank in draw order, so one rng gives
    the samples of `count` successive conjugator(field, A, A, rng) calls.
    After CONJUGATOR_RETRIES rounds the span's first invertible element in
    lexicographic order of coefficients fills the rest when the span has at
    most CONJUGATOR_EXHAUSTIVE_LIMIT elements; else InconclusiveError."""
    rng = rng if rng is not None else random.Random(0)
    if not basis:
        raise InvariantError(
            "matching invariants but no nonzero intertwiner: invariant bug")
    stack, samples = np.array(basis, dtype=np.uint8), []
    for _ in range(CONJUGATOR_RETRIES):
        draws = span_draws(field, np.broadcast_to(
            stack, (count - len(samples),) + stack.shape), rng)
        samples += [X for X in draws if rank(field, X) == len(X)]
        if len(samples) == count:
            return samples
    (s, n), q = stack.shape[:2], field.q
    if q ** s > CONJUGATOR_EXHAUSTIVE_LIMIT:
        raise InconclusiveError(
            f"no invertible intertwiner found in {CONJUGATOR_RETRIES} rounds "
            f"of samples from a space of size {q}^{s}; re-seed and retry")
    flat = stack.reshape(s, n * n)
    for coeffs in itertools.product(range(q), repeat=s):
        X = mat_mul(field, np.array([coeffs], np.uint8), flat).reshape(n, n)
        if rank(field, X) == n:
            return samples + [X] * (count - len(samples))
    raise InvariantError(
        "matching invariants but no invertible intertwiner: invariant bug")


# ---------------------------------------------------------------------------
# the vectors of F_q^n by code
# ---------------------------------------------------------------------------

def normalize(field: Field, vectors: np.ndarray):
    """The lead index of each vector v along the last axis, that of its
    first nonzero entry a, and the code of v/a; both are 0 for v = 0."""
    q, lead = field.q, np.argmax(vectors != 0, axis=-1)
    a = np.take_along_axis(vectors, lead[..., None], -1)
    row = np.array(field.inv_table, dtype=np.intp)[a] * q  # 0⁻¹ is 0
    # a⁻¹·v_j read from the flat product table, faster than mul_np[., .]
    return lead, polyalg.from_digits(field.mul_np.ravel()[row + vectors], q)


def normal_position(q: int, n: int, lead: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """The place of each normalized u of code u and lead index `lead` when
    they are ordered by lead, then by code: (qⁿ − q^{n−lead})/(q − 1) of
    them have a smaller lead, and the codes with this lead start at
    q^{n−1−lead}."""
    block = q ** (n - 1 - lead)
    return (q ** n - q * block) // (q - 1) + u - block


def hyperplane_codes(field: Field, n: int, u: np.ndarray,
                     t: int) -> np.ndarray:
    """For each normalized u (first nonzero entry 1) of the codes `u`, the
    codes of all q^{n−1} φ ∈ F_q^n with φ(u) = Σ φ_j·u_j = t; column k
    holds the φ whose code is k once the lead coordinate of u is deleted."""
    q = field.q
    lead = np.argmax(polyalg.to_digits(u, q, n) != 0, axis=1)
    w = q ** (n - 1 - lead)  # the weight of u's lead entry
    # φ(u) = φ_lead + Σ_{j>lead} u_j·φ_j fixes φ_lead; u − w is the code
    # of u without its lead coordinate
    k = np.arange(q ** (n - 1))
    dot = mat_mul(field, polyalg.to_digits(u - w, q, n - 1),
                  polyalg.to_digits(k, q, n - 1).T)
    w = w[:, None]
    return k // w * q * w + k % w + field.add_np[t, field.neg_np[dot]] * w
