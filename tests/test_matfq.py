"""Exact linear algebra over F_q: elimination, characteristic polynomials,
conjugacy invariants, and conjugator search."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import poly_add
from glq import matfq, polyalg
from glq.errors import InconclusiveError, InvariantError, ResourceBoundError
from glq.field import field_make, field_of_order
from glq.gltype import (canonical_matrix, enumerate_plain_types, lift,
                        parse_gltype)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F8 = field_make(2, 3)
F9 = field_make(3, 2)
F25 = field_make(5, 2)
EMPTY = np.zeros((0, 0), dtype=np.uint8)  # the one element of GL_0(q)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def det_oracle(field, entries):
    """Determinant of a matrix of polynomials by the Leibniz permutation sum."""
    n = len(entries)
    total = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (1,)
        for i in range(n):
            term = polyalg.poly_mul(field, term, entries[i][perm[i]])
        if inversions % 2:
            term = polyalg.poly_scale(field, field.neg(1), term)
        total = poly_add(field, total, term)
    return total


def char_poly_oracle(field, A):
    """det(tI - A) via the permutation-sum determinant, entrywise polynomials."""
    n = A.shape[0]
    entries = [
        [
            poly_add(
                field,
                (0, 1) if i == j else (),
                polyalg.poly_scale(field, field.neg(1), (int(A[i][j]),)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_oracle(field, entries)


def kernel_count_oracle(field, A):
    """Count of kernel vectors by exhaustive scan (tiny matrices only)."""
    m, n = A.shape
    count = 0
    for vec in itertools.product(field.elements(), repeat=n):
        v = np.array(vec, dtype=np.uint8)
        if not matfq.mat_mul(field, A, v.reshape(n, 1)).any():
            count += 1
    return count


def full_reduction_oracle(field, A):
    """Rank and reduced row echelon rows of A by one-stage Gauss–Jordan
    elimination, clearing every other row at each pivot: the reference for
    matfq's forward elimination and back-substitution."""
    rows, r = A.tolist(), 0
    for c in range(A.shape[1]):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [field.sub(x, field.mul(row[c], y))
                           for x, y in zip(row, rows[r])]
        r += 1
    return r, rows


def random_matrix(field, n, rng):
    return np.array(
        [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)],
        dtype=np.uint8,
    )


def random_invertible(field, n, rng):
    while True:
        A = random_matrix(field, n, rng)
        if matfq.rank(field, A) == n:
            return A


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mat_mul_prime_field():
    A = np.array([[1, 2], [0, 1]], dtype=np.uint8)
    B = np.array([[2, 1], [1, 1]], dtype=np.uint8)
    assert matfq.mat_mul(F3, A, B).tolist() == [[1, 0], [1, 1]]


def test_mat_mul_extension_field():
    x = np.array([[2]], dtype=np.uint8)
    assert matfq.mat_mul(F4, x, x).tolist() == [[3]]  # x * x = x + 1
    A = np.array([[2, 1], [0, 3]], dtype=np.uint8)
    B = np.array([[1, 2], [2, 0]], dtype=np.uint8)
    # row 0: [x*1 + 1*x, x*x + 0] = [0, x+1]; row 1: [(x+1)x, 0] = [x^2+x, 0] = [1, 0]
    assert matfq.mat_mul(F4, A, B).tolist() == [[0, 3], [1, 0]]


@pytest.mark.parametrize("field", [F4, F9], ids=lambda F: f"q{F.q}")
def test_mat_mul_of_stacks_that_do_not_broadcast_is_a_value_error(field):
    # the table path raises what numpy's matmul raises over a prime field
    A = np.zeros((2, 2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        matfq.mat_mul(field, A, np.zeros((3, 2, 2), dtype=np.uint8))


def test_mat_add_sub_neg():
    A = np.array([[1, 4], [2, 3]], dtype=np.uint8)
    B = np.array([[3, 3], [4, 4]], dtype=np.uint8)
    zero = np.zeros((2, 2), dtype=np.uint8)
    assert matfq.mat_sub(F5, A, B).tolist() == [[3, 1], [3, 4]]
    assert matfq.mat_sub(F5, A, A).tolist() == [[0, 0], [0, 0]]
    # A − (0 − B) = A + B
    assert matfq.mat_sub(F5, A, matfq.mat_sub(F5, zero, B)).tolist() \
        == [[4, 2], [1, 2]]


def test_block_diag_and_transpose():
    A = np.array([[1, 2], [0, 1]], dtype=np.uint8)
    B = np.array([[2]], dtype=np.uint8)
    M = matfq.block_diag([A, B])
    assert M.tolist() == [[1, 2, 0], [0, 1, 0], [0, 0, 2]]
    assert matfq.block_diag([A.T, B.T]).tolist() \
        == [[1, 0, 0], [2, 1, 0], [0, 0, 2]] == M.T.tolist()


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_mat_mul_associative_sweep(field):
    rng = random.Random(11)
    for _ in range(10):
        A = random_matrix(field, 3, rng)
        B = random_matrix(field, 3, rng)
        C = random_matrix(field, 3, rng)
        left = matfq.mat_mul(field, matfq.mat_mul(field, A, B), C)
        right = matfq.mat_mul(field, A, matfq.mat_mul(field, B, C))
        assert matfq.mat_eq(left, right)


@pytest.mark.parametrize("field", [F3, F4])
def test_conjugate_stack_matches_mat_mul(field, monkeypatch):
    monkeypatch.setattr(matfq, "CONJUGATE_CHUNK", 2)  # a partial last chunk
    rng = random.Random(5)
    c = random_invertible(field, 3, rng)
    ci = matfq.inverse(field, c)
    stack = np.stack([random_matrix(field, 3, rng) for _ in range(5)])
    got = matfq.conjugate_stack(field, c, stack)
    for X, Y in zip(stack, got):
        want = matfq.mat_mul(field, matfq.mat_mul(field, c, X), ci)
        assert matfq.mat_eq(Y, want)


# ---------------------------------------------------------------------------
# rank / kernel / inverse / nullspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F2, F3, F4, F9])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_rank_matches_kernel_count(field, shape):
    rng = random.Random(shape[0] * 10 + shape[1])
    for _ in range(8):
        A = np.array(
            [[rng.randrange(field.q) for _ in range(shape[1])]
             for _ in range(shape[0])],
            dtype=np.uint8,
        )
        r = matfq.rank(field, A)
        assert kernel_count_oracle(field, A) == field.q ** (shape[1] - r)
        assert matfq.kernel_dim(field, A) == shape[1] - r


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_rank_equals_rank_of_transpose(field):
    rng = random.Random(7)
    for _ in range(12):
        A = random_matrix(field, 4, rng)
        assert matfq.rank(field, A) == matfq.rank(field, A.T)


@st.composite
def rectangular_matrices(draw):
    """A matrix of 1 to 6 rows and columns over F_q, q ≤ 9, made singular
    half the time by a zero column or a repeated row."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 8, 9))))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = np.array(draw(st.lists(st.integers(0, field.q - 1), min_size=m * n,
                               max_size=m * n)), np.uint8).reshape(m, n)
    flaw = draw(st.sampled_from(("none", "zero column", "repeated row")))
    if flaw == "zero column":
        A[:, draw(st.integers(0, n - 1))] = 0
    elif flaw == "repeated row" and m > 1:
        A[-1] = A[0]
    return field, A


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rectangular_matrices())
def test_forward_rank_equals_full_reduction_rank(case):
    field, A = case
    r, reduced = full_reduction_oracle(field, A)
    assert matfq.rank(field, A) == r
    assert matfq.kernel_dim(field, A) == A.shape[1] - r
    # the back-substitution stage gives the same reduced rows
    rows = A.tolist()
    assert len(matfq._reduce(field, rows, A.shape[1])) == r
    assert rows == reduced


def test_inverse_frozen_cases():
    A = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    assert matfq.inverse(F3, A).tolist() == [[2, 0], [0, 1]]
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert matfq.inverse(F3, J).tolist() == [[1, 2], [0, 1]]


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        matfq.inverse(F3, np.array([[1, 2], [2, 1]], dtype=np.uint8))


def test_inverse_of_the_empty_matrix_is_empty():
    assert matfq.inverse(F3, EMPTY).shape == (0, 0)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_inverse_round_trip_sweep(field):
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        A = random_invertible(field, n, rng)
        Ainv = matfq.inverse(field, A)
        assert matfq.mat_eq(matfq.mat_mul(field, A, Ainv), matfq.identity(n))
        assert matfq.mat_eq(matfq.mat_mul(field, Ainv, A), matfq.identity(n))


@pytest.mark.parametrize("field", [F2, F3, F4, F9])
def test_nullspace_spans_kernel(field):
    rng = random.Random(31)
    wide = [
        np.array(
            [[rng.randrange(field.q) for _ in range(4)] for _ in range(2)],
            dtype=np.uint8,
        )
        for _ in range(8)
    ]
    # 3x3 and 4x3 products of (rows x 2)(2 x 3) factors: rank at most 2, so
    # square singular and tall matrices that always have a kernel
    thin = [
        matfq.mat_mul(field,
                      np.array([[rng.randrange(field.q) for _ in range(2)]
                                for _ in range(rows)], dtype=np.uint8),
                      np.array([[rng.randrange(field.q) for _ in range(3)]
                                for _ in range(2)], dtype=np.uint8))
        for rows in (3, 4) for _ in range(8)
    ]
    for A in wide + thin:
        basis = matfq.nullspace(field, A)
        assert len(basis) == matfq.kernel_dim(field, A)
        for v in basis:
            assert not matfq.mat_mul(field, A, v.reshape(-1, 1)).any()
        if basis:
            assert matfq.rank(field, np.stack(basis)) == len(basis)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_frozen():
    A = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    assert matfq.char_poly(F3, A) == (2, 0, 1)
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert matfq.char_poly(F3, J) == (1, 1, 1)  # (t-1)^2 = t^2 + t + 1 over F_3


def test_char_poly_of_the_empty_matrix_is_one():
    assert matfq.char_poly(F3, EMPTY) == (1,)
    with pytest.raises(ValueError, match="square"):
        matfq.char_poly(F3, np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_char_poly_of_companion(field, d):
    for f in polyalg.enumerate_phi(field, d):
        if len(f) - 1 != d:
            continue
        assert matfq.char_poly(field, polyalg.companion(field, f)) == f


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9, F25])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_char_poly_matches_oracle(field, n):
    rng = random.Random(100 * n + field.q)
    for _ in range(6):
        A = random_matrix(field, n, rng)
        assert matfq.char_poly(field, A) == char_poly_oracle(field, A)


@st.composite
def rank_one_updates(draw):
    """h₀ ∈ GL_n(q) and stacks u, φ of 1 to 4 rows for n ≤ 6, q ≤ 9; the
    last row pair is u = e₁, φ = −e₁, so that g = I + u·φᵀ and g·h₀ are
    singular."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 8, 9))))
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 4))

    def matrix(m):
        return np.array(draw(st.lists(
            st.integers(0, field.q - 1), min_size=m * n, max_size=m * n)),
            np.uint8).reshape(m, n)

    h0 = matrix(n)
    assume(matfq.rank(field, h0) == n)
    u, phi = matrix(rows), matrix(rows)
    u[-1], phi[-1] = 0, 0
    u[-1, 0], phi[-1, 0] = 1, field.neg(1)
    return field, h0, u, phi


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rank_one_updates())
def test_rank_one_char_polys_equal_char_poly(case):
    field, h0, u, phi = case
    n = h0.shape[0]
    psi = matfq.mat_mul(field, phi, h0)  # rows φᵀ·h₀ = (h₀ᵀφ)ᵀ
    polys = matfq.rank_one_char_polys(field, h0, u, psi)
    assert len(polys) == len(u)
    for cp, x, y in zip(polys, u, phi):
        g = field.mul_np[x[:, None], y[None, :]]  # g = I + u·φᵀ
        g[range(n), range(n)] = field.add_np[g[range(n), range(n)], 1]
        assert cp == matfq.char_poly(field, matfq.mat_mul(field, g, h0))
    assert polys[-1][0] == 0  # the singular product


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=lambda F: f"q{F.q}")
def test_rank_one_char_polys_at_rank_zero(field):
    # GL_0(q) is the one empty matrix, and det(tI) of it is 1
    empty_rows = np.zeros((1, 0), dtype=np.uint8)
    assert matfq.rank_one_char_polys(field, EMPTY, empty_rows,
                                     empty_rows) == [(1,)]


@pytest.mark.parametrize("field", [F2, F3, F5] + [
    field_of_order(q) for q in (4, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)])
def test_cayley_hamilton(field):
    # past the Leibniz oracle's n = 4, up to n = 8 over every field
    rng = random.Random(41)
    for n in range(1, 9):
        A = random_matrix(field, n, rng)
        cp = matfq.char_poly(field, A)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert not matfq.poly_at_matrix(field, cp, A).any()


@pytest.mark.parametrize("field,top", [(F2, 4), (F3, 4), (F4, 4), (F9, 3)],
                         ids=["q2", "q3", "q4", "q9"])
def test_char_poly_of_canonical_matrices(field, top):
    # block matrices: most Krylov vectors R·A_rᵏ·c vanish
    for norm in range(top + 1):
        for T in enumerate_plain_types(field, norm):
            want = (1,)
            for f, parts in T.entries:
                for _ in range(sum(parts)):
                    want = polyalg.poly_mul(field, want, f)
            assert matfq.char_poly(field, canonical_matrix(T)) == want, T


def test_char_poly_divides_by_nothing(monkeypatch):
    # an entry below the subdiagonal, which a similarity reduction to
    # Hessenberg form would clear by dividing
    A = np.array([[1, 2, 0, 1], [0, 2, 1, 0], [2, 1, 0, 2], [1, 0, 2, 1]],
                 dtype=np.uint8)
    want = char_poly_oracle(F3, A)
    monkeypatch.setattr(F3, "inv_table", None)
    assert matfq.char_poly(F3, A) == want


def test_char_poly_invariant_under_conjugation():
    rng = random.Random(55)
    A = random_matrix(F3, 4, rng)
    X = random_invertible(F3, 4, rng)
    B = matfq.mat_mul(F3, matfq.mat_mul(F3, X, A), matfq.inverse(F3, X))
    assert matfq.char_poly(F3, A) == matfq.char_poly(F3, B)


def test_poly_at_matrix_constant_and_linear():
    A = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert matfq.poly_at_matrix(F3, (2,), A).tolist() == [[2, 0], [0, 2]]
    # A - 1 kills the diagonal
    assert matfq.poly_at_matrix(F3, (2, 1), A).tolist() == [[0, 1], [0, 0]]


def test_poly_at_matrix_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        matfq.poly_at_matrix(F3, (1, 1), np.zeros((3, 2), dtype=np.uint8))


@pytest.mark.parametrize("field", [F3, F4], ids=lambda F: f"q{F.q}")
def test_poly_at_matrix_matches_the_sum_of_powers(field):
    rng = random.Random(17 * field.q)
    for n in (1, 2, 3):
        for degree in range(-1, 6):  # -1: the empty polynomial, 0
            A = random_matrix(field, n, rng)
            f = tuple(rng.randrange(field.q) for _ in range(degree + 1))
            want = np.zeros((n, n), dtype=np.uint8)
            power = matfq.identity(n)
            for c in f:
                want = field.add_np[want, field.mul_np[c, power]]
                power = matfq.mat_mul(field, power, A)
            assert matfq.poly_at_matrix(field, f, A).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# conjugacy invariants
# ---------------------------------------------------------------------------

def test_conjugacy_invariant_separates_unipotent_shapes():
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert matfq.conjugacy_invariant(F3, J) != \
        matfq.conjugacy_invariant(F3, matfq.identity(2))


def test_conjugacy_invariant_rejects_singular():
    with pytest.raises(ValueError):
        matfq.conjugacy_invariant(F3, np.array([[1, 2], [2, 1]], dtype=np.uint8))


def test_conjugacy_invariant_kernel_filtration():
    f = polyalg.t_minus_one(F3)
    A = matfq.block_diag([
        polyalg.jordan_block(F3, f, 2),
        polyalg.jordan_block(F3, f, 1),
    ])
    cp, data = matfq.conjugacy_invariant(F3, A)
    assert cp == polyalg.poly_mul(F3, f, polyalg.poly_mul(F3, f, f))  # (t-1)^3
    assert data == (((2, 1), (2, 3)),)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_conjugacy_invariant_constant_on_conjugates(field):
    rng = random.Random(field.q)
    for n in (2, 3):
        A = random_invertible(field, n, rng)
        inv = matfq.conjugacy_invariant(field, A)
        for _ in range(4):
            X = random_invertible(field, n, rng)
            B = matfq.mat_mul(field, matfq.mat_mul(field, X, A),
                              matfq.inverse(field, X))
            assert matfq.conjugacy_invariant(field, B) == inv


# ---------------------------------------------------------------------------
# commuting space
# ---------------------------------------------------------------------------

def test_commuting_space_solves_sylvester():
    rng = random.Random(3)
    A = random_matrix(F3, 3, rng)
    B = random_matrix(F3, 3, rng)
    for X in matfq.commuting_space(F3, A, B):
        assert matfq.mat_eq(matfq.mat_mul(F3, X, A), matfq.mat_mul(F3, B, X))


@pytest.mark.parametrize("field", [F2, F3])
def test_commuting_space_zero_for_coprime_blocks(field):
    """Intertwiners between blocks with coprime characteristic polynomials
    vanish."""
    linears = [f for f in polyalg.enumerate_phi(field, 2) if len(f) == 2]
    quads = [f for f in polyalg.enumerate_phi(field, 2) if len(f) == 3]
    for f1 in linears:
        for f2 in quads:
            A = polyalg.jordan_block(field, f1, 2)
            B = polyalg.companion(field, f2)
            assert matfq.commuting_space(field, A, B) == []
            assert matfq.commuting_space(field, B, A) == []
    for f1, f2 in itertools.permutations(linears, 2):
        A = polyalg.jordan_block(field, f1, 2)
        B = polyalg.jordan_block(field, f2, 2)
        assert matfq.commuting_space(field, A, B) == []


@pytest.mark.parametrize("field", [F2, F3])
def test_commutant_dimension_formula(field):
    """dim{X : XA = AX} = sum_f d(f) * sum_{i,j} min(lambda_i, lambda_j)."""
    f_lin = polyalg.t_minus_one(field)
    quad = next(f for f in polyalg.enumerate_phi(field, 2) if len(f) == 3)
    cases = [
        ([(f_lin, (1,))], 1),
        ([(f_lin, (2,))], 2),
        ([(f_lin, (1, 1))], 4),
        ([(f_lin, (2, 1))], 1 * (2 + 1 + 1 + 1)),
        ([(quad, (1,))], 2),
        ([(quad, (1, 1))], 8),
        ([(f_lin, (1,)), (quad, (1,))], 1 + 2),
    ]
    for spec_blocks, expected in cases:
        blocks = []
        for f, parts in spec_blocks:
            for m in parts:
                blocks.append(polyalg.jordan_block(field, f, m))
        A = matfq.block_diag(blocks)
        assert len(matfq.commuting_space(field, A, A)) == expected


# ---------------------------------------------------------------------------
# conjugator
# ---------------------------------------------------------------------------

def test_conjugator_frozen_pair():
    A = np.array([[1, 0], [0, 2]], dtype=np.uint8)
    B = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    X = matfq.conjugator(F3, A, B, rng=random.Random(0))
    assert X is not None
    left = matfq.mat_mul(F3, matfq.mat_mul(F3, X, A), matfq.inverse(F3, X))
    assert matfq.mat_eq(left, B)


def test_conjugator_definitive_none():
    assert matfq.conjugator(
        F3,
        matfq.identity(2),
        np.array([[1, 0], [0, 2]], dtype=np.uint8),
    ) is None
    # same characteristic polynomial, different block shape
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert matfq.conjugator(F3, J, matfq.identity(2)) is None


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_conjugator_round_trip_sweep(field):
    rng = random.Random(field.q * 17)
    for n in (2, 3):
        A = random_invertible(field, n, rng)
        X0 = random_invertible(field, n, rng)
        B = matfq.mat_mul(field, matfq.mat_mul(field, X0, A),
                          matfq.inverse(field, X0))
        X = matfq.conjugator(field, A, B, rng=rng)
        assert X is not None
        got = matfq.mat_mul(field, matfq.mat_mul(field, X, A),
                            matfq.inverse(field, X))
        assert matfq.mat_eq(got, B)


def test_commuting_space_and_conjugator_at_rank_zero():
    assert matfq.commuting_space(F3, EMPTY, EMPTY) == []
    assert matfq.conjugator(F3, EMPTY, EMPTY).shape == (0, 0)
    # an empty basis spans no invertible matrix of positive rank
    with pytest.raises(InvariantError, match="no nonzero intertwiner"):
        matfq.centralizer_samples(F3, [], 1)


@pytest.mark.parametrize("field", [F3, F9], ids=lambda F: f"q{F.q}")
def test_annihilator_spans_of_an_empty_basis_are_empty(field):
    u = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert matfq.annihilator_spans(field, [], u).shape == (3, 0, 2, 2)


def test_conjugator_scalar_versus_nonscalar():
    assert matfq.conjugator(
        F5,
        np.array([[2, 0], [0, 2]], dtype=np.uint8),
        np.array([[2, 1], [0, 2]], dtype=np.uint8),
    ) is None


def test_conjugacy_invariant_checks_its_filtration(monkeypatch):
    # an explicit error, not an assert, so it also holds under python -O
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    monkeypatch.setattr(matfq, "kernel_dim", lambda field, B: 1)
    with pytest.raises(InvariantError, match="strictly grow"):
        matfq.conjugacy_invariant(F3, J)


def test_conjugator_without_intertwiners_raises(monkeypatch):
    # explicit errors, not asserts, so they also hold under python -O
    A = np.array([[1, 0], [0, 2]], dtype=np.uint8)
    B = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    monkeypatch.setattr(matfq, "commuting_space", lambda *args: [])
    with pytest.raises(InvariantError, match="no nonzero intertwiner"):
        matfq.conjugator(F3, A, B)
    monkeypatch.undo()
    # every random draw singular: the scan of the span still finds one
    monkeypatch.setattr(matfq, "span_draws",
                        lambda field, bases, rng: 0 * bases[:, 0])
    X = matfq.conjugator(F3, A, B)
    assert matfq.mat_eq(matfq.mat_mul(F3, X, A), matfq.mat_mul(F3, B, X))
    assert matfq.rank(F3, X) == 2
    # nothing invertible in the span: the scan fails, unless the span is
    # too large to scan
    monkeypatch.setattr(matfq, "rank", lambda field, X: 0)
    with pytest.raises(InvariantError, match="no invertible intertwiner"):
        matfq.conjugator(F3, A, B)
    monkeypatch.setattr(matfq, "CONJUGATOR_EXHAUSTIVE_LIMIT", 8)
    with pytest.raises(InconclusiveError, match="space of size 3"):
        matfq.conjugator(F3, A, B)


# ---------------------------------------------------------------------------
# centralizer samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,text", [
    (F3, "1@t-2"), (F3, "1,1@t-2"),   # a reflection class, a BFS class
    (F4, "1@t-x"), (F4, "2@t-x"),
], ids=lambda v: v if isinstance(v, str) else f"q{v.q}")
def test_centralizer_samples_are_invertible_and_commute(field, text):
    h0 = canonical_matrix(lift(parse_gltype(field, text), 3))
    basis = matfq.commuting_space(field, h0, h0)
    samples = matfq.centralizer_samples(field, basis, 3, random.Random(0))
    assert len(samples) == 3
    for c in samples:
        assert matfq.rank(field, c) == 3
        assert matfq.mat_eq(matfq.mat_mul(field, c, h0),
                            matfq.mat_mul(field, h0, c))
    # the draws of successive conjugator calls on one seeded rng
    rng = random.Random(0)
    for c in samples:
        assert matfq.mat_eq(c, matfq.conjugator(field, h0, h0, rng=rng))


# ---------------------------------------------------------------------------
# the contract at the edges: every export raises only what the CLI maps
# ---------------------------------------------------------------------------

def _dim(draw) -> int:
    return draw(st.integers(0, 3))


def _entries(draw, field, shape) -> np.ndarray:
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(0, field.q - 1),
                                  min_size=size, max_size=size)),
                    np.uint8).reshape(shape)


def _matrix(draw, field, shape=None) -> np.ndarray:
    """A square or non-square matrix of rank 0–3, drawn at random, zero, or
    with a zero last row (singular when square)."""
    if shape is None:
        n = _dim(draw)
        shape = (n, n) if draw(st.booleans()) else (n, _dim(draw))
    A = _entries(draw, field, shape)
    kind = draw(st.sampled_from(("random", "zero", "singular")))
    if kind == "zero":
        A[:] = 0
    elif kind == "singular" and len(A):
        A[-1] = 0
    return A


def _pair(draw, field):
    """Two matrices, of one shape or of shapes drawn apart."""
    A = _matrix(draw, field)
    return A, _matrix(draw, field, A.shape if draw(st.booleans()) else None)


def _stacked(draw, A) -> np.ndarray:
    """A, or a stack of 0–3 copies of it along a new leading axis."""
    return A if draw(st.booleans()) else np.repeat(A[None], _dim(draw), 0)


def _rows(draw, field, n=None) -> np.ndarray:
    """An (N, n) stack of vectors, N of 0–3; n drawn when not given."""
    return _entries(draw, field, (_dim(draw), _dim(draw) if n is None else n))


def _width(draw, n) -> int:
    """n, or a width drawn apart from it: a shape that may not match."""
    return n if draw(st.booleans()) else _dim(draw)


def _basis(draw, field) -> list:
    """The commuting space of a square matrix, or 0–3 matrices of one
    shape (zero, singular and non-square ones included)."""
    if draw(st.booleans()):
        n = _dim(draw)
        A = _matrix(draw, field, (n, n))
        return matfq.commuting_space(field, A, A)
    A = _matrix(draw, field)
    return [_matrix(draw, field, A.shape) for _ in range(_dim(draw))]


def _normalized(draw, field):
    """(n, lead indices, codes) of an (N, n) stack of normalized nonzero
    vectors of F_q^n, n of 0–3 (no nonzero vector when n = 0)."""
    n = _dim(draw)
    vectors = _rows(draw, field, n)
    if n:
        vectors[:, draw(st.integers(0, n - 1))] = 1
        lead, codes = matfq.normalize(field, vectors)
    else:
        lead = codes = np.zeros(0, dtype=np.int64)
    return n, lead, codes


def _rng(draw) -> random.Random:
    return random.Random(draw(st.integers(0, 3)))


#: export -> builder of its positional arguments from (draw, field)
_EDGE_ARGS = {
    "identity": lambda d, F: (_dim(d),),
    "mat_mul": lambda d, F: (F, *(_stacked(d, M) for M in _pair(d, F))),
    "mat_sub": lambda d, F: (F, *_pair(d, F)),
    "block_diag": lambda d, F: ([_matrix(d, F) for _ in range(_dim(d))],),
    "mat_eq": lambda d, F: _pair(d, F),
    "rank": lambda d, F: (F, _matrix(d, F)),
    "kernel_dim": lambda d, F: (F, _matrix(d, F)),
    "inverse": lambda d, F: (F, _matrix(d, F)),
    "nullspace": lambda d, F: (F, _matrix(d, F)),
    "char_poly": lambda d, F: (F, _matrix(d, F)),
    "rank_one_char_polys": lambda d, F: _rank_one_args(d, F),
    "poly_at_matrix": lambda d, F: (
        F, tuple(d(st.lists(st.integers(0, F.q - 1), max_size=4))),
        _matrix(d, F)),
    "conjugacy_invariant": lambda d, F: (F, _matrix(d, F)),
    "commuting_space": lambda d, F: (F, *_pair(d, F)),
    "conjugator": lambda d, F: (F, *_pair(d, F), _rng(d)),
    "centralizer_samples": lambda d, F: (F, _basis(d, F), _dim(d), _rng(d)),
    "annihilator_spans": lambda d, F: _annihilator_args(d, F),
    "span_draws": lambda d, F: (F, _entries(d, F, (
        _dim(d), _dim(d), *(2 * (_dim(d),)))), _rng(d)),
    "conjugate_stack": lambda d, F: _conjugate_stack_args(d, F),
    "normalize": lambda d, F: (F, _rows(d, F)),
    "normal_position": lambda d, F: (F.q, *_normalized(d, F)),
    "hyperplane_codes": lambda d, F: _hyperplane_args(d, F),
}


def _rank_one_args(draw, field):
    M = _matrix(draw, field)
    n = M.shape[0]
    u = _rows(draw, field, _width(draw, n))
    psi = _entries(draw, field, (len(u) if draw(st.booleans())
                                 else _dim(draw), _width(draw, n)))
    return field, M, u, psi


def _annihilator_args(draw, field):
    basis = _basis(draw, field)
    n = basis[0].shape[-1] if basis else _dim(draw)
    return field, basis, _rows(draw, field, _width(draw, n))


def _conjugate_stack_args(draw, field):
    c = _matrix(draw, field)
    n = _width(draw, c.shape[0])
    return field, c, _entries(draw, field, (_dim(draw), n, _width(draw, n)))


def _hyperplane_args(draw, field):
    n, _, codes = _normalized(draw, field)
    return field, n, codes, draw(st.integers(0, field.q - 1))


def test_edge_builders_cover_every_export():
    assert set(_EDGE_ARGS) == set(matfq.__all__)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_EDGE_ARGS)), st.sampled_from((2, 3, 4, 9)),
       st.data())
def test_every_export_returns_or_raises_a_mapped_error(name, q, data):
    """Over F_2, F_3, F_4 and F_9 at ranks 0–3, on square, non-square,
    zero, singular and mismatched inputs, each export returns or raises
    one of the four families the CLI maps onto an exit code."""
    args = _EDGE_ARGS[name](data.draw, field_of_order(q))
    try:
        getattr(matfq, name)(*args)
    except (ValueError, ResourceBoundError, InvariantError,
            InconclusiveError):
        pass
