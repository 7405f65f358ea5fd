"""Type calculus: extraction, modification/lifting, canonical representatives,
and the exact counting formulas."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq import gltype, matfq, polyalg
from glq.errors import ClassEmptyError, InvariantError
from glq.field import field_make, field_of_order
from glq.gltype import (
    GLType, a_partition, canonical_matrix, centralizer_order, class_size,
    conjugate_partition, det_of_type, empty_type, enumerate_partitions,
    enumerate_plain_types, format_gltype, gl_order, gltype_make,
    gltype_sort_key, lift, min_rank, modified_type_of, modify, norm,
    parse_gltype, q_binomial, q_factorial, q_int, reflection_length,
    stable_class_size, type_of,
)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)


def T(field, text):
    return parse_gltype(field, text)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_centralizer_order(field, A):
    """Count invertible X with XA = AX by exhaustive scan (tiny n only)."""
    n = A.shape[0]
    count = 0
    for flat in itertools.product(field.elements(), repeat=n * n):
        X = np.array(flat, dtype=np.uint8).reshape(n, n)
        if matfq.rank(field, X) < n:
            continue
        if matfq.mat_eq(matfq.mat_mul(field, X, A), matfq.mat_mul(field, A, X)):
            count += 1
    return count


def random_invertible(field, n, rng):
    while True:
        A = np.array(
            [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)],
            dtype=np.uint8,
        )
        if matfq.rank(field, A) == n:
            return A


def det_via_char_poly(field, A):
    """det(A) = (−1)^n · (constant term of det(tI − A))."""
    cp = matfq.char_poly(field, A)
    n = A.shape[0]
    return cp[0] if n % 2 == 0 else field.neg(cp[0])


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_conjugate_partition():
    assert conjugate_partition(()) == ()
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2, 1)) == (3, 2)
    assert conjugate_partition(conjugate_partition((4, 2, 1))) == (4, 2, 1)


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(8)) == 22


# ---------------------------------------------------------------------------
# GLType construction and text form
# ---------------------------------------------------------------------------

def test_gltype_text_round_trip():
    s = "1@t-1;2,1@t^2+t+2"
    ty = T(F3, s)
    assert norm(ty) == 1 + 2 * 3
    assert format_gltype(ty) == s
    assert format_gltype(empty_type(F3)) == "∅"
    assert T(F3, "∅") == empty_type(F3)
    assert T(F3, "") == empty_type(F3)


def test_gltype_text_sorts_entries():
    assert format_gltype(T(F3, "1@t-2;1@t-1")) == "1@t-1;1@t-2"


def test_gltype_text_extension_field_roots():
    ty = T(F4, "2@t-(x+1);1@t-x")
    assert format_gltype(ty) == "1@t-x;2@t-(x+1)"
    assert T(F4, format_gltype(ty)) == ty


def test_gltype_rejects_bad_text():
    with pytest.raises(ValueError):
        T(F3, "1;t-1")
    with pytest.raises(ValueError):
        T(F3, "1,2@t-1")  # ascending parts
    with pytest.raises(ValueError):
        T(F3, "1@t-1;1@t-1")  # repeated key
    with pytest.raises(ValueError):
        T(F3, "1@t")  # t is not a unit key
    with pytest.raises(ValueError):
        T(F3, "1@t^2+2")  # t^2+2 = (t-1)(t+1) is reducible


def test_gltype_invariants_enforced():
    unit = polyalg.t_minus_one(F3)
    with pytest.raises(ValueError):
        GLType(F3, (((0, 1), (1,)),))  # key t
    with pytest.raises(ValueError):
        GLType(F3, ((unit, ()),))  # empty partition
    with pytest.raises(ValueError):
        GLType(F3, (((1, 1), (1,)), (unit, (1,))))  # unsorted


def test_gltype_sort_key_order():
    order = [T(F2, "∅"), T(F2, "1@t-1"), T(F2, "1,1@t-1"), T(F2, "2@t-1"),
             T(F2, "1@t^2+t+1")]
    assert sorted(order, key=gltype_sort_key) == order


# ---------------------------------------------------------------------------
# norm and extraction
# ---------------------------------------------------------------------------

def test_norm_frozen():
    assert norm(empty_type(F3)) == 0
    assert norm(T(F3, "2,1@t-1")) == 3
    assert norm(T(F3, "2@t^2+1")) == 4


def test_type_of_frozen():
    assert type_of(F3, matfq.identity(3)) == T(F3, "1,1,1@t-1")
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    A = matfq.block_diag([J, matfq.identity(1)])
    assert type_of(F3, A) == T(F3, "2,1@t-1")
    C = polyalg.companion(F3, (1, 0, 1))
    assert type_of(F3, C) == T(F3, "1@t^2+1")


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_of_round_trip(field, n):
    """type_of(canonical_matrix(λ)) = λ for every plain type of norm n."""
    for ty in enumerate_plain_types(field, n):
        assert type_of(field, canonical_matrix(ty)) == ty


def test_modified_type_invariant_under_conjugation():
    rng = random.Random(9)
    for n in (3, 4):
        g = random_invertible(F3, n, rng)
        mu = modified_type_of(F3, g)
        for _ in range(4):
            x = random_invertible(F3, n, rng)
            gx = matfq.mat_mul(F3, matfq.mat_mul(F3, x, g), matfq.inverse(F3, x))
            assert modified_type_of(F3, gx) == mu


def test_classification_memo_caches_no_error(monkeypatch):
    # each call raises again, then the real type is computed, not served
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    monkeypatch.setattr(matfq, "kernel_dim", lambda field, B: 1)
    for _ in range(2):
        with pytest.raises(InvariantError, match="strictly grow"):
            modified_type_of(F3, J)
    monkeypatch.undo()
    # an invariant of t²+1 whose kernel is not a multiple of its degree
    bad = (((1, 0, 1), (1,)),)
    monkeypatch.setattr(matfq, "conjugacy_invariant",
                        lambda field, A, cp=None: (None, bad))
    for _ in range(2):
        with pytest.raises(InvariantError, match="not divisible by degree"):
            modified_type_of(F3, J)
    monkeypatch.undo()
    assert modified_type_of(F3, J) == T(F3, "1@t-1")
    assert modified_type_of(F3, J) == T(F3, "1@t-1")
    assert gltype._modified_type.cache_info().hits == 1


@pytest.mark.parametrize("run", [1, 2])
def test_memos_start_cold(run):
    # the second run sees the memos the first one filled cleared again
    assert gltype._modified_type.cache_info().currsize == 0
    assert polyalg._factor_monic.cache_info().currsize == 0
    modified_type_of(F3, matfq.identity(2))
    assert gltype._modified_type.cache_info().currsize == 1
    assert polyalg._factor_monic.cache_info().currsize == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9)), st.integers(1, 4),
       st.integers(0, 2 ** 32))
def test_type_of_invariant_under_random_conjugation(q, n, seed):
    field = field_of_order(q)
    rng = random.Random(seed)
    g = random_invertible(field, n, rng)
    x = random_invertible(field, n, rng)
    gx = matfq.mat_mul(field, matfq.mat_mul(field, x, g),
                       matfq.inverse(field, x))
    assert type_of(field, gx) == type_of(field, g)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4, 5, 9)), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32))
def test_modified_type_of_is_modify_of_type_of(q, n, from_type, seed):
    # the modified type is built in one step; from_type conjugates the
    # canonical matrix of a random plain type, so that t-1 partitions of
    # every shape occur, not only those of random matrices
    field = field_of_order(q)
    rng = random.Random(seed)
    g = canonical_matrix(rng.choice(enumerate_plain_types(field, n))) \
        if from_type else random_invertible(field, n, rng)
    x = random_invertible(field, n, rng)
    A = matfq.mat_mul(field, matfq.mat_mul(field, x, g),
                      matfq.inverse(field, x))
    assert modified_type_of(field, A) == modify(type_of(field, A))


# ---------------------------------------------------------------------------
# modify / lift
# ---------------------------------------------------------------------------

def test_modify_frozen():
    assert modify(T(F3, "1,1,1,1@t-1")) == empty_type(F3)
    assert modify(T(F3, "3,1@t-1;1@t-2")) == T(F3, "2@t-1;1@t-2")
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert modify(type_of(F3, J)) == T(F3, "1@t-1")


def test_lift_frozen():
    assert lift(empty_type(F3), 3) == T(F3, "1,1,1@t-1")
    assert lift(T(F3, "1@t-1"), 3) == T(F3, "2,1@t-1")
    assert lift(T(F3, "1@t-2"), 3) == T(F3, "1,1@t-1;1@t-2")


def test_lift_rejects_small_rank():
    with pytest.raises(ClassEmptyError, match="class empty in G_1"):
        lift(T(F3, "1@t-1"), 1)
    assert min_rank(T(F3, "1@t-1")) == 2
    assert min_rank(T(F3, "1@t-2")) == 1
    assert min_rank(T(F3, "1,1@t-1;1@t-2")) == 5


@pytest.mark.parametrize("field", [F2, F3])
def test_modify_lift_round_trip(field):
    for m in range(5):
        for mu in enumerate_plain_types(field, m):  # read as modified types
            k = min_rank(mu)
            for n in (k, k + 1, k + 2):
                assert modify(lift(mu, n)) == mu
                assert norm(lift(mu, n)) == n


# ---------------------------------------------------------------------------
# canonical matrices
# ---------------------------------------------------------------------------

def test_canonical_matrix_frozen():
    assert canonical_matrix(T(F3, "1,1@t-1")).tolist() == [[1, 0], [0, 1]]
    assert canonical_matrix(T(F3, "2@t-1")).tolist() == [[1, 1], [0, 1]]
    assert canonical_matrix(T(F3, "1@t-2;1@t-1")).tolist() == [[2, 0], [0, 1]]
    assert canonical_matrix(empty_type(F3)).shape == (0, 0)


def test_canonical_matrix_lift_pads_with_identity():
    """Lifting appends an identity corner: J(μ↑n) = diag(J(μ↑k), I)."""
    for field in (F2, F3):
        for m in range(4):
            for mu in enumerate_plain_types(field, m):
                k = min_rank(mu)
                base = canonical_matrix(lift(mu, k))
                for n in (k + 1, k + 2):
                    padded = matfq.block_diag([base, matfq.identity(n - k)])
                    assert matfq.mat_eq(canonical_matrix(lift(mu, n)), padded)


def test_reflection_length_frozen():
    assert reflection_length(F3, matfq.identity(3)) == 0
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    assert reflection_length(F3, matfq.block_diag([J, matfq.identity(2)])) == 1
    nu = T(F3, "1@t-1;1@t-2")
    assert reflection_length(F3, canonical_matrix(lift(nu, 4))) == 2


def test_reflection_length_cross_check_is_explicit(monkeypatch):
    # an explicit error, not an assert, so it also holds under python -O
    J = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    A = matfq.block_diag([J, matfq.identity(2)])
    monkeypatch.setattr(gltype, "modified_type_of",
                        lambda field, A: empty_type(field))
    with pytest.raises(InvariantError, match="modified-type norm"):
        reflection_length(F3, A)
    # beyond n = 4 the cross-check is skipped
    assert reflection_length(F3, matfq.block_diag([J, matfq.identity(3)])) == 1


def test_reflection_length_subadditive():
    rng = random.Random(77)
    for _ in range(10):
        g = random_invertible(F3, 4, rng)
        h = random_invertible(F3, 4, rng)
        gh = matfq.mat_mul(F3, g, h)
        assert reflection_length(F3, gh) <= \
            reflection_length(F3, g) + reflection_length(F3, h)


def test_det_of_type():
    assert det_of_type(T(F3, "1@t-2")) == 2
    assert det_of_type(T(F3, "1@t^2+1")) == 1
    assert det_of_type(empty_type(F3)) == 1
    for field in (F2, F3, F5):
        for ty in enumerate_plain_types(field, 3):
            A = canonical_matrix(ty)
            assert det_of_type(ty) == det_via_char_poly(field, A)
            assert det_of_type(modify(ty)) == det_of_type(ty)


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------

def test_q_int_frozen():
    assert q_int(3, 4) == 40
    assert q_int(2, 1) == 1
    assert q_int(5, 0) == 0
    assert q_factorial(2, 4) == 1 * 3 * 7 * 15


def test_q_binomial_frozen():
    assert q_binomial(5, 2, 1) == 6
    assert q_binomial(2, 4, 2) == 35
    assert q_binomial(3, 3, 1) == 13
    with pytest.raises(ValueError):
        q_binomial(3, 2, 3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_q_binomial_counts_subspaces(q):
    """[m choose b]_q counts b-dimensional subspaces of F_q^m."""
    field = field_make(q)
    m, b = 3, 1
    lines = {
        tuple(matfq.mat_mul(field, np.array([[c]], dtype=np.uint8),
                            np.array([v], dtype=np.uint8)).ravel())
        for v in itertools.product(field.elements(), repeat=m)
        if any(v)
        for c in field.units()
    }
    # each line contributes q-1 nonzero vectors
    assert (q ** m - 1) // (q - 1) == q_binomial(q, m, b)
    assert len(lines) == (q ** m - 1)


def a_partition_fraction(parts, Q):
    """a_λ(Q) = Q^{|λ|+2n(λ)} ∏_i ∏_{j≤m_i} (1−Q^{−j}) in Fractions."""
    n_stat = sum(i * p for i, p in enumerate(parts))
    total = Fraction(Q) ** (sum(parts) + 2 * n_stat)
    for m in Counter(parts).values():
        for j in range(1, m + 1):
            total *= 1 - Fraction(1, Q) ** j
    assert total.denominator == 1
    return int(total)


def test_a_partition_matches_the_fraction_form():
    # Q = q for every field of order at most 25, and Q = 25², with every
    # partition of size 1 to 10: 15 × 138 = 2,070 cases
    Qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 625)
    cases = 0
    for Q in Qs:
        for size in range(1, 11):
            for parts in enumerate_partitions(size):
                assert a_partition(parts, Q) == a_partition_fraction(parts, Q)
                cases += 1
    assert cases == 2070


def test_a_partition_frozen():
    for q in (2, 3, 5, 7):
        assert a_partition((1,), q) == q - 1
        assert a_partition((1, 1), q) == (q * q - 1) * (q * q - q)
    assert a_partition((2,), 3) == 6
    assert a_partition((2, 1), 3) == 108
    with pytest.raises(ValueError):
        a_partition((1, 2), 3)


@pytest.mark.parametrize("field", [F2, F3, F5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_order_equals_full_partition_a(field, n):
    assert gl_order(field, n) == a_partition((1,) * n, field.q)


def test_big_sizes_equal_products_one_factor_at_a_time():
    # gl_order, a_partition and q_factorial multiply their factors by halves
    for q, n in itertools.product((2, 3, 4), (0, 1, 2, 3, 7, 64, 201)):
        F = field_of_order(q)
        want = 1
        for i in range(n):
            want *= q ** n - q ** i
        assert gl_order(F, n) == want
        assert a_partition((1,) * n, q) == want
        assert q_factorial(q, n) * (q - 1) ** n * q ** (n * (n - 1) // 2) \
            == want
    assert a_partition((3,) * 5 + (1,) * 40, 9) == a_partition_fraction(
        (3,) * 5 + (1,) * 40, 9)


def test_gl_order_frozen():
    assert gl_order(F2, 2) == 6
    assert gl_order(F3, 2) == 48
    assert gl_order(F2, 3) == 168
    assert gl_order(F3, 0) == 1


def test_centralizer_order_frozen():
    assert centralizer_order(T(F3, "1,1@t-1")) == 48
    assert centralizer_order(T(F3, "1@t-2;1@t-1")) == 4
    assert centralizer_order(T(F3, "1@t^2+1")) == 8


@pytest.mark.parametrize("field,ty_text,n", [
    (F2, "1,1@t-1", 2),
    (F2, "2@t-1", 2),
    (F2, "1@t^2+t+1", 2),
    (F3, "2@t-1", 2),
    (F3, "1@t-2;1@t-1", 2),
    (F3, "1@t^2+1", 2),
    (F2, "2,1@t-1", 3),
    (F2, "1@t-1;1@t^2+t+1", 3),
    (F3, "1,1,1@t-1", 3),
])
def test_centralizer_order_matches_brute_force(field, ty_text, n):
    ty = T(field, ty_text)
    assert norm(ty) == n
    A = canonical_matrix(ty)
    assert centralizer_order(ty) == brute_centralizer_order(field, A)


def test_class_size_frozen():
    assert class_size(T(F3, "1@t-2"), 2) == 12
    assert class_size(empty_type(F3), 4) == 1
    assert class_size(empty_type(F2), 1) == 1
    assert class_size(T(F2, "1@t-1"), 2) == 3


def test_class_size_checks_divisibility_explicitly(monkeypatch):
    # an explicit error, not an assert, so it also holds under python -O
    # the centralizer order is the product of the a_λ of the lifted type
    monkeypatch.setattr(gltype, "a_partition", lambda parts, Q: 5)
    with pytest.raises(InvariantError, match="must divide the group order"):
        class_size(T(F3, "1@t-2"), 2)  # 5·5 does not divide |GL_2(3)| = 48


@pytest.mark.parametrize("field", [F2, F3, F5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plain_types_partition_the_group(field, n):
    """Class sizes over all plain types of norm n sum to |GL_n(q)|."""
    total = 0
    for ty in enumerate_plain_types(field, n):
        size, rem = divmod(gl_order(field, n), centralizer_order(ty))
        assert rem == 0
        total += size
    assert total == gl_order(field, n)


@pytest.mark.parametrize("field", [F2, F3])
def test_centralizer_factorization_under_lift(field):
    """|A(μ↑n)| = |A(μ↑k)| · |GL_{n-k}| · q^{2r(n-k)} with k minimal."""
    q = field.q
    for m in range(4):
        for mu in enumerate_plain_types(field, m):  # read as modified types
            r = len(mu.get(polyalg.t_minus_one(field)))
            k = min_rank(mu)
            base = centralizer_order(lift(mu, k))
            for n in (k + 1, k + 2):
                expected = base * gl_order(field, n - k) * q ** (2 * r * (n - k))
                assert centralizer_order(lift(mu, n)) == expected


def test_stable_class_size_frozen():
    assert stable_class_size(empty_type(F3)) == 1
    assert stable_class_size(T(F3, "1@t-2")) == Fraction(1, 6)  # 1/(q(q−1))
    assert stable_class_size(T(F3, "1,1@t-1")) == Fraction(1, 3888)


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda F: f"q{F.q}")
def test_stable_class_size_is_the_limit_of_class_shares(field):
    """|𝒦_μ(n)| / q^{2n‖μ‖} is within a share q^{−(n−k)} of its limit."""
    q = field.q
    for mu in enumerate_plain_types(field, 1) + \
            enumerate_plain_types(field, 2):  # read as modified types
        k, limit = min_rank(mu), stable_class_size(mu)
        for n in range(k, k + 8):
            share = Fraction(class_size(mu, n), q ** (2 * n * norm(mu)))
            assert abs(share / limit - 1) < Fraction(1, q ** (n - k))


def test_enumerate_plain_types_counts():
    # the number of types of norm n is the class number of GL_n(q)
    assert len(enumerate_plain_types(F2, 1)) == 1
    assert len(enumerate_plain_types(F3, 1)) == 2
    assert len(enumerate_plain_types(F2, 2)) == 3
    assert len(enumerate_plain_types(F3, 2)) == 8
    assert len(enumerate_plain_types(F2, 3)) == 6
    assert [format_gltype(t) for t in enumerate_plain_types(F2, 2)] == \
        ["1,1@t-1", "2@t-1", "1@t^2+t+1"]
