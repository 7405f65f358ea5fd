"""Class orbits, class-sum products, structure constants, stable values, and
the block normal form for length-additive factorizations."""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import workload_stable_products
from glq import classcalc, matfq, polyalg
from glq.classcalc import (
    ClassSumExpansion, enumerate_class, enumerate_group,
    enumerate_modified_types, generators, multiply_class_sums,
    multiply_oracle, normalize_triple, stable_constant, stable_product,
    structure_constant_at, verify_stability,
)
from glq.cli import VERIFY_STABILITY_TRIPLES
from glq.errors import (ClassTooLargeError, InvariantError,
                        LengthNotAdditiveError, ResourceBoundError)
from glq.field import field_make, field_of_order
from glq.gltype import (
    canonical_matrix, class_size, det_of_type, empty_type,
    enumerate_plain_types, format_gltype, gl_order, gltype_make,
    gltype_sort_key, lift, min_rank, modified_type_of, norm, parse_gltype,
    reflection_length,
)
from glq.store import parse_expansion

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)


def T(field, text):
    return parse_gltype(field, text)


def M(rows):
    return np.array(rows, dtype=np.uint8)


# ---------------------------------------------------------------------------
# independent oracle: classes by brute group scan
# ---------------------------------------------------------------------------

def brute_classes(field, n):
    """Partition all of GL_n(q) into {modified type: set of byte keys}."""
    out = {}
    for g in enumerate_group(field, n):
        out.setdefault(modified_type_of(field, g), set()).add(g.tobytes())
    return out


# ---------------------------------------------------------------------------
# generators and group enumeration
# ---------------------------------------------------------------------------

def test_generators_generate_the_group():
    gens = generators(F3, 2)
    seen = {matfq.identity(2).tobytes()}
    frontier = [matfq.identity(2)]
    while frontier:
        g = frontier.pop()
        for s in gens:
            ng = matfq.mat_mul(F3, g, s)
            if ng.tobytes() not in seen:
                seen.add(ng.tobytes())
                frontier.append(ng)
    assert len(seen) == gl_order(F3, 2) == 48


def test_generators_n1():
    (D,) = generators(F5, 1)
    assert D[0, 0] == F5.multiplicative_generator()


def test_enumerate_group_counts():
    assert sum(1 for _ in enumerate_group(F3, 1)) == 2
    mats = list(enumerate_group(F2, 2))
    assert len(mats) == 6
    assert len({g.tobytes() for g in mats}) == 6
    for g in mats:
        assert matfq.rank(F2, g) == 2
    assert sum(1 for _ in enumerate_group(F3, 2)) == 48
    # the documented order: lexicographic in the entries, so strictly
    # ascending bytes
    for field, n in ((F2, 3), (F3, 2)):
        keys = [g.tobytes() for g in enumerate_group(field, n)]
        assert len(keys) == gl_order(field, n)
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda F: f"q{F.q}")
def test_rank_zero_is_the_trivial_group(field):
    # GL_0(q) has one element, the empty matrix, so K_∅·K_∅ = K_∅ at n = 0
    # as at n = 1
    unit = empty_type(field)
    assert generators(field, 0) == []
    assert modified_type_of(field, np.zeros((0, 0), np.uint8)) == unit
    assert enumerate_class(unit, 0).elements.shape == (1, 0, 0)
    assert next(enumerate_group(field, 0)).shape == (0, 0)
    for product in (multiply_class_sums(unit, unit, 0),
                    multiply_oracle(unit, unit, 0), stable_product(unit, unit)):
        assert product.terms == {unit: 1}
    assert stable_constant(unit, unit, unit) == 1
    assert structure_constant_at(unit, unit, unit, 0) == 1
    assert verify_stability(unit, unit, unit).values == ((0, 1), (1, 1), (2, 1))


def test_enumerate_group_bound():
    with pytest.raises(ResourceBoundError, match="exceeds the bound"):
        list(enumerate_group(F3, 3, bound=10))


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def test_enumerate_class_identity():
    orbit = enumerate_class(empty_type(F3), 2)
    assert orbit.size == 1
    assert matfq.mat_eq(orbit.elements[0], matfq.identity(2))


def test_enumerate_class_frozen_q3():
    orbit = enumerate_class(T(F3, "1@t-2"), 2)
    assert len(orbit) == 12
    cp = (2, 0, 1)  # (t-1)(t-2)
    for g in orbit.elements:
        assert matfq.char_poly(F3, g) == cp
    # element 5 sits at position 5
    assert orbit.conjugation_permutation(matfq.identity(2))[5] == 5


def test_enumerate_class_frozen_q2_transvections():
    orbit = enumerate_class(T(F2, "1@t-1"), 2)
    got = {g.tobytes() for g in orbit.elements}
    want = {M([[1, 1], [0, 1]]).tobytes(), M([[1, 0], [1, 1]]).tobytes(),
            M([[0, 1], [1, 0]]).tobytes()}
    assert got == want


@pytest.mark.parametrize("field,n", [(F2, 2), (F3, 2), (F2, 3)])
def test_enumerate_class_matches_brute_partition(field, n):
    by_type = brute_classes(field, n)
    for ty in enumerate_modified_types(field, n, n):
        if min_rank(ty) > n:
            continue
        orbit = enumerate_class(ty, n)
        assert {g.tobytes() for g in orbit.elements} == by_type.pop(ty)
    assert not by_type  # every class was covered exactly once


# every q <= 25 with n <= 4, where enumerating the types takes at most about
# a second (qⁿ <= 10⁴; q = 25 has 390,600 types at n = 4)
TYPE_RANKS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
              for n in (1, 2, 3, 4) if q ** n <= 10 ** 4]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(TYPE_RANKS))
@example((16, 3))  # 1,495 key polynomials: deeper than the recursion limit
@example((13, 4))  # 28,548 types, about 2 s
def test_class_sizes_sum_to_the_group_order(rank):
    _check_class_sizes_sum_to_the_group_order(*rank)


@pytest.mark.slow
def test_class_sizes_sum_to_the_group_order_at_rank_four():
    _check_class_sizes_sum_to_the_group_order(16, 4)  # 65,520 types, 4 s


def _check_class_sizes_sum_to_the_group_order(q: int, n: int) -> None:
    F = field_of_order(q)
    types = enumerate_modified_types(F, n, n)
    assert len(set(types)) == len(types)
    assert sum(class_size(ty, n) for ty in types) == gl_order(F, n)


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_sizes_match_class_sizes(field, n):
    # enumerate_class asserts |orbit| == class_size internally
    for ty in enumerate_modified_types(field, 2, n):
        orbit = enumerate_class(ty, n)
        assert orbit.size == class_size(ty, n)


def _reflection_classes(field, n):
    return [ty for ty in enumerate_modified_types(field, 1, n)
            if classcalc._reflection_eigenvalue(ty) is not None]


REFLECTION_RANKS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3, 4)
                    if n <= 3 or q <= 5]


def _conjugate_positions(orbit, c):
    """Positions of c·g·c⁻¹ found by bytes in a table built afresh from
    the elements, not by the orbit's own index."""
    step = orbit.n * orbit.n
    position = {g.tobytes(): i for i, g in enumerate(orbit.elements)}
    raw = matfq.conjugate_stack(orbit.field, c, orbit.elements).tobytes()
    return [position[raw[at:at + step]] for at in range(0, len(raw), step)]


@pytest.mark.parametrize("q,n", REFLECTION_RANKS)
def test_pair_permutation_matches_conjugate_stack(q, n):
    # every reflection class, so ξ = 1 (φ = 0 excluded, every position
    # shifted by one) and n = 1 (nothing left after deleting the lead
    # coordinate) are among them; the identity pins each stored position
    F = field_of_order(q)
    rng = random.Random(q * 10 + n)
    for ty in _reflection_classes(F, n):
        orbit = enumerate_class(ty, n)
        identity = orbit.conjugation_permutation(matfq.identity(n))
        assert identity.tolist() == list(range(orbit.size))
        for _ in range(3):
            c = _random_invertible(F, n, rng)
            assert orbit.conjugation_permutation(c).tolist() == \
                _conjugate_positions(orbit, c)


@pytest.mark.parametrize("text", ["1@t-2", "1@t-1"])
def test_pair_permutation_matches_conjugate_stack_q3_n6(text):
    # the centralizer samples of criterion 2's fixed representative h₀
    orbit = enumerate_class(T(F3, text), 6)
    h0 = canonical_matrix(lift(T(F3, "1,1@t-1;1@t-2"), 6))
    basis = matfq.commuting_space(F3, h0, h0)
    for c in matfq.centralizer_samples(F3, basis, classcalc.CENTRALIZER_SAMPLES,
                                       random.Random(0)):
        assert orbit.conjugation_permutation(c).tolist() == \
            _conjugate_positions(orbit, c)


@st.composite
def reflection_conjugations(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    n = draw(st.integers(2 if q == 2 else 1, 4))  # GL_1(2) has no reflection
    F = field_of_order(q)
    ty = draw(st.sampled_from(_reflection_classes(F, n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return ty, n, _random_invertible(F, n, rng), _random_invertible(F, n, rng)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(reflection_conjugations())
def test_pair_permutations_are_a_group_action(case):
    ty, n, c1, c2 = case
    orbit = enumerate_class(ty, n)
    p1 = orbit.conjugation_permutation(c1)
    p2 = orbit.conjugation_permutation(c2)
    assert np.array_equal(np.sort(p1), np.arange(orbit.size))
    p12 = orbit.conjugation_permutation(matfq.mat_mul(ty.field, c1, c2))
    assert np.array_equal(p12, p1[p2])


@st.composite
def vector_codes(draw):
    """F_q, a rank n ≤ 5, a value t of φ(u) and places of normalized u."""
    F = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 8, 9))))
    n = draw(st.integers(1, 5))
    places = st.integers(0, (F.q ** n - 1) // (F.q - 1) - 1)
    # at n = 1 no φ ≠ 0 has φ(u) = 0: there is no transvection
    return (F, n, draw(st.integers(n == 1, F.q - 1)),
            draw(st.lists(places, min_size=1, max_size=2, unique=True)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(vector_codes())
def test_vector_code_forms_match_their_definitions(case):
    # every vector of F_q^n, code 0 included, against the definitions:
    # code(v) = Σ v_j·q^{n−1−j}, the lead index of the first nonzero
    # entry a (0 for v = 0), v/a, the place of a normalized u by lead then
    # code, and φ without u's lead coordinate as φ's column in u's row
    F, n, t, places = case
    q = F.q
    vectors = list(itertools.product(range(q), repeat=n))  # code order

    def code(v):
        c = 0
        for a in v:
            c = c * q + a
        return c

    digits = polyalg.to_digits(np.arange(q ** n), q, n)
    assert digits.tolist() == [list(v) for v in vectors]
    assert polyalg.from_digits(digits, q).tolist() == list(range(q ** n))
    leads = [next((j for j, a in enumerate(v) if a), 0) for v in vectors]
    normal = [code(F.mul(F.inv(v[j]), a) for a in v) if any(v) else 0
              for v, j in zip(vectors, leads)]
    lead, codes = matfq.normalize(F, digits)
    assert lead.tolist() == leads and codes.tolist() == normal
    normals = sorted((c for c in range(1, q ** n) if normal[c] == c),
                     key=lambda c: (leads[c], c))
    place = matfq.normal_position(q, n, lead, np.arange(q ** n))
    assert place[normals].tolist() == list(range(len(normals)))
    held = np.array(normals).take(place, mode="clip") == range(q ** n)
    assert held.tolist() == [0 < c == normal[c] for c in range(q ** n)]
    u = np.array(normals)[places]
    rows = matfq.hyperplane_codes(F, n, u, t)
    for row, uc in zip(rows.tolist(), u.tolist()):
        j, want = leads[uc], {}
        for c, phi in enumerate(vectors):
            value = 0
            for a, b in zip(phi, vectors[uc]):
                value = F.add(value, F.mul(a, b))
            if value == t:
                want[code(phi[:j] + phi[j + 1:])] = c
        assert row == [want[k] for k in range(q ** (n - 1))]
    shift = int(t == 0)
    pairs = classcalc.ReflectionPairs(u, rows[:, shift:], shift)
    w = q ** (n - 1 - np.array([leads[c] for c in u.tolist()]))[:, None]
    at, found = classcalc._locate(q, pairs, np.arange(len(u))[:, None], w,
                                  np.arange(q ** n))
    assert found.tolist() == [[c in row for c in range(q ** n)]
                              for row in map(set, pairs.phi.tolist())]
    assert (pairs.phi.ravel()[at[found]] == np.nonzero(found)[1]).all()


@pytest.mark.parametrize("corrupt", ["swap", "shift"])
def test_corrupt_normal_position_is_checked(monkeypatch, corrupt):
    # the row level of a reflection product reads u's row from its place:
    # swapping the places of u = (1,0,0) and u = (0,0,1) sends them to rows
    # that hold other vectors; shifting every place by one sends the last
    # past the end
    real = matfq.normal_position

    def position(q, n, lead, u):
        if corrupt == "shift":
            return real(q, n, lead, u) + 1
        return np.where(u == 9, real(q, n, 2, 1), np.where(
            u == 1, real(q, n, 0, 9), real(q, n, lead, u)))

    monkeypatch.setattr(matfq, "normal_position", position)
    classcalc._product_terms.cache_clear()
    try:
        with pytest.raises(InvariantError, match="not in its class"):
            multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 3)
    finally:
        classcalc._product_terms.cache_clear()


@pytest.mark.parametrize("text", ["1@t-2", "1,1@t-2"])
def test_conjugate_outside_the_class_is_checked(monkeypatch, text):
    # a wrong inverse makes c·g·c⁻¹ a product that leaves the class; the
    # reflection class, built in closed form, and the class found
    # breadth-first share the bytes index
    orbit = enumerate_class(T(F3, text), 3)
    c = M([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    monkeypatch.setattr(matfq, "inverse", lambda field, A: A)
    with pytest.raises(InvariantError, match="not in its class"):
        orbit.conjugation_permutation(c)


def test_class_too_large():
    with pytest.raises(ClassTooLargeError, match="memory bound 10"):
        enumerate_class(T(F3, "1@t-2"), 2, memory_bound=10)


def test_negative_memory_bound_is_a_value_error():
    # a domain error, not a resource bound (ClassTooLargeError is no
    # ValueError); a bound of 0 stays a resource bound
    ty = T(F3, "1@t-2")
    for call in (lambda: enumerate_class(ty, 2, memory_bound=-5),
                 lambda: multiply_class_sums(ty, ty, 2, memory_bound=-5)):
        with pytest.raises(ValueError, match="negative"):
            call()
    with pytest.raises(ClassTooLargeError):
        enumerate_class(ty, 2, memory_bound=0)


def test_enumerate_modified_types_frozen():
    got = [format_gltype(t) for t in enumerate_modified_types(F3, 1, 2)]
    assert got == ["∅", "1@t-1", "1@t-2"]
    got = [format_gltype(t) for t in enumerate_modified_types(F2, 2, 4)]
    assert got == ["∅", "1@t-1", "1,1@t-1", "2@t-1", "1@t^2+t+1"]
    # at n = 2 the types needing rank > 2 drop out
    got = [format_gltype(t) for t in enumerate_modified_types(F2, 2, 2)]
    assert got == ["∅", "1@t-1", "1@t^2+t+1"]


# ---------------------------------------------------------------------------
# structure constants at fixed n
# ---------------------------------------------------------------------------

def test_unit_structure_constants():
    mu = T(F3, "1@t-2")
    assert structure_constant_at(empty_type(F3), mu, mu, 2) == 1
    assert structure_constant_at(empty_type(F3), mu, T(F3, "1@t-1"), 2) == 0


def test_structure_constant_frozen_values():
    # a square of two reflections with distinct eigenvalues merging into a
    # single size-2 Jordan block: value q
    assert structure_constant_at(T(F5, "1@t-1"), T(F5, "1@t-4"),
                                 T(F5, "2@t-2"), 2) == 5
    # two unipotent reflections multiplying into an irreducible quadratic:
    # value q+1
    assert structure_constant_at(T(F3, "1@t-1"), T(F3, "1@t-1"),
                                 T(F3, "1@t^2+1"), 2) == 4
    # two reflections with the same eigenvalue, diagonalizable product:
    # value q(q+1)
    assert structure_constant_at(T(F3, "1@t-2"), T(F3, "1@t-2"),
                                 T(F3, "1,1@t-2"), 2) == 12


def test_structure_constant_deterministic():
    args = (T(F3, "1@t-2"), T(F3, "1@t-2"), T(F3, "1,1@t-2"), 2)
    first = structure_constant_at(*args)
    classcalc._product_terms.cache_clear()  # computed again, not served
    assert structure_constant_at(*args) == first == 12


# ---------------------------------------------------------------------------
# class-sum products
# ---------------------------------------------------------------------------

def test_multiply_by_unit():
    for text in ("1@t-1", "1@t-2"):
        mu = T(F3, text)
        exp = multiply_class_sums(empty_type(F3), mu, 3)
        assert exp.terms == {mu: 1}
        exp = multiply_class_sums(mu, empty_type(F3), 3)
        assert exp.terms == {mu: 1}


def test_multiply_frozen_q3_n2():
    # cross-checked against multiply_oracle; includes the identity term
    # a^∅ = |𝒦_λ| (the class is closed under inversion here)
    exp = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2)
    want = {
        empty_type(F3): 12,
        T(F3, "1@t-1"): 6,
        T(F3, "1,1@t-2"): 12,
        T(F3, "2@t-2"): 6,
        T(F3, "1@t^2+1"): 4,
    }
    assert exp.terms == want
    assert exp.get(T(F3, "2@t-1")) == 0
    labels = [format_gltype(nu) for nu, _ in exp.items_sorted()]
    assert labels == ["∅", "1@t-1", "1,1@t-2", "2@t-2", "1@t^2+1"]


@pytest.mark.parametrize("field,n", [(F2, 2), (F2, 3), (F3, 2), (F4, 2)])
def test_multiply_matches_oracle(field, n):
    types = [t for t in enumerate_modified_types(field, 2, n)
             if min_rank(t) <= n]
    for lam, mu in itertools.product(types, repeat=2):
        fast = multiply_class_sums(lam, mu, n)
        slow = multiply_oracle(lam, mu, n)
        assert fast.terms == slow.terms, (format_gltype(lam),
                                          format_gltype(mu))
        # the center is commutative
        assert fast.terms == multiply_class_sums(mu, lam, n).terms
        # filtration: no term exceeds the combined norm
        assert all(norm(nu) <= norm(lam) + norm(mu) for nu in fast.terms)
        # determinant grading, read from the arbiter rather than from the
        # pruning that relies on it
        det = field.mul(det_of_type(lam), det_of_type(mu))
        assert all(det_of_type(nu) == det for nu in slow.terms)


def test_multiply_deterministic():
    lam, mu = T(F3, "1@t-1"), T(F3, "1@t-2")
    first = multiply_class_sums(lam, mu, 3).terms
    classcalc._product_terms.cache_clear()  # computed again, not served
    assert multiply_class_sums(lam, mu, 3).terms == first


def test_memo_hit_still_checks_the_memory_bound():
    lam = T(F3, "1@t-2")
    multiply_class_sums(lam, lam, 3)  # 𝒦_λ(3) has 117 elements
    assert classcalc._product_terms.cache_info().currsize == 1
    with pytest.raises(ClassTooLargeError, match="memory bound 116"):
        multiply_class_sums(lam, lam, 3, memory_bound=116)
    with pytest.raises(ValueError, match="field mismatch"):
        multiply_class_sums(lam, lam, 3, F5)


A2, A3, NU3 = T(F2, "1@t-1"), T(F3, "1@t-1"), T(F3, "1,1@t-1")


@pytest.mark.parametrize("fn, args", [
    (multiply_class_sums, (A2, A3, 2)),
    (multiply_class_sums, (A2, T(F3, "1@t-2"), 2)),
    (multiply_oracle, (A2, A3, 2)),
    (structure_constant_at, (A2, A2, NU3, 4)),
    (stable_constant, (A2, A2, NU3)),
    (stable_product, (A2, A3)),
    (verify_stability, (A2, A2, NU3)),
    (enumerate_class, (A2, 2, F3)),
], ids=["multiply_class_sums", "multiply_class_sums-index",
        "multiply_oracle", "structure_constant_at", "stable_constant",
        "stable_product", "verify_stability", "enumerate_class"])
def test_types_over_different_fields_are_a_usage_error(fn, args):
    # checked before any work: unchecked, these gave a product over F_2, a
    # constant 0, an InvariantError or an IndexError
    with pytest.raises(ValueError, match="field mismatch"):
        fn(*args)


def test_changing_returned_terms_leaves_the_memo_intact():
    lam, mu = T(F3, "1@t-1"), T(F3, "1@t-2")
    first = multiply_class_sums(lam, mu, 3)
    want = dict(first.terms)
    first.terms[empty_type(F3)] = 99
    first.terms.clear()
    assert multiply_class_sums(lam, mu, 3).terms == want
    assert classcalc._product_terms.cache_info().hits == 1


def test_each_product_is_computed_once(monkeypatch):
    computed = []
    real = classcalc._reflection_orbits

    def spy(*args):
        computed.append(args)
        return real(*args)

    monkeypatch.setattr(classcalc, "_reflection_orbits", spy)
    lam, mu = T(F3, "1@t-1"), T(F3, "1@t-2")
    for _ in range(3):
        assert multiply_class_sums(lam, mu, 3).get(T(F3, "1@t-1;1@t-2")) > 0
    assert len(computed) == 1
    swapped = multiply_class_sums(mu, lam, 3)  # the centre is commutative
    assert len(computed) == 1
    assert (swapped.lam, swapped.mu) == (mu, lam)
    assert swapped.terms == multiply_class_sums(lam, mu, 3).terms
    # rank k + 2 = 3 is the tail split itself, as 1@t-2 has no eigenvalue
    # 1, and ranks 4 to 6 are read from it
    multiply_class_sums(lam, mu, 4)
    multiply_class_sums(lam, mu, 5)
    multiply_class_sums(mu, lam, 6)
    assert len(computed) == 1
    assert classcalc._product_terms.cache_info().misses == 4


def test_counting_identity_failure_raises(monkeypatch):
    real = classcalc._reflection_orbits

    def doubled(*args):  # every orbit counted twice: integral, but wrong
        reps, weights = real(*args)
        return reps, 2 * weights

    monkeypatch.setattr(classcalc, "_reflection_orbits", doubled)
    with pytest.raises(InvariantError, match="counting identity"):
        multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2)


def union_find_orbits(perms, size):
    """Least indices and sizes of the orbits, by a plain union-find that
    links the larger root under the smaller, so each root is its orbit's
    least index."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            a, b = find(i), find(int(j))
            parent[max(a, b)] = min(a, b)
    sizes = Counter(find(i) for i in range(size))
    return sorted(sizes), [sizes[r] for r in sorted(sizes)]


@st.composite
def permutation_groups(draw):
    """Up to three permutations of range(size), each moving a random subset,
    so that orbits of every size occur."""
    size = draw(st.integers(0, 40))
    perms = []
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, max(size - 1, 0)), unique=True,
                              max_size=size))
        perm = np.arange(size)
        perm[moved] = draw(st.permutations(moved))
        perms.append(perm)
    return perms, size


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(permutation_groups())
@example(([], 0))
@example(([], 1))
@example(([np.zeros(1, dtype=np.int64)], 1))
@example(([], 5))
def test_merge_orbits_matches_union_find(case):
    # with 0 pull-only rounds every round also pulls along perm², perm⁴, …
    perms, size = case
    expected = union_find_orbits(perms, size)
    for cheap in (0, classcalc.CHEAP_ROUNDS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classcalc, "CHEAP_ROUNDS", cheap)
            reps, sizes = classcalc._merge_orbits(perms, size)
        assert (reps.tolist(), sizes.tolist()) == expected


def merge_rounds(monkeypatch, perms, size):
    """_merge_orbits's result and its number of rounds: it compares the
    labels once at the end of every round."""
    rounds = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda a, b: rounds.append(1) or real(a, b))
    result = classcalc._merge_orbits(perms, size)
    monkeypatch.undo()
    return result, len(rounds)


def test_merge_settles_a_random_long_cycle(monkeypatch):
    # one orbit of 100,000 in random order settles in O(log N) rounds
    N = 100_000
    order = np.random.default_rng(0).permutation(N)
    perm = np.empty(N, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    (reps, sizes), rounds = merge_rounds(monkeypatch, [perm], N)
    assert reps.tolist() == [0] and sizes.tolist() == [N]
    assert rounds <= 2 * math.ceil(math.log2(N)) + classcalc.CHEAP_ROUNDS


def test_merge_settles_ascending_cycles(monkeypatch):
    # labels ascend along i → perm[i], so a pull moves the least label one
    # step per round until the pulls along perm², perm⁴, … start
    L, count = 728, 50
    block = (np.arange(L) + 1) % L
    perm = np.concatenate([block + k * L for k in range(count)])
    (reps, sizes), rounds = merge_rounds(monkeypatch, [perm], L * count)
    assert reps.tolist() == list(range(0, L * count, L))
    assert sizes.tolist() == [L] * count
    assert rounds <= 2 * math.ceil(math.log2(L)) + classcalc.CHEAP_ROUNDS


@pytest.mark.parametrize("lam,mu,n", [
    ("1@t-2", "1@t-2", 2),               # reflection class, on two levels
    ("1@t-2", "1@t-2", 3),               # tail split: the basis is J's
    ("1,1@t-2", "1@t-1;1@t-2", 3),       # BFS class enumerated
])
def test_one_centralizer_basis_per_product(monkeypatch, lam, mu, n):
    # h₀ is the canonical matrix of the other class at rank n, or at its
    # minimal rank k when the product is read from the tail split
    lam, mu = T(F3, lam), T(F3, mu)
    other = mu if class_size(lam, n) <= class_size(mu, n) else lam
    rank = min_rank(other) if _read_from_tail_split(lam, mu, n) else n
    h0 = canonical_matrix(lift(other, rank))
    bases, invariants = [], []
    real_space = matfq.commuting_space
    real_invariant = matfq.conjugacy_invariant

    def space(field, A, B):
        bases.append((A, B))
        return real_space(field, A, B)

    def invariant(field, A, cp=None):
        invariants.append(A)
        return real_invariant(field, A, cp)

    monkeypatch.setattr(matfq, "commuting_space", space)
    monkeypatch.setattr(matfq, "conjugacy_invariant", invariant)
    multiply_class_sums(lam, mu, n, F3)
    assert len(bases) == 1
    assert all(np.array_equal(A, h0) for A in bases[0])
    assert invariants and not any(np.array_equal(A, h0) for A in invariants)


@st.composite
def small_products(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(1, 3))
    types = enumerate_modified_types(field_of_order(q), 2, n)
    return draw(st.sampled_from(types)), draw(st.sampled_from(types)), n


def _read_from_tail_split(lam, mu, n) -> bool:
    """Whether multiply_class_sums, with no tail split built, reads
    K_λ(n)·K_μ(n) from a tail split: the smaller class is a reflection
    class and m = n − min_rank(other) > 2, or m = 2 and the other class has
    no eigenvalue 1, that is its minimal rank is its norm."""
    pair = sorted((lam, mu), key=gltype_sort_key)
    small, other = pair if class_size(pair[0], n) <= class_size(pair[1], n) \
        else pair[::-1]
    m = n - min_rank(other)
    return (classcalc._reflection_eigenvalue(small) is not None
            and (m > classcalc.TAIL_RANK or m == classcalc.TAIL_RANK
                 and min_rank(other) == norm(other)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_products())
@example((T(F2, "1@t-1"), T(F2, "1,1@t-1"), 5))  # tail split at rank 4
@example((T(F3, "1@t-2"), T(F3, "1@t-1"), 5))    # at rank 3, ξ ≠ 1
@example((T(F4, "1@t-x"), T(F4, "1@t-(x+1)"), 4))
def test_terms_do_not_depend_on_centralizer_samples(case):
    # with 0 samples every element of the smaller class is classified, but
    # for the rows a tail split still merges under the generators of GL_2;
    # the examples are read from tail splits
    lam, mu, n = case
    sizes = class_size(lam, n), class_size(mu, n)
    tail = _read_from_tail_split(lam, mu, n)
    assume(min(sizes) <= 1000 or tail)
    terms = []
    for samples in (0, 1, 3):
        classcalc._product_terms.cache_clear()  # computed with these samples
        classcalc._tail_split_counts.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classcalc, "CENTRALIZER_SAMPLES", samples)
            terms.append(multiply_class_sums(lam, mu, n).terms)
        assert classcalc._tail_split_counts.cache_info().currsize == tail
    assert terms[0] == terms[1] == terms[2]
    if sizes[0] * sizes[1] <= 2000:
        assert multiply_oracle(lam, mu, n).terms == terms[0]


# ---------------------------------------------------------------------------
# reflection products counted by orbits on u, then on φ
# ---------------------------------------------------------------------------

def _element_level_terms(lam, mu, n):
    """K_λ(n)·K_μ(n) for a reflection class λ, counted on its elements:
    the class enumerated in full at rank n, its orbits under centralizer
    samples of h₀ ∈ 𝒦_μ merged on every element, one product classified
    per orbit."""
    F = lam.field
    orbit = enumerate_class(lam, n)
    h0 = canonical_matrix(lift(mu, n))
    reps, weights = classcalc._centralizer_orbits(F, orbit, h0)
    counts = Counter()
    for prod, weight in zip(matfq.mat_mul(F, orbit.elements[reps], h0),
                            weights):
        counts[modified_type_of(F, prod)] += int(weight)
    return {nu: c * class_size(mu, n) // class_size(nu, n)
            for nu, c in counts.items()}


@st.composite
def reflection_products(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    top = {2: 5, 3: 5, 4: 4}.get(q, 3)
    n = draw(st.integers(2 if q == 2 else 1, top))  # GL_1(2) has none
    F = field_of_order(q)
    lam = draw(st.sampled_from(_reflection_classes(F, n)))
    return lam, draw(st.sampled_from(enumerate_modified_types(F, 2, n))), n


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(reflection_products())
@example((T(F2, "1@t-1"), T(F2, "1@t-1"), 2))    # rows of 1 value
@example((T(F3, "1@t-1"), T(F3, "1@t-2"), 2))    # rows of 2 values
@example((T(F2, "1@t-1"), T(F2, "1,1@t-1"), 5))  # tail split, m = 3
@example((T(F3, "1@t-2"), T(F3, "1@t-1"), 5))    # tail split, m = 4
def test_two_level_count_equals_the_element_level_count(case):
    lam, mu, n = case
    assume(class_size(lam, n) <= min(class_size(mu, n), 12_000))
    assert multiply_class_sums(lam, mu, n).terms == \
        _element_level_terms(lam, mu, n)


def test_criterion_two_product_holds_no_class_sized_array():
    # 88,452 reflections at q = 3, n = 6: a merge on every element peaks
    # at 5.6 MB, orbits on u, then on φ at about 0.5 MB
    tracemalloc.start()
    try:
        product = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1,1@t-1;1@t-2"),
                                      6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.get(T(F3, "1,1@t-1;1,1@t-2")) == 204
    assert classcalc._build_orbit.cache_info().currsize == 0
    assert peak < 10 ** 6


def test_direct_count_holds_no_table_of_every_vector():
    # a direct count at rank k + 2 = 5 over F_9 peaks at about 6.2 MB;
    # tables over all 9⁵ vectors of F_9^5 take it to about 10.1 MB
    F9 = field_of_order(9)
    tracemalloc.start()
    try:
        product = multiply_class_sums(T(F9, "1@t-x"), T(F9, "1@t-2;1,1@t-1"),
                                      5, memory_bound=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(product.terms) == 93
    assert peak < 8 * 10 ** 6


RANK_EIGHT = ("1,1@t-1;1,1@t-2,16524|2@t-1;1,1@t-2,1872|"
              "1@t-1;1,1@t-2;1@t^2+1,192|1@t-1;1,1,1,1@t-2,51840|"
              "1@t-1;2,1,1@t-2,2592|1@t-1;3,1@t-2,144|1,1,1@t-1;1,1@t-2,6318|"
              "2,1@t-1;1,1@t-2,864|3@t-1;1,1@t-2,144|"
              "1@t-1;1,1@t-2;1@t^3+2*t+2,13|1@t-1;1,1@t-2;1@t^3+t^2+2,13|"
              "1@t-1;1,1@t-2;1@t^3+t^2+t+2,13|"
              "1@t-1;1,1@t-2;1@t^3+2*t^2+2*t+2,13|"
              "1@t-1;1,1,1@t-2;1@t^2+t+2,212|1@t-1;1,1,1@t-2;1@t^2+2*t+2,212|"
              "1@t-1;2,1@t-2;1@t^2+t+2,8|1@t-1;2,1@t-2;1@t^2+2*t+2,8|"
              "1,1@t-1;1,1@t-2;1@t^2+1,68|1,1@t-1;1,1,1,1@t-2,18360|"
              "1,1@t-1;2,1,1@t-2,918|1,1@t-1;3,1@t-2,51|"
              "2@t-1;1,1@t-2;1@t^2+1,8|2@t-1;1,1,1,1@t-2,2160|"
              "2@t-1;2,1,1@t-2,108|2@t-1;3,1@t-2,6|3,1@t-1;1,1@t-2,54|"
              "4@t-1;1,1@t-2,9")


@pytest.mark.slow
def test_rank_eight_reflection_product_runs_every_check(monkeypatch):
    # 7,173,360 reflections of GL_8(3), counted at rank 8 itself (the other
    # class has minimal rank 7); a merge on every element takes 491 MB
    lam, mu = T(F3, "1@t-2"), T(F3, "1,1@t-1;1,1,1@t-2")
    checked = []
    for name in ("term_violation", "violation"):
        real = getattr(ClassSumExpansion, name)
        monkeypatch.setattr(ClassSumExpansion, name,
                            lambda self, real=real, name=name:
                            checked.append((name, self.n)) or real(self))
    with pytest.raises(ClassTooLargeError):
        multiply_class_sums(lam, mu, 8)
    tracemalloc.start()
    try:
        product = multiply_class_sums(lam, mu, 8, memory_bound=10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.terms == parse_expansion(F3, 8, lam, mu, RANK_EIGHT).terms
    assert classcalc._tail_split_counts.cache_info().currsize == 0
    assert {("term_violation", 8), ("violation", 8)} <= set(checked)
    assert peak < 20 * 10 ** 6


# ---------------------------------------------------------------------------
# reflection products read from rank k + 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_tail_table_counts_every_tail(q, m):
    F = field_of_order(q)
    vectors = polyalg.to_digits(np.arange(q ** m), q, m)
    u, phi = (np.repeat(vectors, len(vectors), axis=0),
              np.tile(vectors, (len(vectors), 1)))
    tally = Counter()
    for ut, pt, tau in zip(u.tolist(), phi.tolist(),
                           classcalc._tail_types(F, u, phi)):
        c = 0
        for a, b in zip(ut, pt):
            c = F.add(c, F.mul(a, b))
        want = (4 if c == 0 else 3) if any(ut) and any(pt) else \
            int(any(ut)) + 2 * int(any(pt))
        assert tau == want
        tally[want, c if want == 3 else 0] += 1
    sizes = classcalc._tail_sizes(q, m)
    assert {key: sizes[key[0]] for key in tally} == dict(tally)
    assert sum(tally.values()) == q ** (2 * m)
    assert sizes[0] + sizes[1] + sizes[2] + (q - 1) * sizes[3] + sizes[4] \
        == q ** (2 * m)


def _rescaled_cases():
    """(λ, μ, n): a reflection class λ that is the smaller class at rank n,
    times a type μ of norm ≤ 2, at ranks min_rank(μ) + 3 to 7 wherever
    𝒦_λ(n) has at most 300,000 elements, and after them at rank
    min_rank(μ) + 2; a pair of reflection classes once."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_of_order(q)
        reflections = _reflection_classes(F, 2)
        for lam, mu in itertools.product(
                reflections, enumerate_modified_types(F, 2, 7)):
            if mu in reflections[:reflections.index(lam)]:
                continue
            k = min_rank(mu)
            ranks = [n for n in range(k + 3, 8)
                     if class_size(lam, n) <= min(class_size(mu, n), 300_000)]
            for n in ranks + [k + 2] * bool(ranks):
                yield lam, mu, n


@pytest.mark.slow
def test_rescaled_products_equal_direct_products(monkeypatch):
    cases = list(_rescaled_cases())
    pairs = {(lam, mu) for lam, mu, _ in cases}
    counted = []
    real = classcalc._reflection_orbits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classcalc, "_reflection_orbits",
                      lambda *args: counted.append(args[:2]) or real(*args))
        rescaled = [multiply_class_sums(*case).terms for case in cases]
    # one two-level count per pair, that of its tail split: rank k + 2,
    # issued after the higher ranks, is read from the split as well
    assert len(counted) == len(pairs) == 116
    classcalc._product_terms.cache_clear()
    monkeypatch.setattr(classcalc, "TAIL_RANK", 10)  # n − k ≤ 7: all direct
    for case, terms in zip(cases, rescaled):
        assert multiply_class_sums(*case).terms == terms, case
    assert len(cases) == 141 + 116


@pytest.mark.parametrize("q,lam,mu,n", [
    (3, "1@t-1", "1@t-1", 6), (4, "1@t-x", "1@t-(x+1)", 5),
    (2, "1@t-1", "1,1@t-1", 7), (5, "1@t-2", "1@t-2;1@t-3", 5),
])
def test_rescaled_terms_do_not_depend_on_centralizer_samples(q, lam, mu, n):
    F = field_of_order(q)
    terms = []
    for samples in (0, 1, 3):
        classcalc._product_terms.cache_clear()
        classcalc._tail_split_counts.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classcalc, "CENTRALIZER_SAMPLES", samples)
            terms.append(multiply_class_sums(T(F, lam), T(F, mu), n).terms)
        assert classcalc._tail_split_counts.cache_info().currsize == 1
    assert terms[0] == terms[1] == terms[2]


def test_rescaled_counts_are_checked(monkeypatch):
    lam = T(F3, "1@t-1")
    real_orbits, real_sizes, real_matrix = (classcalc._reflection_orbits,
                                            classcalc._tail_sizes,
                                            classcalc.canonical_matrix)

    def doubled(*args):
        reps, weights = real_orbits(*args)
        return reps, 2 * weights

    def flipped(ty):
        return real_matrix(ty)[::-1, ::-1].copy()

    for name, fake, match in (
            ("_reflection_orbits", doubled, "do not sum to the class size"),
            ("_tail_sizes", lambda q, m: (7919,) * 5 if m == 2
             else real_sizes(q, m), "does not rescale to an integer"),
            ("canonical_matrix", flipped, r"is not diag\(J, I\)")):
        classcalc._tail_split_counts.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classcalc, name, fake)
            with pytest.raises(InvariantError, match=match):
                multiply_class_sums(lam, lam, 6)


def test_oracle_pair_bound():
    with pytest.raises(ResourceBoundError, match="oracle bound"):
        multiply_oracle(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, pair_bound=1)


def test_top_degree_terms_equal_stable_values():
    lam, mu = T(F3, "1@t-1"), T(F3, "1@t-2")
    exp = multiply_class_sums(lam, mu, 3)
    stable = stable_product(lam, mu)
    top = {nu: a for nu, a in exp.terms.items()
           if norm(nu) == norm(lam) + norm(mu)}
    reachable = {nu: a for nu, a in stable.terms.items() if min_rank(nu) <= 3}
    assert top == reachable


# ---------------------------------------------------------------------------
# stable values
# ---------------------------------------------------------------------------

def test_stable_constant_requires_top_degree():
    with pytest.raises(ValueError, match="top degree"):
        stable_constant(T(F3, "1@t-1"), T(F3, "1@t-1"), T(F3, "1@t-1"))


def test_stable_constant_frozen_small():
    # same-eigenvalue reflections, diagonalizable product: q² + q
    assert stable_constant(T(F3, "1@t-1"), T(F3, "1@t-1"),
                           T(F3, "1,1@t-1")) == 12
    assert stable_constant(T(F5, "1@t-4"), T(F5, "1@t-4"),
                           T(F5, "1,1@t-4")) == 30
    # one reflection against a two-column class of the same eigenvalue:
    # q^{cd} · (Gaussian binomial), here q²·[3 choose 1] = 9·13
    assert stable_constant(T(F3, "1@t-2"), T(F3, "1,1@t-2"),
                           T(F3, "1,1,1@t-2")) == 117
    # empty when a factor cannot fit at the minimal rank of ν: the unipotent
    # three-column class first exists at rank 6, the target already at 4
    assert stable_constant(T(F2, "1,1,1@t-1"), T(F2, "1@t-1"),
                           T(F2, "1,1@t^2+t+1")) == 0


def test_stable_constant_mixed_union():
    # one reflection joining a class that already contains its eigenvalue
    # plus one other: q[2]·(2q−1) = 60; a published coefficient table lists
    # this same value for the mirror-image parametrization below
    assert stable_constant(T(F3, "1@t-2"), T(F3, "1@t-1;1@t-2"),
                           T(F3, "1@t-1;1,1@t-2")) == 60


def test_stable_product_two_distinct_reflections_q3():
    exp = stable_product(T(F3, "1@t-1"), T(F3, "1@t-2"))
    want = {
        T(F3, "1@t-1;1@t-2"): 5,           # the union itself: 2q−1
        T(F3, "1@t^2+t+2"): 4,             # each quadratic with the forced
        T(F3, "1@t^2+2*t+2"): 4,           # constant term: q+1
    }
    assert exp.terms == want
    assert exp.n is None
    # determinant grading: every surviving term multiplies determinants
    want_det = F3.mul(det_of_type(T(F3, "1@t-1")),
                      det_of_type(T(F3, "1@t-2")))
    for nu in exp.terms:
        assert det_of_type(nu) == want_det


def test_stable_product_two_unipotent_reflections_q3():
    exp = stable_product(T(F3, "1@t-1"), T(F3, "1@t-1"))
    want = {
        T(F3, "1,1@t-1"): 12,   # q² + q
        T(F3, "2@t-1"): 6,      # 2q
        T(F3, "2@t-2"): 3,      # q   (the square root of 1 other than 1)
        T(F3, "1@t^2+1"): 4,    # q+1 (constant term forced to 1)
    }
    assert exp.terms == want


def test_stable_product_unit():
    mu = T(F3, "1@t-1;1@t-2")
    assert stable_product(empty_type(F3), mu).terms == {mu: 1}


# ---------------------------------------------------------------------------
# determinant pruning, checked against unpruned products
# ---------------------------------------------------------------------------

def unpruned_stable_product(lam, mu, field):
    """Every top-degree ν read at its minimal rank k from one full product
    per distinct k, with no determinant test."""
    top = norm(lam) + norm(mu)
    lo = max(min_rank(lam), min_rank(mu))
    ranks = {min_rank(nu) for nu in enumerate_plain_types(field, top)}
    terms = {}
    for k in sorted(r for r in ranks if r >= lo):
        for nu, a in multiply_class_sums(lam, mu, k, field).terms.items():
            if norm(nu) == top and min_rank(nu) == k:
                terms[nu] = a
    return terms


STABLE_PAIRS = sorted(set(workload_stable_products())
                      | {(q, lam, mu)
                         for q, lam, mu, _ in VERIFY_STABILITY_TRIPLES})


@pytest.mark.parametrize("q,lam,mu", STABLE_PAIRS,
                         ids=[f"q{q}-{lam}*{mu}" for q, lam, mu in STABLE_PAIRS])
def test_pruned_stable_product_equals_unpruned(q, lam, mu):
    F = field_of_order(q)
    lam, mu = T(F, lam), T(F, mu)
    assert stable_product(lam, mu, F).terms == \
        unpruned_stable_product(lam, mu, F)


def test_stable_product_skips_ranks_without_a_candidate(monkeypatch):
    # every top-degree type of rank 6 has the wrong determinant here
    ranks = []
    real = classcalc.multiply_class_sums

    def spy(lam, mu, n, *args):
        ranks.append(n)
        return real(lam, mu, n, *args)

    monkeypatch.setattr(classcalc, "multiply_class_sums", spy)
    stable_product(T(F3, "1@t-2"), T(F3, "1,1@t-2"))
    assert ranks == [5]


@pytest.mark.parametrize("q,lam,mu", STABLE_PAIRS,
                         ids=[f"q{q}-{lam}*{mu}" for q, lam, mu in STABLE_PAIRS])
def test_stable_product_is_read_from_one_product(monkeypatch, q, lam, mu):
    # one full product, at the largest minimal rank of the candidates that
    # the determinant and the factor ranks leave
    F = field_of_order(q)
    lam, mu = T(F, lam), T(F, mu)
    ranks = []
    real = classcalc.multiply_class_sums

    def spy(left, right, n, *args):
        ranks.append(n)
        return real(left, right, n, *args)

    monkeypatch.setattr(classcalc, "multiply_class_sums", spy)
    stable_product(lam, mu, F)
    top = max(min_rank(nu)
              for nu in enumerate_plain_types(F, norm(lam) + norm(mu))
              if det_of_type(nu) == F.mul(det_of_type(lam), det_of_type(mu))
              and max(min_rank(lam), min_rank(mu)) <= min_rank(nu))
    assert ranks == [top]


@pytest.mark.parametrize("field", [F3, F4, F5], ids=lambda F: f"q{F.q}")
def test_stable_constant_equals_product_at_min_rank(field):
    refl = {x: gltype_make(field, {polyalg.t_minus(field, x): (1,)})
            for x in field.units()}
    products = {}
    for (xi, lam), (eta, mu) in itertools.product(refl.items(), repeat=2):
        for nu in enumerate_plain_types(field, 2):  # read as modified
            k = min_rank(nu)
            if (xi, eta, k) not in products:
                products[xi, eta, k] = multiply_class_sums(lam, mu, k, field)
            assert stable_constant(lam, mu, nu, field) == \
                products[xi, eta, k].get(nu), format_gltype(nu)


def test_stable_constant_wrong_determinant_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_class called")

    monkeypatch.setattr(classcalc, "enumerate_class", refuse)
    lam, mu, nu = T(F3, "1@t-2"), T(F3, "1,1@t-2"), T(F3, "1,1,1@t-1")
    assert det_of_type(nu) != F3.mul(det_of_type(lam), det_of_type(mu))
    assert stable_constant(lam, mu, nu, F3) == 0


# ---------------------------------------------------------------------------
# stability across n
# ---------------------------------------------------------------------------

def test_verify_stability_union_q2():
    rep = verify_stability(T(F2, "1@t-1"), T(F2, "1@t-1"), T(F2, "1,1@t-1"))
    assert rep.values == ((4, 6), (5, 6), (6, 6))
    assert rep.passed and rep.constant == 6


def test_verify_stability_unit():
    mu = T(F3, "1@t-2")
    rep = verify_stability(empty_type(F3), mu, mu, n_list=(1, 2, 3))
    assert rep.passed and rep.constant == 1


def test_verify_stability_rejects_bad_input():
    with pytest.raises(ValueError, match="top-degree"):
        verify_stability(T(F3, "1@t-1"), T(F3, "1@t-1"), T(F3, "1@t-1"))
    with pytest.raises(ValueError, match="at least k"):
        verify_stability(T(F3, "1@t-1"), T(F3, "1@t-1"), T(F3, "1,1@t-1"),
                         n_list=(2, 3, 4))


def test_verify_stability_refuses_an_empty_rank_list():
    lam = T(F2, "1@t-1")
    with pytest.raises(ValueError, match="at least one test rank"):
        verify_stability(lam, lam, T(F2, "1,1@t-1"), n_list=())
    assert classcalc._product_terms.cache_info().misses == 0


def test_verify_stability_reads_rank_k_plus_2_from_the_split(monkeypatch):
    # 1@t-1 has eigenvalue 1, so rank k + 2 = 4 issued first would be
    # counted directly; from the top rank down it reads rank 6's split
    counted = []
    real = classcalc._reflection_orbits
    monkeypatch.setattr(classcalc, "_reflection_orbits",
                        lambda *args: counted.append(args[1]) or real(*args))
    lam = T(F2, "1@t-1")
    rep = verify_stability(lam, lam, T(F2, "1,1@t-1"), n_list=(5, 4, 6, 4))
    assert rep.values == ((5, 6), (4, 6), (6, 6), (4, 6))
    assert counted == [4]
    assert classcalc._tail_split_counts.cache_info().currsize == 1


@pytest.mark.slow
def test_verify_stability_union_q3():
    rep = verify_stability(T(F3, "1@t-1"), T(F3, "1@t-1"), T(F3, "1,1@t-1"))
    assert rep.values == ((4, 12), (5, 12), (6, 12))
    assert rep.passed and rep.constant == 12


# ---------------------------------------------------------------------------
# published coefficients at larger rank
# ---------------------------------------------------------------------------

def test_published_mixed_coefficients_q3():
    # 2q²−1 = 17: a reflection joined to a two-column unipotent class
    assert stable_constant(T(F3, "1@t-2"), T(F3, "1,1@t-1"),
                           T(F3, "1,1@t-1;1@t-2")) == 17
    # q[2](2q−1) = 60: the unipotent reflection absorbed into its own column
    assert stable_constant(T(F3, "1@t-1"), T(F3, "1@t-1;1@t-2"),
                           T(F3, "1,1@t-1;1@t-2")) == 60


def test_published_union_coefficients_q5():
    # 2q²−1 = 49 at the minimal rank 3
    assert structure_constant_at(T(F5, "1@t-2"), T(F5, "1,1@t-3"),
                                 T(F5, "1@t-2;1,1@t-3"), 3) == 49


# ---------------------------------------------------------------------------
# block normal form
# ---------------------------------------------------------------------------

def test_normalize_triple_identity():
    form = normalize_triple(F3, matfq.identity(3), matfq.identity(3))
    assert form.gbar.shape == (0, 0) and form.hbar.shape == (0, 0)
    assert matfq.rank(F3, form.z) == 3


def test_normalize_triple_one_sided():
    J2 = polyalg.jordan_block(F3, polyalg.t_minus_one(F3), 2)
    g = matfq.block_diag([J2, matfq.identity(2)])
    h = matfq.identity(4)
    form = normalize_triple(F3, g, h)
    assert matfq.mat_eq(form.gbar, J2)
    assert matfq.mat_eq(form.hbar, matfq.identity(2))


def test_normalize_triple_frozen_q5():
    g = M([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = M([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    form = normalize_triple(F5, g, h)
    assert form.gbar.shape == (2, 2)
    prod = matfq.mat_mul(F5, form.gbar, form.hbar)
    assert matfq.mat_eq(prod, M([[2, 0], [0, 3]]))
    assert modified_type_of(F5, form.gbar) == T(F5, "1@t-2")
    assert modified_type_of(F5, form.hbar) == T(F5, "1@t-3")


def _random_invertible(field, n, rng):
    while True:
        A = np.array(
            [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)],
            dtype=np.uint8,
        )
        if matfq.rank(field, A) == n:
            return A


def test_normalize_triple_on_random_conjugates():
    rng = random.Random(7)
    g0 = M([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    h0 = M([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    checked = 0
    while checked < 8:
        x = _random_invertible(F5, 4, rng)
        y = _random_invertible(F5, 4, rng)
        g = matfq.mat_mul(F5, matfq.mat_mul(F5, x, g0), matfq.inverse(F5, x))
        h = matfq.mat_mul(F5, matfq.mat_mul(F5, y, h0), matfq.inverse(F5, y))
        gh = matfq.mat_mul(F5, g, h)
        if reflection_length(F5, gh) != 2:
            continue
        form = normalize_triple(F5, g, h, rng=rng)
        nu = modified_type_of(F5, gh)
        k = min_rank(nu)
        assert form.gbar.shape == (k, k)
        prod = matfq.mat_mul(F5, form.gbar, form.hbar)
        assert matfq.mat_eq(prod, canonical_matrix(lift(nu, k)))
        assert modified_type_of(F5, form.gbar) == T(F5, "1@t-2")
        assert modified_type_of(F5, form.hbar) == T(F5, "1@t-3")
        checked += 1


def test_normalize_triple_rejects_nonadditive():
    g = M([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = M([[3, 0, 0], [0, 1, 0], [0, 0, 1]])  # g·h = I, lengths 1+1
    with pytest.raises(LengthNotAdditiveError, match="length not additive"):
        normalize_triple(F5, g, h)


def test_normalize_triple_shape_check():
    with pytest.raises(ValueError, match="equal square shapes"):
        normalize_triple(F3, matfq.identity(3), matfq.identity(2))


def test_normalize_triple_checks_are_explicit(monkeypatch):
    # explicit errors, not asserts, so they also hold under python -O
    g = M([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = M([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    monkeypatch.setattr(matfq, "conjugator", lambda *args, **kwargs: None)
    with pytest.raises(InvariantError, match="not conjugate"):
        normalize_triple(F5, g, h)
    swap = M([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # not a conjugator to J
    monkeypatch.setattr(matfq, "conjugator", lambda *args, **kwargs: swap)
    with pytest.raises(InvariantError, match="block form"):
        normalize_triple(F5, g, h)
