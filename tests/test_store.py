"""Cache keys, record serialization, revalidation on lookup, the save and
lookup round trip, one-key lookups, and appending records."""

import functools
import itertools
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import workload_stable_products
from glq import classcalc
from glq.classcalc import (ClassSumExpansion, enumerate_modified_types,
                           multiply_class_sums, stable_product)
from glq.errors import InvariantError
from glq.field import field_make, field_of_order
from glq.gltype import (class_size, det_of_type, empty_type,
                        enumerate_plain_types, format_gltype, norm,
                        parse_gltype)
from glq.store import (ExpansionCache, _numbered_lines, _parse_record,
                       default_cache_path, format_record, make_key,
                       parse_expansion, parse_key, serialize_expansion)

F2 = field_make(2)
F3 = field_make(3)


def T(field, text):
    return parse_gltype(field, text)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_make_key_frozen():
    key = make_key(T(F3, "1@t-1"), T(F3, "1@t-2"), 2)
    assert key == "q=3;n=2;lambda=1@t-1;mu=1@t-2"
    key = make_key(T(F3, "1@t-1;1@t-2"), empty_type(F3), None)
    assert key == "q=3;n=stable;lambda=1@t-1;1@t-2;mu=∅"


def test_parse_key_inverts_make_key():
    lam, mu = T(F3, "1@t-1;2,1@t^2+1"), T(F3, "1,1@t-2")
    for n in (4, None):
        field, back_n, back_lam, back_mu = parse_key(make_key(lam, mu, n))
        assert (field.q, back_n, back_lam, back_mu) == (3, n, lam, mu)


def test_parse_key_rejects_garbage():
    for bad in ("", "q=3", "junk;q=3;n=2;lambda=∅;mu=∅"):
        with pytest.raises(ValueError, match="malformed cache key"):
            parse_key(bad)


@pytest.mark.parametrize("old,new", [("n=3", "n=03"),
                                     ("lambda=1@t-2", "lambda=1@t+1")])
def test_load_skips_a_key_not_in_canonical_form(tmp_path, old, new):
    # the key parses to the same product, but no lookup of the canonical
    # key matches it, and a lookup of its own text refuses it
    lam = T(F3, "1@t-2")
    line = format_record(multiply_class_sums(lam, lam, 3, F3))
    path = tmp_path / "cache.tsv"
    path.write_text(line.replace(old, new, 1) + "\n", encoding="utf-8")
    cache = ExpansionCache(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.lookup(make_key(lam, lam, 3)) is None
    with pytest.warns(UserWarning, match="key is not in canonical form"):
        assert cache.lookup(line.split("\t")[0].replace(old, new, 1)) is None


def test_keys_are_injective_on_generated_pairs():
    types = enumerate_plain_types(F2, 1) + enumerate_plain_types(F2, 2) \
        + enumerate_plain_types(F3, 1) + enumerate_plain_types(F3, 2)
    keys = {make_key(lam, mu, n)
            for lam, mu in itertools.product(types, repeat=2)
            if lam.field is mu.field
            for n in (4, None)}
    same_field = sum(1 for lam, mu in itertools.product(types, repeat=2)
                     if lam.field is mu.field)
    assert len(keys) == 2 * same_field


# ---------------------------------------------------------------------------
# record text
# ---------------------------------------------------------------------------

def test_expansion_round_trips_through_text():
    expansion = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, F3)
    text = serialize_expansion(expansion)
    assert text == "∅,12|1@t-1,6|1,1@t-2,12|2@t-2,6|1@t^2+1,4"
    back = parse_expansion(F3, 2, expansion.lam, expansion.mu, text)
    assert back.terms == expansion.terms


def test_parse_expansion_rejects_bad_terms():
    with pytest.raises(ValueError, match="malformed expansion term"):
        parse_expansion(F3, 2, empty_type(F3), empty_type(F3), "no-comma")


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------

def test_get_on_empty_cache_is_none(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"")
    assert ExpansionCache(path).lookup("q=2;n=2;lambda=∅;mu=∅") is None


def test_put_then_get_returns_identical_expansion(tmp_path):
    cache = ExpansionCache(tmp_path / "cache.tsv")
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    cache.put(key, expansion)
    cache.save()
    assert cache.lookup(key).terms == expansion.terms


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "nested" / "cache.tsv"
    cache = ExpansionCache(path)
    products = {}
    for lam_txt, mu_txt in (("1@t-1", "1@t-2"), ("1@t-2", "1@t-2")):
        expansion = multiply_class_sums(T(F3, lam_txt), T(F3, mu_txt), 2, F3)
        key = make_key(expansion.lam, expansion.mu, 2)
        cache.put(key, expansion)
        products[key] = expansion
    saved = cache.save()
    assert saved == path and path.exists()
    text = path.read_text()
    assert text.count("\n") == text.count("seed=-") == 2
    # records that an older version wrote with --seed 7 are served too
    path.write_text(text.replace("seed=-", "seed=7"))

    fresh = ExpansionCache(path)
    for key, expansion in products.items():
        assert fresh.lookup(key).terms == expansion.terms


def test_stable_records_round_trip(tmp_path):
    expansion = stable_product(T(F3, "1@t-2"), T(F3, "1@t-2"), F3)
    key = make_key(expansion.lam, expansion.mu, None)
    cache = ExpansionCache(tmp_path / "cache.tsv")
    cache.put(key, expansion)
    cache.save()
    served = ExpansionCache(tmp_path / "cache.tsv").lookup(key)
    assert served.n is None
    assert served.terms == expansion.terms


def test_load_skips_corrupt_records(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    cache.put(key, expansion)
    cache.save()
    good_line = path.read_text().strip()
    meta = good_line.split("\t")[2]
    with open(path, "w") as handle:
        handle.write("# comment lines are fine\n")
        handle.write(good_line + "\n")
        handle.write("no tabs at all\n")
        handle.write(f"{key}\tbad,coeff,x\t{meta}\n")
    with pytest.warns(UserWarning, match="skipping cache record") as seen:
        assert ExpansionCache(path).lookup(key).terms == expansion.terms
    assert len(seen) == 1 and f"{path}:4:" in str(seen[0].message)


def test_load_skips_version_mismatch(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("v=", "v=999."))
    with pytest.warns(UserWarning, match="version"):
        assert ExpansionCache(path).lookup(
            make_key(expansion.lam, expansion.mu, 2)) is None


def test_load_revalidates_counting_identity(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, F3)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("∅,12|", "∅,13|"))
    with pytest.warns(UserWarning, match="counting identity"):
        assert ExpansionCache(path).lookup(
            make_key(expansion.lam, expansion.mu, 2)) is None


def test_load_rejects_non_top_degree_stable_terms(tmp_path):
    path = tmp_path / "cache.tsv"
    expansion = stable_product(T(F3, "1@t-2"), T(F3, "1@t-2"), F3)
    cache = ExpansionCache(path)
    cache.put(make_key(expansion.lam, expansion.mu, None), expansion)
    cache.save()
    text = path.read_text()
    first_term = text.split("\t")[1].split("|")[0]
    path.write_text(text.replace(first_term, "1@t-2,1"))
    with pytest.warns(UserWarning, match="top-degree"):
        assert ExpansionCache(path).lookup(
            make_key(expansion.lam, expansion.mu, None)) is None


@pytest.mark.parametrize("q,lam,mu", workload_stable_products())
def test_stable_record_with_one_coefficient_raised_is_skipped(
        tmp_path, q, lam, mu):
    F = field_of_order(q)
    lam, mu = T(F, lam), T(F, mu)
    expansion = stable_product(lam, mu, F)
    key = make_key(lam, mu, None)
    path = tmp_path / "cache.tsv"
    for nu, coeff in expansion.terms.items():
        raised = ClassSumExpansion(field=F, n=None, lam=lam, mu=mu,
                                   terms={**expansion.terms, nu: coeff + 1})
        path.write_text(format_record(raised) + "\n")
        with pytest.warns(UserWarning, match="stable counting identity"):
            assert ExpansionCache(path).lookup(key) is None
    path.write_text(format_record(expansion) + "\n")
    assert ExpansionCache(path).lookup(key).terms == expansion.terms


def test_load_rejects_repeated_terms(tmp_path):
    # the duplicate holds the same value, so the counting identity still holds
    path = tmp_path / "cache.tsv"
    expansion = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, F3)
    cache = ExpansionCache(path)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("∅,12|", "∅,12|∅,12|"))
    with pytest.warns(UserWarning, match="repeated expansion term"):
        assert ExpansionCache(path).lookup(
            make_key(expansion.lam, expansion.mu, 2)) is None


@pytest.mark.parametrize("n, planted", [(2, "|1@t-2,0"), (None, ",-1")])
def test_load_rejects_coefficients_below_one(tmp_path, n, planted):
    # a zero term leaves the counting identity intact, and a negative one
    # leaves a stable record's grading intact
    path = tmp_path / "cache.tsv"
    lam = T(F3, "1@t-2")
    expansion = (multiply_class_sums(lam, lam, n, F3) if n is not None
                 else stable_product(lam, lam, F3))
    cache = ExpansionCache(path)
    cache.put(make_key(lam, lam, n), expansion)
    cache.save()
    key, value, meta = path.read_text().rstrip("\n").split("\t")
    if n is None:
        value = value.rsplit(",", 1)[0] + planted
    else:
        value += planted
    path.write_text(f"{key}\t{value}\t{meta}\n")
    with pytest.warns(UserWarning, match="coefficient <= 0"):
        assert ExpansionCache(path).lookup(key) is None


def _benchmark_records(cmd: str) -> list:
    """The record lines of one command in the benchmark's cache fixture."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    records = json.loads(path.read_text(encoding="utf-8"))["cache_cli"]
    return [record["stdout"].rstrip("\n") for record in records["records"]
            if record["cmd"] == cmd]


def test_benchmark_stable_records_are_served(tmp_path):
    path = tmp_path / "cache.tsv"
    for line in _benchmark_records("stable"):
        path.write_text(line + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExpansionCache(path).lookup(line.split("\t")[0])


def test_swap_for_a_higher_norm_type_is_not_served(tmp_path):
    """Each benchmark record is served; each swap of one of its terms for a
    type of higher norm with members at rank n, the same class size and
    the same determinant keeps the counting identity and the determinants,
    and only the candidate set rejects it."""
    path = tmp_path / "cache.tsv"
    swaps = []
    for line in _benchmark_records("mul"):
        key, value, _ = line.split("\t")
        path.write_text(line + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expansion = ExpansionCache(path).lookup(key)
        field, n, lam, mu = parse_key(key)
        top = norm(lam) + norm(mu)
        for nu, new in itertools.product(
                expansion.terms, enumerate_modified_types(field, n, n)):
            if norm(new) <= top or new in expansion.terms \
                    or class_size(new, n) != class_size(nu, n) \
                    or det_of_type(new) != det_of_type(nu):
                continue
            terms = {**expansion.terms, new: expansion.terms[nu]}
            del terms[nu]
            swapped = ClassSumExpansion(field, n, lam, mu, terms)
            path.write_text(format_record(swapped) + "\n", encoding="utf-8")
            with pytest.warns(UserWarning, match="outside the candidate set"):
                assert ExpansionCache(path).lookup(key) is None
            swaps.append((key, format_gltype(nu), format_gltype(new)))
    assert len(swaps) == 10
    assert ("q=5;n=2;lambda=∅;mu=1@t-2", "1@t-2", "1@t-3;1@t-4") in swaps


# ---------------------------------------------------------------------------
# one rule for records and computed products
# ---------------------------------------------------------------------------

def _scale_weights(monkeypatch, factor):
    real = classcalc._centralizer_orbits

    def scaled(*args):
        reps, weights = real(*args)
        return reps, factor * weights

    monkeypatch.setattr(classcalc, "_centralizer_orbits", scaled)


def _classify_as(monkeypatch, text):
    monkeypatch.setattr(classcalc, "modified_type_of",
                        lambda *args: T(F3, text))


def _skip_reason(path, expansion) -> str:
    """The reason a lookup gives for skipping the record of expansion."""
    path.write_text(format_record(expansion) + "\n", encoding="utf-8")
    key = make_key(expansion.lam, expansion.mu, expansion.n)
    with pytest.warns(UserWarning) as seen:
        assert ExpansionCache(path).lookup(key) is None
    assert len(seen) == 1
    prefix = f"skipping cache record at {path}:1: "
    assert str(seen[0].message).startswith(prefix)
    return str(seen[0].message)[len(prefix):]


# K_∅·K_{1@t-2} = K_{1@t-2} at q=3, n=2, broken in a record and by a fault
# in the product code: the enumerated class {I} is one orbit, of weight 1
@pytest.mark.parametrize("why,term,coeff,fault", [
    pytest.param("coefficient <= 0", "1@t-2", 0,
                 lambda mp: _scale_weights(mp, 0), id="coefficient-0"),
    # 1,1@t-2 has members at rank 2, but norm 2 > ‖∅‖+‖1@t-2‖ = 1
    pytest.param("outside the candidate set", "1,1@t-2", 1,
                 lambda mp: _classify_as(mp, "1,1@t-2"), id="higher-norm"),
    pytest.param("determinant", "1@t-1", 1,
                 lambda mp: _classify_as(mp, "1@t-1"), id="determinant"),
    pytest.param("counting identity", "1@t-2", 2,
                 lambda mp: _scale_weights(mp, 2), id="count-plus-one"),
])
def test_finite_record_and_product_fail_by_one_rule(
        tmp_path, monkeypatch, why, term, coeff, fault):
    lam, mu = empty_type(F3), T(F3, "1@t-2")
    broken = ClassSumExpansion(F3, 2, lam, mu, {T(F3, term): coeff})
    reason = _skip_reason(tmp_path / "cache.tsv", broken)
    fault(monkeypatch)
    with pytest.raises(InvariantError) as raised:
        multiply_class_sums(lam, mu, 2, F3)
    assert reason == str(raised.value) == broken.violation()
    assert why in reason


@pytest.mark.parametrize("why", ["top-degree", "stable counting identity"])
def test_stable_record_and_product_fail_by_one_rule(tmp_path, monkeypatch,
                                                    why):
    lam = T(F3, "1@t-2")
    terms = dict(stable_product(lam, lam, F3).terms)
    if why == "top-degree":
        # 1@t-1 has coefficient 6 in the product at its minimal rank 2
        low = T(F3, "1@t-1")
        terms[low] = 6
        real_types = classcalc.enumerate_plain_types
        monkeypatch.setattr(classcalc, "enumerate_plain_types",
                            lambda *args: real_types(*args) + [low])
    else:
        nu = next(iter(terms))
        terms[nu] += 1
        real_product = classcalc.multiply_class_sums

        def raised_at_nu(*args, **kwargs):
            expansion = real_product(*args, **kwargs)
            if nu in expansion.terms:
                expansion.terms[nu] += 1
            return expansion

        monkeypatch.setattr(classcalc, "multiply_class_sums", raised_at_nu)
    broken = ClassSumExpansion(F3, None, lam, lam, terms)
    reason = _skip_reason(tmp_path / "cache.tsv", broken)
    with pytest.raises(InvariantError) as raised:
        stable_product(lam, lam, F3)
    assert reason == str(raised.value) == broken.violation()
    assert why in reason


def test_append_keeps_existing_lines_and_later_line_wins(tmp_path):
    path = tmp_path / "cache.tsv"
    lam = T(F3, "1@t-2")
    key = make_key(lam, lam, 2)
    cache = ExpansionCache(path)
    cache.put(key, multiply_class_sums(lam, lam, 2, F3))
    cache.save()
    before = path.read_bytes()
    # a second record for the same key that also passes revalidation
    planted = multiply_class_sums(lam, lam, 2, F3)
    planted.terms = {empty_type(F3): 12 * 12}
    assert ExpansionCache(path).append(key, planted) == path
    after = path.read_bytes()
    assert after.startswith(before) and after.count(b"\n") == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ExpansionCache(path).lookup(key).terms == planted.terms


def test_append_after_torn_last_line(tmp_path):
    path = tmp_path / "cache.tsv"
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    record = f"{key}\t{serialize_expansion(expansion)}"
    path.write_text(record[:len(record) // 2])  # a writer died mid-line
    ExpansionCache(path).append(key, expansion)
    torn, line = path.read_text().splitlines()
    assert torn == record[:len(record) // 2] and line.startswith(record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the torn line is not of this key
        assert ExpansionCache(path).lookup(key).terms == expansion.terms


def test_append_creates_missing_file(tmp_path):
    path = tmp_path / "nested" / "cache.tsv"
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    ExpansionCache(path).append(key, expansion)
    assert path.read_text().count("\n") == 1
    assert ExpansionCache(path).lookup(key).terms == expansion.terms


# ---------------------------------------------------------------------------
# one-key lookups
# ---------------------------------------------------------------------------

def test_lookup_later_valid_line_wins(tmp_path):
    path = tmp_path / "cache.tsv"
    lam = T(F3, "1@t-2")
    key = make_key(lam, lam, 2)
    cache = ExpansionCache(path)
    cache.append(key, multiply_class_sums(lam, lam, 2, F3))
    planted = multiply_class_sums(lam, lam, 2, F3)
    planted.terms = {empty_type(F3): 12 * 12}
    cache.append(key, planted)
    fresh = ExpansionCache(path)
    assert fresh.lookup(key).terms == planted.terms


def test_lookup_falls_back_past_a_corrupt_line_of_its_key(tmp_path):
    path = tmp_path / "cache.tsv"
    lam = T(F3, "1@t-2")
    key = make_key(lam, lam, 2)
    expansion = multiply_class_sums(lam, lam, 2, F3)
    ExpansionCache(path).append(key, expansion)
    good = path.read_text()
    path.write_text(good + good.replace("∅,12|", "∅,13|"))
    with pytest.warns(UserWarning, match="counting identity") as seen:
        assert ExpansionCache(path).lookup(key).terms == expansion.terms
    assert len(seen) == 1 and f"{path}:2:" in str(seen[0].message)


def test_lookup_ignores_corrupt_lines_of_other_keys(tmp_path):
    path = tmp_path / "cache.tsv"
    lam, mu = T(F3, "1@t-2"), T(F3, "1@t-1")
    key, other = make_key(lam, lam, 2), make_key(lam, mu, 2)
    expansion = multiply_class_sums(lam, lam, 2, F3)
    cache = ExpansionCache(path)
    cache.put(key, expansion)
    other_expansion = multiply_class_sums(lam, mu, 2, F3)
    cache.put(other, other_expansion)
    cache.save()
    text = path.read_text()
    corrupt = "".join(line.replace("|", "|junk|") + "\n"
                      for line in text.splitlines() if line.startswith(other))
    path.write_text(text + corrupt + "no tabs at all\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ExpansionCache(path).lookup(key).terms == expansion.terms
    with pytest.warns(UserWarning, match=f"{path}:3:"):  # its corrupt copy
        assert ExpansionCache(path).lookup(other).terms \
            == other_expansion.terms


def test_lookup_skips_a_torn_last_line(tmp_path):
    path = tmp_path / "cache.tsv"
    lam = T(F3, "1@t-2")
    key = make_key(lam, lam, 2)
    expansion = multiply_class_sums(lam, lam, 2, F3)
    ExpansionCache(path).append(key, expansion)
    line = path.read_text()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[:len(line) // 2 + 8])  # a writer died mid-line
    with pytest.warns(UserWarning, match=":2:"):
        assert ExpansionCache(path).lookup(key).terms == expansion.terms


def test_lookup_skips_later_lines_of_another_version(tmp_path):
    path = tmp_path / "cache.tsv"
    lam, mu = T(F3, "1@t-2"), T(F3, "1@t-1")
    cache = ExpansionCache(path)
    products = {}
    for a, b, n in ((lam, lam, 2), (lam, mu, 2), (lam, mu, 3)):
        products[make_key(a, b, n)] = multiply_class_sums(a, b, n, F3)
        cache.append(make_key(a, b, n), products[make_key(a, b, n)])
    text = path.read_text()
    path.write_text(text + text.replace("v=", "v=999."))
    for key in (make_key(lam, lam, 2), make_key(lam, mu, 3)):
        with pytest.warns(UserWarning, match="version") as seen:
            assert ExpansionCache(path).lookup(key).terms \
                == products[key].terms
        assert len(seen) == 1
    assert ExpansionCache(path).lookup(make_key(mu, mu, 2)) is None


@functools.lru_cache(maxsize=1)
def _record_lines() -> tuple:
    """Valid record lines: one key whose type text is a prefix of another
    key's, a rank-0 and a stable record, and a second valid record, with
    other terms, for the first key."""
    one, two = T(F3, "1@t-2"), T(F3, "1@t-1")
    unit = empty_type(F3)
    products = [multiply_class_sums(one, one, 2, F3),
                multiply_class_sums(one, two, 2, F3),
                multiply_class_sums(unit, two, 3, F3),
                multiply_class_sums(unit, T(F3, "1@t-1;1@t-2"), 3, F3),
                multiply_class_sums(unit, unit, 0, F3),
                stable_product(one, one, F3)]
    planted = multiply_class_sums(one, one, 2, F3)
    planted.terms = {unit: 12 * 12}
    return tuple(format_record(e) for e in products + [planted])


def _corrupt(line: str, kind: str) -> str:
    """The corrupt kinds of the benchmark's cache fixture."""
    key, value, meta = line.split("\t")
    if kind == "truncated":
        return f"{key}\t{value}"
    if kind == "version":
        return f"{key}\t{value}\tv=0.0.0;ts=0;seed=-"
    if kind == "key":
        q_part, _, rest = key.partition(";")
        return f"{q_part};n=?;{rest.partition(';')[2]}\t{value}\t{meta}"
    head, _, coeff = value.rpartition(",")
    return f"{key}\t{head},{int(coeff) + 1}\t{meta}"


def _torn(line: str) -> bytes:
    """The line as a writer that died inside its first ∅ leaves it."""
    data = line.encode()
    return data[:data.index("∅".encode()) + 1]


@st.composite
def cache_files(draw) -> bytes:
    lines = _record_lines()
    piece = st.one_of(
        st.sampled_from(lines).map(str.encode),
        st.tuples(st.sampled_from(lines),
                  st.sampled_from(("truncated", "version", "key",
                                   "coefficient")))
        .map(lambda pair: _corrupt(*pair).encode()),
        st.sampled_from([line for line in lines if "∅" in line]).map(_torn),
        st.sampled_from((b"", b"# a comment", b"no tabs at all")))
    pieces = draw(st.lists(st.tuples(piece, st.sampled_from(
        (b"\n", b"\n", b"\r\n", b"\r"))), max_size=10))
    data = b"".join(text + end for text, end in pieces)
    if pieces and draw(st.booleans()):
        data = data.rstrip(b"\r\n")  # no final line end
    return data


def _skipped_lines(caught) -> list:
    return [int(re.search(r":(\d+): ", str(w.message)).group(1))
            for w in caught]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cache_files())
def test_lookup_serves_the_last_valid_line_of_its_key(data):
    keys = sorted({line.split("\t")[0] for line in _record_lines()})
    keys.append(make_key(empty_type(F3), empty_type(F3), 2))  # never stored
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "cache.tsv"
        path.write_bytes(data)
        # the lines as text mode reads them: \r\n and a lone \r end a line
        with open(path, encoding="utf-8", errors="replace") as handle:
            text_lines = [(lineno, line.rstrip("\n"))
                          for lineno, line in enumerate(handle, start=1)]
        for key in keys:
            mine = [(lineno, line) for lineno, line in text_lines
                    if line.startswith(key + "\t")]
            assert list(_numbered_lines(path, key)) == mine
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                valid = [(lineno, record[1]) for lineno, line in mine
                         if (record := _parse_record(path, lineno, line))]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = ExpansionCache(path).lookup(key)
            served, want = valid[-1] if valid else (0, None)
            assert (got and got.terms) == (want and want.terms)
            # lookup tries this key's lines last first, up to a valid one
            assert _skipped_lines(caught) == [lineno for lineno, _ in
                                              reversed(mine) if lineno > served]


def test_lookup_missing_file_is_none(tmp_path):
    cache = ExpansionCache(tmp_path / "absent.tsv")
    assert cache.lookup("q=3;n=2;lambda=∅;mu=∅") is None
    assert not (tmp_path / "absent.tsv").exists()


def test_default_path_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GLQ_CACHE", str(tmp_path / "override.tsv"))
    assert default_cache_path() == tmp_path / "override.tsv"
    monkeypatch.delenv("GLQ_CACHE")
    assert default_cache_path().name == "expansions.tsv"
