"""Cache keys, record serialization, revalidation on load, the load/save
round trip, one-key lookups, and appending records."""

import functools
import itertools
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.classcalc import multiply_class_sums, stable_product
from glq.field import field_make
from glq.gltype import empty_type, enumerate_plain_types, parse_gltype
from glq.store import (ExpansionCache, _numbered_lines, default_cache_path,
                       format_record, make_key, parse_expansion, parse_key,
                       serialize_expansion)

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

def test_get_on_empty_cache_is_none():
    cache = ExpansionCache()
    assert cache.get("q=2;n=2;lambda=∅;mu=∅") is None
    assert len(cache) == 0


def test_put_then_get_returns_identical_expansion():
    cache = ExpansionCache()
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    cache.put(key, expansion)
    assert key in cache
    assert cache.get(key).terms == expansion.terms


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "nested" / "cache.tsv"
    cache = ExpansionCache(path)
    for lam_txt, mu_txt in (("1@t-1", "1@t-2"), ("1@t-2", "1@t-2")):
        expansion = multiply_class_sums(T(F3, lam_txt), T(F3, mu_txt), 2, F3)
        cache.put(make_key(expansion.lam, expansion.mu, 2), expansion, seed=7)
    saved = cache.save()
    assert saved == path and path.exists()

    fresh = ExpansionCache(path)
    assert fresh.load() == 2
    key = make_key(T(F3, "1@t-1"), T(F3, "1@t-2"), 2)
    assert fresh.get(key).terms == cache.get(key).terms


def test_stable_records_round_trip(tmp_path):
    expansion = stable_product(T(F3, "1@t-2"), T(F3, "1@t-2"), F3)
    key = make_key(expansion.lam, expansion.mu, None)
    cache = ExpansionCache(tmp_path / "cache.tsv")
    cache.put(key, expansion)
    cache.save()
    fresh = ExpansionCache(tmp_path / "cache.tsv")
    assert fresh.load() == 1
    assert fresh.get(key).n is None
    assert fresh.get(key).terms == expansion.terms


def test_load_skips_corrupt_records(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    good_line = path.read_text().strip()
    meta = good_line.split("\t")[2]
    with open(path, "w") as handle:
        handle.write("# comment lines are fine\n")
        handle.write(good_line + "\n")
        handle.write("no tabs at all\n")
        handle.write(f"q=2;n=2;lambda=1@t-1;mu=1@t-1\tbad,coeff,x\t{meta}\n")
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="skipping cache record"):
        assert fresh.load() == 1
    assert len(fresh) == 1


def test_load_skips_version_mismatch(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("v=", "v=999."))
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="version"):
        assert fresh.load() == 0


def test_load_revalidates_counting_identity(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ExpansionCache(path)
    expansion = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, F3)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("∅,12|", "∅,13|"))
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="counting identity"):
        assert fresh.load() == 0


def test_load_rejects_non_top_degree_stable_terms(tmp_path):
    path = tmp_path / "cache.tsv"
    expansion = stable_product(T(F3, "1@t-2"), T(F3, "1@t-2"), F3)
    cache = ExpansionCache(path)
    cache.put(make_key(expansion.lam, expansion.mu, None), expansion)
    cache.save()
    text = path.read_text()
    first_term = text.split("\t")[1].split("|")[0]
    path.write_text(text.replace(first_term, "1@t-2,1"))
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="top-degree"):
        assert fresh.load() == 0


def test_load_rejects_repeated_terms(tmp_path):
    # the duplicate holds the same value, so the counting identity still holds
    path = tmp_path / "cache.tsv"
    expansion = multiply_class_sums(T(F3, "1@t-2"), T(F3, "1@t-2"), 2, F3)
    cache = ExpansionCache(path)
    cache.put(make_key(expansion.lam, expansion.mu, 2), expansion)
    cache.save()
    path.write_text(path.read_text().replace("∅,12|", "∅,12|∅,12|"))
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="repeated expansion term"):
        assert fresh.load() == 0


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
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="coefficient <= 0"):
        assert fresh.load() == 0


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
    assert ExpansionCache(path).append(key, planted, seed=3) == path
    after = path.read_bytes()
    assert after.startswith(before) and after.count(b"\n") == 2
    fresh = ExpansionCache(path)
    assert fresh.load() == 2 and len(fresh) == 1
    assert fresh.get(key).terms == planted.terms


def test_append_after_torn_last_line(tmp_path):
    path = tmp_path / "cache.tsv"
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    record = f"{key}\t{serialize_expansion(expansion)}"
    path.write_text(record[:len(record) // 2])  # a writer died mid-line
    ExpansionCache(path).append(key, expansion)
    fresh = ExpansionCache(path)
    with pytest.warns(UserWarning, match="skipping cache record") as seen:
        assert fresh.load() == 1
    assert len(seen) == 1 and ":1:" in str(seen[0].message)
    assert fresh.get(key).terms == expansion.terms


def test_append_creates_missing_file(tmp_path):
    path = tmp_path / "nested" / "cache.tsv"
    expansion = multiply_class_sums(T(F2, "1@t-1"), T(F2, "1@t-1"), 2, F2)
    key = make_key(expansion.lam, expansion.mu, 2)
    ExpansionCache(path).append(key, expansion)
    fresh = ExpansionCache(path)
    assert fresh.load() == 1 and fresh.get(key).terms == expansion.terms


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
    cache.put(other, multiply_class_sums(lam, mu, 2, F3))
    cache.save()
    text = path.read_text()
    corrupt = "".join(line.replace("|", "|junk|") + "\n"
                      for line in text.splitlines() if line.startswith(other))
    path.write_text(text + corrupt + "no tabs at all\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ExpansionCache(path).lookup(key).terms == expansion.terms
    with pytest.warns(UserWarning, match="skipping cache record"):
        assert ExpansionCache(path).load() == 2  # load() still reports them


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


def test_lookup_agrees_with_load_then_get(tmp_path):
    path = tmp_path / "cache.tsv"
    lam, mu = T(F3, "1@t-2"), T(F3, "1@t-1")
    cache = ExpansionCache(path)
    for a, b, n in ((lam, lam, 2), (lam, mu, 2), (lam, mu, 3)):
        cache.append(make_key(a, b, n), multiply_class_sums(a, b, n, F3))
    text = path.read_text()
    path.write_text(text + text.replace("v=", "v=999."))
    keys = [make_key(lam, lam, 2), make_key(lam, mu, 3),
            make_key(mu, mu, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = ExpansionCache(path)
        loaded.load()
        for key in keys:
            got = ExpansionCache(path).lookup(key)
            want = loaded.get(key)
            assert (got and got.terms) == (want and want.terms)


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
def test_lookup_equals_load_then_get(data):
    keys = sorted({line.split("\t")[0] for line in _record_lines()})
    keys.append(make_key(empty_type(F3), empty_type(F3), 2))  # never stored
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "cache.tsv"
        path.write_bytes(data)
        # the lines as text mode reads them: \r\n and a lone \r end a line
        with open(path, encoding="utf-8", errors="replace") as handle:
            text_lines = [(lineno, line.rstrip("\n"))
                          for lineno, line in enumerate(handle, start=1)]
        assert list(_numbered_lines(path)) == text_lines
        loaded = ExpansionCache(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded.load()
        skipped = set(_skipped_lines(caught))
        for key in keys:
            mine = [lineno for lineno, line in text_lines
                    if line.startswith(key + "\t")]
            assert [lineno for lineno, _ in _numbered_lines(path, key)] \
                == mine
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = ExpansionCache(path).lookup(key)
            want = loaded.get(key)
            assert (got and got.terms) == (want and want.terms)
            # lookup tries this key's lines last first, up to a valid one
            served = max((n for n in mine if n not in skipped), default=0)
            assert _skipped_lines(caught) == [n for n in reversed(mine)
                                              if n > served]


def test_lookup_missing_file_is_none(tmp_path):
    cache = ExpansionCache(tmp_path / "absent.tsv")
    assert cache.lookup("q=3;n=2;lambda=∅;mu=∅") is None
    assert len(cache) == 0


def test_load_missing_file_is_empty(tmp_path):
    cache = ExpansionCache(tmp_path / "absent.tsv")
    assert cache.load() == 0


def test_default_path_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GLQ_CACHE", str(tmp_path / "override.tsv"))
    assert default_cache_path() == tmp_path / "override.tsv"
    monkeypatch.delenv("GLQ_CACHE")
    assert default_cache_path().name == "expansions.tsv"
