"""Subcommand behavior, output formats, exit codes, and cache plumbing."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from glq import __version__, classcalc, gltype, matfq
from glq.classcalc import multiply_class_sums
from glq.cli import VERIFY_STABILITY_TRIPLES, main
from glq.errors import InconclusiveError, InvariantError
from glq.field import field_make, field_of_order
from glq.gltype import parse_gltype
from glq.store import ExpansionCache, make_key, parse_expansion, parse_key

F3 = field_make(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_classes_table_q2_n2(capsys):
    code, out, _ = run(capsys, "classes", "--q", "2", "--n", "2")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 4  # header + three classes
    sizes = [line.split()[3] for line in lines[1:]]
    assert sizes == ["1", "3", "2"]


def test_classes_csv_format(capsys):
    code, out, _ = run(capsys, "classes", "--q", "2", "--n", "2",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "type,modified,length,class size,centralizer"
    assert lines[1] == '"1,1@t-1",∅,0,1,6'  # csv quotes the comma


def test_irr_lists_phi(capsys):
    code, out, _ = run(capsys, "irr", "--q", "2", "--dmax", "2",
                       "--format", "machine")
    assert code == 0
    assert out.splitlines() == ["t+1", "t^2+t+1"]


def test_irr_reads_the_field_from_q_alone(capsys):
    code, out, _ = run(capsys, "irr", "--q", "4", "--dmax", "1",
                       "--format", "machine")
    assert code == 0 and len(out.splitlines()) == 3  # F_4 linear keys
    for argv in (["irr", "--p", "2", "--dmax", "1"],
                 ["irr", "--q", "4", "--p", "2", "--dmax", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_type_of_matrix(capsys):
    code, out, _ = run(capsys, "type", "--q", "3", "--matrix", "0,1;1,2")
    assert code == 0
    assert out.splitlines()[1].split() == ["1@t^2+t+2", "1@t^2+t+2", "2"]


def test_type_rejects_singular_matrix(capsys):
    code, _, err = run(capsys, "type", "--q", "3", "--matrix", "1,1;1,1")
    assert code == 2 and "error:" in err


def test_type_rejects_a_ragged_matrix(capsys):
    code, out, err = run(capsys, "type", "--q", "3", "--matrix", "1,0;0")
    assert (code, out) == (2, "")
    assert err == "error: matrix must be square: rows 'a,b;c,d'\n"


def test_type_rejects_entry_beyond_a_byte(capsys):
    code, out, err = run(capsys, "type", "--q", "3", "--matrix", "300,0;0,1")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_mul_frozen_table(capsys):
    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                       "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 0
    body = [line.split() for line in out.strip().splitlines()[1:]]
    assert body == [["∅", "12"], ["1@t-1", "6"], ["1,1@t-2", "12"],
                    ["2@t-2", "6"], ["1@t^2+1", "4"]]


def test_mul_by_unit_is_single_term(capsys):
    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                       "--lambda", "", "--mu", "1@t-2")
    assert code == 0
    assert out.strip().splitlines()[1].split() == ["1@t-2", "1"]


def test_stable_matches_reflection_pair_table(capsys):
    code, out, _ = run(capsys, "stable", "--q", "3", "--no-cache",
                       "--lambda", "1@t-1", "--mu", "1@t-2")
    assert code == 0
    body = [tuple(line.split()) for line in out.strip().splitlines()[1:]]
    assert body == [("1@t-1;1@t-2", "5"), ("1@t^2+t+2", "4"),
                    ("1@t^2+2*t+2", "4")]


@pytest.mark.parametrize("argv", [("mul", "--q", "3", "--n", "0"),
                                  ("stable", "--q", "3")],
                         ids=lambda argv: argv[0])
def test_rank_zero_product_is_the_unit(capsys, argv):
    code, out, err = run(capsys, *argv, "--lambda", "∅", "--mu", "∅",
                         "--no-cache", "--format", "machine")
    assert (code, err) == (0, "")
    assert out.split("\t")[1] == "∅,1"


def test_machine_output_round_trips(capsys):
    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                       "--format", "machine",
                       "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 0
    key, terms, meta = out.strip().split("\t")
    field, n, lam, mu = parse_key(key)
    back = parse_expansion(field, n, lam, mu, terms)
    direct = multiply_class_sums(lam, mu, n, field)
    assert back.terms == direct.terms
    assert meta.startswith("v=") and "ts=0" in meta


def test_repeated_output_is_byte_identical(capsys):
    argv = ("mul", "--q", "3", "--n", "2", "--no-cache",
            "--lambda", "1@t-2", "--mu", "1@t-2")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_jobs_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--q", "3", "--n", "2", "--no-cache", "--jobs", "2",
              "--lambda", "1@t-2", "--mu", "1@t-2"])
    assert exc.value.code == 2


def test_invariant_failure_exits_one(capsys, monkeypatch):
    real = classcalc._reflection_orbits

    def doubled(*args):
        reps, weights = real(*args)
        return reps, 2 * weights

    monkeypatch.setattr(classcalc, "_reflection_orbits", doubled)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("invariant failed: counting identity")


def test_zero_image_of_a_row_exits_one(capsys, monkeypatch):
    # a zero centralizer sample sends every u to 0, which is no normalized
    # u: an InvariantError, never a numpy error, and exit 1, not 2
    real = matfq.centralizer_samples

    def with_zero(field, basis, count, rng=None):
        return [0 * basis[0], *real(field, basis, count - 1, rng)]

    monkeypatch.setattr(matfq, "centralizer_samples", with_zero)
    F = field_make(3)
    with pytest.raises(InvariantError, match="not in its class"):
        multiply_class_sums(parse_gltype(F, "1@t-2"),
                            parse_gltype(F, "1@t-2"), 3)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "3", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("invariant failed:") and "not in its class" in err


def test_inconclusive_search_exits_one(capsys, monkeypatch):
    def no_verdict(*args, **kwargs):
        raise InconclusiveError("no invertible intertwiner found")

    monkeypatch.setattr(classcalc.matfq, "centralizer_samples", no_verdict)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("inconclusive:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_missing_intertwiner_exits_one(capsys, monkeypatch):
    # the conjugator's own checks run on every product, via the centralizer
    # samples, and must hold under python -O
    monkeypatch.setattr(matfq, "commuting_space", lambda *args: [])
    lam = parse_gltype(F3, "1@t-2")
    with pytest.raises(InvariantError, match="intertwiner"):
        multiply_class_sums(lam, lam, 2, F3)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("invariant failed:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("stray,why", [
    # norm 3 > ‖λ‖+‖μ‖ = 2
    pytest.param("1@t^3+2*t+2", "outside the candidate set", id="1@t^3+2*t+2"),
    # norm 2, but no members below rank 3 > n = 2
    pytest.param("2@t-1", "outside the candidate set", id="2@t-1"),
    # norm and rank allowed, but det = 2 while det λ·det μ = 2·2 = 1
    pytest.param("1@t-2", "determinant", id="1@t-2"),
])
def test_product_type_outside_candidates_exits_one(capsys, monkeypatch,
                                                   stray, why):
    monkeypatch.setattr(classcalc, "modified_type_of",
                        lambda *args: parse_gltype(F3, stray))
    lam = parse_gltype(F3, "1@t-2")
    with pytest.raises(InvariantError, match=why):
        multiply_class_sums(lam, lam, 2, F3)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("invariant failed:") and len(err.splitlines()) == 1
    assert why in err and "Traceback" not in err


def test_mul_resource_bound_exit_code(capsys):
    code, _, err = run(capsys, "mul", "--q", "3", "--n", "4", "--no-cache",
                       "--memory-bound", "10",
                       "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 3 and "resource bound exceeded" in err


def test_negative_memory_bound_is_a_domain_error(capsys):
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--memory-bound", "-5",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 2 and not out and "negative" in err


def test_negative_memory_bound_is_refused_on_a_cache_hit(tmp_path, capsys):
    argv = ("mul", "--q", "3", "--n", "2", "--lambda", "1@t-2",
            "--mu", "1@t-2", "--cache", str(tmp_path / "cache.tsv"))
    assert run(capsys, *argv)[0] == 0  # the miss writes the record
    code, out, err = run(capsys, *argv, "--memory-bound", "-5")
    assert (code, out) == (2, "")
    assert err == "error: the memory bound -5 is negative\n"


def test_negative_memory_bound_is_refused_by_a_suite_that_never_reads_it(
        capsys):
    code, out, err = run(capsys, "verify", "--suite", "centralizers",
                         "--memory-bound", "-5")
    assert (code, out) == (2, "")
    assert err == "error: the memory bound -5 is negative\n"


def test_memo_hit_honours_the_memory_bound(capsys):
    argv = ("mul", "--q", "3", "--n", "3", "--no-cache",
            "--lambda", "1@t-2", "--mu", "1@t-2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert classcalc._product_terms.cache_info().currsize == 1
    code, out, err = run(capsys, *argv, "--memory-bound", "116")  # |𝒦| = 117
    assert code == 3 and not out
    assert err.startswith("resource bound exceeded")


def test_memory_bound_counts_the_rank_n_class_of_a_rescaled_product(capsys):
    # the transvection square at n = 8 is read from rank k + 2 = 4, yet the
    # bound still counts the 7,170,080 transvections of GL_8(3)
    argv = ("mul", "--q", "3", "--n", "8", "--no-cache",
            "--lambda", "1@t-1", "--mu", "1@t-1")
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out and "7170080" in err
    code, out, _ = run(capsys, *argv, "--memory-bound", "8000000",
                       "--format", "machine")
    assert code == 0 and classcalc._tail_split_counts.cache_info().currsize == 1
    text = out.split("\t")[1]
    assert text == "∅,7170080|1@t-1,4369|1,1@t-1,12|2@t-1,6|2@t-2,3|1@t^2+1,4"
    lam = parse_gltype(F3, "1@t-1")
    terms = parse_expansion(F3, 8, lam, lam, text).terms
    size = gltype.class_size(lam, 8)
    assert sum(a * gltype.class_size(nu, 8) for nu, a in terms.items()) == \
        size * size


@pytest.mark.parametrize("suite,computed,merged", [
    pytest.param("stability", 20, 9, id="stability-20"),
    pytest.param("formulas", 14, 14, id="formulas-14"),
])
def test_verify_computes_each_product_once(capsys, monkeypatch, suite,
                                           computed, merged):
    # one centralizer merge per product computed at its own rank, and one
    # per pair for every rank read from the pair's rank-(k+2) tail split;
    # verify_stability goes from the top rank down, so a triple whose ranks
    # reach above k + 2 reads rank k + 2 from the split as well
    merges = []
    real = classcalc._reflection_orbits

    def spy(*args):
        merges.append(args)
        return real(*args)

    monkeypatch.setattr(classcalc, "_reflection_orbits", spy)
    code, _, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert classcalc._product_terms.cache_info().misses == computed
    assert len(merges) == merged


@pytest.mark.parametrize("argv", [
    ("stable", "--q", "3", "--lambda", "1@t-2", "--mu", "1@t-2", "--no-cache"),
    ("fit", "--var", "n", "--q", "3", "--lambda", "1@t-2", "--mu", "1@t-2",
     "--nu", "1,1@t-2", "--ns", "2,3"),
    ("check", "--q", "3", "--case", "union-distinct", "--params", "xs=1,2"),
], ids=lambda argv: argv[0])
def test_memory_bound_reaches_every_enumerating_command(capsys, argv):
    code, out, err = run(capsys, *argv, "--memory-bound", "1")
    assert code == 3 and not out
    assert err.startswith("resource bound exceeded")


def test_failed_allocation_exits_three(capsys, monkeypatch):
    # numpy's failed allocations raise MemoryError: a bound, not a proof
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(classcalc, "_merge_orbits", exhausted)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "3", "--lambda",
                         "1@t-2", "--mu", "1@t-2", "--no-cache")
    assert code == 3 and not out
    assert len(err.splitlines()) == 1 and "--memory-bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["stability", "formulas"])
def test_memory_bound_reaches_the_verify_suites(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--memory-bound", "1")
    assert code == 3 and not out
    assert err.startswith("resource bound exceeded")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cache plumbing
# ---------------------------------------------------------------------------

def test_mul_reads_cache_before_computing(tmp_path, capsys):
    # a planted record proves the cache is consulted: its single term still
    # satisfies the counting identity, but is not the true expansion
    path = tmp_path / "cache.tsv"
    lam = parse_gltype(F3, "1@t-2")
    size = 12  # |class of diag(2,1)| in GL_2(3)
    planted = multiply_class_sums(lam, lam, 2, F3)
    planted.terms = {parse_gltype(F3, ""): size * size}
    cache = ExpansionCache(path)
    cache.put(make_key(lam, lam, 2), planted)
    cache.save()

    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "2",
                       "--cache", str(path),
                       "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 0
    assert out.strip().splitlines()[1].split() == ["∅", "144"]

    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                       "--cache", str(path),
                       "--lambda", "1@t-2", "--mu", "1@t-2")
    assert out.strip().splitlines()[1].split() == ["∅", "12"]


@pytest.mark.parametrize("argv", [
    ("mul", "--q", "3", "--n", "3", "--lambda", "1@t-2", "--mu", "1@t-1"),
    ("stable", "--q", "3", "--lambda", "1@t-2", "--mu", "1@t-2"),
    # its record holds the term 1@t-2*x, a type text with a '*' in its key
    ("mul", "--q", "9", "--n", "2", "--lambda", "1@t-x", "--mu", "1@t-2"),
    ("mul", "--q", "3", "--n", "0", "--lambda", "∅", "--mu", "∅"),
])
def test_cache_hit_prints_the_bytes_of_its_miss(tmp_path, capsys, argv):
    path = tmp_path / "cache.tsv"
    argv = (*argv, "--cache", str(path), "--format", "machine")
    code, miss, _ = run(capsys, *argv)
    assert code == 0 and path.read_text().count("\n") == 1
    code, hit, _ = run(capsys, *argv)
    assert code == 0 and path.read_text().count("\n") == 1  # no new line
    assert hit == miss != ""


def test_cache_flag_overrides_environment(tmp_path, capsys, monkeypatch):
    env_path = tmp_path / "env.tsv"
    flag_path = tmp_path / "flag.tsv"
    monkeypatch.setenv("GLQ_CACHE", str(env_path))
    run(capsys, "mul", "--q", "3", "--n", "2", "--cache", str(flag_path),
        "--lambda", "1@t-2", "--mu", "1@t-2")
    assert flag_path.exists() and not env_path.exists()
    run(capsys, "mul", "--q", "3", "--n", "2",
        "--lambda", "1@t-2", "--mu", "1@t-2")
    assert env_path.exists()


def test_stable_uses_stable_cache_key(tmp_path, capsys):
    path = tmp_path / "cache.tsv"
    code, _, _ = run(capsys, "stable", "--q", "3", "--cache", str(path),
                     "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 0
    assert path.read_text().startswith("q=3;n=stable;")


def test_stable_record_with_a_raised_coefficient_is_not_served(
        tmp_path, capsys):
    # the record is graded and positive, so only the stable counting
    # identity tells that 6 is wrong
    path = tmp_path / "F"
    argv = ("stable", "--q", "3", "--lambda", "1@t-1", "--mu", "1@t-2",
            "--cache", str(path))
    code, first, _ = run(capsys, *argv)
    assert code == 0 and path.read_text().count("1@t-1;1@t-2,5|") == 1
    path.write_text(path.read_text().replace("1@t-1;1@t-2,5|",
                                             "1@t-1;1@t-2,6|"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (0, first)
    assert out.splitlines()[1].split() == ["1@t-1;1@t-2", "5"]
    assert len(err.splitlines()) == 1
    assert err.startswith(f"warning: skipping cache record at {path}:1: "
                          "stable counting identity failed")


def test_record_whose_term_key_passes_a_bound_is_skipped(tmp_path, capsys):
    # a term key of degree 98 makes its irreducibility test pass the sieve
    # bound while the record is parsed: the line is corrupt, not the request
    path = tmp_path / "F"
    argv = ("stable", "--q", "2", "--lambda", "1@t-1", "--mu", "2@t-1")
    _, want, _ = run(capsys, *argv, "--no-cache")
    assert run(capsys, *argv, "--cache", str(path))[0] == 0
    record = path.read_text()
    assert record.count("1@t^3+t^2+1,7") == 1
    path.write_text(record.replace("1@t^3+t^2+1,7", "1@t^3+t^201,7"))
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out) == (0, want)
    assert len(err.splitlines()) == 1
    assert err.startswith(f"warning: skipping cache record at {path}:1: "
                          "listing the irreducibles of degree 98")
    assert path.read_text().splitlines()[1] == record.rstrip("\n")


# single-character edits of the record of 1@t-2 * 1@t-3 at q=5, n=3 that keep
# the counting identity: the first five move a term to a type of equal class
# size but another determinant (t-7 is t-2); the last one spells the same
# term as t-6, which is not the canonical text
@pytest.mark.parametrize("old,new", [
    ("1@t-2;1@t-3,9", "1@t-4;1@t-3,9"),
    ("1@t-2;1@t-3,9", "1@t-2;1@t-4,9"),
    ("2@t-4,5", "2@t-2,5"),
    ("1@t^2+t+1,6", "1@t^2+t+2,6"),
    ("1@t^2+4*t+1,6", "1@t^2+4*t+7,6"),
    ("1@t-1,50", "1@t-6,50"),
])
def test_record_edit_keeping_the_counting_identity_is_not_served(
        tmp_path, capsys, old, new):
    path = tmp_path / "F"
    argv = ("mul", "--q", "5", "--n", "3", "--lambda", "1@t-2",
            "--mu", "1@t-3")
    _, want, _ = run(capsys, *argv, "--no-cache")
    assert run(capsys, *argv, "--cache", str(path))[0] == 0
    assert path.read_text().count(old) == 1
    path.write_text(path.read_text().replace(old, new))
    key = path.read_text().split("\t")[0]
    with warnings.catch_warnings(record=True) as skipped:
        warnings.simplefilter("always")
        assert ExpansionCache(path).lookup(key) is None
    assert len(skipped) == 1
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out) == (0, want)
    assert err.startswith(f"warning: skipping cache record at {path}:1: ")


def test_scalar_record_of_the_unit_product_is_not_served(tmp_path, capsys):
    # at q=3, n=2 the scalar 2·I (1,1@t-2) has the class size and the
    # determinant of I, so only its norm, above ‖∅‖+‖∅‖ = 0, tells that
    # this record is wrong
    path = tmp_path / "cache.tsv"
    path.write_text(f"q=3;n=2;lambda=∅;mu=∅\t1,1@t-2,1\tv={__version__};"
                    "ts=0;seed=-\n", encoding="utf-8")
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2",
                         "--lambda", "∅", "--mu", "∅", "--cache", str(path))
    assert code == 0
    assert out.strip().splitlines()[1].split() == ["∅", "1"]
    assert len(err.splitlines()) == 1
    assert err.startswith(f"warning: skipping cache record at {path}:1: ")
    assert "outside the candidate set" in err


def test_arithmetic_failure_in_a_lookup_exits_one(tmp_path, capsys,
                                                  monkeypatch):
    # a check inside the arithmetic that fails while a record is checked is
    # a failed invariant, not a corrupt line, so it is not skipped
    path = tmp_path / "cache.tsv"
    argv = ("mul", "--q", "3", "--n", "2", "--lambda", "1@t-2",
            "--mu", "1@t-2", "--cache", str(path))
    assert run(capsys, *argv)[0] == 0
    gltype._class_size.cache_clear()
    monkeypatch.setattr(gltype, "a_partition", lambda parts, Q: 7)  # 49 ∤ 48
    lam = parse_gltype(F3, "1@t-2")
    with pytest.raises(InvariantError, match="centralizer order"):
        ExpansionCache(path).lookup(make_key(lam, lam, 2))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("invariant failed: centralizer order must divide")
    assert "warning" not in err and len(err.splitlines()) == 1


def test_stable_product_breaking_the_identity_exits_one(monkeypatch, capsys):
    real = classcalc.multiply_class_sums
    wrong = parse_gltype(F3, "1@t^2+t+2")

    def raise_one(*args, **kwargs):
        expansion = real(*args, **kwargs)
        if wrong in expansion.terms:
            expansion.terms[wrong] += 1
        return expansion

    monkeypatch.setattr(classcalc, "multiply_class_sums", raise_one)
    lam, mu = parse_gltype(F3, "1@t-1"), parse_gltype(F3, "1@t-2")
    with pytest.raises(InvariantError, match="stable counting identity"):
        classcalc.stable_product(lam, mu, F3)
    code, out, err = run(capsys, "stable", "--q", "3", "--lambda", "1@t-1",
                         "--mu", "1@t-2", "--no-cache")
    assert (code, out) == (1, "")
    assert err.startswith("invariant failed: stable counting identity")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_torn_multibyte_character_skips_only_its_line(tmp_path, capsys):
    # a writer that died inside '∅' (3 bytes in UTF-8) leaves a line that is
    # not valid UTF-8; the hit and the miss are still served
    path = tmp_path / "cache.tsv"
    hit = ("mul", "--q", "3", "--n", "2", "--lambda", "1@t-2",
           "--mu", "1@t-2", "--format", "machine")
    miss = ("mul", "--q", "3", "--n", "2", "--lambda", "1@t-2",
            "--mu", "1@t-1", "--format", "machine")
    _, hit_out, _ = run(capsys, *hit, "--no-cache")
    _, miss_out, _ = run(capsys, *miss, "--no-cache")
    assert run(capsys, *hit, "--cache", str(path))[0] == 0
    line = path.read_bytes()
    path.write_bytes(line + line[:line.index("∅".encode()) + 1])
    assert run(capsys, *hit, "--cache", str(path)) == (
        0, hit_out, f"warning: skipping cache record at {path}:2: "
        "not enough values to unpack (expected 3, got 2)\n")
    assert run(capsys, *miss, "--cache", str(path)) == (0, miss_out, "")
    assert path.read_bytes().count(b"\n") == 3  # the torn line got its end
    assert run(capsys, *miss, "--cache", str(path)) == (0, miss_out, "")
    key = path.read_bytes().split(b"\t")[0].decode()
    with pytest.warns(UserWarning, match=f"{path}:2:") as seen:
        assert ExpansionCache(path).lookup(key) is not None
    assert len(seen) == 1


def test_skipped_record_warning_follows_the_warning_filters(tmp_path):
    path = tmp_path / "cache.tsv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ("-m", "glq.cli", "mul", "--q", "3", "--n", "2", "--lambda",
            "1@t-2", "--mu", "1@t-2", "--cache", str(path))
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   capture_output=True)
    with path.open("a") as handle:
        handle.write("q=3;n=2;lambda=1@t-2;mu=1@t-2\ttorn\n")
    shown = subprocess.run([sys.executable, *argv], env=env,
                           capture_output=True, text=True)
    assert (shown.returncode, shown.stderr) == (
        0, f"warning: skipping cache record at {path}:2: "
        "not enough values to unpack (expected 3, got 2)\n")
    ignored = subprocess.run([sys.executable, "-W", "ignore", *argv],
                             env=env, capture_output=True, text=True)
    assert (ignored.returncode, ignored.stdout, ignored.stderr) == (
        0, shown.stdout, "")


def test_unusable_cache_path_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2",
                         "--cache", str(tmp_path),  # a directory
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1


_WRITER = """
import json, sys
from glq.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv + ["--cache", sys.argv[2], "--format", "machine"]) != 0:
        sys.exit(1)
"""


def test_concurrent_writers_keep_every_record(tmp_path):
    # two processes each add their own misses to one cache file; a snapshot
    # rewrite per miss would drop whatever the other wrote in between
    path = tmp_path / "cache.tsv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    batches = [
        [["mul", "--q", "2", "--n", str(n), "--lambda", "1@t-1", "--mu", mu]
         for n in (2, 3, 4) for mu in ("1@t-1", "")],
        [["mul", "--q", "3", "--n", str(n), "--lambda", lam, "--mu", "1@t-2"]
         for n in (2, 3) for lam in ("1@t-1", "1@t-2", "")],
    ]
    writers = [subprocess.Popen([sys.executable, "-c", _WRITER,
                                 json.dumps(batch), str(path)], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
               for batch in batches]
    for writer in writers:
        _, err = writer.communicate(timeout=300)
        assert writer.returncode == 0, err
    assert path.read_text(encoding="utf-8").count("\n") == 12
    cache = ExpansionCache(path)
    for argv in batches[0] + batches[1]:
        field = field_of_order(int(argv[2]))
        lam, mu = (parse_gltype(field, argv[i]) for i in (6, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.lookup(make_key(lam, mu, int(argv[4]))) is not None


# ---------------------------------------------------------------------------
# fits and checks
# ---------------------------------------------------------------------------

def test_fit_in_q_table_output(capsys):
    code, out, _ = run(capsys, "fit", "--var", "q",
                       "--points", "3:17,5:49,7:97")
    assert code == 0
    assert "2*q^2 - 1" in out
    rows = dict(line.rsplit(None, 1) for line in out.strip().splitlines())
    assert rows["shifted basis"] == "1,4,2"
    assert rows["nonnegative shifted"] == "yes"


def test_fit_in_n_machine_output(capsys):
    code, out, _ = run(capsys, "fit", "--var", "n", "--q", "2",
                       "--lambda", "1@t-1", "--mu", "1@t-1", "--nu", "",
                       "--ns", "2,3,4", "--format", "machine")
    assert code == 0
    fields = dict(item.split("=", 1) for item in out.strip().split("\t"))
    assert fields["points"] == "3:3,7:21,15:105"
    assert fields["coefficients"] == "0,-1/2,1/2"
    assert fields["all_integer"] == "0"


def test_fit_usage_errors(capsys):
    code, _, err = run(capsys, "fit", "--var", "q")
    assert code == 2 and "--points" in err
    code, _, err = run(capsys, "fit", "--var", "n", "--q", "2")
    assert code == 2 and "--nu" in err


def test_check_proved_case_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--case", "union-equal",
                       "--params", "xi=2;c=1;d=1")
    assert code == 0
    assert out.splitlines()[1].split()[4:] == ["12", "12", "proved", "yes"]


def test_check_two_reflections_takes_nu_flag(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--case",
                       "two-reflections", "--params", "xi=2;eta=2",
                       "--nu", "1,1@t-2")
    assert code == 0 and out.splitlines()[1].split()[-1] == "yes"


def test_check_merge_case_parses_polynomials(capsys):
    code, out, _ = run(capsys, "check", "--q", "5", "--case",
                       "merge-irreducible",
                       "--params", "xi=2;fprime=t^2+4*t+2;f=t^3+t+1")
    assert code == 0
    assert out.splitlines()[1].split()[-4:] == ["31", "31", "conjectural",
                                                "yes"]


def test_check_rejects_malformed_params(capsys):
    code, _, err = run(capsys, "check", "--q", "3", "--case", "union-equal",
                       "--params", "xi2")
    assert code == 2 and "key=value" in err


def test_check_requires_case_params(capsys):
    code, out, err = run(capsys, "check", "--q", "3", "--case",
                         "union-distinct")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "xs" in err


def test_check_rejects_undeclared_params(capsys):
    code, out, err = run(capsys, "check", "--q", "3", "--case",
                         "union-distinct", "--params", "xs=1,2;foo=3")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "foo" in err and "Traceback" not in err


@pytest.mark.parametrize("q, xi", [
    ("3", "4"), ("3", "7"),
    ("4", "-1"),  # not read as the code 3 through negative indexing
])
def test_check_rejects_an_eigenvalue_outside_the_units(capsys, q, xi):
    code, out, err = run(capsys, "check", "--q", q, "--case", "union-equal",
                         "--params", f"xi={xi};c=1;d=1")
    assert (code, out, err) == (2, "", f"error: eigenvalue {xi} is not a unit "
                                       f"of F_{q} (codes 1..{int(q) - 1})\n")


def test_two_reflections_rejects_an_eigenvalue_as_every_case_does(capsys):
    code, out, err = run(capsys, "check", "--q", "3", "--case",
                         "two-reflections", "--params", "xi=4;eta=1",
                         "--nu", "1,1@t-1")
    assert (code, out, err) == (2, "", "error: eigenvalue 4 is not a unit "
                                       "of F_3 (codes 1..2)\n")


def test_check_names_the_repeated_column(capsys):
    # union-mixed takes no factors: the message names the column instead
    code, out, err = run(capsys, "check", "--q", "3", "--case", "union-mixed",
                         "--params", "xs=1,1;cs=1,1")
    assert (code, out) == (2, "")
    assert err == ("error: column t-1 repeats: the columns must be distinct "
                   "and differ from the reflection's own\n")


def test_check_rejects_nu_outside_two_reflections(capsys):
    code, out, err = run(capsys, "check", "--q", "3", "--case", "union-equal",
                         "--params", "xi=2;c=1;d=1", "--nu", "1,1@t-2")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "nu" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["irr", "--q", "2", "--dmax", "1"],
    ["classes", "--q", "2", "--n", "2"],
    ["type", "--q", "3", "--matrix", "1,0;0,1"],
    ["fit", "--var", "q", "--points", "3:17,5:49"],
    ["verify", "--suite", "stability"],
    ["check", "--q", "3", "--case", "union-equal", "--params", "xi=2;c=1;d=1"],
], ids=lambda argv: argv[0])
def test_options_belong_to_the_commands_that_read_them(command):
    # only mul and stable read the cache; irr, classes and type enumerate
    # no class, so they take no memory bound either; no command takes a seed
    extras = [["--seed", "1"], ["--no-cache"], ["--cache", "x.tsv"]]
    if command[0] in ("irr", "classes", "type"):
        extras.append(["--memory-bound", "1"])
    for extra in extras:
        with pytest.raises(SystemExit) as exc:
            main(command + extra)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["mul", "--q", "3", "--n", "2", "--lambda", "1@t-2", "--mu", "1@t-2"],
    ["stable", "--q", "3", "--lambda", "1@t-2", "--mu", "1@t-2"],
], ids=lambda argv: argv[0])
def test_seed_is_no_option(command):
    # every draw of a product is seeded by the code itself, so a seed
    # option would change no value
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "1", "--no-cache"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify suites and exit codes
# ---------------------------------------------------------------------------

def test_verify_oracle_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "oracle")
    assert code == 0
    assert "suite oracle: 3 checks, 0 failures" in err
    assert all(line.startswith("ok") for line in out.splitlines()[1:])


def test_verify_centralizers_suite_passes(capsys):
    code, _, err = run(capsys, "verify", "--suite", "centralizers")
    assert code == 0
    assert "0 failures" in err


@pytest.mark.slow
def test_verify_stability_suite_passes(capsys):
    assert len(VERIFY_STABILITY_TRIPLES) == 10
    code, out, err = run(capsys, "verify", "--suite", "stability")
    assert code == 0
    assert "suite stability: 10 checks, 0 failures" in err


@pytest.mark.slow
def test_verify_formulas_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "formulas")
    assert code == 0
    assert "0 failures" in err
    assert all(line.split()[0] in ("status", "ok", "finding")
               for line in out.splitlines())


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--q", "3"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_domain_errors_exit_two(capsys):
    # t^2+2 = (t-1)(t+1) over F_3, so the key is not irreducible
    code, _, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                       "--lambda", "1@t^2+2", "--mu", "")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("key", ["t^64+t^4+t^3+t+1", "t^3000+t+1"])
def test_key_past_the_sieve_bound_exits_three(capsys, key):
    # deciding either key needs the irreducibles of half its degree
    code, out, err = run(capsys, "stable", "--q", "2", "--lambda", f"1@{key}",
                         "--mu", "1@t-1", "--no-cache")
    half = int(key[2:key.index("+")]) // 2
    assert (code, out) == (3, "")
    assert err == (f"resource bound exceeded: listing the irreducibles of "
                   f"degree {half} over F_2 needs a sieve of 2^{half} codes, "
                   f"above the bound of 1048576\n")


def test_a_repeated_polynomial_in_a_type_is_named(capsys):
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--lambda",
                         "1@t-2;1@t-2", "--mu", "1@t-1", "--no-cache")
    assert (code, out, err) == (
        2, "", "error: repeated polynomial in '1@t-2;1@t-2'\n")


@pytest.mark.parametrize("item", ["@t-1", "1,,1@t-1", "x@t-1"])
def test_empty_or_non_integer_part_is_a_bad_partition(capsys, item):
    code, out, err = run(capsys, "stable", "--q", "5", "--lambda", item,
                         "--mu", "@t-1", "--no-cache")
    head = item.partition("@")[0]
    assert (code, out, err) == (
        2, "", f"error: bad partition {head!r} (descending positive parts)\n")


@pytest.mark.parametrize("text,why", [
    # int() would read '1_1' as 11 ≡ 2 and '٢' as 2, and '1_0' as the part 10
    ("1@t-1_1", "bad element '1_1' for F_3"),
    ("1@t-٢", "bad element '٢' for F_3"),
    ("1@t^٢+1", "bad exponent in 't^٢'"),
    ("1_0@t-1", "bad partition '1_0' (descending positive parts)"),
    # str.isdigit() takes '²', which int() then rejects
    ("1@t^²+1", "bad exponent in 't^²'"),
])
def test_integers_in_type_text_are_ascii_digits(capsys, text, why):
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--lambda",
                         text, "--mu", "∅", "--no-cache")
    assert (code, out, err) == (2, "", f"error: {why}\n")


@pytest.mark.parametrize("flag,value", [
    ("--q", "٣"), ("--n", "0_2"), ("--memory-bound", "1_000")])
def test_integer_options_are_ascii_digits(capsys, flag, value):
    # int() would read '٣' as 3, '0_2' as 2 and '1_000' as 1000
    options = {"--q": "3", "--n": "2", "--memory-bound": "100", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--lambda", "1@t-2", "--mu", "∅", "--no-cache",
              *(word for item in options.items() for word in item)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"glq mul: error: argument {flag}: invalid int value: {value!r}")


@pytest.mark.parametrize("argv,why", [
    # int() would read ξ = 11, ξ = 2, the value 17, the entry 1 and rank 4
    (("check", "--q", "3", "--case", "union-equal",
      "--params", "xi=1_1;c=1;d=1"), "bad integer '1_1'"),
    (("check", "--q", "3", "--case", "union-equal",
      "--params", "xi=٢;c=1;d=1"), "bad integer '٢'"),
    (("fit", "--var", "q", "--points", "3:1_7,5:49"),
     "point '3:1_7' is not 'abscissa:value'"),
    (("type", "--q", "3", "--matrix", "1,0;0,١"), "bad matrix entry '١'"),
    (("fit", "--var", "n", "--q", "2", "--lambda", "1@t-1", "--mu", "1@t-1",
      "--nu", "", "--ns", "2,3,٤"), "bad rank '٤' in --ns"),
])
def test_integer_values_are_ascii_digits(capsys, argv, why):
    assert run(capsys, *argv) == (2, "", f"error: {why}\n")


def test_signs_and_spaces_around_integer_values_are_accepted(capsys):
    want = run(capsys, "check", "--q", "3", "--case", "union-equal",
               "--params", "xi=2;c=1;d=1")
    assert run(capsys, "check", "--q", "+3", "--case", "union-equal",
               "--params", "xi= 2 ;c=+1;d=1") == want
    want = run(capsys, "fit", "--var", "q", "--points", "3:17,5:49")
    assert run(capsys, "fit", "--var", "q", "--points", "3: 17,+5:49") == want
    assert want[1] != run(capsys, "fit", "--var", "q",
                          "--points", "3:-17,5:49")[1]


def test_spaces_around_integers_in_type_text_are_accepted(capsys):
    _, want, _ = run(capsys, "mul", "--q", "3", "--n", "4", "--lambda",
                     "1,1@t-2", "--mu", "1@t-1", "--no-cache")
    code, out, _ = run(capsys, "mul", "--q", "3", "--n", "4", "--lambda",
                       " 1 , 1 @ t - 2 ", "--mu", "1 @ t ^ 1 - 1", "--no-cache")
    assert (code, out) == (0, want)


@pytest.mark.parametrize("argv", [
    ("mul", "--q", "3", "--n", "3", "--lambda", "1@t-2", "--mu", "1@t-1"),
    ("stable", "--q", "2", "--lambda", "1@t-1", "--mu", "1@t-1"),
    # criterion 2: the enumerated side is a reflection class in closed form
    ("mul", "--q", "3", "--n", "6", "--lambda", "1@t-2",
     "--mu", "1,1@t-1;1@t-2"),
    # determinant pruning drops the top rank of this pair
    ("stable", "--q", "3", "--lambda", "1@t-2", "--mu", "1,1@t-2"),
    # the code tables of a reflection class over an extension field
    ("mul", "--q", "4", "--n", "4", "--lambda", "1@t-x", "--mu", "1@t-(x+1)"),
])
def test_output_is_unchanged_under_python_O(argv):
    # the exactness checks are explicit errors, not asserts that -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    command = ("-m", "glq.cli", *argv, "--no-cache", "--format", "machine")
    plain = subprocess.run([sys.executable, *command], env=env,
                           capture_output=True, text=True)
    optimized = subprocess.run([sys.executable, "-O", *command], env=env,
                               capture_output=True, text=True)
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout != ""


def test_cache_hit_and_miss_agree_under_python_O(tmp_path):
    # a hit revalidates its record with explicit checks that -O keeps
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "cache.tsv"
    command = (sys.executable, "-O", "-m", "glq.cli", "mul", "--q", "3",
               "--n", "3", "--lambda", "1@t-2", "--mu", "1@t-1",
               "--cache", str(path), "--format", "machine")
    miss = subprocess.run(command, env=env, capture_output=True, text=True)
    assert miss.returncode == 0, miss.stderr
    assert path.read_text().count("\n") == 1
    hit = subprocess.run(command, env=env, capture_output=True, text=True)
    assert hit.returncode == 0, hit.stderr
    assert path.read_text().count("\n") == 1  # served, not recomputed
    assert hit.stdout == miss.stdout != ""


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def test_every_exported_name_resolves():
    import glq
    modules = [glq] + [importlib.import_module(f"glq.{info.name}")
                       for info in pkgutil.iter_modules(glq.__path__)]
    assert len(modules) > 1  # the package and its modules were found
    for module in modules:
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert not stale, f"{module.__name__}.__all__ names {stale}"
