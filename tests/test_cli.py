"""Subcommand behavior, output formats, exit codes, and cache plumbing."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from glq import classcalc, matfq
from glq.classcalc import multiply_class_sums
from glq.cli import VERIFY_STABILITY_TRIPLES, main
from glq.errors import InconclusiveError, InvariantError
from glq.field import field_make
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


def test_irr_accepts_p_and_e(capsys):
    code, out, _ = run(capsys, "irr", "--p", "2", "--e", "2", "--dmax", "1",
                       "--format", "machine")
    assert code == 0 and len(out.splitlines()) == 3  # F_4 linear keys


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
    real = classcalc._centralizer_orbits

    def doubled(*args):
        reps, weights = real(*args)
        return reps, 2 * weights

    monkeypatch.setattr(classcalc, "_centralizer_orbits", doubled)
    code, out, err = run(capsys, "mul", "--q", "3", "--n", "2", "--no-cache",
                         "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 1 and not out
    assert err.startswith("invariant failed: counting identity")


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


def test_memo_hit_honours_the_memory_bound(capsys):
    argv = ("mul", "--q", "3", "--n", "3", "--no-cache",
            "--lambda", "1@t-2", "--mu", "1@t-2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert classcalc._product_terms.cache_info().currsize == 1
    code, out, err = run(capsys, *argv, "--memory-bound", "116")  # |𝒦| = 117
    assert code == 3 and not out
    assert err.startswith("resource bound exceeded")


@pytest.mark.parametrize("suite,computed", [("stability", 20),
                                            ("formulas", 29)])
def test_verify_computes_each_product_once(capsys, monkeypatch, suite,
                                           computed):
    # one centralizer merge per product computed
    merges = []
    real = classcalc._centralizer_orbits

    def spy(*args):
        merges.append(args)
        return real(*args)

    monkeypatch.setattr(classcalc, "_centralizer_orbits", spy)
    code, _, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert len(merges) == classcalc._product_terms.cache_info().misses == \
        computed


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

def test_mul_writes_cache_with_seed(tmp_path, capsys):
    path = tmp_path / "cache.tsv"
    code, _, _ = run(capsys, "mul", "--q", "3", "--n", "2",
                     "--cache", str(path), "--seed", "42",
                     "--lambda", "1@t-2", "--mu", "1@t-2")
    assert code == 0 and path.exists()
    text = path.read_text()
    assert text.startswith("q=3;n=2;lambda=1@t-2;mu=1@t-2\t")
    assert "seed=42" in text


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
    with pytest.warns(UserWarning, match=":2:"):
        assert run(capsys, *hit, "--cache", str(path))[:2] == (0, hit_out)
    assert run(capsys, *miss, "--cache", str(path))[:2] == (0, miss_out)
    with pytest.warns(UserWarning, match="skipping cache record") as seen:
        assert ExpansionCache(path).load() == 2
    assert len(seen) == 1 and f"{path}:2:" in str(seen[0].message)


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
    fresh = ExpansionCache(path)
    assert fresh.load() == len(fresh) == 12  # twelve distinct keys


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
    # only mul and stable read the seed and the cache; irr, classes and type
    # enumerate no class, so they take no memory bound either
    extras = [["--seed", "1"], ["--no-cache"], ["--cache", "x.tsv"]]
    if command[0] in ("irr", "classes", "type"):
        extras.append(["--memory-bound", "1"])
    for extra in extras:
        with pytest.raises(SystemExit) as exc:
            main(command + extra)
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
