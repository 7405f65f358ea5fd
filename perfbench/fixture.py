"""Seeded cache file and invocation plan for the cache-cli workload.

    python3 perfbench/fixture.py --pool POOL.tsv [--expected EXPECTED.json]

computes every pool record listed in the expected outputs with glq (small full
products and small stable products), checks each against its recorded
output, and writes them through ExpansionCache.save.  The pool depends only on
the glq sources, so run.py builds it once per source tree.

The rest of this module is plain Python and runs inside run.py: corrupt()
copies the pool and inserts a seeded share of corrupt lines that the loader
must skip, and plan() picks the seeded hit and miss keys and their order.
Neither step is timed.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import workloads

CORRUPT_SHARE = 0.02  # corrupt lines per record in the fixture
CORRUPT_KINDS = ("truncated", "version", "key", "coefficient")


def plan(expected: dict, seed: int) -> list:
    """The cache-cli invocations of one pass: CACHE_HITS keys stored in the
    fixture and CACHE_MISSES keys absent from it, shuffled by the seed."""
    rng = random.Random(f"cache-cli plan {seed}")
    spec = expected["cache_cli"]
    chosen = ([(r, "hit") for r in rng.sample(spec["records"],
                                              workloads.CACHE_HITS)]
              + [(r, "miss") for r in rng.sample(spec["misses"],
                                                 workloads.CACHE_MISSES)])
    rng.shuffle(chosen)
    return [{"id": f"{kind} {rec['key']}", "kind": "cli", "expect": kind,
             "argv": argv_of(rec), "key": rec["key"], "stdout": rec["stdout"]}
            for rec, kind in chosen]


def argv_of(rec: dict) -> list:
    argv = [rec["cmd"], "--q", str(rec["q"])]
    if rec["cmd"] == "mul":
        argv += ["--n", str(rec["n"])]
    return argv + ["--lambda", rec["lambda"], "--mu", rec["mu"]]


def _corrupt_line(line: str, kind: str) -> str:
    key, value, _meta = line.split("\t")
    if kind == "truncated":        # a record cut off before its metadata
        return f"{key}\t{value}"
    if kind == "version":          # written by another glq version
        return f"{key}\t{value}\tv=0.0.0;ts=0;seed=-"
    if kind == "key":              # unreadable rank field
        q_part, _, rest = key.partition(";")
        return f"{q_part};n=?;{rest.partition(';')[2]}\t{value}\t{_meta}"
    # a wrong coefficient, which breaks the counting identity
    head, _, coeff = value.rpartition(",")
    return f"{key}\t{head},{int(coeff) + 1}\t{_meta}"


def corrupt(pool: Path, out: Path, seed: int) -> int:
    """Write the fixture: the pool's lines with corrupt copies of some of
    them inserted at seeded places.  Returns the number of corrupt lines."""
    rng = random.Random(f"cache-cli fixture {seed}")
    lines = pool.read_text(encoding="utf-8").splitlines()
    count = max(1, round(CORRUPT_SHARE * len(lines)))
    bad = []
    for i, line in enumerate(rng.sample(lines, count)):
        kind = CORRUPT_KINDS[i % len(CORRUPT_KINDS)]
        if kind == "coefficient" and ";n=stable;" in line:
            kind = "truncated"  # stable records are checked by grading only
        bad.append(_corrupt_line(line, kind))
    for line in bad:
        lines.insert(rng.randrange(len(lines) + 1), line)
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return count


def build_pool(expected: dict, path: Path) -> list:
    """Compute the pool records with glq and save them; returns the keys
    whose computed record differs from the recorded output."""
    from glq.classcalc import multiply_class_sums, stable_product
    from glq.field import field_of_order
    from glq.gltype import parse_gltype
    from glq.store import ExpansionCache, make_key, serialize_expansion

    cache = ExpansionCache(path)
    wrong = []
    for rec in expected["cache_cli"]["records"]:
        field = field_of_order(rec["q"])
        lam = parse_gltype(field, rec["lambda"])
        mu = parse_gltype(field, rec["mu"])
        if rec["cmd"] == "mul":
            expansion = multiply_class_sums(lam, mu, rec["n"], field)
            key = make_key(lam, mu, rec["n"])
        else:
            expansion = stable_product(lam, mu, field)
            key = make_key(lam, mu, None)
        terms = rec["stdout"].split("\t")[1]
        if key != rec["key"] or serialize_expansion(expansion) != terms:
            wrong.append(rec["key"])
        cache.put(key, expansion)
    cache.save()
    return wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pool", required=True, type=Path)
    ap.add_argument("--expected", type=Path, default=workloads.EXPECTED_PATH)
    args = ap.parse_args(argv)
    wrong = build_pool(workloads.load_expected(args.expected), args.pool)
    if wrong:
        print(f"{len(wrong)} pool records differ from the recorded outputs, "
              f"first {wrong[0]!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
