"""Record the expected outputs of every benchmark operation.

    PYTHONPATH=src python3 perfbench/record.py [--out perfbench/expected.json]

Run it on the commit whose outputs are the reference.  It computes every
output with glq, cross-checks each one independently wherever an independent
check exists, and refuses to write the file if any check fails:

* full products: the counting identity through class_size, and the seven
  published coefficients 17, 60, 204, 49, 249, 441 and 1470;
* stable products: every term is of top degree, and each coefficient equals
  the structure constant one rank above its minimal rank (stability) where
  the smaller class there has at most STABLE_CHECK_BOUND elements;
* verify_stability and the two-reflection sweeps: the values agree across
  ranks and with the closed-form table;
* cache-cli records: byte-exact CLI stdout, and multiply_oracle (the
  brute-force pair convolution) for every full product small enough.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import glq
from glq import classcalc, cli, field, gltype, stablecenter
from glq.classcalc import (enumerate_modified_types, multiply_class_sums,
                           multiply_oracle, stable_product,
                           structure_constant_at)
from glq.field import field_of_order
from glq.gltype import class_size, format_gltype, min_rank, norm
from glq.store import make_key

import workloads
from fixture import argv_of
from run import git_sha

ORACLE_PAIR_BOUND = 10_000
STABLE_CHECK_BOUND = 20_000

# cache-cli pool: (q, n) of the full products stored in the fixture, the
# stable products stored in it as (q, top degree), and the (q, n) whose
# small products are the misses
HIT_PRODUCTS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1),
                (5, 2), (7, 1))
HIT_STABLE = ((2, 2), (2, 3), (3, 2), (4, 2))
MISS_PRODUCTS = ((2, 3), (3, 3))


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--no-cache", "--format", "machine"])
    if code != 0:
        raise SystemExit(f"glq {' '.join(argv)} exited {code}")
    return out.getvalue()


def _pool_entry(cmd, F, n, lam, mu) -> dict:
    rec = {"cmd": cmd, "q": F.q, "lambda": format_gltype(lam),
           "mu": format_gltype(mu), "key": make_key(lam, mu, n)}
    if cmd == "mul":
        rec["n"] = n
    rec["stdout"] = _cli_stdout(argv_of(rec))
    return rec


def _stable_rank_check(lam, mu, expansion, F) -> str | None:
    for nu, a in expansion.terms.items():
        n = min_rank(nu) + 1
        if min(class_size(lam, n), class_size(mu, n)) > STABLE_CHECK_BOUND:
            continue
        if structure_constant_at(lam, mu, nu, n, F) != a:
            return f"coefficient at {nu} moves at n={n}"
    return None


def record_ops(expected: dict, failures: list) -> dict:
    modules = {"classcalc": classcalc, "field": field, "gltype": gltype,
               "stablecenter": stablecenter}
    outputs = {}
    for workload in workloads.WORKLOADS:
        if workload == "cache-cli":
            continue  # recorded by record_cache_pool
        ops = workloads.fixed_ops(workload, expected)
        fields = {q: field_of_order(q) for q in workloads.fields_of(ops)}
        for op in ops:
            t0 = time.perf_counter()
            result = workloads.issue(op, fields, modules)
            problem = workloads.cross_check(op, result, fields, gltype)
            if problem is None and op["kind"] == "stable":
                problem = _stable_rank_check(result.lam, result.mu, result,
                                             fields[op["q"]])
            if problem:
                failures.append(f"{op['id']}: {problem}")
            outputs[op["id"]] = workloads.render(op, result, gltype)
            print(f"{time.perf_counter() - t0:8.2f}s  {op['id']}", flush=True)
    return outputs


def record_cache_pool(failures: list) -> dict:
    def products(q, n, pair_bound=None):
        F = field_of_order(q)
        types = enumerate_modified_types(F, n, n)
        for lam in types:
            for mu in types:
                pairs = class_size(lam, n) * class_size(mu, n)
                if pair_bound is None or pairs <= pair_bound:
                    yield F, lam, mu, pairs

    def checked_product(F, n, lam, mu, pairs):
        fast = multiply_class_sums(lam, mu, n, F)
        total = sum(a * class_size(nu, n) for nu, a in fast.terms.items())
        if total != class_size(lam, n) * class_size(mu, n):
            failures.append(f"q={F.q} n={n} {lam}*{mu}: counting identity")
        if pairs <= ORACLE_PAIR_BOUND and \
                multiply_oracle(lam, mu, n, F).terms != fast.terms:
            failures.append(f"q={F.q} n={n} {lam}*{mu}: oracle disagrees")
        return pairs <= ORACLE_PAIR_BOUND

    records, misses, oracle_checked = [], [], 0
    for q, n in HIT_PRODUCTS:
        for F, lam, mu, pairs in products(q, n):
            oracle_checked += checked_product(F, n, lam, mu, pairs)
            records.append(_pool_entry("mul", F, n, lam, mu))
    for q, top in HIT_STABLE:
        F = field_of_order(q)
        types = [t for t in enumerate_modified_types(F, top - 1, top + 2)
                 if norm(t) >= 1]
        for lam in types:
            for mu in types:
                if norm(lam) + norm(mu) != top:
                    continue
                expansion = stable_product(lam, mu, F)
                problem = _stable_rank_check(lam, mu, expansion, F)
                if problem:
                    failures.append(f"stable q={q} {lam}*{mu}: {problem}")
                records.append(_pool_entry("stable", F, None, lam, mu))
    for q, n in MISS_PRODUCTS:
        for F, lam, mu, pairs in products(q, n, ORACLE_PAIR_BOUND):
            oracle_checked += checked_product(F, n, lam, mu, pairs)
            misses.append(_pool_entry("mul", F, n, lam, mu))
    print(f"cache pool: {len(records)} records, {len(misses)} misses, "
          f"{oracle_checked} checked against multiply_oracle", flush=True)
    return {"records": records, "misses": misses}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(workloads.EXPECTED_PATH))
    args = ap.parse_args(argv)
    expected = {
        "recorded_from": {"git_sha": git_sha(), "glq": glq.__version__},
        "verify_stability_triples":
            [list(t) for t in cli.VERIFY_STABILITY_TRIPLES],
    }
    failures: list = []
    expected["ops"] = record_ops(expected, failures)
    expected["cache_cli"] = record_cache_pool(failures)
    if failures:
        print("independent cross-checks failed; nothing written:",
              *failures, sep="\n  ", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
