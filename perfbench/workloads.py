"""What each workload asks of glq, how one operation is issued through the
public API, and how its output is rendered and checked.

This module imports no glq code at import time: run.py loads it
without glq, and a worker imports glq only inside its timed set-up.  Every
glq function is looked up on its module at call time, so the wrappers the
tracer installs are the ones called.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("products-prime", "products-ext", "stable", "cache-cli")

# Seven published products: (q, n, lambda, mu, (nu, published coefficient)).
PRODUCTS_PRIME = (
    (3, 5, "1@t-2", "1,1@t-1", ("1,1@t-1;1@t-2", 17)),
    (3, 5, "1@t-1", "1@t-1;1@t-2", ("1,1@t-1;1@t-2", 60)),
    (3, 6, "1@t-2", "1,1@t-1;1@t-2", ("1,1@t-1;1,1@t-2", 204)),
    (5, 3, "1@t-2", "1,1@t-3", ("1@t-2;1,1@t-3", 49)),
    (5, 4, "1@t-2", "1,1,1@t-3", ("1@t-2;1,1,1@t-3", 249)),
    (5, 4, "1@t-2", "1,1@t-3;1@t-4", ("1@t-2;1,1@t-3;1@t-4", 441)),
    (5, 4, "1@t-4", "1,1@t-3;1@t-4", ("1,1@t-3;1,1@t-4", 1470)),
)

# Full products over F_4, F_8 and F_9: (q, n, lambda, mu).
PRODUCTS_EXT = (
    (4, 4, "1@t-x", "1@t-x"),
    (4, 4, "1@t-x", "1@t-(x+1)"),
    (4, 4, "1@t-1", "1@t-x"),
    (8, 3, "1@t-x", "1@t-x"),
    (8, 3, "1@t-x", "1@t-(x+1)"),
    (9, 3, "1@t-x", "1@t-x"),
    (9, 3, "1@t-x", "1@t-2"),
)

# Top-degree products: (q, lambda, mu).
STABLE_PRODUCTS = (
    (2, "1@t-1", "1,1@t-1"),
    (2, "1@t-1", "2@t-1"),
    (3, "1@t-2", "1,1@t-2"),
    (3, "1@t-1", "1@t-2"),
    (4, "1@t-x", "1@t-x"),
    (4, "1@t-x", "1@t-(x+1)"),
    (5, "1@t-2", "1@t-3"),
    (5, "1@t-2", "1@t-2"),
)

SWEEP_FIELDS = (2, 3)

# Operations per cache-cli pass; the seed picks which keys and their order.
CACHE_HITS = 20
CACHE_MISSES = 20


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# operation lists
# ---------------------------------------------------------------------------

def _mul_op(q, n, lam, mu, published=None) -> dict:
    op = {"id": f"mul q={q} n={n} [{lam}]*[{mu}]", "kind": "mul",
          "q": q, "n": n, "lambda": lam, "mu": mu}
    if published is not None:
        op["published"] = list(published)
    return op


def fixed_ops(workload: str, expected: dict) -> list:
    """The operations of a workload whose list does not depend on the seed."""
    if workload == "products-prime":
        return [_mul_op(*row) for row in PRODUCTS_PRIME]
    if workload == "products-ext":
        return [_mul_op(*row) for row in PRODUCTS_EXT]
    if workload == "stable":
        ops = [{"id": f"stable q={q} [{lam}]*[{mu}]", "kind": "stable",
                "q": q, "lambda": lam, "mu": mu}
               for q, lam, mu in STABLE_PRODUCTS]
        # the CLI's stability suite, recorded with the expected outputs so
        # that the stable workload does not load glq.cli
        ops += [{"id": f"verify q={q} [{lam}]*[{mu}]->[{nu}]",
                 "kind": "verify", "q": q, "lambda": lam, "mu": mu, "nu": nu}
                for q, lam, mu, nu in expected["verify_stability_triples"]]
        ops += [{"id": f"sweep-two-reflections q={q}", "kind": "sweep",
                 "q": q} for q in SWEEP_FIELDS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def fields_of(ops: list) -> list:
    return sorted({op["q"] for op in ops})


# ---------------------------------------------------------------------------
# issuing one operation
# ---------------------------------------------------------------------------

def issue(op: dict, fields: dict, glq_modules: dict):
    """Run one operation through glq's public functions and return its raw
    result; for cache-cli, the caller has already put the fresh cache copy
    path into op["argv"]."""
    kind = op["kind"]
    if kind == "cli":
        return glq_modules["cli"].main(op["argv"])
    gltype = glq_modules["gltype"]
    classcalc = glq_modules["classcalc"]
    F = fields[op["q"]]
    if kind == "sweep":
        return glq_modules["stablecenter"].sweep_two_reflections(F)
    lam = gltype.parse_gltype(F, op["lambda"])
    mu = gltype.parse_gltype(F, op["mu"])
    if kind == "mul":
        return classcalc.multiply_class_sums(lam, mu, op["n"], F)
    if kind == "stable":
        return classcalc.stable_product(lam, mu, F)
    if kind == "verify":
        nu = gltype.parse_gltype(F, op["nu"])
        return classcalc.verify_stability(lam, mu, nu, F)
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# rendering and checking outputs (never timed)
# ---------------------------------------------------------------------------

def render(op: dict, result, gltype) -> str:
    """Canonical text of an operation's output, compared byte for byte with
    the recorded expectation."""
    kind = op["kind"]
    if kind in ("mul", "stable"):
        return "|".join(f"{gltype.format_gltype(nu)},{a}"
                        for nu, a in result.items_sorted())
    if kind == "verify":
        values = ",".join(f"{n}:{a}" for n, a in result.values)
        return f"values={values};passed={result.passed};" \
               f"constant={result.constant}"
    if kind == "sweep":
        return "\n".join(f"{r.params}:{r.computed}:{r.predicted.value}:"
                         f"{r.predicted.status}:{r.match}" for r in result)
    raise ValueError(f"unknown operation kind {kind!r}")


def cross_check(op: dict, result, fields: dict, gltype) -> str | None:
    """Checks that do not rely on the recorded outputs; returns a failure
    description or None."""
    kind = op["kind"]
    F = fields.get(op.get("q"))
    if kind == "mul":
        n = op["n"]
        lam = gltype.parse_gltype(F, op["lambda"])
        mu = gltype.parse_gltype(F, op["mu"])
        total = sum(a * gltype.class_size(nu, n)
                    for nu, a in result.terms.items())
        if total != gltype.class_size(lam, n) * gltype.class_size(mu, n):
            return "counting identity failed"
        if "published" in op:
            nu_txt, want = op["published"]
            got = result.terms.get(gltype.parse_gltype(F, nu_txt), 0)
            if got != want:
                return f"published coefficient at [{nu_txt}]: {got} != {want}"
    elif kind == "stable":
        top = gltype.norm(result.lam) + gltype.norm(result.mu)
        if any(gltype.norm(nu) != top for nu in result.terms):
            return "stable product holds a term below top degree"
    elif kind == "verify":
        if not result.passed or len({a for _, a in result.values}) != 1:
            return f"values move with n: {result.values}"
    elif kind == "sweep":
        bad = [r.params for r in result if not r.match]
        if bad:
            return f"closed-form table disagrees at {bad}"
    return None
