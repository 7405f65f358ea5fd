"""Command-line front end: class tables, class-sum products, stable
top-degree expansions, polynomial fits, closed-form checks, and the
verification suites.

Exit codes: 0 success (conjectural mismatches are findings, still 0);
1 proved-formula mismatch, invariant failure or inconclusive randomized
search; 2 usage, domain or cache-file I/O error; 3 resource-bound abort.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__, matfq, polyalg
from .classcalc import (DEFAULT_MEMORY_BOUND, enumerate_group,
                        enumerate_modified_types, multiply_class_sums,
                        multiply_oracle, stable_product, verify_stability)
from .errors import InconclusiveError, InvariantError, ResourceBoundError
from .field import field_make, field_of_order
from .gltype import (canonical_matrix, centralizer_order, class_size,
                     enumerate_plain_types, format_gltype, gl_order, lift,
                     min_rank, modify, norm, parse_gltype, type_of)
from .stablecenter import (CASES, check_case, fit_polynomial_in_n,
                           fit_polynomial_in_q, parse_case_params,
                           sweep_merge_irreducible, sweep_two_reflections,
                           sweep_union_distinct, sweep_union_equal)
from .store import ExpansionCache, default_cache_path, format_record, make_key

__all__ = ["main", "VERIFY_STABILITY_TRIPLES"]


# ---------------------------------------------------------------------------
# small parsers and emitters
# ---------------------------------------------------------------------------

def _parse_matrix(field, text: str) -> np.ndarray:
    rows = [[int(x) for x in row.split(",")]
            for row in text.split(";") if row.strip()]
    if any(not 0 <= x < field.q for row in rows for x in row):
        raise ValueError(f"entries must be field codes 0..{field.q - 1}")
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square: rows 'a,b;c,d'")
    return np.array(rows, dtype=np.uint8)


def _parse_points(text: str) -> list:
    points = []
    for item in text.split(","):
        a, sep, v = item.partition(":")
        if not sep:
            raise ValueError(f"point {item!r} is not 'abscissa:value'")
        points.append((int(a), int(v)))
    return points


def _emit(header, rows, fmt) -> None:
    rows = [tuple(str(c) for c in row) for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "machine":
        for row in rows:
            print("\t".join(row))
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _poly_text(coefficients, var: str) -> str:
    pieces = []
    for i in range(len(coefficients) - 1, -1, -1):
        c = coefficients[i]
        if c == 0 and len(coefficients) > 1:
            continue
        mag = abs(c)
        term = (f"{mag}" if i == 0 or mag != 1 else "") + \
               (f"*{var}" if i >= 1 and mag != 1 else f"{var}" if i >= 1 else "")
        if i >= 2:
            term += f"^{i}"
        pieces.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(pieces) if pieces else "+ 0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _cached(args, key: str, compute):
    """The cached expansion under key; on a miss, compute() it and append
    the record to the cache file."""
    if args.no_cache:
        return compute()
    cache = ExpansionCache(Path(args.cache) if args.cache
                           else default_cache_path())
    expansion = cache.lookup(key)
    if expansion is None:
        expansion = compute()
        cache.append(key, expansion, seed=args.seed)
    return expansion


def _print_expansion(expansion, args) -> None:
    if args.format == "machine":
        print(format_record(expansion, args.seed))
        return
    rows = [(format_gltype(nu), coeff)
            for nu, coeff in expansion.items_sorted()]
    _emit(("type", "coefficient"), rows, args.format)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_irr(args) -> int:
    if args.p is not None:
        field = field_make(args.p, args.e)
    elif args.q is not None:
        field = field_of_order(args.q)
    else:
        raise ValueError("give --q or --p (with optional --e)")
    polys = polyalg.enumerate_phi(field, args.dmax)
    if args.format == "machine":
        for f in polys:
            print(polyalg.format_poly(field, f))
        return 0
    rows = [(len(f) - 1, polyalg.format_poly(field, f)) for f in polys]
    _emit(("degree", "polynomial"), rows, args.format)
    return 0


def _cmd_classes(args) -> int:
    field = field_of_order(args.q)
    rows = []
    for T in enumerate_plain_types(field, args.n):
        mbar = modify(T)
        rows.append((format_gltype(T), format_gltype(mbar), norm(mbar),
                     class_size(mbar, args.n), centralizer_order(T)))
    _emit(("type", "modified", "length", "class size", "centralizer"),
          rows, args.format)
    return 0


def _cmd_type(args) -> int:
    field = field_of_order(args.q)
    A = _parse_matrix(field, args.matrix)
    plain = type_of(field, A)
    mbar = modify(plain)
    _emit(("type", "modified", "length"),
          [(format_gltype(plain), format_gltype(mbar), norm(mbar))],
          args.format)
    return 0


def _cmd_mul(args) -> int:
    field = field_of_order(args.q)
    lam = parse_gltype(field, args.lam)
    mu = parse_gltype(field, args.mu)
    expansion = _cached(args, make_key(lam, mu, args.n),
                        lambda: multiply_class_sums(
                            lam, mu, args.n, field,
                            memory_bound=args.memory_bound))
    _print_expansion(expansion, args)
    return 0


def _cmd_stable(args) -> int:
    field = field_of_order(args.q)
    lam = parse_gltype(field, args.lam)
    mu = parse_gltype(field, args.mu)
    expansion = _cached(args, make_key(lam, mu, None),
                        lambda: stable_product(
                            lam, mu, field, memory_bound=args.memory_bound))
    _print_expansion(expansion, args)
    return 0


def _print_fit(fit, args) -> int:
    coeff_txt = ",".join(str(c) for c in fit.coefficients)
    shift_txt = ",".join(str(c) for c in fit.shifted)
    if args.format == "machine":
        points_txt = ",".join(f"{a}:{v}" for a, v in fit.points)
        print(f"variable={fit.variable}\tpoints={points_txt}"
              f"\tcoefficients={coeff_txt}\tshifted={shift_txt}"
              f"\tall_integer={int(fit.all_integer)}"
              f"\tall_nonnegative_shifted={int(fit.all_nonnegative_shifted)}"
              f"\twarning={fit.warning or '-'}")
        return 0
    var = "q" if fit.variable == "q" else "x"
    rows = [
        ("variable", var if var == "q" else "x = [n]_q"),
        ("points", " ".join(f"({a}, {v})" for a, v in fit.points)),
        ("polynomial", _poly_text(fit.coefficients, var)),
        ("coefficients", coeff_txt),
        ("shifted basis", shift_txt),
        ("all integer", "yes" if fit.all_integer else "no"),
        ("nonnegative shifted", "yes" if fit.all_nonnegative_shifted else "no"),
    ]
    if fit.warning:
        rows.append(("warning", fit.warning))
    _emit(("field", "value"), rows, args.format)
    return 0


def _cmd_fit(args) -> int:
    if args.var == "q":
        if not args.points:
            raise ValueError("fit --var q needs --points 'q1:v1,q2:v2,...'")
        fit = fit_polynomial_in_q(_parse_points(args.points))
        return _print_fit(fit, args)
    if not (args.q and args.lam is not None and args.mu is not None
            and args.nu is not None and args.ns):
        raise ValueError("fit --var n needs --q, --lambda, --mu, --nu, --ns")
    field = field_of_order(args.q)
    fit = fit_polynomial_in_n(
        parse_gltype(field, args.lam), parse_gltype(field, args.mu),
        parse_gltype(field, args.nu), field,
        n_list=tuple(int(x) for x in args.ns.split(",")),
        memory_bound=args.memory_bound)
    return _print_fit(fit, args)


def _cmd_check(args) -> int:
    field = field_of_order(args.q)
    texts = {}
    for item in (args.params.split(";") if args.params else []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"parameter {item!r} is not 'key=value'")
        texts[key.strip()] = value
    if args.nu is not None:
        texts["nu"] = args.nu
    report = check_case(field, args.case, memory_bound=args.memory_bound,
                        **parse_case_params(field, args.case, texts))
    _emit(("case", "params", "computed", "predicted", "status", "match"),
          [(report.case, report.params, report.computed,
            report.predicted.value, report.predicted.status,
            "yes" if report.match else "NO")],
          args.format)
    return 1 if report.is_failure else 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

#: ten representative top-degree triples whose constants must not move with n
VERIFY_STABILITY_TRIPLES = (
    (2, "1@t-1", "1@t-1", "1,1@t-1"),
    (2, "1@t-1", "1@t-1", "2@t-1"),
    (2, "1@t-1", "1@t^2+t+1", "1@t-1;1@t^2+t+1"),
    (2, "1@t-1", "2@t-1", "3@t-1"),
    (2, "1@t-1", "2@t-1", "2,1@t-1"),
    (3, "1@t-2", "1@t-2", "1,1@t-2"),
    (3, "1@t-2", "1@t-2", "2@t-2"),
    (3, "1@t-2", "1@t-2", "1@t^2+1"),
    (3, "1@t-1", "1@t-2", "1@t-1;1@t-2"),
    (3, "1@t-1", "1@t-1", "1,1@t-1"),
)


def _suite_stability(args, rows) -> int:
    failures = 0
    for q, lam_txt, mu_txt, nu_txt in VERIFY_STABILITY_TRIPLES:
        field = field_of_order(q)
        report = verify_stability(parse_gltype(field, lam_txt),
                                  parse_gltype(field, mu_txt),
                                  parse_gltype(field, nu_txt),
                                  field, memory_bound=args.memory_bound)
        values = " ".join(f"a({n})={a}" for n, a in report.values)
        rows.append(("ok" if report.passed else "FAIL",
                     f"q={q} {lam_txt} * {mu_txt} -> {nu_txt}", values))
        failures += 0 if report.passed else 1
    return failures


def _suite_oracle(args, rows) -> int:
    failures = 0
    for q, n in ((2, 2), (2, 3), (3, 2)):
        field = field_of_order(q)
        types = enumerate_modified_types(field, 2, n)
        bad = 0
        for lam in types:
            for mu in types:
                fast = multiply_class_sums(lam, mu, n, field,
                                           memory_bound=args.memory_bound)
                slow = multiply_oracle(lam, mu, n, field,
                                       memory_bound=args.memory_bound)
                if fast.terms != slow.terms:
                    bad += 1
        rows.append(("ok" if not bad else "FAIL", f"q={q} n={n}",
                     f"{len(types) ** 2} products against the pair oracle"
                     + ("" if not bad else f"; {bad} disagreed")))
        failures += bad
    return failures


def _suite_centralizers(args, rows) -> int:
    failures = 0
    for q in (2, 3):
        field = field_of_order(q)
        for n in (1, 2, 3):
            group = np.stack(list(enumerate_group(field, n)))
            bad = 0
            for T in enumerate_plain_types(field, n):
                J = canonical_matrix(T)
                left = matfq.mat_mul(field, group, J)
                right = matfq.mat_mul(field, J, group)
                commutant = int(np.all(left == right, axis=(1, 2)).sum())
                if commutant != centralizer_order(T):
                    bad += 1
            rows.append(("ok" if not bad else "FAIL",
                         f"q={q} n={n} commutant counts",
                         f"{gl_order(field, n)} group elements"
                         + ("" if not bad else f"; {bad} classes off")))
            failures += bad
        bad = 0
        total = 0
        for mu in enumerate_modified_types(field, 3, 6):
            k = min_rank(mu)
            r = k - norm(mu)
            for n in (k, k + 1, k + 2):
                total += 1
                expected = (centralizer_order(lift(mu, k))
                            * gl_order(field, n - k)
                            * field.q ** (2 * r * (n - k)))
                if centralizer_order(lift(mu, n)) != expected:
                    bad += 1
        rows.append(("ok" if not bad else "FAIL",
                     f"q={q} centralizer factorization",
                     f"{total} (modified type, rank) pairs"
                     + ("" if not bad else f"; {bad} off")))
        failures += bad
    return failures


def _suite_formulas(args, rows) -> int:
    bound = {"memory_bound": args.memory_bound}
    reports = []
    for q in (2, 3):
        reports += sweep_two_reflections(field_of_order(q), **bound)
    reports += sweep_union_distinct(field_of_order(3), 2, **bound)
    reports += sweep_union_distinct(field_of_order(5), 2, **bound)
    reports += sweep_union_equal(field_of_order(3), **bound)
    for q, fprime in ((3, (2, 1, 1)), (5, (2, 4, 1))):
        reports += sweep_merge_irreducible(field_of_order(q), 2, fprime,
                                           **bound)
    failures = 0
    for r in reports:
        if r.match:
            status = "ok"
        elif r.is_failure:
            status, failures = "FAIL", failures + 1
        else:
            status = "finding"
        rows.append((status, f"q={r.lam.field.q} {r.case} {r.params}",
                     f"computed {r.computed}, predicted {r.predicted.value}"
                     f" ({r.predicted.status})"))
    return failures


def _cmd_verify(args) -> int:
    suites = {"stability": _suite_stability, "oracle": _suite_oracle,
              "centralizers": _suite_centralizers, "formulas": _suite_formulas}
    rows: list = []
    failures = suites[args.suite](args, rows)
    _emit(("status", "check", "detail"), rows, args.format)
    findings = sum(1 for row in rows if row[0] == "finding")
    print(f"suite {args.suite}: {len(rows)} checks, {failures} failures, "
          f"{findings} conjectural findings", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_Q = ("--q", {"type": int, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})
_MU = ("--mu", {"required": True})

#: name -> (help line, handler, own options, which shared options it takes)
_COMMANDS = {
    "irr": ("list monic irreducibles (t excluded)", _cmd_irr, (
        ("--q", {"type": int}), ("--p", {"type": int}),
        ("--e", {"type": int, "default": 1}),
        ("--dmax", {"type": int, "required": True})), {}),
    "classes": ("conjugacy-class table of GL_n(q)", _cmd_classes, (
        _Q, ("--n", {"type": int, "required": True})), {}),
    "type": ("types of one matrix (rows 'a,b;c,d')", _cmd_type, (
        _Q, ("--matrix", {"required": True})), {}),
    "mul": ("full class-sum product at one rank", _cmd_mul, (
        _Q, ("--n", {"type": int, "required": True}), _LAMBDA, _MU),
        {"bound": True, "cache": True}),
    "stable": ("top-degree stable expansion", _cmd_stable, (
        _Q, _LAMBDA, _MU), {"bound": True, "cache": True}),
    "fit": ("exact polynomial interpolation", _cmd_fit, (
        ("--var", {"choices": ("q", "n"), "required": True}),
        ("--points", {"help": "q fits: 'q1:v1,q2:v2,...'"}),
        ("--q", {"type": int}), ("--lambda", {"dest": "lam"}), ("--mu", {}),
        ("--nu", {}), ("--ns", {"help": "n fits: ranks 'n1,n2,...'"})),
        {"bound": True}),
    "verify": ("run one verification suite", _cmd_verify, (
        ("--suite", {"required": True, "choices": (
            "stability", "oracle", "centralizers", "formulas")}),),
        {"bound": True}),
    "check": ("one predictor-vs-computation case", _cmd_check, (
        _Q, ("--case", {"required": True, "choices": CASES}),
        ("--params", {"default": "", "help": "semicolon-joined key=value "
                      "pairs, e.g. 'xi=2;c=1;d=1'"}),
        ("--nu", {"help": "target type for two-reflections"})),
        {"bound": True}),
}


def _add_options(p: argparse.ArgumentParser, bound: bool = False,
                 cache: bool = False) -> None:
    """--format everywhere; --memory-bound where classes are enumerated;
    --seed and the cache options where expansions are cached."""
    p.add_argument("--format", choices=("table", "csv", "machine"),
                   default="table")
    if bound:
        p.add_argument("--memory-bound", dest="memory_bound", type=int,
                       default=DEFAULT_MEMORY_BOUND)
    if cache:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cache", default=None,
                       help="cache file (overrides GLQ_CACHE)")
        p.add_argument("--no-cache", dest="no_cache", action="store_true")


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """Every subcommand is registered with its help line, so help, usage
    and errors read the same; but only the one argv names (its first token
    not starting with '-') gets its options and -h, because adding all of
    them costs more than a cache hit.  argparse never parses with, or
    prints the help of, a subcommand that argv does not name."""
    ap = argparse.ArgumentParser(
        prog="glq",
        description="Exact conjugacy-class calculus for GL_n(q) at desk scale.")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, handler, options, shared) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == invoked)
        if name == invoked:
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            _add_options(p, **shared)
            p.set_defaults(handler=handler)
    return ap


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
