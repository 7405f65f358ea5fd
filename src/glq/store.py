"""File-backed cache of class-sum expansions.

One tab-separated record per line — canonical key, machine-format terms,
metadata — so cache files are human-inspectable and diff-friendly.  The
cache is advisory: a record is served only if its version tag is this
one, its key and its terms are in their one canonical text, no term type
repeats, and its terms pass ClassSumExpansion.violation, the rule that
every computed product passes too (positive coefficients, candidate
types, determinants, the counting identity).  Any other line is skipped
with a warning that gives the reason.  The command line looks up one key,
parsing and revalidating only that key's lines, and appends a miss as one
line; when a key repeats, the last valid line wins.
"""

from __future__ import annotations

import os
import re
import time
import warnings
from pathlib import Path

from . import __version__
from .classcalc import ClassSumExpansion
from .errors import ResourceBoundError
from .field import field_of_order
from .gltype import GLType, format_gltype, parse_gltype
from .memo import memo

__all__ = [
    "ExpansionCache", "make_key", "parse_key", "format_record",
    "serialize_expansion", "parse_expansion", "default_cache_path",
]

_STABLE = "stable"  # the n field of records holding top-degree products
_KEY = re.compile(r"q=(\d+);n=(\w+);lambda=(.*?);mu=(.*)")


# The keys and records one process looks up repeat a few dozen type texts,
# so parsing is memoized across its lookups.  The lookup of parse_gltype
# happens at call time, not import time, so the function can be replaced or
# wrapped from outside.

@memo(4096)
def _parse_type(field, text: str) -> GLType:
    return parse_gltype(field, text)


# ---------------------------------------------------------------------------
# keys and record text
# ---------------------------------------------------------------------------

def make_key(lam: GLType, mu: GLType, n: int | None) -> str:
    """Canonical record key; identical inputs always serialize identically."""
    return (f"q={lam.field.q};n={_STABLE if n is None else n};"
            f"lambda={format_gltype(lam)};mu={format_gltype(mu)}")


def parse_key(key: str):
    """Invert make_key: the fields q=, n=, lambda= and mu= in this order,
    the type texts split at the first ';mu=' (a type text may contain ';',
    but never ';mu=')."""
    match = _KEY.fullmatch(key)
    if match is None:
        raise ValueError(f"malformed cache key {key!r}")
    q, n, lam_txt, mu_txt = match.groups()
    field = field_of_order(int(q))
    n_val = None if n == _STABLE else int(n)
    return field, n_val, _parse_type(field, lam_txt), _parse_type(field, mu_txt)


def serialize_expansion(expansion: ClassSumExpansion) -> str:
    """'type,coeff' terms joined by '|', in canonical term order."""
    return "|".join(f"{format_gltype(nu)},{coeff}"
                    for nu, coeff in expansion.items_sorted())


def parse_expansion(field, n, lam: GLType, mu: GLType,
                    text: str) -> ClassSumExpansion:
    terms = {}
    for item in text.split("|") if text else []:
        nu_txt, sep, coeff_txt = item.rpartition(",")
        if not sep:
            raise ValueError(f"malformed expansion term {item!r}")
        nu = _parse_type(field, nu_txt)
        if nu in terms:
            raise ValueError(f"repeated expansion term {nu_txt!r}")
        terms[nu] = int(coeff_txt)
    return ClassSumExpansion(field=field, n=n, lam=lam, mu=mu, terms=terms)


def _make_meta(ts: int | None = None) -> str:
    # seed=- stays in the record format until it next changes; only v= is read
    ts = int(time.time()) if ts is None else ts
    return f"v={__version__};ts={ts};seed=-"


def _record_line(key: str, expansion: ClassSumExpansion, meta: str) -> str:
    """The one text form of a record, without its newline."""
    return f"{key}\t{serialize_expansion(expansion)}\t{meta}"


def format_record(expansion: ClassSumExpansion) -> str:
    """The record line of an expansion with ts=0, so that printing it gives
    the same bytes on every run."""
    return _record_line(make_key(expansion.lam, expansion.mu, expansion.n),
                        expansion, _make_meta(ts=0))


def _check_meta(meta: str) -> None:
    fields = dict(item.split("=", 1) for item in meta.split(";") if "=" in item)
    if fields.get("v") != __version__:
        raise ValueError(f"version {fields.get('v')!r} != {__version__!r}")


def _parse_record(target: Path, lineno: int, line: str):
    """(key, expansion, meta) of one record line, or None after warning
    that the line is corrupt (a type text past a resource bound included;
    not a failed invariant, which propagates) or from another version."""
    try:
        key, value, meta = line.split("\t")
        _check_meta(meta)
        field, n, lam, mu = parse_key(key)
        if key != make_key(lam, mu, n):
            raise ValueError("key is not in canonical form")
        expansion = parse_expansion(field, n, lam, mu, value)
        reason = expansion.violation()
        if reason is not None:
            raise ValueError(reason)
        if value != serialize_expansion(expansion):
            raise ValueError("expansion text is not in canonical form")
    except (ValueError, KeyError, ResourceBoundError) as exc:
        # stacklevel 3: the caller of lookup()
        warnings.warn(f"skipping cache record at {target}:{lineno}: {exc}",
                      stacklevel=3)
        return None
    return key, expansion, meta


def _numbered_lines(target: Path, key: str):
    """(line number, line without its line end) for each line of the file
    that begins with key and a tab.

    As in text mode, \\r\\n and a lone \\r end a line as \\n does.  The
    key's lines are found by one search over the file's bytes, and only
    they are decoded; a line torn inside a multi-byte character like ∅
    decodes with U+FFFD."""
    data = target.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    prefix = key.encode("utf-8") + b"\t"
    needle = b"\n" + prefix
    starts = [0] if data.startswith(prefix) else []
    at = data.find(needle)
    while at >= 0:
        starts.append(at + 1)
        at = data.find(needle, at + 1)
    lineno, counted = 1, 0
    for start in starts:
        lineno += data.count(b"\n", counted, start)
        counted = start
        end = data.find(b"\n", start)
        line = data[start:end] if end >= 0 else data[start:]
        yield lineno, line.decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

def default_cache_path() -> Path:
    """$GLQ_CACHE when set, else a per-user cache file."""
    env = os.environ.get("GLQ_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "glq" / "expansions.tsv"


class ExpansionCache:
    """A record file: lookup() and append() serve the command line one key
    at a time; put() and save() write a whole snapshot at once."""

    def __init__(self, path):
        self.path = Path(path)
        self._records: dict = {}  # key -> ClassSumExpansion, for save()

    def put(self, key: str, expansion: ClassSumExpansion) -> None:
        self._records[key] = expansion

    def lookup(self, key: str) -> ClassSumExpansion | None:
        """The expansion under key in the cache file, or None.

        Only the lines of this key are parsed and revalidated, last first:
        the first valid one wins, so the last valid line of a repeated key
        is served.  A skipped line of this key warns with its line number;
        lines of other keys are neither decoded nor parsed.  The file is
        read once and searched once, so the cost is linear in its bytes."""
        if not self.path.exists():
            return None
        for lineno, line in reversed(list(_numbered_lines(self.path, key))):
            record = _parse_record(self.path, lineno, line)
            if record is not None:
                return record[1]
        return None

    def append(self, key: str, expansion: ClassSumExpansion) -> Path:
        """Add the record as one line at the end of the file.

        The line goes out in a single write on an O_APPEND descriptor, so
        concurrent writers never interleave or drop each other's records.
        A file whose last line is torn (no final newline, as a crashed
        writer leaves it) gets a newline first, so the torn line stays one
        skipped record instead of swallowing this one."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = _record_line(key, expansion, _make_meta()) + "\n"
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = "\n" + line
            data = line.encode("utf-8")
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"short write to {self.path}: {written} of "
                          f"{len(data)} bytes")
        return self.path

    def save(self) -> Path:
        """Write a complete snapshot atomically (temp file, then rename)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        meta = _make_meta()
        with open(temp, "w", encoding="utf-8") as handle:
            for key, expansion in sorted(self._records.items()):
                handle.write(_record_line(key, expansion, meta) + "\n")
        os.replace(temp, self.path)
        return self.path
