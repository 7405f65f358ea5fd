"""The process-memo decorator, its registry, and a check that every
process memo in glq is one of its memos."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import glq
from glq import memo
from glq.gltype import enumerate_partitions


@pytest.fixture(autouse=True)
def registry(monkeypatch):
    """The memos a test defines leave the registry with the test."""
    monkeypatch.setattr(memo, "_REGISTRY", list(memo._REGISTRY))


def test_a_call_that_raised_is_not_stored():
    calls = []

    @memo.memo(4)
    def fragile(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return 2 * x

    with pytest.raises(ValueError, match="first call fails"):
        fragile(3)
    assert not fragile.holds(3)
    assert fragile(3) == 6 and fragile(3) == 6
    assert calls == [3, 3]
    assert fragile.cache_info() == memo.CacheInfo(1, 2, 4, 1)


def test_the_least_recently_used_entry_is_dropped_at_the_bound():
    calls = []

    @memo.memo(2)
    def square(x):
        calls.append(x)
        return x * x

    square(1), square(2)
    square(1)  # now 2 is the least recently used
    square(3)
    assert [square.holds(x) for x in (1, 2, 3)] == [True, False, True]
    assert square(1) == 1 and calls == [1, 2, 3]
    assert square(2) == 4 and calls == [1, 2, 3, 2]
    assert not square.holds(3)


def test_holds_exactly_the_stored_arguments():
    @memo.memo(8)
    def add(x, y):
        return x + y

    assert not add.holds(1, 2)
    add(1, 2)
    assert add.holds(1, 2)
    assert not add.holds(2, 1) and not add.holds(1) and not add.holds(3)
    assert add.cache_info().hits == 0  # asking is not a call
    add.cache_clear()
    assert not add.holds(1, 2)


def test_cache_info_counts_hits_misses_and_size():
    @memo.memo(3)
    def ident(x):
        return x

    assert ident.cache_info() == (0, 0, 3, 0)
    for x in (1, 2, 1, 1, 4, 5, 6):
        ident(x)
    assert ident.cache_info() == memo.CacheInfo(hits=2, misses=5, maxsize=3,
                                                currsize=3)
    ident.cache_clear()
    assert ident.cache_info() == (0, 0, 3, 0)


def test_clear_all_empties_every_registered_memo():
    @memo.memo(2)
    def twice(x):
        return 2 * x

    twice(1), twice(1)
    enumerate_partitions(6)
    filled = [fn for fn in memo._REGISTRY if fn.cache_info().currsize]
    assert twice in filled and len(filled) >= 2
    memo.clear_all()
    for fn in memo._REGISTRY:
        info = fn.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_recursive_memo_gives_the_unmemoized_partitions():
    def partitions(n, maxpart):
        if n == 0:
            return ((),)
        return tuple((first,) + rest for first in range(min(n, maxpart), 0, -1)
                     for rest in recurse(n - first, first))

    recurse = partitions
    plain = [partitions(n, n) for n in range(12)]
    recurse = memo.memo(2)(partitions)
    assert [recurse(n, n) for n in range(12)] == plain
    assert recurse.cache_info().currsize == 2
    assert plain[6] == tuple(enumerate_partitions(6))


# ---------------------------------------------------------------------------
# drift: no memo outside the registry
# ---------------------------------------------------------------------------

SOURCE = Path(glq.__file__).parent
IDENTITIES = {("field", "field_make"), ("cli", "_parser")}  # not caches
EMPTY_CALLS = {"dict", "set", "list", "OrderedDict"}


def _name(node) -> str:
    """The last name of a decorator, call or attribute: lru_cache for
    functools.lru_cache(maxsize=8)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", "")


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (isinstance(node, ast.Call) and _name(node) in EMPTY_CALLS
            and not node.args and not node.keywords)


def memo_drift(source: Path) -> list:
    """Every functools cache outside IDENTITIES and every module-level
    name bound to an empty container, bar memo.py's registry, in the
    modules under source."""
    found = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (path.stem, node.name) not in IDENTITIES \
                    and any(_name(d) in ("lru_cache", "cache")
                            for d in node.decorator_list):
                found.append(f"{path.name}: {node.name} has a functools cache")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            value = getattr(node, "value", None)
            names = [getattr(t, "id", "?") for t in targets]
            if value is not None and _is_empty_container(value) \
                    and (path.stem, names) != ("memo", ["_REGISTRY"]):
                found.append(f"{path.name}: {names} is bound to an empty "
                             "container")
    return found


def test_every_process_memo_is_registered():
    assert memo_drift(SOURCE) == []
    modules = [importlib.import_module(f"glq.{info.name}")
               for info in pkgutil.iter_modules(glq.__path__)]
    identities = [getattr(importlib.import_module(f"glq.{module}"), name)
                  for module, name in IDENTITIES]
    stray = [f"{module.__name__}.{name}" for module in modules
             for name, fn in vars(module).items()
             if callable(getattr(fn, "cache_clear", None))
             and fn not in memo._REGISTRY and fn not in identities]
    assert not stray, f"memos outside glq.memo: {stray}"
    assert len(memo._REGISTRY) == 11


@pytest.mark.parametrize("added", [
    "@lru_cache(maxsize=2)\ndef _twice(x):\n    return 2 * x\n",
    "@functools.cache\ndef _twice(x):\n    return 2 * x\n",
    "_SEEN: dict = {}\n", "_SEEN = set()\n", "_SEEN = OrderedDict()\n",
])
def test_the_drift_check_finds_an_added_memo(tmp_path, added):
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "gltype.py", "a", encoding="utf-8") as handle:
        handle.write("\n\n" + added)
    assert len(memo_drift(tmp_path)) == 1
