"""glq's one process-memo mechanism: memo(maxsize) keeps up to maxsize
results of calls by position and drops the least recently used first; a
call that raised is never stored.  clear_all() empties every memo."""

from collections import OrderedDict, namedtuple
from functools import update_wrapper

__all__ = ["CacheInfo", "memo", "clear_all"]

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_REGISTRY: list = []  # every memoized function, in definition order


def memo(maxsize: int):
    """Decorator adding cache_info(), cache_clear() and holds(*args)."""
    def decorate(fn):
        store, counts = OrderedDict(), [0, 0]  # hits, misses

        def wrapper(*args):
            try:
                value = store[args]
            except KeyError:
                counts[1] += 1
            else:
                counts[0] += 1
                store.move_to_end(args)
                return value
            value = fn(*args)
            if len(store) >= maxsize:
                store.popitem(last=False)
            store[args] = value
            return value

        def cache_clear():
            store.clear()
            counts[:] = [0, 0]

        wrapper.cache_info = lambda: CacheInfo(*counts, maxsize, len(store))
        wrapper.cache_clear = cache_clear
        wrapper.holds = lambda *args: args in store
        _REGISTRY.append(wrapper)
        return update_wrapper(wrapper, fn)
    return decorate


def clear_all() -> None:
    """Empty every registered memo and zero its counts."""
    for wrapper in _REGISTRY:
        wrapper.cache_clear()
