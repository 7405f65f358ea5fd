"""Shared test set-up."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from glq import classcalc, gltype, polyalg


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with the process memos of products, tail-split
    counts, class sizes, a_λ(Q) factors, plain-type lists, orbits,
    factorizations and classified invariants empty, so that a test which
    injects a fault sees it computed instead of served from an earlier
    test's result."""
    classcalc._product_terms.cache_clear()
    classcalc._TAIL_SPLITS.clear()
    classcalc._build_orbit.cache_clear()
    gltype._class_size.cache_clear()
    gltype.a_partition.cache_clear()
    gltype._plain_types.cache_clear()
    gltype._modified_type.cache_clear()
    polyalg._factor_monic.cache_clear()


def poly_add(field, f, g):
    """f + g over field, trimmed; glq itself never adds polynomials."""
    return polyalg.poly_trim(field.add(a, b) for a, b in
                             itertools.zip_longest(f, g, fillvalue=0))


def workload_stable_products():
    """The benchmark's top-degree products, (q, λ text, μ text), read from
    perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.STABLE_PRODUCTS
