"""Shared test set-up."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from glq import memo, polyalg


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with every process memo empty, so that a test which
    injects a fault sees it computed instead of served from an earlier
    test's result."""
    memo.clear_all()


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
