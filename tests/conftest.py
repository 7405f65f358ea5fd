"""Shared test set-up."""

import pytest

from glq import classcalc, gltype


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with the process memos of products, class sizes and
    orbits empty, so that a test which injects a fault sees it computed
    instead of served from an earlier test's result."""
    classcalc._product_terms.cache_clear()
    classcalc._build_orbit.cache_clear()
    gltype._class_size.cache_clear()
