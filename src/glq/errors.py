"""Shared exception types.

The CLI maps these onto exit codes: ValueError subclasses are usage/domain
errors (exit 2), ResourceBoundError subclasses abort on a configured bound
(exit 3), InvariantError is a failed internal check and InconclusiveError a
randomized search without a verdict (both exit 1), and proved-formula
mismatches are reported, not raised.
"""

from __future__ import annotations

__all__ = [
    "GlqError",
    "ResourceBoundError",
    "ClassTooLargeError",
    "ClassEmptyError",
    "LengthNotAdditiveError",
    "InconclusiveError",
    "InvariantError",
]


class GlqError(Exception):
    """Base class for errors raised by this package."""


class ResourceBoundError(GlqError):
    """A configured memory or work bound would be exceeded."""


class ClassTooLargeError(ResourceBoundError):
    """A conjugacy class exceeds the in-memory enumeration bound."""


class ClassEmptyError(GlqError, ValueError):
    """A modified type does not fit in the requested ambient dimension."""


class LengthNotAdditiveError(GlqError, ValueError):
    """normalize_triple requires reflection lengths to add exactly."""


class InconclusiveError(GlqError, RuntimeError):
    """Randomized conjugator search exhausted retries without a verdict."""


class InvariantError(GlqError, RuntimeError):
    """An exactness invariant failed: a result would be wrong if returned.
    Raised explicitly, so the check also holds under python -O."""
