"""Exact conjugacy-class calculus for finite general linear groups.

Everything is integer arithmetic over explicitly constructed finite fields:
conjugacy types and their centralizer orders, products of class sums in the
center of the integral group algebra of GL_n(q), the stable (top-degree)
structure constants that are independent of n, closed-form predictions for
small cases, and exact polynomial fits in q.  The `glq` command line drives
the same code paths.
"""

__version__ = "0.1.0"

from .errors import (ClassEmptyError, ClassTooLargeError, GlqError,
                     InconclusiveError, InvariantError,
                     LengthNotAdditiveError, ResourceBoundError)
from .field import Field, field_make, field_of_order
from .gltype import (GLType, centralizer_order, class_size, det_of_type,
                     enumerate_plain_types, format_gltype, gl_order, lift,
                     min_rank, modified_type_of, modify, norm, parse_gltype,
                     q_binomial, q_factorial, q_int, reflection_length,
                     type_of)
from .classcalc import (ClassSumExpansion, StabilityReport, TripleNormalForm,
                        enumerate_class, enumerate_group,
                        enumerate_modified_types, multiply_class_sums,
                        multiply_oracle, normalize_triple, stable_constant,
                        stable_product, structure_constant_at,
                        verify_stability)
from .stablecenter import (CheckReport, FitResult, Prediction, check_case,
                           fit_family_in_q, fit_polynomial_in_n,
                           fit_polynomial_in_q, predict_reflection_product,
                           sweep_merge_irreducible, sweep_two_reflections,
                           sweep_union_distinct, sweep_union_equal)
from .store import ExpansionCache, make_key

__all__ = [
    "__version__",
    # fields
    "Field", "field_make", "field_of_order",
    # types and exact counting
    "GLType", "parse_gltype", "format_gltype", "type_of", "modified_type_of",
    "modify", "lift", "norm", "min_rank", "det_of_type", "class_size",
    "centralizer_order", "gl_order", "reflection_length",
    "enumerate_plain_types", "q_int", "q_factorial", "q_binomial",
    # class-sum products
    "ClassSumExpansion", "StabilityReport", "TripleNormalForm",
    "enumerate_class", "enumerate_group", "enumerate_modified_types",
    "multiply_class_sums", "multiply_oracle", "structure_constant_at",
    "stable_constant", "stable_product", "verify_stability",
    "normalize_triple",
    # predictions and fits
    "Prediction", "CheckReport", "FitResult", "check_case",
    "predict_reflection_product", "sweep_two_reflections",
    "sweep_union_distinct", "sweep_union_equal", "sweep_merge_irreducible",
    "fit_polynomial_in_q", "fit_polynomial_in_n", "fit_family_in_q",
    # caching
    "ExpansionCache", "make_key",
    # errors
    "GlqError", "ResourceBoundError", "ClassTooLargeError", "ClassEmptyError",
    "LengthNotAdditiveError", "InconclusiveError", "InvariantError",
]
