"""Text forms read back to the values they print, on random inputs over every
field of order at most 25."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from glq import polyalg
from glq.field import field_of_order
from glq.gltype import enumerate_plain_types, format_gltype, parse_gltype

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
# listing the types of norm ≤ 3 takes at most about 0.1 s at these q
# (0.4 s at q = 13, 3 s at q = 25)
CHEAP_TYPE_FIELDS = (2, 3, 4, 5, 7, 8, 9)

ROUND_TRIPS = settings(max_examples=200, deadline=None, derandomize=True,
                       database=None)


@lru_cache(maxsize=None)
def types_up_to_norm_3(q: int) -> tuple:
    F = field_of_order(q)
    return tuple(ty for m in range(4) for ty in enumerate_plain_types(F, m))


@st.composite
def elements(draw):
    F = field_of_order(draw(st.sampled_from(PRIME_POWERS)))
    return F, draw(st.integers(0, F.q - 1))


@st.composite
def polys(draw):
    F = field_of_order(draw(st.sampled_from(PRIME_POWERS)))
    coeffs = draw(st.lists(st.integers(0, F.q - 1), max_size=5))  # degree ≤ 4
    return F, tuple(coeffs)


@st.composite
def types(draw):
    q = draw(st.sampled_from(CHEAP_TYPE_FIELDS))
    return field_of_order(q), draw(st.sampled_from(types_up_to_norm_3(q)))


@ROUND_TRIPS
@given(elements())
def test_element_text_round_trip_every_field(case):
    F, a = case
    assert F.parse_element(F.format_element(a)) == a


@ROUND_TRIPS
@given(polys())
def test_poly_text_round_trip_every_field(case):
    F, f = case
    assert polyalg.parse_poly(F, polyalg.format_poly(F, f)) == \
        polyalg.poly_trim(f)


@ROUND_TRIPS
@given(types())
def test_gltype_text_round_trip_every_field(case):
    F, ty = case
    assert parse_gltype(F, format_gltype(ty)) == ty
