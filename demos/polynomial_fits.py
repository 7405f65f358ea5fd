"""Fit stable structure constants as exact polynomials — in q across fields
for a fixed family, and in the q-integer [n] across matrix sizes for a fixed
triple — using rational Newton interpolation with no rounding anywhere."""

from glq.field import field_make
from glq.gltype import parse_gltype
from glq.stablecenter import (FIT_FAMILIES, fit_family_in_q,
                              fit_polynomial_in_n, fit_polynomial_in_q)

print("families of (λ, μ, ν) that make sense over every prime field:")
for name, (description, _) in sorted(FIT_FAMILIES.items()):
    print(f"  {name:24} {description}")

def coeff_text(coeffs):
    return "(" + ", ".join(str(c) for c in coeffs) + ")"


print("\nfitting each family across q = 3, 5, 7:")
for name in sorted(FIT_FAMILIES):
    fit, reports, skipped = fit_family_in_q(name, q_list=(3, 5, 7))
    points = " ".join(f"({q},{v})" for q, v in fit.points)
    print(f"  {name:26} {points}")
    print(f"  {'':26} coefficients {coeff_text(fit.coefficients)}, "
          f"shifted {coeff_text(fit.shifted)}, integer={fit.all_integer}, "
          f"nonnegative shifted={fit.all_nonnegative_shifted}")
    assert fit.all_integer and fit.all_nonnegative_shifted

print("\na hand-rolled fit: points (3,17), (5,49), (7,97) interpolate to")
fit = fit_polynomial_in_q([(3, 17), (5, 49), (7, 97)])
print(f"  coefficients {coeff_text(fit.coefficients)}  →  2q² − 1, "
      f"and the (q−1)-shift {coeff_text(fit.shifted)} is nonnegative")
assert fit.evaluate(11) == 241

print("\nfixing q = 2 and varying the matrix size instead: the count of")
print("transvection pairs multiplying to the identity, against [n]:")
F2 = field_make(2)
T = lambda s: parse_gltype(F2, s)
fit = fit_polynomial_in_n(T("1@t-1"), T("1@t-1"), T(""), n_list=(2, 3, 4))
print(f"  points {fit.points} in the abscissa x = [n] = 2^n - 1")
print(f"  coefficients {coeff_text(fit.coefficients)} — x(x−1)/2, not "
      f"integral in x,")
print(f"  integer-valued at every q-integer ({fit.warning})")
