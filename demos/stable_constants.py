"""Top-degree structure constants do not depend on the matrix size; compute
them once, compare with the closed-form two-reflection table, and watch the
normal form that explains why."""

import random

import numpy as np

from glq.classcalc import (normalize_triple, stable_product, verify_stability)
from glq.field import field_make
from glq.gltype import (min_rank, modified_type_of, parse_gltype)
from glq import matfq
from glq.stablecenter import predict_reflection_product, sweep_two_reflections

F3 = field_make(3)
T = lambda s: parse_gltype(F3, s)

print("stability: the coefficient of K_[1,1@t-1] in K_[1@t-1]² is the same")
print("at every matrix size where it makes sense:")
rep = verify_stability(T("1@t-1"), T("1@t-1"), T("1,1@t-1"))
for n, a in rep.values:
    print(f"  n = {n}: coefficient {a}")
assert rep.passed

print("\nthe full top-degree product of two distinct reflections:")
exp = stable_product(T("1@t-1"), T("1@t-2"))
for nu, a in exp.items_sorted():
    print(f"  {a:3} · K_[{nu}]")

print("\neach value matches the closed-form table:")
for nu, a in exp.items_sorted():
    pred = predict_reflection_product(F3, 1, 2, nu)
    print(f"  K_[{nu}]: computed {a}, table {pred.value} ({pred.status})")
    assert a == pred.value

print("\nsweeping every (ξ, η, target) over F_3:")
reports = sweep_two_reflections(F3)
agree = sum(r.match for r in reports)
print(f"  {agree} of {len(reports)} cases agree with the table")
assert agree == len(reports)

print("\nthe mechanism: any length-additive pair is conjugate to a pair of")
print("matrices supported on a common top-left corner —")
rng = random.Random(5)
two = np.array([[2]], dtype=np.uint8)  # the 1×1 block diag(2)
g = matfq.block_diag([two, matfq.identity(3)])
h = matfq.block_diag([matfq.identity(1), two, matfq.identity(2)])
form = normalize_triple(F3, g, h, rng=rng)
k = form.gbar.shape[0]
print(f"  corner size {k} = minimal size for the product type "
      f"{modified_type_of(F3, matfq.mat_mul(F3, g, h))}")
print(f"  corner factors have types {modified_type_of(F3, form.gbar)} and "
      f"{modified_type_of(F3, form.hbar)}")
assert k == min_rank(modified_type_of(F3, matfq.mat_mul(F3, g, h)))
