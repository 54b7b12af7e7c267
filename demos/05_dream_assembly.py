"""End to end: a curve assembled from evaluation data on the Harbater ring.

Pick a point x with |x| <= r. Completing the Harbater ring at x gives
A = Q(i)[[xi]] mod xi^M with xi the kernel generator; the two-periodic
presentation over A runs through the degree-zero pipeline and yields the
filtered Laurent field at infinity with t^-1 = beta*v. Gluing the
twistor algebra (or C[t]) against that formal disc reproduces, exactly,
the cohomology computed directly from the affine presentations.
"""

from fractions import Fraction

from curvecoh import (
    compute,
    curve_from_parts,
    local_completion,
    p1_formal_embedding,
    p1_presentation,
    parse_gaussian,
    tate_degree_zero,
    twistor_formal_embedding,
    twistor_presentation,
)
from curvecoh.harbater import poly_str

r, M = Fraction(1, 2), 16
tw, p1 = twistor_presentation(), p1_presentation()

for x in (Fraction(1, 3), parse_gaussian("i/2")):
    completion = local_completion(x, r, M)
    model = tate_degree_zero(completion.base_presentation(), M)
    print(f"completion point x = {x}: xi = {poly_str(completion.g)}, t^-1 = beta*v")
    for label, pres, embed in (
        ("twistor", tw, twistor_formal_embedding(model)),
        ("p1", p1, p1_formal_embedding(model)),
    ):
        ns = range(-3, 4)
        agree = all(
            d.dims == a.dims and d.graded == a.graded
            for d, a in zip(
                (compute(pres, n) for n in ns),
                curve_from_parts(pres, model, embed, ns),
                strict=True,
            )
        )
        print(f"  {label:8s} assembled == direct for n in [-3, 3]: {agree}")
    print()

print("the same gluing square, two routes, one answer.")
