"""The Harbater ring: integer Laurent series converging beyond radius r.

Membership is decided with exact certificates (roots of small
denominators, or a classical bound), evaluation at |x| <= r is an exact
ring map, its kernel is generated by one primitive integer polynomial,
and kernel elements divide exactly by the generator.
"""

from fractions import Fraction

from curvecoh import (
    RationalFn,
    divide_exact,
    evaluate,
    kernel_generator,
    local_completion,
    membership,
    parse_gaussian,
    radius_lower_bound,
)
from curvecoh.harbater import CertifiedSeries

r = Fraction(1, 2)

print(f"membership in Z((T))_>r at r = {r}:")
for label, e in [
    ("1/(1-T)", RationalFn([1], [1, -1])),
    ("1/(1-2T)", RationalFn([1], [1, -2])),
    ("1/(1+4T^2)", RationalFn([1], [1, 0, 4])),
    ("T^3 - 7", RationalFn([-7, 0, 0, 1])),
]:
    verdict = membership(e, r)
    print(f"  {label:12s} {verdict.status:11s} ({radius_lower_bound(e)})")

print()
geom = RationalFn([1], [1, -1])
print(f"evaluate 1/(1-T) at 1/3    -> {evaluate(geom, Fraction(1, 3), r)}")
print(f"evaluate T^2+T at i/2      -> {evaluate(RationalFn([0, 1, 1]), parse_gaussian('i/2'), r)}")

cs = CertifiedSeries([1] * 8, 0, C=1, s=1)  # geometric series known to 8 terms
print(f"interval for a certified tail: {evaluate(cs, Fraction(1, 3), r)}")

print()
print("principal kernels of evaluation:")
for x in (Fraction(1, 3), parse_gaussian("i/2"), Fraction(1)):
    g = kernel_generator(x)
    from curvecoh.harbater import poly_str

    print(f"  kernel at {str(x):5s}: ({poly_str(g)})")

print()
print("division by the generator witnesses principality:")
f = geom - evaluate(geom, Fraction(1, 3), r)  # a kernel element at x = 1/3
q = divide_exact(f, kernel_generator(Fraction(1, 3)), r)
print(f"  (1/(1-T) - 3/2) / (3T - 1) = {q}")
print(f"  quotient radius: {radius_lower_bound(q)}, integer coefficients: {q.is_integral}")

print()
print("local completion at x = 1/3 (xi = 3T - 1):")
lc = local_completion(Fraction(1, 3), r, 8)
print(f"  1/(1-T) = {lc.expand(geom)}")
