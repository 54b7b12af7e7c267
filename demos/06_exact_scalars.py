"""The exact scalar tower: Q(i), p-adics with tracked precision, series.

Everything downstream computes over these; nothing is ever rounded.
"""

from curvecoh import (
    PAdic,
    parse_gaussian,
    rational_tps,
    theta,
)

print("Gaussian rationals:")
z = parse_gaussian("1/2+i")
print(f"  z = {z}, conjugate {z.conjugate}, z * conj(z) = {z * z.conjugate}")

print()
print("5-adic numbers with capped relative precision:")
one, three = PAdic.from_int(1, 5, 4), PAdic.from_int(3, 5, 4)
q = one / three
print(f"  1/3 = {q}")
print(f"  3 * (1/3) = {three * q}")
x = PAdic.from_int(90, 5, 4)
print(f"  90 = {x}   (valuation {x.v}, unit digits {x.digits()})")
print(f"  90 - 90 = {x - x}   (an inexact zero: cancellation costs digits)")

print()
print("truncated power series over Q with the evaluation theta (xi -> 0):")
f = rational_tps([1, -1], 6)  # 1 - xi
inv = f.inverse()
print(f"  f      = {f}")
print(f"  1/f    = {inv}")
print(f"  f*(1/f)= {f * inv}")
print(f"  theta(1/f) = {theta(inv)} = 1/theta(f) = {1 / theta(f)}")

print()
print("series over the 5-adics work the same way:")
g = rational_tps([1, 1], 4)
padic_g_coeffs = [PAdic.from_int(int(c), 5, 4) for c in (1, 1)]
from curvecoh import TruncatedPowerSeries

pg = TruncatedPowerSeries(padic_g_coeffs, 4)
print(f"  g = {pg}")
print(f"  1/g = {pg.inverse()}")
