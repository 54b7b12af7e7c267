"""The exact scalar tower: Q(i) and truncated power series over it.

Everything downstream computes over these; nothing is ever rounded.
"""

from curvecoh import (
    parse_gaussian,
    rational_tps,
    theta,
)

print("Gaussian rationals:")
z = parse_gaussian("1/2+i")
print(f"  z = {z}, conjugate {z.conjugate}, z * conj(z) = {z * z.conjugate}")

print()
print("truncated power series over Q with the evaluation theta (xi -> 0):")
f = rational_tps([1, -1], 6)  # 1 - xi
inv = f.inverse()
print(f"  f      = {f}")
print(f"  1/f    = {inv}")
print(f"  f*(1/f)= {f * inv}")
print(f"  theta(1/f) = {theta(inv)} = 1/theta(f) = {1 / theta(f)}")
