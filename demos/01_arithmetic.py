"""
Exact split-octonion arithmetic over a small prime field
=========================================================

The algebra lives on pairs of 2x2 matrices over F_p: coordinates 0-3 are
the matrix part (E11, E12, E21, E22), coordinates 4-7 the same units on
the doubled half.  Everything below is exact integer arithmetic mod p.
"""

import numpy as np

from splitoct import (algebra, census_columns, double, field_table, label_counts,
                      quaternion_table)

ctx = algebra(3)

# elements are coordinate tuples; the algebra does the arithmetic.  Named
# elements: the identity, the doubling unit w with w*w = 1, and the four
# matrix units of the 2x2 part
print("1  =", ctx.unit)
print("w  =", ctx.w)
print("w*w =", ctx.mul(ctx.w, ctx.w))
print("E12 * E21 =", ctx.mul(ctx.n0, ctx.nbar0))
print("E21 * E12 =", ctx.mul(ctx.nbar0, ctx.n0))

# the norm is multiplicative and the involution reverses products
x = (1, 2, 0, 1, 0, 1, 2, 0)
y = (0, 1, 1, 1, 2, 0, 0, 1)
xy = ctx.mul(x, y)
print("\nN(x) =", ctx.norm(x), " N(y) =", ctx.norm(y), " N(xy) =", ctx.norm(xy))
print("k(xy) == k(y)k(x):", ctx.conj(xy) == ctx.mul(ctx.conj(y), ctx.conj(x)))

# every element satisfies its degree-2 equation  x^2 - tr(x) x + N(x) = 0
lhs = ctx.subv(ctx.mul(x, x), ctx.smul(ctx.trace(x), x))
print("x^2 - tr(x)x = -N(x)*1:", lhs == ctx.smul(-ctx.norm(x), ctx.unit))

# the doubling construction: doubling the split quaternions with mu = -1
# reproduces the split octonions on the nose
doubled = double(quaternion_table(3), -1)
print("\ndouble(quaternions, -1) == octonions:",
      np.array_equal(doubled.struct, ctx.struct))

# over an odd prime, doubling the base field twice already gives the
# (associative) split quaternions; a third doubling loses associativity.
# Any invertible scalars work, non-squares included: the result is the
# same algebra in other coordinates, with the norm N(a, x) = N(a) + mu N(x)
chain = field_table(3)
for step, mu in enumerate((2, 1, 2)):
    chain = double(chain, mu)
    print(f"after {step + 1} doublings (mu = {mu}): dim {chain.dim}, "
          f"unit {chain.unit}")

# so its census of lines and planes has the canonical per-label counts
for table in (ctx, chain):
    counts = label_counts(census_columns(table, [1, 2]))
    print(sorted((label, n) for (_dim, label), n in counts.items()))
