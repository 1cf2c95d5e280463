"""
The decomposition engine
========================

Any order-n tensor splits uniquely into embedded deviators: J_s^n parts of
each order s, mutually orthogonal, rotation-equivariant, and summing back
to the input.  For every n the engine is one change of basis, built once
per order by a recursion over the first index whose inner step is the
deviator triple map (combine/split).
"""

import numpy as np

from deviatoric import (
    combine_deviator_triple,
    counts_row,
    decompose,
    from_coords,
    random_rotation,
    reconstruct,
    rotate,
    split_deviator_triple,
    verify,
)

# how many deviators of each order: the counts table
for n in range(7):
    print(f"n={n}: J_s = {' '.join(str(j) for j in counts_row(n))}")

# the degrees of freedom always add up: sum (1+2s) J_s^n = 3^n
n = 6
dof = sum((1 + 2 * s) * j for s, j in enumerate(counts_row(n)))
print(f"sum (1+2s) J_s^{n} = {dof} = 3^{n} = {3**n}")

# decompose a random order-4 tensor: 19 parts, s = 0..4
rng = np.random.default_rng(1)
t = rng.standard_normal((3, 3, 3, 3))
d = decompose(t)
print("parts per order:", d.counts())

# the embedded parts sum back to the input ...
residual = np.linalg.norm((reconstruct(d) - t).ravel()) / np.linalg.norm(t.ravel())
print("reconstruction relative residual:", residual)

# ... and are mutually orthogonal
report = verify(d, t)
print("max cross correlation:", report.max_cross_correlation)
print("verify passes at 1e-10:", report.passes(1e-10))

# rotation equivariance: decomposing the rotated tensor rotates each part
r = random_rotation(rng)
d_rot = decompose(rotate(t, r))
worst = max(
    np.linalg.norm((q.embedded - rotate(p.embedded, r)).ravel())
    for p, q in zip(d.parts, d_rot.parts)
)
print("equivariance worst part residual:", worst)

# the engine's inner step: three deviators of orders (n-1, n, n+1) pack
# into one order-n tensor block and unpack exactly
lo = from_coords(rng.standard_normal(5), 2)
mid = from_coords(rng.standard_normal(7), 3)
hi = from_coords(rng.standard_normal(9), 4)
g = combine_deviator_triple(lo, mid, hi)
lo2, mid2, hi2 = split_deviator_triple(g)
print(
    "triple map round-trip:",
    np.linalg.norm((lo2 - lo).ravel())
    + np.linalg.norm((mid2 - mid).ravel())
    + np.linalg.norm((hi2 - hi).ravel()),
)
