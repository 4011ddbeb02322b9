"""Tour of the five powerset transforms.

A set function assigns a value to every subset of a ground set {x1..xn}; we
store it as a vector of length 2**n indexed by bit masks (bit i-1 <-> x_i).
Each signal model has its own Fourier transform, the n-fold Kronecker power
of a 2x2 kernel, computed fast with n * 2**(n-1) additions.
"""

import numpy as np

from setsp import (
    GroundSet,
    SetFunction,
    dsft,
    dsft_inplace,
    dsft_matrix,
    fourier_basis_vector,
    idsft,
    kernel,
)

g = GroundSet(3)
rng = np.random.default_rng(0)
s = SetFunction(g, rng.integers(0, 10, size=8).astype(float))

print("signal values by subset:")
for mask in range(8):
    print(f"  {g.label(mask):12s} -> {s(mask):g}")

print("\n2x2 kernels (forward):")
for model in (1, 2, 3, 4, 5):
    print(f"  model {model}: {kernel(model).tolist()}")

print("\nspectra of the same signal under all five models:")
for model in (1, 2, 3, 4, 5):
    spec = dsft(model, s)
    print(f"  model {model}: {np.array2string(spec.coeffs, precision=3)}")

print("\nround trips (max abs error):")
for model in (1, 2, 3, 4, 5):
    back = idsft(model, dsft(model, s))
    print(f"  model {model}: {np.abs(back.values - s.values).max():.2e}")

# model 3 is its own inverse
twice = dsft(3, SetFunction(g, dsft(3, s).coeffs))
print("\nmodel 3 applied twice returns the signal:", np.array_equal(twice.coeffs, s.values))

# the fast path runs in n stages of butterflies; the counter reports the adds
n = 16
values = rng.standard_normal(1 << n)
adds = dsft_inplace(values, 1)
print(f"\nmodel-1 transform at n={n}: {adds} additions (= n * 2**(n-1) = {n * (1 << (n - 1))})")

# fast output equals the dense closed-form matrix product
M = dsft_matrix(4, "forward", 3)
print("fast == matrix oracle:", np.allclose(dsft(4, s).coeffs, M @ s.values))

# Fourier basis vectors come from closed forms, no matrix materialized
f_empty = fourier_basis_vector(3, g, 0)
print("model-3 basis vector at B={} is constant one:", f_empty.values.tolist())
