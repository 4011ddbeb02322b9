"""Compressing an expensive set-function oracle to a low-frequency band.

The joint entropy of n correlated Gaussian sensors costs a Cholesky
factorization per query.  Dropping every model-4 frequency above |B| = 2
leaves 1 + n + C(n,2) coefficients, each computable from at most 4 queries
near the top of the lattice (s_N, s_N minus one sensor, minus two); the
whole band shares them, so it needs exactly 1 + n + C(n,2) distinct queries.
After that every approximate value costs an O(n^2) masked sum.

The baseline estimates the same-order WHT band by least squares on p random
samples.  Both approximations live in the same degree-2 function space: the
regression approaches the best fit in that space as p grows, while the
band coefficients are the true spectrum truncated, which is not the in-space
optimum.  The trade is queries (211 vs 1000 here) and having exact low-order
coefficients with interpretable values (conditional mutual informations)
rather than a statistical fit.
"""

from functools import partial

import numpy as np

from setsp.compression import compress_band, estimate_relative_errors, wht_regression
from setsp.core import SparseSetFunction
from setsp.coverage import GaussianModel, gaussian_entropy_many
from setsp.experiments import entropy_oracle, random_rbf_covariance
from setsp.sampling import eval_sparse_many

n = 16
K = random_rbf_covariance(n, seed=6)
model = GaussianModel(K)

oracle = entropy_oracle(model)
band = compress_band(oracle, 2)
print(f"model-4 band |B|<=2: {len(band.support)} coefficients from {oracle.queries} oracle queries")

rng = np.random.default_rng(6)
sample_masks = rng.choice(1 << n, size=1000, replace=False)
samples = SparseSetFunction(model.ground, sample_masks, oracle.query_many(sample_masks))
wht = wht_regression(samples, band.support)

# one pass of oracle queries at the probes scores both approximations
probes = 50_000
band_err, wht_err = estimate_relative_errors(
    oracle, [partial(eval_sparse_many, band), partial(eval_sparse_many, wht)], probes, seed=6)
print(f"band approximation relative error ({probes} probes): {band_err:.5f}")
print(f"WHT regression relative error (p={len(samples)} samples): {wht_err:.5f}")

# the band coefficients are interpretable: singleton frequencies hold
# conditional entropy differences, pairs hold conditional interactions
freqs = band.support.freqs
single = freqs[np.bitwise_count(freqs) == 1]
print("\nsingleton coefficients (entropy lost by removing one sensor):")
for B in single[:4]:
    i = int(B).bit_length()
    print(f"  B={{x{i}}}: {band.coeffs[freqs == B][0]:+.4f}")

full = model.ground.full_mask
print("\nempty-frequency coefficient vs H(everything):",
      float(band.coeffs[0]), "=", gaussian_entropy_many(model, [full])[0])
