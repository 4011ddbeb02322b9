"""Sparse-spectrum sampling: eliciting bidder valuations with few queries.

Auction bidders valuing bundles of 20 goods are modeled as set functions
that are sparse in the model-4 spectrum.  If the support {B_1..B_k} is
known, querying the complements N \\ B_i gives a unit-triangular system and
forward substitution recovers every coefficient exactly: k queries for a
k-sparse function over 2**20 bundles.

When the support is only known approximately (learned from training
bidders), reconstruction degrades gracefully: the error is governed by the
spectral mass the support misses.
"""

import numpy as np

from setsp import GroundSet
from setsp.sampling import (
    oracle_from_sparse_spectrum,
    reconstruct,
    sampling_indices,
    select_support,
    synthetic_sparse_spectrum,
)
from setsp.experiments import sampling_experiment

g = GroundSet(20)

# exact case: the support is known
bidder = synthetic_sparse_spectrum(g, 150, seed=12)
oracle = oracle_from_sparse_spectrum(bidder)
recovered = reconstruct(oracle, bidder.support)
print(f"known support: {oracle.queries} queries for {len(bidder.support)} coefficients, "
      f"max error {np.abs(recovered.coeffs - bidder.coeffs).max():.2e}")

queries = sampling_indices(bidder.support)
print("first query bundles (complements of the support):",
      [g.label(int(q)) for q in queries[:3]])

# learned support: train on 25 bidders, test on 25 fresh ones
report = sampling_experiment(seed=12)
print(f"\nlearned support of size {report.queries_per_bidder}:")
print(f"  mean reconstruction error over test bidders: {report.mean_recon_error:.2e}")
print(f"  captured-mass (truncation) bound:            {report.mean_mass_bound:.2e}")
print(f"  degree-2 polynomial fit on the same queries: {report.mean_poly2_error:.2e}")
print(f"  spectral l2 mass captured by the support:    {report.captured_mass.mean():.6f}")

# selection is deterministic: rank by mean |coefficient| across training
support = select_support([synthetic_sparse_spectrum(g, 40, seed=s) for s in range(3)], 30)
print("\nexample selected support cardinalities:", np.bitwise_count(support.freqs).tolist())
