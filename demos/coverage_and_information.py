"""What the spectra mean: coverage weights and mutual information.

Any set function can be written as c + w(union of S_i over i in A) for a
Venn diagram of sets S_i with signed weights.  In that picture the model-4
spectrum holds the negated weights of the disjoint Venn fragments and the
model-3 spectrum the negated weights of the intersections.  For the joint
entropy of a Gaussian vector those weights are mutual informations.
"""

import numpy as np

from setsp import (
    GaussianModel,
    GroundSet,
    SetFunction,
    SparseSetFunction,
    coverage_dense,
    coverage_from_setfunction,
    dsft,
    entropy_setfunction,
    fragment_weights_spectrum,
    gaussian_entropy_many,
    intersection_weights,
    mi_check,
    pairwise_mutual_information,
)
from setsp.coverage import CoverageRepresentation

# two sets S1 = {a, b}, S2 = {b, c} with weights w(a)=1, w(b)=2, w(c)=3
g = GroundSet(2)
rep = CoverageRepresentation(0.0, SparseSetFunction(g, [0b01, 0b10, 0b11], [1.0, 3.0, 2.0]))
s = coverage_dense(rep)
print("coverage function:", s.values.tolist(), "(values of {}, {x1}, {x2}, {x1,x2})")
print("model-3 spectrum = -(intersection weights):", dsft(3, s).coeffs.tolist())
print("model-4 spectrum = -(fragment weights):   ", dsft(4, s).coeffs.tolist())
print("predicted:", intersection_weights(rep).coeffs.tolist(),
      fragment_weights_spectrum(rep).coeffs.tolist())

# the converse: every set function is a generalized coverage function
rng = np.random.default_rng(2)
g5 = GroundSet(5)
fn = SetFunction(g5, rng.standard_normal(32))
rep5 = coverage_from_setfunction(fn)
print("\nrandom function re-expressed with", len(rep5.fragments),
      "weighted fragments; reproduction error:",
      float(np.abs(coverage_dense(rep5).values - fn.values).max()))

# Gaussian joint entropy: spectra measure information sharing
K = np.array([
    [1.0, 0.6, 0.2],
    [0.6, 1.0, 0.3],
    [0.2, 0.3, 1.0],
])
model = GaussianModel(K)
ent = entropy_setfunction(model)
s3 = dsft(3, ent)
print("\njoint entropies:", np.array2string(ent.values, precision=3))
for i, j in ((1, 2), (1, 3), (2, 3)):
    mask = (1 << (i - 1)) | (1 << (j - 1))
    print(f"  I(X{i};X{j}) = {pairwise_mutual_information(model, i, j):.4f}"
          f"  vs  -s3 coefficient = {-s3.coeffs[mask]:.4f}")

s4 = dsft(4, ent)
print("s4 at B={} equals the joint entropy of everything:",
      float(s4.coeffs[0]), "=", float(gaussian_entropy_many(model, [0b111])[0]))

report = mi_check(model)
print("identity check:", report)
