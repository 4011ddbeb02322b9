"""Shifts, convolution, and low-pass filtering on set functions.

Each model has n elementary shifts (one per ground-set element); filters are
sparse linear combinations of X-fold shifts.  The moving-average filter
h = {} + {x1} + ... + {xn} attenuates high frequencies: its response is
1 + |N \\ B|, largest at B = {} and smallest at B = N.
"""

import numpy as np

from setsp import Filter, GroundSet, SetFunction, convolve, dsft, frequency_response, shift

g = GroundSet(4)
rng = np.random.default_rng(1)
s = SetFunction(g, rng.standard_normal(16))

print("elementary shift by x1 under each model (same input):")
for model in (1, 2, 3, 4, 5):
    print(f"  model {model}: {np.array2string(shift(model, 1, s).values, precision=2)}")

h = Filter.moving_average(g)
print(f"\nmoving-average filter taps: {h.taps.masks.tolist()} (empty set and singletons)")

fr = frequency_response(1, h)
cards = np.bitwise_count(np.arange(16))
print("frequency response vs 1 + |N \\ B|:", np.array_equal(fr, 1 + (4 - cards)))
print("  response by |B|:", {int(k): float(fr[cards == k][0]) for k in range(5)})

# the response grows toward low frequencies (5 at B={}, 1 at B=N), so after
# filtering the high-frequency share of the spectral energy shrinks
smoothed = convolve(1, h, s)
before = dsft(1, s).coeffs
after = dsft(1, smoothed).coeffs
hi = cards >= 3
share = lambda c: float((c[hi] ** 2).sum() / (c**2).sum())
print(f"\nhigh-frequency energy share: {share(before):.3f} before, {share(after):.3f} after")

# the convolution theorem: transform of the convolution = response x transform
lhs = dsft(1, convolve(1, h, s, path="direct")).coeffs
rhs = fr * dsft(1, s).coeffs
print("convolution theorem holds:", np.abs(lhs - rhs).max() < 1e-9)

# direct and spectral evaluation agree for every model
for model in (1, 2, 3, 4, 5):
    d = convolve(model, h, s, path="direct").values
    f = convolve(model, h, s, path="spectral").values
    print(f"model {model}: direct vs spectral max diff = {np.abs(d - f).max():.2e}")
