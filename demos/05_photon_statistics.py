#!/usr/bin/env python3
# ------------------------------------------------------------------
# Photon-number statistics and the three-probability indicator
#
# The photon-number distribution p_m carries its own nonclassicality
# signal: Klyshko's B(m) = (m+2) p_m p_{m+2} - (m+1) p_{m+1}^2 goes
# negative whenever three consecutive probabilities are "too convex"
# for any classical mixture of coherent states.
# ------------------------------------------------------------------

import numpy as np

from fockwitness.states import EngineeringOp, StateSpec, photon_prob
from fockwitness.witnesses import klyshko

# a geometric distribution keeps B(m) = x^(2m+2)/(1+rbar)^2 > 0: the bare
# thermal state never triggers this indicator
bare = StateSpec.thermal(1.0)
print("bare thermal, rbar = 1:")
print("  m:   p_m        B(m)")
for m in range(6):
    print(f"  {m}:   {photon_prob(bare, m):.6f}   {klyshko(bare, m):+.8f}")

# engineering punches holes in the distribution; around a hole the
# convexity test fails and B(m) dips below zero
engineered = StateSpec.even_coherent(1.6, EngineeringOp.psa(2, 1))
print("\nsubtract 2 then add 1 on an even cat (alpha = 1.6):")
print("  m:   p_m        B(m)")
for m in range(8):
    flag = "  <-- nonclassical" if klyshko(engineered, m) < -1e-12 else ""
    print(f"  {m}:   {photon_prob(engineered, m):.6f}   {klyshko(engineered, m):+.8f}{flag}")

print("\nthe net one-photon loss flips the cat's support from even to odd")
print("levels, so every even-m triple has empty outer probabilities around")
print("a filled middle one: maximal convexity violation, B(m) < 0.")

# the distribution itself stays normalized whatever the engineering does;
# one call over an array of photon numbers gives p_0 .. p_79 at once, each
# element equal to the single-m call's value
probs = photon_prob(engineered, np.arange(80))
assert probs.tolist() == [photon_prob(engineered, m) for m in range(80)]
print("\nsum over p_m for the engineered cat:", sum(probs.tolist()))
