#!/usr/bin/env python3
# ------------------------------------------------------------------
# Husimi Q zeros as a nonclassicality witness
#
# Q(beta) = <beta| sigma |beta> / pi is non-negative everywhere, so it
# cannot go below zero like the moment witnesses; instead its ZEROS are
# the signal. A Gaussian state has none; photon engineering punches
# exact zeros into the distribution.
# ------------------------------------------------------------------

from fockwitness.states import EngineeringOp, StateSpec, husimi
from fockwitness.witnesses import ScanGrid, husimi_zero_scan

bare = StateSpec.thermal(1.0)
net_adder = StateSpec.thermal(2.0, EngineeringOp.psa(2, 4))
cat_engineered = StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4))

print("Q at the origin:")
print("  bare thermal          :", husimi(bare, 0j), "(= 1/(2 pi))")
print("  subtract 2 then add 4 :", husimi(net_adder, 0j), "(exact zero: |beta|^(2q) prefactor)")

grid = ScanGrid(-3.0, 3.0, -3.0, 3.0, steps=61)

for spec, label in ((bare, "bare thermal"), (net_adder, "PSA(2,4) thermal"),
                    (cat_engineered, "PAS(2,4) even cat")):
    zeros = husimi_zero_scan(spec, grid)
    print(f"\n{label}: {len(zeros)} grid points below 1e-6 of the grid maximum")
    for beta in zeros[:5]:
        print("   beta =", beta)
    if len(zeros) > 5:
        print("   ...")

print("\nthe engineered cat grows a whole curve of zeros; the bare Gaussian has none.")

# coarse ASCII rendering of Q for the engineered cat (rows: Im beta)
steps = 31
print("\nQ contour sketch for PAS(2,4) on the even cat (darker = larger Q):")
shades = " .:-=+*#%@"
values = []
for i in range(steps):
    row = []
    for j in range(steps):
        beta = complex(-3 + 6 * j / (steps - 1), -3 + 6 * i / (steps - 1))
        row.append(husimi(cat_engineered, beta))
    values.append(row)
peak = max(max(row) for row in values)
for row in values:
    print("   " + "".join(shades[int(9.999 * v / peak)] for v in row))
