#!/usr/bin/env python3
# ------------------------------------------------------------------
# Scanning nonclassicality witnesses
#
# A witness is a scalar built from moments whose negative values have no
# classical explanation. This script scans the order-2 Mandel function
# and higher-order antibunching across the thermal mean photon number
# and shows where the subtract-then-add state dips below zero while the
# add-then-subtract one never does.
# ------------------------------------------------------------------

from fockwitness.states import FAMILY_THERMAL, EngineeringOp
from fockwitness.sweep_report import sweep, sweep_table_csv

variants = [EngineeringOp.pas(1, 1), EngineeringOp.psa(1, 1)]

mandel = sweep(
    "mandel", 2, variants, FAMILY_THERMAL,
    param_min=0.05, param_max=3.0, steps=13,
)

print("order-2 Mandel function vs thermal mean photon number")
print(f"{'rbar':>6}  {'PAS(1,1)':>12}  {'PSA(1,1)':>12}")
for i, value in enumerate(mandel.parameter_values):
    pas = mandel.series["PAS(1,1)"][i]
    psa = mandel.series["PSA(1,1)"][i]
    marker = "  <-- nonclassical" if psa < 0 else ""
    print(f"{value:6.2f}  {pas:12.6f}  {psa:12.6f}{marker}")

print("\nthe PSA curve starts near -1 (the state is almost the one-photon")
print("Fock state for small rbar) and crosses zero; the PAS curve never dips.")

# the same scan through the brute-force engine, as a regression check
paired = sweep(
    "hoa", 2, [EngineeringOp.psa(1, 1)], FAMILY_THERMAL,
    param_min=0.1, param_max=2.0, steps=5,
    engine="both",
)
print("\nantibunching scan, closed form vs truncated basis:")
print(sweep_table_csv(paired))
print("max relative deviation:", paired.metadata["max_deviation"]["PSA(1,1)"])
