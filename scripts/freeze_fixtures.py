#!/usr/bin/env python3
"""Regenerate the frozen oracle fixture file.

Each value passes the doubled-cutoff stability gate before it is written;
rerunning this script reproduces src/fockwitness/data/fixtures.txt within
the fixture tolerance (verify.WITNESS_REL_TOL, the bound `verify --suite
fixtures` checks each record at); the last digits of a record can move
with the numpy build.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fockwitness import oracle
from fockwitness.oracle import (
    oracle_husimi,
    oracle_moment,
    oracle_photon_prob,
    stable_oracle_value,
)
from fockwitness.states import EngineeringOp, StateSpec
from fockwitness.verify import _oracle_hosps_direct as hosps_direct

# (spec, quantity, evaluate): evaluate(state) reads the quantity from a
# TruncatedState of the spec
PLAN = [
    (StateSpec.even_coherent(1.0, EngineeringOp.pas(1, 1)),
     "moment(1,1)", lambda st: oracle_moment(st, 1, 1).real),
    (StateSpec.even_coherent(1.0),
     "moment(2,0)", lambda st: oracle_moment(st, 2, 0).real),
    (StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4)),
     "moment(1,1)", lambda st: oracle_moment(st, 1, 1).real),
    (StateSpec.thermal(1.0, EngineeringOp.pas(2, 1)),
     "photon_prob(0)", lambda st: oracle_photon_prob(st, 0)),
    (StateSpec.thermal(2.0, EngineeringOp.psa(2, 1)),
     "photon_prob(3)", lambda st: oracle_photon_prob(st, 3)),
    (StateSpec.even_coherent(2.0, EngineeringOp.psa(1, 2)),
     "husimi((1+0.5j))", lambda st: oracle_husimi(st, 1 + 0.5j)),
    (StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4)),
     "husimi((1+0j))", lambda st: oracle_husimi(st, 1 + 0j)),
    # hosps_direct takes a list of states and gives one row per order
    (StateSpec.thermal(1.0, EngineeringOp.psa(1, 1)),
     "hosps(2)", lambda st: hosps_direct([st], (2,))[0, 0]),
    (StateSpec.thermal(0.5, EngineeringOp.pas(1, 2)),
     "hosps(3)", lambda st: hosps_direct([st], (3,))[0, 0]),
]


def main() -> None:
    records = [
        stable_oracle_value(evaluate, spec, quantity)
        for spec, quantity, evaluate in PLAN
    ]
    text = oracle.format_fixtures(records, header=f"frozen oracle values; tail_tol={oracle.DEFAULT_TAIL_TOL}")
    out = os.path.join(os.path.dirname(__file__), "..", "src", "fockwitness", "data", "fixtures.txt")
    with open(out, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {len(records)} records to {os.path.normpath(out)}")


if __name__ == "__main__":
    main()
