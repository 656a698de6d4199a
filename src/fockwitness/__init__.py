"""Nonclassicality witnesses for photon-engineered thermal and even coherent states.

The package has three layers:

* `states` holds the closed-form moments, photon-number probabilities, and
  Husimi Q values of add-then-subtract / subtract-then-add engineered
  thermal and even coherent states, on top of `specfun.normal_order`, the
  one exact normal-ordering kernel, which `witnesses` expands (a'a)^r
  with too; (a + a')^l has a closed form that the tests hold to it.
* `oracle` rebuilds every state numerically in a truncated Fock basis and
  recomputes every quantity from first principles; `verify` pits the two
  against each other.
* `witnesses` evaluates seven nonclassicality criteria from the moments,
  and `sweep_report` scans them over parameter grids and emits CSV packs.
"""

from .errors import (
    CutoffExceeded,
    DegenerateState,
    EmptyWindow,
    FockwitnessError,
    NonConvergent,
    OddOrder,
    OutOfRange,
    PoleInDenominatorParams,
    SingularDenominator,
    ZeroMeanPhoton,
)
from .states import EngineeringOp, MomentTable, StateSpec
from .witnesses import ScanGrid, WitnessResult, evaluate_witness

__version__ = "0.1.0"

__all__ = [
    "CutoffExceeded",
    "DegenerateState",
    "EmptyWindow",
    "EngineeringOp",
    "FockwitnessError",
    "MomentTable",
    "NonConvergent",
    "OddOrder",
    "OutOfRange",
    "PoleInDenominatorParams",
    "ScanGrid",
    "SingularDenominator",
    "StateSpec",
    "WitnessResult",
    "ZeroMeanPhoton",
    "evaluate_witness",
    "__version__",
]
