"""The benchmark's workloads: the CLI calls that make up one pass of each.

A unit is the argv of one `fockwitness.cli.main` call. Figure units get
`--out <pass directory>` appended when they run. The tiny units run the
same commands at a size small enough for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[tuple[str, ...], ...]
    tiny_units: tuple[tuple[str, ...], ...]
    # exit code every unit must return
    expected_exit: int
    # figure workloads write CSVs; verify_all writes none
    writes_csv: bool


def _figures(ids, *size_flags):
    return tuple(("figure", fid) + size_flags for fid in ids)


THERMAL_FIGURES = ("fig1", "fig3", "fig5", "fig9", "fig11")
CAT_FIGURES = ("fig2", "fig4", "fig6", "fig10", "fig12")
HUSIMI_FIGURES = ("fig7", "fig8")

# Suite outcomes at the seed commit. `signs` asserts the reference claim that
# A3 of PSA(2,1) thermal states is never negative, which the code shows false
# below rbar ~ 1.2, so it fails by design and `verify` exits 1.
EXPECTED_SUITES = {
    "moments": True,
    "witnesses": True,
    "normalization": True,
    "hos": True,
    "signs": False,
    "hosps_gate": True,
    "coherent": True,
    "fixtures": True,
    "determinism": True,
}

_TINY_SUITES = ("witnesses", "signs", "coherent", "fixtures")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thermal_sweeps",
            _figures(THERMAL_FIGURES),
            _figures(THERMAL_FIGURES, "--steps", "5"),
            expected_exit=0,
            writes_csv=True,
        ),
        Workload(
            "cat_sweeps",
            _figures(CAT_FIGURES),
            _figures(CAT_FIGURES, "--steps", "5"),
            expected_exit=0,
            writes_csv=True,
        ),
        Workload(
            "husimi_grids",
            _figures(HUSIMI_FIGURES),
            _figures(HUSIMI_FIGURES, "--grid-steps", "5"),
            expected_exit=0,
            writes_csv=True,
        ),
        Workload(
            "verify_all",
            (("verify",),),
            (("verify",) + tuple(f for s in _TINY_SUITES for f in ("--suite", s)),),
            expected_exit=1,
            writes_csv=False,
        ),
    )
}
