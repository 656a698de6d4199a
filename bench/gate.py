"""Correctness gate: the checks a benchmark run must pass, outside its timing.

* Figure CSVs: a seeded sample of points in every panel, plus every NaN cell,
  is recomputed on the independent truncated-Fock oracle and compared at the
  tolerances `verify` uses for witnesses. A NaN gap must be a gap (a
  DegenerateState or SingularDenominator outcome) on the oracle too.
* Every CSV must be byte-identical across the passes of one run.
* `verify` must give each suite the outcome it has at the seed commit.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, field

from fockwitness import oracle, verify, witnesses
from fockwitness.errors import DegenerateState, SingularDenominator
from fockwitness.states import EngineeringOp, StateSpec

# Rows sampled per sweep panel (all of its series) and points per Husimi grid.
SWEEP_ROWS = 10
HUSIMI_POINTS = 40

# What each reference panel plots, stated here independently of
# sweep_report: the witness of each odd/even figure pair and the order of
# panels a, b, c (d for A3).
_SWEEP_WITNESS = {1: "mandel", 3: "hoa", 5: "hosps", 9: "hos", 11: "agarwal_tara"}
_PANEL_ORDERS = {
    "mandel": (2, 3, 4),
    "hoa": (2, 3, 4),
    "hosps": (2, 3, 4),
    "hos": (2, 4, 6),
    "agarwal_tara": (0, 0, 0, 0),
}
# Husimi panel letter -> (operation, parameter): fig7 thermal, fig8 even cat
_HUSIMI_PANELS = {
    "a": (EngineeringOp.pas(2, 4), 2.0),
    "b": (EngineeringOp.psa(2, 4), 2.0),
    "c": (EngineeringOp.pas(4, 2), 4.0),
    "d": (EngineeringOp.psa(4, 2), 4.0),
    "e": (EngineeringOp.bare(), 2.0),
}

# Series labels hold commas, e.g. "param,PAS(1,1),PSA(1,1),bare"
_LABEL = re.compile(r"bare|P(AS|SA)\((\d+),(\d+)\)")
_FILE = re.compile(r"fig(\d+)_([a-e])\.csv")
_SUITE_LINE = re.compile(r"(PASS|FAIL) (\w+): (\d+) checks")

_GAPS = (DegenerateState, SingularDenominator)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def csv_digests(directory: str) -> dict[str, str]:
    """SHA-256 of every CSV a pass wrote, by file name."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def count_cells(directory: str) -> int:
    """CSV value cells (every cell below the header) in a pass directory."""
    cells = 0
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as fh:
            header = fh.readline()
            width = len(_LABEL.findall(header)) + 1 if header.startswith("param") else 3
            cells += width * sum(1 for _ in fh)
    return cells


def suite_outcomes(verify_stdout: str) -> dict[str, tuple[bool, int]]:
    """(passed, checks) per suite from the lines `verify` prints."""
    return {
        m.group(2): (m.group(1) == "PASS", int(m.group(3)))
        for m in _SUITE_LINE.finditer(verify_stdout)
    }


def check_suites(tally: Tally, verify_stdout: str, expected: dict[str, bool]) -> None:
    outcomes = suite_outcomes(verify_stdout)
    for suite, passed in expected.items():
        got = outcomes.get(suite, (None, 0))[0]
        tally.check(got == passed, f"verify suite {suite}: passed={got}, expected {passed}")


def _agrees(value: float, reference: float) -> bool:
    """The witness comparison of `verify --suite witnesses`."""
    dev = abs(value - reference)
    if abs(reference) >= 1.0:
        return dev / abs(reference) <= verify.WITNESS_REL_TOL
    return dev <= max(verify.WITNESS_ABS_TOL, verify.WITNESS_REL_TOL * abs(reference))


def _parse_op(label: str) -> EngineeringOp:
    if label == "bare":
        return EngineeringOp.bare()
    m = _LABEL.fullmatch(label)
    p, q = int(m.group(2)), int(m.group(3))
    return EngineeringOp.pas(p, q) if m.group(1) == "AS" else EngineeringOp.psa(p, q)


def _spec(figure: int, op: EngineeringOp, value: float) -> StateSpec:
    if figure % 2:
        return StateSpec.thermal(value, op)
    return StateSpec.even_coherent(value, op)


def _oracle_witness(spec: StateSpec, witness: str, order: int) -> float:
    try:
        result = witnesses.evaluate_witness(
            spec, witness, order=order, engine="oracle", tail_tol=verify.ORACLE_TAIL_TOL
        )
    except _GAPS:
        return math.nan
    return result.value


def _check_sweep(tally: Tally, path: str, figure: int, letter: str, rng) -> None:
    witness = _SWEEP_WITNESS[figure if figure % 2 else figure - 1]
    order = _PANEL_ORDERS[witness]["abcd".index(letter)]
    with open(path) as fh:
        labels = [m.group(0) for m in _LABEL.finditer(fh.readline())]
        rows = [[float(v) for v in line.split(",")] for line in fh]
    sampled = set(rng.sample(range(len(rows)), min(SWEEP_ROWS, len(rows))))
    for i, row in enumerate(rows):
        for label, value in zip(labels, row[1:]):
            if i not in sampled and not math.isnan(value):
                continue
            reference = _oracle_witness(_spec(figure, _parse_op(label), row[0]), witness, order)
            where = f"{os.path.basename(path)} {label} at {row[0]!r}"
            if math.isnan(value) or math.isnan(reference):
                tally.check(
                    math.isnan(value) and math.isnan(reference),
                    f"{where}: NaN gap on one engine only ({value!r} vs oracle {reference!r})",
                )
            else:
                tally.check(_agrees(value, reference), f"{where}: {value!r} vs oracle {reference!r}")


def _check_husimi(tally: Tally, path: str, figure: int, letter: str, rng) -> None:
    op, value = _HUSIMI_PANELS[letter]
    with open(path) as fh:
        fh.readline()
        rows = [[float(v) for v in line.split(",")] for line in fh]
    corner = max(max(abs(r[0]), abs(r[1])) for r in rows)
    # the basis husimi_grid(engine="oracle") builds for this window
    state = oracle.build_truncated(
        _spec(figure, op, value), verify.ORACLE_TAIL_TOL, min_cutoff=int(8 * corner ** 2) + 8
    )
    for re_, im, q in rng.sample(rows, min(HUSIMI_POINTS, len(rows))):
        reference = oracle.oracle_husimi(state, complex(re_, im))
        tally.check(
            _agrees(q, reference),
            f"{os.path.basename(path)} Q({re_!r}{im:+}j) = {q!r} vs oracle {reference!r}",
        )


def cross_check_figures(tally: Tally, directory: str, rng) -> None:
    """Recompute a seeded sample of every panel in `directory` on the oracle."""
    for name in sorted(os.listdir(directory)):
        m = _FILE.fullmatch(name)
        if m is None:
            tally.check(False, f"unexpected output file {name}")
            continue
        figure, letter = int(m.group(1)), m.group(2)
        check = _check_husimi if figure in (7, 8) else _check_sweep
        check(tally, os.path.join(directory, name), figure, letter, rng)
