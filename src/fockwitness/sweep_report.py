"""Parameter sweeps, figure-reproduction packs, and CSV emission.

A sweep scans one witness across a parameter grid (mean photon number for
thermal states, amplitude for even coherent states) for a list of state
variants and collects one value series per variant. Each engine computes
the panel in one call on the stack of the variants' grid specs, so there is
one moment table per panel; the guards that raise for one state are masks
there, and their points are NaN gaps. A figure pack reproduces the panel
set of one reference figure, as the one table FIGURES lists it.

All output is deterministic: identical configuration gives byte-identical
CSV files.
"""

from __future__ import annotations

import contextlib
import math
import os
from itertools import chain, repeat

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from . import witnesses as witnesses_mod
from .errors import DegenerateState, SingularDenominator
from .records import Record
from .states import EngineeringOp, StateSpec

# Reconstructed from the plots' visual ranges (not ground truth).
BETA_WINDOW = (-4.0, 4.0)
SWEEP_STEPS = 200
HUSIMI_STEPS = 121


def _pas_psa(p: int, q: int) -> tuple[EngineeringOp, EngineeringOp]:
    return EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)


_BARE = EngineeringOp.bare()

# Every panel of the reference figures, one row per odd/even figure pair
# (thermal, even cat). A sweep panel is (witness, order, variants); a Husimi
# panel is (variant, parameter).
_PANELS = (
    # fig1 / fig2: Mandel function
    (("mandel", 2, (*_pas_psa(1, 1), _BARE)), ("mandel", 3, (*_pas_psa(1, 2), _BARE)),
     ("mandel", 4, (*_pas_psa(2, 1), _BARE))),
    # fig3 / fig4: higher-order antibunching
    (("hoa", 2, _pas_psa(1, 1)), ("hoa", 3, _pas_psa(1, 2)), ("hoa", 4, _pas_psa(2, 1))),
    # fig5 / fig6: higher-order sub-Poissonian statistics
    (("hosps", 2, _pas_psa(1, 1)), ("hosps", 3, _pas_psa(1, 2)), ("hosps", 4, _pas_psa(2, 1))),
    # fig7 / fig8: Husimi Q over the beta plane; the bare state at the first
    # captioned parameter value
    ((EngineeringOp.pas(2, 4), 2.0), (EngineeringOp.psa(2, 4), 2.0), (EngineeringOp.pas(4, 2), 4.0),
     (EngineeringOp.psa(4, 2), 4.0), (_BARE, 2.0)),
    # fig9 / fig10: Hong-Mandel squeezing
    (("hos", 2, _pas_psa(1, 1)), ("hos", 4, _pas_psa(1, 2)), ("hos", 6, _pas_psa(2, 1))),
    # fig11 / fig12: Agarwal-Tara A3
    (("agarwal_tara", 0, _pas_psa(1, 1)), ("agarwal_tara", 0, _pas_psa(1, 2)),
     ("agarwal_tara", 0, _pas_psa(2, 1)), ("agarwal_tara", 0, (_BARE,))),
)

# figure id -> (family, panels)
FIGURES = {
    f"fig{2 * row + index + 1}": (family, panels)
    for row, panels in enumerate(_PANELS)
    for index, family in enumerate((states_mod.FAMILY_THERMAL, states_mod.FAMILY_EVEN_COHERENT))
}
FIGURE_IDS = tuple(FIGURES)


class SweepTable(Record):
    """One witness series per variant over a common parameter grid."""

    parameter_name: str
    parameter_values: np.ndarray  # float64, as the engines return it; a list is read too
    series: dict[str, np.ndarray]  # each float64, parameter_values' length; or a list
    metadata: dict = {}


class HusimiGrid(Record):
    """Q values on a rectangular grid in the complex beta plane."""

    label: str
    re_values: list[float]
    im_values: list[float]
    q_values: np.ndarray  # float64 (len(im), len(re)), or a nested list; [i][j] at re[j] + 1j*im[i]
    metadata: dict = {}


class FigurePack(Record):
    figure_id: str
    panels: list[tuple[str, object]]  # (panel name, SweepTable | HusimiGrid)


def _gaps(spec: StateSpec, values: np.ndarray) -> dict[str, int]:
    """The NaN gaps of one series, the grid spec's values, by cause.

    A gap at an annihilated state (states.annihilated), where every table
    entry is NaN, is a DegenerateState on either engine. Every other gap is
    an indeterminate agarwal_tara point (SingularDenominator), the one
    witness guard that masks.
    """
    gaps = np.isnan(values)
    annihilated = gaps & states_mod.annihilated(spec) if gaps.any() else gaps
    causes = {DegenerateState: annihilated, SingularDenominator: gaps & ~annihilated}
    return {exc.__name__: int(mask.sum()) for exc, mask in causes.items() if mask.any()}


def sweep(
    witness_id: str,
    order: int,
    variants: list[EngineeringOp],
    family: states_mod.Family,
    param_min: float | None = None,
    param_max: float | None = None,
    steps: int | None = None,
    engine: str = "analytic",
    include_bare: bool = False,
) -> SweepTable:
    """Scan one witness over `steps` points from param_min to param_max (by
    default SWEEP_STEPS over the family's plotted window) for several state
    variants, each listed once. engine may be "analytic", "oracle", or "both"; "both"
    emits a paired `label@oracle` series per variant and records the maximum
    analytic/oracle deviation (oracle.deviation) in the metadata. Either engine
    evaluates the variants as one stack of grid specs (states.as_stack) in
    one evaluate_witness call, one moment table for the whole panel (on the
    oracle, one truncated state per point and variant, grown at once), and
    each series is its variant's slice of the columns. A DegenerateState or
    an indeterminate determinant witness at a grid point records a NaN gap,
    not a failure; metadata["nan_gaps"] counts them per series and cause.
    """
    runs = witnesses_mod.engines(engine)
    if not isinstance(family, states_mod.Family):
        raise ValueError(f"unknown family {family!r}")
    # a given 0 is checked like any other value, not read as "default"
    lo = family.window[0] if param_min is None else float(param_min)
    hi = family.window[1] if param_max is None else float(param_max)
    steps = SWEEP_STEPS if steps is None else states_mod.integer(steps, "a sweep's steps")
    # NaN fails every comparison, so non-finite bounds fail this check too
    if not 0 <= lo < hi < math.inf:
        raise ValueError("parameter range must be finite, non-negative and increasing")
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    values = np.array(witnesses_mod.linspace(lo, hi, steps))

    ops = list(variants)
    for index, op in enumerate(ops):
        if op in ops[:index]:
            raise ValueError(f"variant {op.label()} is listed twice")
    if include_bare and _BARE not in ops:
        ops.append(_BARE)

    # the panel's variants as one stack: one witness call per engine, whose
    # columns are each variant's series in turn
    stack = [StateSpec.of(family, values, op) for op in ops]
    panels = [witnesses_mod.evaluate_witness(stack, witness_id, order=order, engine=run.name).value
              for run in runs]
    series: dict[str, np.ndarray] = {}
    gaps: dict[str, dict[str, int]] = {}
    for s, spec in enumerate(stack):
        # the first engine's series under the variant's label, the second's as label@oracle
        for label, panel in zip((spec.op.label(), f"{spec.op.label()}@oracle"), panels):
            series[label] = panel[s * steps:(s + 1) * steps]
            gaps[label] = _gaps(spec, series[label])

    metadata = {
        "witness": witness_id,
        "order": order,
        "family": family.name,
        "engine": engine,
        "variants": [op.label() for op in ops],
        "nan_gaps": gaps,
    }
    if len(runs) > 1:
        metadata["max_deviation"] = {
            label: float(np.max(oracle_mod.deviation(series[label], series[f"{label}@oracle"])))
            for label in metadata["variants"]
        }
    return SweepTable(family.parameter, values, series, metadata)


def husimi_grid(
    spec: StateSpec,
    steps: int = HUSIMI_STEPS,
    engine: str = "analytic",
) -> HusimiGrid:
    """Husimi Q on a square grid over BETA_WINDOW on both axes, labelled by
    the spec's variant; rows scan Im(beta), columns Re(beta).

    The values come from the husimi-zero scan's grid route on that window:
    one call over the grid's beta array to the `husimi` of each engine the
    choice runs (witnesses.ENGINES): states.husimi for the analytic engine,
    oracle_husimi on one truncated basis for the oracle. The CSV holds one
    state: a grid spec or a stack raises ValueError."""
    if not isinstance(spec, StateSpec) or isinstance(spec.parameter, np.ndarray):
        raise ValueError("a Husimi grid takes one state, not a grid spec or a stack")
    grid = witnesses_mod.ScanGrid(*BETA_WINDOW, *BETA_WINDOW, steps)
    values = [run.husimi(spec, grid.betas(), oracle_mod.DEFAULT_TAIL_TOL)
              for run in witnesses_mod.engines(engine)]
    metadata = {"spec": spec.canonical(), "engine": engine}
    if len(values) > 1:
        metadata["max_deviation"] = float(np.max(oracle_mod.deviation(*values)))
    return HusimiGrid(spec.op.label(), *grid.axes(), values[0], metadata)


def figure_pack(
    figure_id: str,
    steps: int | None = None,
    grid_steps: int | None = None,
    engine: str = "analytic",
) -> FigurePack:
    """Reproduce the panel set of one reference figure, as FIGURES lists it:
    one sweep per sweep panel, one husimi_grid per Husimi panel."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    family, panels = FIGURES[figure_id]
    # a given 0 is checked like any other count, not read as "default", and
    # both counts are checked whichever the figure reads
    if steps is not None and states_mod.integer(steps, "a sweep's steps") < 2:
        raise ValueError("a sweep needs at least 2 steps")
    if grid_steps is not None and states_mod.integer(grid_steps, "a grid's steps") < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    husimi_steps = HUSIMI_STEPS if grid_steps is None else grid_steps

    tables = []
    for letter, panel in zip("abcde", panels):
        if len(panel) == 3:
            witness_id, order, variants = panel
            table = sweep(witness_id, order, variants, family, steps=steps, engine=engine)
        else:
            op, value = panel
            table = husimi_grid(StateSpec.of(family, value, op), steps=husimi_steps, engine=engine)
        tables.append((letter, table))
    return FigurePack(figure_id, tables)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_floats(values) -> list[str]:
    """repr(float(x)) of every value, in row-major order.

    Python's float repr is the shortest string that round-trips (17
    significant digits at most). Values are keyed by their bit patterns, so
    repr runs once per distinct pattern and equal patterns share one string;
    0.0 and -0.0 stay apart, and every NaN prints "nan". One call over the
    cells of several tables formats a value they share once: a figure pack's
    sweep panels share their parameter column (write_figure_pack).
    """
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    strings = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    # the inverse's shape differs across numpy versions; flat is what we index by
    return strings[inverse.ravel()].tolist()


def _sweep_cells(table: SweepTable) -> np.ndarray:
    """The table's values in CSV order: one row per parameter value, the
    parameter then each series."""
    return np.transpose([table.parameter_values, *table.series.values()])


def sweep_table_csv(table: SweepTable, cells: list[str] | None = None) -> str:
    """The table as CSV; `cells` is format_floats of _sweep_cells(table)
    where the caller formatted it already."""
    # RFC 4180: a label holding a comma, PAS(1,1), is quoted
    labels = [f'"{label}"' if "," in label else label for label in table.series]
    if cells is None:
        cells = format_floats(_sweep_cells(table))
    # one cell list in row-major order, cut into rows of 1 + len(labels)
    rows = map(",".join, zip(*[iter(cells)] * (1 + len(labels))))
    return "\n".join([",".join(["param"] + labels), *rows]) + "\n"


def husimi_grid_csv(grid: HusimiGrid) -> str:
    """The grid as CSV: a header, then one line "re,im,q_value" per point,
    row by row of q_values (one row per Im(beta)), Re(beta) fastest.

    q_values must be len(im_values) rows of len(re_values) values; any
    other shape raises ValueError naming both shapes. The q values and both
    axes go through one format_floats call. The text is then one "".join
    over one flat list of [re, ",im,", q, "\n"] per point: the re column is
    the axis strings repeated once per row, and ",im," is built once per
    row, so no per-cell or per-row string is made.
    """
    width, height = len(grid.re_values), len(grid.im_values)
    if len(grid.q_values) != height or any(len(row) != width for row in grid.q_values):
        row_widths = "/".join(map(str, sorted({len(row) for row in grid.q_values}))) or "0"
        raise ValueError(f"q_values is {len(grid.q_values)} x {row_widths} (rows x values); "
                         f"the axes need {height} x {width} (im x re)")
    size = width * height
    cells = format_floats(np.concatenate([np.ravel(grid.q_values), grid.re_values, grid.im_values]))
    text = [None] * (1 + 4 * size)
    text[0] = "re,im,q_value\n"
    text[1::4] = cells[size:size + width] * height
    text[2::4] = chain.from_iterable(repeat(f",{im},", width) for im in cells[size + width:])
    text[3::4] = cells[:size]
    text[4::4] = ["\n"] * size
    return "".join(text)


def panel_csv(panel, cells: list[str] | None = None) -> str:
    """One panel as CSV. A sweep panel's `cells` are its formatted values
    where the caller formatted them (sweep_table_csv); a Husimi grid
    formats its own."""
    if isinstance(panel, SweepTable):
        return sweep_table_csv(panel, cells)
    if isinstance(panel, HusimiGrid):
        return husimi_grid_csv(panel)
    raise TypeError(f"cannot serialize {type(panel).__name__}")


def write_figure_pack(pack: FigurePack, out_dir) -> list[tuple[str, str]]:
    """Write one CSV per panel; returns (panel name, file path) manifest.

    The cells of every sweep panel are formatted in one format_floats call,
    so a value the panels share (their parameter column) is formatted once,
    and each panel's slice of the result goes to its panel_csv call. Each
    Husimi grid formats its own cells: one call over all of a pack's grids
    would hold every grid's strings at once. A write that raises OSError
    removes the files this call opened, so no part of a pack is left.
    """
    os.makedirs(out_dir, exist_ok=True)
    blocks = [_sweep_cells(panel) for _, panel in pack.panels if isinstance(panel, SweepTable)]
    cells = format_floats(np.concatenate([b.ravel() for b in blocks])) if blocks else []
    ends = np.cumsum([b.size for b in blocks]).tolist()
    slices = iter(cells[start:end] for start, end in zip([0] + ends, ends))
    manifest = []
    try:
        for name, panel in pack.panels:
            path = os.path.join(out_dir, f"{pack.figure_id}_{name}.csv")
            with open(path, "w", newline="\n") as fh:
                manifest.append((name, path))
                fh.write(panel_csv(panel, next(slices) if isinstance(panel, SweepTable) else None))
    except OSError:
        for _, path in manifest:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return manifest
