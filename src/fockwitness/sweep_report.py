"""Parameter sweeps, figure-reproduction packs, and CSV emission.

A sweep scans one witness across a parameter grid (mean photon number for
thermal states, amplitude for even coherent states) for a list of state
variants and collects one value series per variant. Each engine computes
each series in one call on a grid spec, so there is one moment table per
(variant, grid); the guards that raise for one state are masks
there, and their points are NaN gaps. Figure packs bundle the exact
(l, p, q) combinations of the reference plots:

    fig1 / fig2    Mandel function vs parameter        (thermal / even cat)
    fig3 / fig4    higher-order antibunching
    fig5 / fig6    higher-order sub-Poissonian
    fig7 / fig8    Husimi Q grids over the beta plane
    fig9 / fig10   Hong-Mandel squeezing
    fig11 / fig12  Agarwal-Tara A3

All output is deterministic: identical configuration gives byte-identical
CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from . import witnesses as witnesses_mod
from .errors import DegenerateState, SingularDenominator
from .states import EngineeringOp, StateSpec

# Reconstructed from the plots' visual ranges (not ground truth).
BETA_WINDOW = (-4.0, 4.0)
SWEEP_STEPS = 200
HUSIMI_STEPS = 121

FIGURE_IDS = tuple(f"fig{i}" for i in range(1, 13))

# (order l, p, q) per panel for the moment-based figure rows
_PANEL_COMBOS = {
    "mandel": ((2, 1, 1), (3, 1, 2), (4, 2, 1)),
    "hoa": ((2, 1, 1), (3, 1, 2), (4, 2, 1)),
    "hosps": ((2, 1, 1), (3, 1, 2), (4, 2, 1)),
    "hos": ((2, 1, 1), (4, 1, 2), (6, 2, 1)),
}

_A3_PANEL_OPS = ((1, 1), (1, 2), (2, 1), (0, 0))

# (p, q, parameter) per Husimi panel; the bare panel reuses the first
# captioned parameter value
_HUSIMI_PANELS = ((2, 4, 2.0), (4, 2, 4.0))


@dataclass
class SweepTable:
    """One witness series per variant over a common parameter grid."""

    parameter_name: str
    parameter_values: list[float]
    series: dict[str, list[float]]
    metadata: dict = field(default_factory=dict)


@dataclass
class HusimiGrid:
    """Q values on a rectangular grid in the complex beta plane."""

    label: str
    re_values: list[float]
    im_values: list[float]
    q_values: list[list[float]]  # q_values[i][j] at beta = re[j] + 1j*im[i]
    metadata: dict = field(default_factory=dict)


@dataclass
class FigurePack:
    figure_id: str
    panels: list[tuple[str, object]]  # (panel name, SweepTable | HusimiGrid)


def _series(family: states_mod.Family, op: EngineeringOp, grid: list[float],
            witness_id: str, order: int, engine: str):
    """The witness over the whole grid in one call on a grid spec, on either
    engine, and its NaN gaps by cause.

    A gap at an annihilated state, where every table entry is NaN, is a
    DegenerateState: the analytic norm is NaN there, and the oracle's
    build of the point raises it. Every other gap is an indeterminate
    agarwal_tara point (SingularDenominator), the one witness guard that
    masks.
    """
    spec = StateSpec.of(family, np.array(grid), op)
    values = witnesses_mod.evaluate_witness(spec, witness_id, order=order, engine=engine).value
    gaps = np.isnan(values)
    if engine == "analytic":
        annihilated = gaps & np.isnan(spec._norm)
    else:
        # the gaps' points built again; the annihilated are None
        annihilated = gaps.copy()
        rebuilt = oracle_mod.truncated_states(StateSpec.of(family, spec.parameter[gaps], op))
        annihilated[gaps] = [state is None for state in rebuilt]
    causes = {DegenerateState: annihilated, SingularDenominator: gaps & ~annihilated}
    counts = {exc.__name__: int(mask.sum()) for exc, mask in causes.items() if mask.any()}
    return values.tolist(), counts


def sweep(
    witness_id: str,
    order: int,
    variants: list[EngineeringOp],
    family: states_mod.Family,
    param_range: dict | None = None,
    engine: str = "analytic",
    include_bare: bool = False,
) -> SweepTable:
    """Scan one witness over a parameter grid for several state variants.

    param_range is {"min": .., "max": .., "steps": ..}; defaults follow the
    family's plotted window. engine may be "analytic", "oracle", or "both"; "both"
    emits a paired `label@oracle` series per variant and records the maximum
    analytic/oracle deviation (oracle.deviation) in the metadata. Either engine
    evaluates each variant as one grid spec, one moment table for the whole
    grid (on the oracle, one truncated state per point). A DegenerateState or an
    indeterminate determinant witness at a grid point records a NaN gap, not
    a failure; metadata["nan_gaps"] counts them per series and cause.
    """
    runs = witnesses_mod.engines(engine)
    if not isinstance(family, states_mod.Family):
        raise ValueError(f"unknown family {family!r}")
    lo, hi = family.window
    steps = SWEEP_STEPS
    if param_range:
        lo = float(param_range.get("min", lo))
        hi = float(param_range.get("max", hi))
        steps = int(param_range.get("steps", steps))
    # NaN fails every comparison, so non-finite bounds fail this check too
    if not 0 <= lo < hi < math.inf:
        raise ValueError("parameter range must be finite, non-negative and increasing")
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    values = witnesses_mod._linspace(lo, hi, steps)

    ops = list(variants)
    if include_bare and not any(op.order == states_mod.ORDER_NONE for op in ops):
        ops.append(EngineeringOp.bare())

    series: dict[str, list[float]] = {}
    gaps: dict[str, dict[str, int]] = {}
    for op in ops:
        # the first engine's series under the variant's label, the second's as label@oracle
        for label, name in zip((op.label(), f"{op.label()}@oracle"), runs):
            series[label], gaps[label] = _series(family, op, values, witness_id, order, name)

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
    label: str,
    steps: int = HUSIMI_STEPS,
    engine: str = "analytic",
) -> HusimiGrid:
    """Husimi Q on a square grid over BETA_WINDOW on both axes; rows scan
    Im(beta), columns Re(beta).

    The values come from the husimi-zero scan's grid route on that window:
    one call over the grid's beta array, to states.husimi for the
    analytic engine and to oracle_husimi on one truncated basis for the
    oracle (engine "oracle", and the second route of "both").
    """
    lo, hi = BETA_WINDOW
    grid = witnesses_mod.ScanGrid(lo, hi, lo, hi, steps)
    values = [
        witnesses_mod._husimi_grid_values(spec, grid, name, oracle_mod.DEFAULT_TAIL_TOL)
        .reshape(steps, steps)
        for name in witnesses_mod.engines(engine)
    ]
    metadata = {"spec": spec.canonical(), "engine": engine}
    if len(values) > 1:
        metadata["max_deviation"] = float(np.max(oracle_mod.deviation(*values)))
    return HusimiGrid(label, *grid.axes(), values[0].tolist(), metadata)


def figure_pack(
    figure_id: str,
    steps: int | None = None,
    grid_steps: int | None = None,
    engine: str = "analytic",
) -> FigurePack:
    """Reproduce the panel set of one reference figure.

    Sweep figures carry one sub-table per (l, p, q) panel with PAS and PSA
    series (Mandel panels also carry the bare series; A3 panels include the
    bare variant as its own panel). Husimi figures carry five grids.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    index = int(figure_id[3:])
    family = states_mod.FAMILY_THERMAL if index % 2 else states_mod.FAMILY_EVEN_COHERENT
    # a given 0 is checked like any other count, not read as "default", and
    # both counts are checked whichever the figure reads
    if steps is not None and steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    if grid_steps is not None and grid_steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    husimi_steps = HUSIMI_STEPS if grid_steps is None else grid_steps
    prange = None if steps is None else {"steps": steps}

    if index in (1, 2, 3, 4, 5, 6, 9, 10):
        witness_id = {1: "mandel", 3: "hoa", 5: "hosps", 9: "hos"}[index if index % 2 else index - 1]
        include_bare = witness_id == "mandel"
        panels = []
        for panel_letter, (order, p, q) in zip("abc", _PANEL_COMBOS[witness_id]):
            table = sweep(
                witness_id,
                order,
                [EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)],
                family,
                param_range=prange,
                engine=engine,
                include_bare=include_bare,
            )
            panels.append((panel_letter, table))
        return FigurePack(figure_id, panels)

    if index in (7, 8):
        panels = []
        letters = iter("abcde")
        for p, q, value in _HUSIMI_PANELS:
            for op in (EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)):
                spec = StateSpec.of(family, value, op)
                panels.append(
                    (next(letters), husimi_grid(spec, op.label(), steps=husimi_steps, engine=engine))
                )
        bare_value = _HUSIMI_PANELS[0][2]
        spec = StateSpec.of(family, bare_value)
        panels.append((next(letters), husimi_grid(spec, "bare", steps=husimi_steps, engine=engine)))
        return FigurePack(figure_id, panels)

    # A3 figures: one panel per (p, q) including the bare (0, 0) panel
    panels = []
    for panel_letter, (p, q) in zip("abcd", _A3_PANEL_OPS):
        if p == 0 and q == 0:
            ops = [EngineeringOp.bare()]
        else:
            ops = [EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)]
        table = sweep("agarwal_tara", 0, ops, family, param_range=prange, engine=engine)
        panels.append((panel_letter, table))
    return FigurePack(figure_id, panels)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_floats(values) -> list[str]:
    """repr(float(x)) of every value, in row-major order.

    Python's float repr is the shortest string that round-trips (17
    significant digits at most). Values are keyed by their bit patterns, so
    repr runs once per distinct pattern and equal patterns share one string;
    0.0 and -0.0 stay apart, and every NaN prints "nan".
    """
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    strings = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    # the inverse's shape differs across numpy versions; flat is what we index by
    return strings[inverse.ravel()].tolist()


def sweep_table_csv(table: SweepTable) -> str:
    labels = list(table.series)
    columns = [table.parameter_values] + [table.series[k] for k in labels]
    # one cell list in row-major order, cut into rows of len(columns)
    cells = format_floats(np.transpose(columns))
    rows = map(",".join, zip(*[iter(cells)] * len(columns)))
    return "\n".join([",".join(["param"] + labels), *rows]) + "\n"


def husimi_grid_csv(grid: HusimiGrid) -> str:
    res = format_floats(grid.re_values)
    qs = format_floats(grid.q_values)
    width = len(res)
    # joined one grid row at a time, so no list of per-cell lines is held
    rows = ["re,im,q_value"]
    for i, im in enumerate(format_floats(grid.im_values)):
        cells = zip(res, repeat(f",{im},"), qs[i * width:(i + 1) * width])
        rows.append("\n".join(map("".join, cells)))
    return "\n".join(rows) + "\n"


def panel_csv(panel) -> str:
    if isinstance(panel, SweepTable):
        return sweep_table_csv(panel)
    if isinstance(panel, HusimiGrid):
        return husimi_grid_csv(panel)
    raise TypeError(f"cannot serialize {type(panel).__name__}")


def write_figure_pack(pack: FigurePack, out_dir) -> list[tuple[str, str]]:
    """Write one CSV per panel; returns (panel name, file path) manifest."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for name, panel in pack.panels:
        path = os.path.join(out_dir, f"{pack.figure_id}_{name}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(panel_csv(panel))
        manifest.append((name, path))
    return manifest
