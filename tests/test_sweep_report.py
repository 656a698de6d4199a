import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from bits import float_bits
from fockwitness import states, sweep_report, witnesses
from fockwitness.errors import DegenerateState, OutOfRange, SingularDenominator, ZeroMeanPhoton
from fockwitness.states import FAMILY_EVEN_COHERENT, FAMILY_THERMAL, EngineeringOp, StateSpec
from fockwitness.sweep_report import (
    FIGURE_IDS,
    HusimiGrid,
    SweepTable,
    figure_pack,
    format_floats,
    husimi_grid,
    husimi_grid_csv,
    sweep,
    sweep_table_csv,
    write_figure_pack,
)


class TestSweep:
    def test_mandel_sign_structure(self):
        table = sweep(
            "mandel",
            2,
            [EngineeringOp.pas(1, 1), EngineeringOp.psa(1, 1)],
            FAMILY_THERMAL,
            param_min=0.01, param_max=5.0, steps=60,
        )
        assert min(table.series["PSA(1,1)"]) < -1e-10
        assert min(table.series["PAS(1,1)"]) >= -1e-10

    def test_include_bare_series(self):
        table = sweep(
            "hoa",
            2,
            [EngineeringOp.pas(1, 1)],
            FAMILY_THERMAL,
            steps=5,
            include_bare=True,
        )
        assert set(table.series) == {"PAS(1,1)", "bare"}

    def test_degenerate_point_becomes_gap(self):
        table = sweep(
            "mandel",
            2,
            [EngineeringOp.psa(1, 1)],
            FAMILY_THERMAL,
            param_min=0.0, param_max=1.0, steps=3,
        )
        values = table.series["PSA(1,1)"]
        assert math.isnan(values[0])  # subtraction from vacuum at rbar = 0
        assert not any(math.isnan(v) for v in values[1:])

    def test_two_point_both_engine(self):
        table = sweep(
            "hoa",
            2,
            [EngineeringOp.pas(1, 1)],
            FAMILY_THERMAL,
            param_min=0.5, param_max=1.5, steps=2,
            engine="both",
        )
        assert len(table.parameter_values) == 2
        assert set(table.series) == {"PAS(1,1)", "PAS(1,1)@oracle"}
        assert table.metadata["max_deviation"]["PAS(1,1)"] <= 1e-8

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            sweep("hoa", 2, [EngineeringOp.bare()], FAMILY_THERMAL, engine="quantum")

    def test_misspelled_range_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            sweep("hoa", 2, [EngineeringOp.pas(1, 1)], FAMILY_THERMAL, step=5, mni=1.0)

    def test_given_zero_is_checked_not_defaulted(self):
        with pytest.raises(ValueError, match="at least 2 steps"):
            sweep("hoa", 2, [EngineeringOp.pas(1, 1)], FAMILY_THERMAL, steps=0)
        table = sweep("hoa", 2, [EngineeringOp.pas(1, 1)], FAMILY_THERMAL, param_min=0, steps=3)
        assert table.parameter_values[0] == 0.0

    def test_repeated_variant_is_refused(self):
        ops = [EngineeringOp.pas(1, 1), EngineeringOp.from_label("PAS(1:1)")]
        with pytest.raises(ValueError, match=r"variant PAS\(1,1\) is listed twice"):
            sweep("hoa", 2, ops, FAMILY_THERMAL, steps=3)
        # include_bare adds no second bare series
        table = sweep("hoa", 2, [EngineeringOp.bare()], FAMILY_THERMAL, param_min=0.5, steps=3,
                      include_bare=True)
        assert list(table.series) == ["bare"]

    def test_both_engine_csv_rows_parse_at_the_header_width(self):
        table = sweep("hoa", 2, [EngineeringOp.pas(1, 1), EngineeringOp.psa(2, 1), EngineeringOp.bare()],
                      FAMILY_THERMAL, param_min=0.5, param_max=1.5, steps=3, engine="both")
        rows = list(csv.reader(io.StringIO(sweep_table_csv(table))))
        assert rows[0] == ["param", *table.series]
        assert "PAS(1,1)@oracle" in rows[0]
        assert [len(row) for row in rows] == [7] * 4

    def test_ecs_parameter_name(self):
        table = sweep(
            "hoa", 2, [EngineeringOp.pas(1, 1)], FAMILY_EVEN_COHERENT, steps=3
        )
        assert table.parameter_name == "alpha"
        assert table.parameter_values[0] == pytest.approx(0.01)
        assert table.parameter_values[-1] == pytest.approx(3.0)


# every witness a sweep takes, with its order: l, or m for klyshko
_SWEEPABLE = [("mandel", 2), ("mandel", 3), ("mandel", 4), ("hoa", 2), ("hosps", 2),
              ("hos", 2), ("hos", 4), ("hos", 6), ("agarwal_tara", 0), ("klyshko", 1)]
_SMALL_OPS = [EngineeringOp.bare()] + [
    make(p, q) for make in (EngineeringOp.pas, EngineeringOp.psa)
    for p in range(3) for q in range(3) if p or q
]


# the oracle cases take every other operation, to keep their run time down
_ORACLE_OPS = _SMALL_OPS[::2]


def _point_by_point(witness, order, family, op, grid, engine):
    """evaluate_witness at each point: its values (NaN where it raises
    DegenerateState or SingularDenominator), the gap counts by cause, and
    whether some point raised ZeroMeanPhoton."""
    values, counts, zero_mean = [], {}, False
    for value in grid:
        try:
            result = witnesses.evaluate_witness(StateSpec.of(family, value, op), witness, order, engine=engine)
        except (DegenerateState, SingularDenominator) as exc:
            values.append(math.nan)
            counts[type(exc).__name__] = counts.get(type(exc).__name__, 0) + 1
        except ZeroMeanPhoton:
            zero_mean = True
        else:
            values.append(result.value)
    return values, counts, zero_mean


def _same_bits(got, want) -> bool:
    """The same values bit for bit, every NaN as one NaN."""
    return len(got) == len(want) and np.array_equal(float_bits(got), float_bits(want))


_RANGES = pytest.mark.parametrize("family, hi", [(FAMILY_THERMAL, 3.0), (FAMILY_EVEN_COHERENT, 2.0)],
                                  ids=["thermal-3.0", "even_coherent-2.0"])


class TestArrayPath:
    @staticmethod
    def _check_against_point_by_point(witness, order, family, hi, engine, ops):
        # ranges from 0 hold annihilated states and indeterminate A3 points
        window = {"param_min": 0.0, "param_max": hi, "steps": 13}
        for op in ops:
            expected, counts, zero_mean = _point_by_point(
                witness, order, family, op, witnesses.linspace(0.0, hi, 13), engine)
            if zero_mean:
                with pytest.raises(ZeroMeanPhoton):
                    sweep(witness, order, [op], family, **window, engine=engine)
                continue
            table = sweep(witness, order, [op], family, **window, engine=engine)
            values = table.series[op.label()]
            assert table.metadata["nan_gaps"] == {op.label(): counts}, op
            # the engine's float64 array as it is, one value per step, over the grid's array
            assert type(values) is np.ndarray and values.dtype == np.float64 and values.shape == (13,)
            assert table.parameter_values.dtype == np.float64 and table.parameter_values.shape == (13,)
            assert _same_bits(values, expected), (op, values, expected)

    @_RANGES
    @pytest.mark.parametrize("witness, order", _SWEEPABLE)
    def test_sweep_equals_point_by_point_loop(self, witness, order, family, hi):
        self._check_against_point_by_point(witness, order, family, hi, "analytic", _SMALL_OPS)

    @_RANGES
    @pytest.mark.parametrize("witness, order", _SWEEPABLE)
    def test_oracle_sweep_equals_point_by_point_loop(self, witness, order, family, hi):
        self._check_against_point_by_point(witness, order, family, hi, "oracle", _ORACLE_OPS)

    # the panels whose cells differed from one-state witness values in their
    # last digits while the two took different arithmetic
    @pytest.mark.parametrize("witness, order, family, op", [
        ("hoa", 3, FAMILY_THERMAL, EngineeringOp.pas(1, 2)),
        ("hosps", 4, FAMILY_THERMAL, EngineeringOp.pas(2, 1)),
        ("hoa", 2, FAMILY_EVEN_COHERENT, EngineeringOp.pas(1, 1)),
    ], ids=["hoa3-thermal-PAS(1,2)", "hosps4-thermal-PAS(2,1)", "hoa2-ecs-PAS(1,1)"])
    def test_sweep_equals_point_by_point_loop_at_default_size(self, witness, order, family, op):
        table = sweep(witness, order, [op], family)
        expected, counts, _ = _point_by_point(witness, order, family, op, table.parameter_values, "analytic")
        assert len(expected) == sweep_report.SWEEP_STEPS
        assert table.metadata["nan_gaps"] == {op.label(): counts}
        assert _same_bits(table.series[op.label()], expected)

    @pytest.mark.parametrize("witness, order", [("mandel", 2), ("hoa", 3), ("hosps", 3), ("hos", 4),
                                                ("agarwal_tara", 0), ("klyshko", 1)])
    @pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda family: family.name)
    def test_a_panel_is_one_witness_call_per_engine(self, witness, order, family, monkeypatch):
        # the variants' stack in one call per engine; each series, its gaps
        # and its deviation are those of the variant's own sweep, bit for bit
        ops = [EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1), EngineeringOp.pas(1, 2)]
        window = {"param_min": 0.0, "param_max": 3.0, "steps": 13, "engine": "both"}
        calls = []
        evaluate = witnesses.evaluate_witness

        def counting(stack, *args, **kwargs):
            calls.append([spec.op for spec in stack])
            return evaluate(stack, *args, **kwargs)

        monkeypatch.setattr(witnesses, "evaluate_witness", counting)
        table = sweep(witness, order, ops, family, **window)
        assert calls == [ops, ops]
        for op in ops:
            alone = sweep(witness, order, [op], family, **window)
            for label in (op.label(), f"{op.label()}@oracle"):
                np.testing.assert_array_equal(table.series[label].view(np.uint64),
                                              alone.series[label].view(np.uint64))
                assert table.metadata["nan_gaps"][label] == alone.metadata["nan_gaps"][label]
            assert table.metadata["max_deviation"][op.label()] == alone.metadata["max_deviation"][op.label()]

    def test_zero_mean_fails_the_whole_sweep(self):
        with pytest.raises(ZeroMeanPhoton):
            sweep("mandel", 2, [EngineeringOp.bare()], FAMILY_THERMAL,
                  param_min=0.0, param_max=1.0, steps=5)

    def test_out_of_range_propagates(self):
        with pytest.raises(OutOfRange, match="rbar=1e\\+200"):
            sweep("hoa", 2, [EngineeringOp.pas(2, 2)], FAMILY_THERMAL,
                  param_min=0.0, param_max=1e200, steps=2)

    def test_odd_order_still_raises(self):
        with pytest.raises(witnesses.OddOrder):
            sweep("hos", 3, [EngineeringOp.bare()], FAMILY_THERMAL, steps=3)

    def test_grid_moments_match_scalar_moments(self):
        grid = [0.0, 0.3, 1.7]
        for family in (FAMILY_THERMAL, FAMILY_EVEN_COHERENT):
            spec = StateSpec.of(family, np.array(grid), EngineeringOp.psa(2, 1))
            table = states.MomentTable.analytic(spec)
            for m, n in ((0, 0), (1, 1), (4, 4), (2, 0), (3, 1)):
                values = table.get(m, n)
                assert values.shape == (3,) and math.isnan(values[0].real)
                for value, point in zip(values[1:], grid[1:]):
                    want = states.moment(StateSpec.of(family, point, EngineeringOp.psa(2, 1)), m, n)
                    assert abs(value - want) <= 1e-14 * max(abs(want), 1.0)


class TestFigurePacks:
    def test_ids(self):
        assert FIGURE_IDS == tuple(f"fig{i}" for i in range(1, 13))
        with pytest.raises(ValueError):
            figure_pack("fig99")

    def test_only_a_panel_is_serialized(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            sweep_report.panel_csv(object())

    def test_mandel_pack_layout(self):
        pack = figure_pack("fig1", steps=5)
        assert [name for name, _ in pack.panels] == ["a", "b", "c"]
        first = pack.panels[0][1]
        assert set(first.series) == {"PAS(1,1)", "PSA(1,1)", "bare"}
        assert first.metadata["order"] == 2
        third = pack.panels[2][1]
        assert set(third.series) == {"PAS(2,1)", "PSA(2,1)", "bare"}
        assert third.metadata["order"] == 4

    def test_hoa_pack_has_no_bare_series(self):
        pack = figure_pack("fig3", steps=4)
        assert set(pack.panels[0][1].series) == {"PAS(1,1)", "PSA(1,1)"}

    def test_hos_pack_orders(self):
        pack = figure_pack("fig9", steps=4)
        assert [panel.metadata["order"] for _, panel in pack.panels] == [2, 4, 6]

    def test_husimi_pack_layout(self):
        pack = figure_pack("fig7", grid_steps=5)
        assert [name for name, _ in pack.panels] == ["a", "b", "c", "d", "e"]
        labels = [panel.label for _, panel in pack.panels]
        assert labels == ["PAS(2,4)", "PSA(2,4)", "PAS(4,2)", "PSA(4,2)", "bare"]
        assert all(isinstance(panel, HusimiGrid) for _, panel in pack.panels)

    def test_a3_pack_includes_bare_panel(self):
        pack = figure_pack("fig11", steps=4)
        assert [name for name, _ in pack.panels] == ["a", "b", "c", "d"]
        assert set(pack.panels[3][1].series) == {"bare"}

    def test_ecs_packs_use_alpha(self):
        pack = figure_pack("fig2", steps=4)
        assert pack.panels[0][1].parameter_name == "alpha"

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_both_engine_regression_gate(self, figure_id):
        # the repo-wide regression gate, at reduced density for runtime
        if figure_id in ("fig7", "fig8"):
            pack = figure_pack(figure_id, grid_steps=3, engine="both")
            for _, panel in pack.panels:
                assert panel.metadata["max_deviation"] <= 1e-8, figure_id
        else:
            pack = figure_pack(figure_id, steps=3, engine="both")
            for _, panel in pack.panels:
                for label, dev in panel.metadata["max_deviation"].items():
                    assert dev <= 1e-8, (figure_id, label, dev)

    @pytest.mark.parametrize("figure_id", ["fig1", "fig3", "fig5", "fig9", "fig11"])
    def test_both_engine_gate_at_default_resolution(self, figure_id):
        # the oracle basis must hold the weighted tails of the moments each panel reads
        pack = figure_pack(figure_id, engine="both")
        for name, panel in pack.panels:
            for label, dev in panel.metadata["max_deviation"].items():
                assert dev <= 1e-8, (figure_id, name, label, dev)

    def test_husimi_both_engine_regression_gate(self):
        grid = husimi_grid(
            StateSpec.thermal(2.0, EngineeringOp.pas(2, 4)),
            steps=5,
            engine="both",
        )
        assert grid.metadata["max_deviation"] <= 1e-8

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "both"])
    def test_husimi_grid_takes_one_state(self, engine):
        # one state's grid is one CSV: a grid spec or a stack, which the
        # engines read, is refused before any of them runs
        grid = StateSpec.thermal(np.array([0.5, 1.0]), EngineeringOp.pas(2, 4))
        for spec in (grid, [grid], [StateSpec.thermal(0.5)]):
            with pytest.raises(ValueError, match="^a Husimi grid takes one state, not a grid spec or a stack$"):
                husimi_grid(spec, steps=3, engine=engine)

    @pytest.mark.parametrize("figure_id", ["fig7", "fig8"])
    def test_grid_equals_point_by_point_loop(self, figure_id):
        # every panel of the pack against one scalar states.husimi call per point
        pack = figure_pack(figure_id, grid_steps=9)
        make = StateSpec.thermal if figure_id == "fig7" else StateSpec.even_coherent
        for letter, grid in pack.panels:
            op, value = _HUSIMI_PANEL_STATES[letter]
            spec = make(value, op)
            assert grid.metadata["spec"] == spec.canonical()
            assert grid.re_values == grid.im_values == [-4.0 + i * 1.0 for i in range(9)]
            # the engine's float64 array as it is, one row per Im(beta)
            assert type(grid.q_values) is np.ndarray and grid.q_values.dtype == np.float64
            assert grid.q_values.shape == (9, 9)
            for im, row in zip(grid.im_values, grid.q_values):
                for re, q in zip(grid.re_values, row):
                    expected = states.husimi(spec, complex(re, im))
                    assert abs(q - expected) <= 1e-14 * expected, (figure_id, letter, re, im)

    def test_indeterminate_grid_point_becomes_gap(self):
        # A3 of the even cat is 0/0 at alpha = 0 itself; at alpha = 0.01 it is
        # defined (about -0.2958), but its denominator, about 1.7e-21, is below
        # agarwal_tara's singular floor, which is absolute (1e-12 times at
        # least 1) when the moments are much smaller than 1, so the point is a gap
        table = sweep(
            "agarwal_tara",
            0,
            [EngineeringOp.pas(1, 1)],
            FAMILY_EVEN_COHERENT,
            param_min=0.01, param_max=2.0, steps=3,
        )
        values = table.series["PAS(1,1)"]
        assert math.isnan(values[0])
        assert not math.isnan(values[-1])


# Husimi panel letter -> (operation, parameter), as the reference figures caption them
_HUSIMI_PANEL_STATES = {
    "a": (EngineeringOp.pas(2, 4), 2.0),
    "b": (EngineeringOp.psa(2, 4), 2.0),
    "c": (EngineeringOp.pas(4, 2), 4.0),
    "d": (EngineeringOp.psa(4, 2), 4.0),
    "e": (EngineeringOp.bare(), 2.0),
}


# 0.0 and -0.0 are equal as floats and apart as bits, so a value-keyed dedup
# (np.unique on floats, a set, a dict) prints one as the other; a numpy
# float64 and an int ride along
_EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                1e16, 1e-05, 1.0, math.nextafter(1.0, 2.0), np.float64(0.1), 3, -0.0, 0.0, 2.5)


def _per_cell(*values) -> str:
    return ",".join(repr(float(x)) for x in values)


class TestCsv:
    def test_format_floats(self):
        assert format_floats([0.00390625, 10 / 3, float("nan")]) == [
            "0.00390625", "3.3333333333333335", "nan"
        ]
        assert format_floats([]) == []

    def test_format_floats_equals_repr_on_edge_values(self):
        values = _EDGE_VALUES + (-math.nan,)
        assert format_floats(values) == [repr(float(x)) for x in values]

    def test_sweep_csv_edge_values(self):
        column = list(_EDGE_VALUES)
        table = SweepTable("rbar", column, {"A": column[::-1], "B": column})
        lines = sweep_table_csv(table).splitlines()
        assert lines == ["param,A,B"] + [
            _per_cell(*cells) for cells in zip(column, column[::-1], column)
        ]

    def test_husimi_csv_edge_values(self):
        axis = [0.0, -0.0, 1e16, 1e-05]
        q = [list(_EDGE_VALUES[i:i + 4]) for i in range(0, 16, 4)]
        lines = husimi_grid_csv(HusimiGrid("edge", axis, axis, q)).splitlines()
        assert lines == ["re,im,q_value"] + [
            _per_cell(re, im, q[i][j]) for i, im in enumerate(axis) for j, re in enumerate(axis)
        ]

    def test_sweep_csv_shape(self):
        table = SweepTable("rbar", [0.5, 1.0], {"PAS(1,1)": [1.0, 2.0], "bare": [0.0, 0.5]})
        text = sweep_table_csv(table)
        lines = text.splitlines()
        assert lines[0] == 'param,"PAS(1,1)",bare'
        assert lines[1] == "0.5,1.0,0.0"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_husimi_csv_shape(self):
        grid = HusimiGrid("bare", [0.0, 1.0], [0.0, 1.0], [[0.1, 0.2], [0.3, 0.4]])
        lines = husimi_grid_csv(grid).splitlines()
        assert lines[0] == "re,im,q_value"
        assert lines[1] == "0.0,0.0,0.1"
        assert lines[2] == "1.0,0.0,0.2"
        assert lines[3] == "0.0,1.0,0.3"

    def test_husimi_csv_non_square_grid(self):
        # 3 re x 2 im: a swap of rows and columns would misplace or reject it
        grid = HusimiGrid("bare", [-1.0, 0.0, 1.0], [0.5, 2.0], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert husimi_grid_csv(grid) == (
            "re,im,q_value\n"
            "-1.0,0.5,0.1\n0.0,0.5,0.2\n1.0,0.5,0.3\n"
            "-1.0,2.0,0.4\n0.0,2.0,0.5\n1.0,2.0,0.6\n"
        )

    @pytest.mark.parametrize("q_values, shape", [
        ([[0.1, 0.2]], "1 x 2"),  # a row missing
        ([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "3 x 2"),  # a surplus row
        ([[0.1, 0.2], [0.3]], "2 x 1/2"),  # a ragged row
        ([[0.1], [0.3]], "2 x 1"),  # rows one value short
    ])
    def test_husimi_csv_rejects_a_shape_off_the_axes(self, q_values, shape):
        grid = HusimiGrid("bare", [0.0, 1.0], [0.0, 1.0], q_values)
        with pytest.raises(ValueError, match=f"q_values is {shape} .*the axes need 2 x 2"):
            husimi_grid_csv(grid)

    def test_husimi_csv_equals_per_cell_formatting(self):
        grid = husimi_grid(StateSpec.even_coherent(2.0, EngineeringOp.psa(4, 2)), steps=7)
        grid.q_values[1][2] = float("nan")
        expected = "re,im,q_value\n" + "".join(
            _per_cell(re, im, grid.q_values[i][j]) + "\n"
            for i, im in enumerate(grid.im_values)
            for j, re in enumerate(grid.re_values)
        )
        assert husimi_grid_csv(grid) == expected

    def test_sweep_csv_equals_per_cell_formatting(self):
        table = sweep("mandel", 2, [EngineeringOp.psa(1, 1), EngineeringOp.psa(2, 1)], FAMILY_THERMAL,
                      param_min=0.0, param_max=2.0, steps=9)
        assert math.isnan(table.series["PSA(1,1)"][0])  # annihilated at rbar = 0
        table.series["PSA(2,1)"][3] = -0.0
        labels = list(table.series)
        expected = 'param,"PSA(1,1)","PSA(2,1)"\n' + "".join(
            _per_cell(value, *(table.series[k][i] for k in labels)) + "\n"
            for i, value in enumerate(table.parameter_values)
        )
        assert sweep_table_csv(table) == expected
        assert ",-0.0\n" in expected and ",nan," in expected

    @pytest.mark.parametrize("kind", ["sweep", "husimi"])
    def test_array_panel_and_its_list_twin_write_the_same_text(self, kind, tmp_path):
        # a panel holds the engines' float64 arrays; lists of the same floats are read the same
        if kind == "sweep":
            panel = sweep("mandel", 2, [EngineeringOp.psa(1, 1), EngineeringOp.pas(2, 1)], FAMILY_THERMAL,
                          param_min=0.0, param_max=2.0, steps=9)
            twin = SweepTable(panel.parameter_name, panel.parameter_values.tolist(),
                              {label: values.tolist() for label, values in panel.series.items()})
        else:
            panel = husimi_grid(StateSpec.even_coherent(2.0, EngineeringOp.psa(4, 2)), steps=7)
            twin = HusimiGrid(panel.label, panel.re_values, panel.im_values, panel.q_values.tolist())
        assert sweep_report.panel_csv(twin) == sweep_report.panel_csv(panel)
        written = []
        for name, each in (("array", panel), ("list", twin)):
            (_, path), = write_figure_pack(sweep_report.FigurePack("figZ", [("a", each)]), tmp_path / name)
            with open(path, "rb") as fh:
                written.append(fh.read())
        assert written[0] == written[1]

    def test_write_figure_pack(self, tmp_path):
        pack = figure_pack("fig11", steps=3)
        manifest = write_figure_pack(pack, tmp_path)
        assert [name for name, _ in manifest] == ["a", "b", "c", "d"]
        for _, path in manifest:
            with open(path, "rb") as fh:
                content = fh.read()
            assert content.startswith(b"param,")
            assert b"\r" not in content

    def test_byte_identical_runs(self, tmp_path):
        pack_a = figure_pack("fig11", steps=4)
        pack_b = figure_pack("fig11", steps=4)
        for (_, panel_a), (_, panel_b) in zip(pack_a.panels, pack_b.panels):
            assert sweep_report.panel_csv(panel_a) == sweep_report.panel_csv(panel_b)


def _hand_built_pack() -> sweep_report.FigurePack:
    """Sweep panels of different lengths and series counts, sharing some
    parameter values and edge cells, around a Husimi grid."""
    edge = list(_EDGE_VALUES)
    axis = [0.0, -0.0, 1e16, 1e-05]
    return sweep_report.FigurePack("figX", [
        ("a", SweepTable("rbar", [0.0, 0.5, 1.0], {"PAS(1,1)": [1.0, -0.0, math.nan]})),
        ("b", SweepTable("rbar", edge, {"A": edge[::-1], "B": edge, "C": [0.5] * len(edge)})),
        ("c", HusimiGrid("edge", axis, axis, [edge[i:i + 4] for i in range(0, 16, 4)])),
        ("d", SweepTable("alpha", [0.5, 1.0], {"bare": [0.0, 0.5], "PSA(2,1)": [2.5, 1e-05]})),
    ])


class TestPackFormatting:
    """write_figure_pack formats every sweep panel's cells in one call and
    hands each panel's slice to its own panel_csv call."""

    def test_each_file_equals_its_panel_alone(self, tmp_path):
        pack = _hand_built_pack()
        manifest = write_figure_pack(pack, tmp_path)
        assert [name for name, _ in manifest] == ["a", "b", "c", "d"]
        for (name, path), (_, panel) in zip(manifest, pack.panels):
            with open(path, newline="") as fh:
                assert fh.read() == sweep_report.panel_csv(panel), name

    def test_panel_csv_called_once_per_panel_with_its_text(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps panel_csv by name and sums the text it returns
        pack = _hand_built_pack()
        alone = [sweep_report.panel_csv(panel) for _, panel in pack.panels]
        calls = []
        original = sweep_report.panel_csv

        def recording(panel, *args, **kwargs):
            text = original(panel, *args, **kwargs)
            calls.append((panel, text))
            return text

        monkeypatch.setattr(sweep_report, "panel_csv", recording)
        manifest = write_figure_pack(pack, tmp_path)
        assert [panel for panel, _ in calls] == [panel for _, panel in pack.panels]
        assert [text for _, text in calls] == alone
        written = b"".join(Path(path).read_bytes() for _, path in manifest)
        assert len(written) == sum(len(text.encode()) for _, text in calls)

    def test_one_formatting_call_for_the_sweep_panels(self, tmp_path, monkeypatch):
        pack = _hand_built_pack()
        sizes = []
        original = sweep_report.format_floats

        def counting(values):
            cells = original(values)
            sizes.append(len(cells))
            return cells

        monkeypatch.setattr(sweep_report, "format_floats", counting)
        write_figure_pack(pack, tmp_path)
        sweep_cells = sum((1 + len(panel.series)) * len(panel.parameter_values)
                          for _, panel in pack.panels if isinstance(panel, SweepTable))
        # the sweep panels' cells in one call; the Husimi grid its q, re and im in one
        assert sizes == [sweep_cells, 16 + 4 + 4]

    def test_husimi_only_pack(self, tmp_path):
        grid = HusimiGrid("bare", [0.0, 1.0], [0.0, 1.0], [[0.1, 0.2], [0.3, 0.4]])
        (_, path), = write_figure_pack(sweep_report.FigurePack("figY", [("a", grid)]), tmp_path)
        with open(path, newline="") as fh:
            assert fh.read() == husimi_grid_csv(grid)
