"""The command line's contracts: one row per command.

A row holds a command's argv and what it must do: its exit code, its
stdout (exact text or a pattern), its stderr (exact text or a pattern,
"" for none), the files in its working directory before the run (`setup`)
and after it (`left`, by default what `setup` made). Every stderr is also
free of tracebacks and warnings. A row's `test` is the tier-1 test that
runs it; rows that share one run in one test.

tests/test_cli.py runs every row in process through `cli.main`, with every
warning an error, and a `fresh` row as a `python -W error -m fockwitness`
process too. `fresh` marks a contract about the process itself: it is the
wall time, in seconds, the process must exit within.

Run as a script,

    python -W error tests/contracts.py

runs every row as a fresh `python -W error -m fockwitness` process in an
empty directory, and exits 1 naming each failing row.
"""

from __future__ import annotations

import concurrent.futures
import csv
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

# a finite float as repr prints it, and the shortest form of 0 a moment prints
F = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?"
# the canonical spec, StateSpec.canonical(), of a state of verify's grids:
# rbar or alpha of its grid, bare or an operation with p, q <= 3
GRID_SPEC = (r"(?:thermal\(rbar=(?:0\.1|0\.5|1\.0|2\.0|5\.0)\)|ecs\(alpha=(?:0\.3|0\.7|1\.2|2\.0)\))"
             r"\|(?:bare|P(?:AS|SA)\([0-3],[0-3]\))")

# the panels of each figure pack, one CSV file each
PANELS = {**{f"fig{n}": "abc" for n in (1, 2, 3, 4, 5, 6, 9, 10)},
          "fig7": "abcde", "fig8": "abcde", "fig11": "abcd", "fig12": "abcd"}
FIGURES = [f"fig{n}" for n in range(1, 13)]


class Row:
    def __init__(self, test, argv, code=0, out="", err="", setup=None, left=None, fresh=None):
        self.test = test
        self.argv = argv.split()
        self.code = code
        self.out = out
        self.err = err
        self.setup = setup or {}
        self.left = self.setup if left is None else left
        self.fresh = fresh

    def __repr__(self):
        return f"{self.test}: {' '.join(self.argv)}"


def rx(regex):
    return re.compile(regex, re.DOTALL)


def line(prefix):
    """One stderr line that begins with prefix."""
    return rx(re.escape(prefix) + r"[^\n]*\n")


def usage(message, tail=""):
    """argparse's usage lines, then its one error line: message, then the pattern tail."""
    return rx(r"usage: fockwitness[^\n]*\n(?: +[^\n]*\n)*fockwitness(?: \w+)?: error: "
              + re.escape(message) + tail + r"\n")


def record(name, order, flag="true|false"):
    return rx(rf"{name},{order},{F},(?:{flag})\n")


def table(header, rows):
    """A CSV with this header line, then rows lines of the header's width."""
    width = len(next(csv.reader([header])))
    return rx(re.escape(header) + rf"\n(?:[^,\n]+(?:,[^,\n]+){{{width - 1}}}\n){{{rows}}}")


def starts(text):
    return rx(re.escape(text) + ".*")


def manifest(out, figure):
    return "".join(f"{c},{out}/{figure}_{c}.csv\n" for c in PANELS[figure])


def pack(out, figure, **files):
    """The files of a figure pack written to out, each beginning with its header."""
    header = "re,im,q_value\n" if figure in ("fig7", "fig8") else "param,"
    return {**files, f"{out}/": None, **{f"{out}/{figure}_{c}.csv": starts(header) for c in PANELS[figure]}}


def config(text):
    return {"run.cfg": text}


_MOMENT = "moment --m 1 --n 1"
_SWEEP = "sweep --name mandel --family thermal"
_ECS = "witness --name hoa --family ecs --alpha 1"
_HOA_PSA = "witness --name hoa --l 2 --op psa"
_HOSPS = "witness --name hosps"
_BASIS = "oracle basis too large: "
_RANGE = "out of float range: "
_CONFIG = "configuration error: "
_NOT_READ = _CONFIG + "{} takes no --{}\n"
_TOL_NOT_READ = _CONFIG + "--tol is read only under --engine both\n"
_ORDER_PAST_INT64 = _CONFIG + "moment orders are limited to 2**63 - 1 = 9223372036854775807\n"
_ZERO_MEAN = "undefined witness: mandel_q is undefined for a zero-mean-photon state\n"
_MEAN_UNDERFLOW = _RANGE + "mandel_q divides by a mean photon number below the float range\n"
_DEVIATION = "analytic/oracle deviation exceeds tolerance "
_BIG = 10 ** 20
# the wall time of a row that tier-1 also runs as a new process for its entry
# point, `python -m fockwitness`: one row per exit code, 0, 1, 2, 3 and 5
_ENTRY = 60
_PASS = r"PASS {}: \d+ checks, max deviation \S+\n"
_FAIL = r"FAIL {}: \d+ checks, max deviation \S+\n"
# the variants of the NaN-gap and stacked sweeps: PAS(2,1) and PSA(2,1) are
# annihilated at parameter 0, PAS(1,2) is not
GAP_VARIANTS = ("PAS(2,1)", "PSA(2,1)", "PAS(1,2)")
GAPS = ",".join(GAP_VARIANTS)
_GAP_SWEEP = "--param-min 0 --param-max 3 --steps 13 --engine both"


def _gap_table(variants):
    """The CSV of a sweep of variants on both engines at the 13 points of _GAP_SWEEP."""
    return table(",".join(["param"] + [f'"{v}","{v}@oracle"' for v in re.findall(r"\w+\(\d+,\d+\)", variants)]), 13)


def stacked_sweep(family, witness, variants):
    """The argv of a NaN-gap sweep of variants: three at once, or one alone."""
    return f"sweep --name {witness} --family {family} {_GAP_SWEEP} --variants {variants}"


STACKED = [(family, witness) for family in ("thermal", "ecs")
           for witness in ("mandel --l 2", "hoa --l 3", "hosps --l 3", "hos --l 4", "a3")]


ROWS = [
    # -- one command, one record --------------------------------------------
    Row("TestMomentCommand::test_past_mean", "moment --family thermal --op pas --p 1 --q 1 --rbar 1 --m 1 --n 1",
        out="1,1,3.3333333333333335,0\n", fresh=_ENTRY),
    Row("TestMomentCommand::test_ecs_parity_zero", "moment --family ecs --alpha 1 --m 1 --n 0", out="1,0,0,0\n"),
    Row("TestMomentCommand::test_degenerate_exit_code",
        "moment --family thermal --op psa --p 1 --rbar 0 --m 0 --n 0",
        code=3, err="degenerate state: thermal(rbar=0.0)|PSA(1,0) is annihilated\n", fresh=_ENTRY),
    # 2 rbar (3 rbar + 2) / (2 rbar + 1) at rbar = 1e15, to 1e-12
    Row("TestMomentCommand::test_huge_rbar_is_finite",
        "moment --family thermal --op pas --p 1 --q 1 --rbar 1e15 --m 1 --n 1",
        out=rx(r"1,1,(?:2999999999999\d{3}|3000000000000\d{3})\.\d+,0\n")),
    # order! rbar^order: the float of 171! overflows and 0.01^170 underflows,
    # but neither the moment nor its logarithm does; each to 1e-11
    Row("TestMomentCommand::test_thermal_high_order_moment[170-7.2574156153080245e-34]",
        "moment --family thermal --rbar 0.01 --m 170 --n 170", out=rx(r"170,170,7\.25741561530\d*e-34,0\n")),
    Row("TestMomentCommand::test_thermal_high_order_moment[171-1.2410180702176721e-33]",
        "moment --family thermal --rbar 0.01 --m 171 --n 171", out=rx(r"171,171,1\.24101807021\d*e-33,0\n")),
    Row("TestMomentCommand::test_missing_orders_is_config_error", "moment --family thermal --rbar 1",
        code=2, err=_CONFIG + "moment requires --m and --n\n"),
    # 13/3 to 1e-12
    Row("TestMomentCommand::test_both_engine_agrees",
        "moment --family thermal --op psa --p 1 --q 1 --rbar 1 --m 1 --n 1 --engine both",
        out=rx(r"1,1,4\.333333333333\d*,0\n")),
    Row("TestWitnessCommand::test_mandel_record", "witness --name mandel --l 2 --family thermal --rbar 1",
        out=rx(r"mandel,2,(?:1\.0|1\.000000000000\d*|0\.999999999999\d*),false\n")),
    Row("TestWitnessCommand::test_power_of_mean_anomaly_record",
        "witness --name a3 --variant power_of_mean --family thermal --rbar 1", out="agarwal_tara,0,-1.0,true\n"),
    # 1/256 to 1e-12
    Row("TestWitnessCommand::test_klyshko_record", "witness --name klyshko --m 2 --family thermal --rbar 1",
        out=rx(r"klyshko,2,0\.0039062(?:4999999999\d*|5|50000000000\d*),false\n")),
    # the thermal vacuum: every determinant vanishes
    Row("TestWitnessCommand::test_singular_exit_code", "witness --name a3 --family thermal --rbar 0",
        code=5, err="indeterminate witness: agarwal_tara denominator vanishes (witness indeterminate)\n",
        fresh=_ENTRY),
    Row("TestWitnessCommand::test_unknown_name_is_config_error",
        "witness --name sorcery --family thermal --rbar 1", code=2, err=_CONFIG + "unknown witness name 'sorcery'\n"),
    # m, m + 1 and m + 2 stay exact integers across the int64 and uint64
    # limits, where np.arange gave floats
    *[Row("TestWitnessCommand::test_klyshko_at_huge_photon_number",
          f"witness --name klyshko --m {m} --family thermal --op pas --p 1 --q 1 --rbar 1",
          out=f"klyshko,{m},0.0,false\n")
      for m in (10 ** 200, 2 ** 63 - 3, 2 ** 63 - 2, 2 ** 63 - 1, 2 ** 64 - 4, 2 ** 64 - 2, _BIG)],
    *[Row(f"TestWitnessCommand::test_klyshko_on_the_oracle_names_the_exact_level[{m}]",
          f"witness --name klyshko --m {m} --family thermal --rbar 0.5 --engine oracle", code=2,
          err=f"{_BASIS}thermal(rbar=0.5)|bare needs more than 4096 Fock levels to hold level {m + 2}\n")
      for m in (2 ** 63 - 3, 2 ** 64 - 4)],
    # a Husimi zero is never negative
    Row("TestWitnessCommand::test_husimi_zero_record",
        "witness --name husimi-zero --family thermal --op psa --p 1 --q 2 --rbar 1",
        out=rx(r"husimi_zero,0,\d+(?:\.\d+)?(?:e[+-]\d+)?,true\n")),
    # the largest order with float coefficients, from a cold start
    Row("TestWitnessCommand::test_the_largest_mandel_order_in_a_new_process",
        "witness --name mandel --l 219 --family thermal --rbar 0.01", out=record("mandel", 219), fresh=60),

    # -- figure packs ----------------------------------------------------------
    Row("TestFigureCommand::test_unknown_figure_exit_code", "figure fig99",
        code=2, err=_CONFIG + "unknown figure id 'fig99'\n"),
    Row("TestFigureCommand::test_manifest_and_files", "figure fig11 --steps 7 --out out",
        out=manifest("out", "fig11"), left=pack("out", "fig11")),
    Row("TestFigureCommand::test_husimi_figure_csv_columns", "figure fig8 --grid-steps 5 --out out",
        out=manifest("out", "fig8"), left=pack("out", "fig8")),
    # --out names an existing file, where the pack's directory would go
    Row("TestFigureCommand::test_unwritable_out_is_config_error", "figure fig7 --grid-steps 3 --out taken",
        code=2, err=line(_CONFIG + "cannot write taken: "), setup={"taken": "kept\n"}),
    # a later panel's file is blocked by a directory of its name: the files
    # written before it are removed, and a file the pack does not name stays
    Row("TestFigureCommand::test_a_write_that_fails_part_way_leaves_no_pack_file[alone]",
        "figure fig7 --grid-steps 3 --out d", code=2, err=line(_CONFIG + "cannot write d: "),
        setup={"d/": None, "d/fig7_c.csv/": None}),
    Row("TestFigureCommand::test_a_write_that_fails_part_way_leaves_no_pack_file[beside-a-file]",
        "figure fig7 --grid-steps 3 --out d", code=2, err=line(_CONFIG + "cannot write d: "),
        setup={"d/": None, "d/fig7_c.csv/": None, "d/notes.txt": "kept\n"}),
    # as CI passes --steps 9 --grid-steps 5 to every pack
    *[Row(f"TestFigureStepFlags::test_valid_value_on_the_unread_flag_is_accepted[{figure}]",
          f"figure {figure} --steps 3 --grid-steps 3 --out out", out=manifest("out", figure), left=pack("out", figure))
      for figure in ("fig1", "fig7")],
    # every pack at reduced size, the analytic engine against the oracle at the default --tol
    *[Row("TestFigureCommand::test_reduced_packs_agree_with_the_oracle",
          f"figure {figure} --steps 9 --grid-steps 5 --engine both --out out",
          out=manifest("out", figure), left=pack("out", figure))
      for figure in FIGURES],
    # the Husimi packs at the 121 x 121 grids their CSVs are written at
    *[Row("TestFigureCommand::test_default_husimi_packs_agree_with_the_oracle",
          f"figure {figure} --engine both --out out", out=manifest("out", figure), left=pack("out", figure))
      for figure in ("fig7", "fig8")],
    # every pack at default size; test_cli also checks that one process
    # writes them as a new process per pack does
    *[Row("TestFigureCommand::test_default_packs", f"figure {figure} --out process",
          out=manifest("process", figure), left=pack("process", figure))
      for figure in FIGURES],

    # -- sweeps ----------------------------------------------------------------
    Row("TestSweepCommand::test_stdout_csv",
        "sweep --name mandel --l 2 --family thermal --variants PAS(1:1),PSA(1:1) --param-min 0.2 --param-max 1.0"
        " --steps 3",
        out=table('param,"PAS(1,1)","PSA(1,1)"', 3)),
    # README's example
    Row("TestSweepCommand::test_readme_example",
        "sweep --name mandel --l 2 --family thermal --variants PAS(1,1),PSA(1,1) --steps 50",
        out=table('param,"PAS(1,1)","PSA(1,1)"', 50)),
    # a file in a missing directory, and a directory
    *[Row(f"TestSweepCommand::test_unwritable_out_is_config_error[{out}]", f"{_SWEEP} --steps 3 --out {out}",
          code=2, err=line(f"{_CONFIG}cannot write {out}: "))
      for out in ("missing/x.csv", ".")],
    Row("TestSweepCommand::test_bad_variant_label", "sweep --name hoa --family thermal --variants XYZ(1:1)", code=2,
        err=_CONFIG + "cannot parse variant label 'XYZ(1:1)': expected bare, PAS(p,q) or PSA(p,q)\n"),
    # --variant is the prefix argparse expands to --variants
    *[Row(f"TestSweepCommand::test_repeated_variants_flag_is_rejected[{flag}]",
          f"{_SWEEP} --steps 2 {flag} PSA(1,1) {flag} PAS(2,1)", code=2,
          err=_CONFIG + "--variants may be given only once\n")
      for flag in ("--variants", "--variant")],
    # PAS(2,1) and PSA(2,1) are annihilated at rbar = 0, which no figure
    # window reaches, so their NaN gaps run here on both engines
    *[Row("TestSweepNaNGaps::test_gaps_at_the_vacuum_agree_on_both_engines",
          f"sweep --name {witness} --family thermal --variants {GAPS} {_GAP_SWEEP}", out=_gap_table(GAPS))
      for witness in ("a3", "hoa --l 2", "mandel --l 2", "klyshko --m 1")],
    # each stack and each of its variants alone; test_cli checks that a
    # variant's columns in the stack are those of its own sweep
    *[Row("TestSweepCommand::test_stacked_sweeps",
          stacked_sweep(family, witness, variants), out=_gap_table(variants))
      for family, witness in STACKED for variants in (GAPS, *GAP_VARIANTS)],

    # -- what a command reads -----------------------------------------------
    *[Row(f"TestNumericDomain::test_is_config_error[{argv}]", argv, code=2, err=line(_CONFIG))
      for argv in (f"{_MOMENT} --family thermal --rbar nan", f"{_MOMENT} --family thermal --rbar inf",
                   f"{_MOMENT} --family ecs --alpha nan", f"{_MOMENT} --family ecs --alpha inf",
                   f"{_SWEEP} --param-min nan", f"{_SWEEP} --param-max inf", f"{_SWEEP} --steps 1",
                   f"{_SWEEP} --param-min 5 --param-max 1", f"{_SWEEP} --variants PAS(9:1)",
                   "witness --name mandel --l 1 --family thermal --rbar 1",
                   "witness --name hoa --l 0 --family thermal --rbar 1",
                   "witness --name hos --l 0 --family thermal --rbar 1",
                   "witness --name klyshko --m -1 --family thermal --rbar 1",
                   "figure fig1 --steps 1", "figure fig7 --grid-steps 1", "figure fig1 --steps 0",
                   "figure fig7 --grid-steps 0",
                   # the step flag the figure does not read is checked too
                   "figure fig1 --grid-steps 0 --steps 3", "figure fig7 --steps 0 --grid-steps 3",
                   "figure fig11 --grid-steps 1 --steps 3")],
    # An engineered thermal state at a subnormal rbar is, in double precision,
    # the Fock state |k> its lowest bare level goes to: k = q - p under PAS
    # (0 where p > q) and k = q under PSA. B(m) of |k> is -(m + 1) at
    # k = m + 1 and 0 elsewhere.
    *[Row(f"TestNumericDomain::test_klyshko_at_a_subnormal_rbar[{rbar}-{m}-{op}-{p}-{q}]",
          f"witness --name klyshko --m {m} --family thermal --rbar {rbar} --op {op} --p {p} --q {q}",
          out=f"klyshko,{m},{value!r},{str(value < 0).lower()}\n")
      for rbar, m, op, p, q in [("1e-320", m, op, p, q) for m in (0, 2) for op in ("pas", "psa")
                                for p in range(5) for q in range(5) if p or q]
      + [(rbar, m, "none", 0, 0) for rbar in ("1e-320", "5e-309") for m in (0, 2)]
      for k in [max(q - p, 0) if op == "pas" else q]
      for value in [-(m + 1.0) if k == m + 1 else 0.0]],
    # The operations annihilate a bare state only at the vacuum, parameter 0:
    # at any other parameter a norm or an oracle mass that is a normal float
    # is evaluated, and one below the normal floats is out of range (exit 2),
    # never annihilated (exit 3). The PSA(2,1) norm, about |alpha|^4, is 1e-304 here.
    Row("TestUnderflowIsNotAnnihilation::test_a_cat_norm_in_the_normal_floats_is_evaluated",
        f"{_HOA_PSA} --p 2 --q 1 --family ecs --alpha 1e-76 --engine both", out="hoa,2,-1.0,true\n"),
    *[Row(f"TestUnderflowIsNotAnnihilation::test_an_underflowing_norm_is_out_of_range[{argv}]", f"{_HOA_PSA} {argv}",
          code=2, err=rx(_RANGE + r"the [^\n]* is not a normal float\n"))
      for argv in ("--p 2 --q 1 --family ecs --alpha 1e-80 --engine analytic",
                   "--p 2 --q 1 --family ecs --alpha 1e-80 --engine oracle",
                   "--p 1 --q 1 --family thermal --rbar 1e-320 --engine oracle",
                   "--p 2 --q 1 --family thermal --rbar 1e-200 --engine oracle")],
    *[Row(f"TestUnderflowIsNotAnnihilation::test_hos_sums_past_the_float_range[{l}]",
          f"witness --name hos --l {l} --family thermal --rbar 0.5", code=2,
          err=f"{_RANGE}the quadrature sums of hos at order {l} exceed the float range\n")
      for l in (270, 290)],

    # -- typed errors ----------------------------------------------------------
    *[Row(f"TestExitCodes::test_typed_error_exit_code[{argv}-{code}-{prefix}]", argv, code=code, err=err, fresh=fresh)
      for argv, code, prefix, err, fresh in [
          ("witness --name hos --l 3 --family thermal --rbar 1", 2, _CONFIG + "hos is defined for even order only",
           line(_CONFIG + "hos is defined for even order only"), _ENTRY),
          # only the vacuum is a zero-mean state: a cat mean that underflows
          # to exactly 0 is out of range on every engine
          ("witness --name mandel --family thermal --rbar 0", 5, "undefined witness:", _ZERO_MEAN, None),
          ("witness --name mandel --family ecs --alpha 0 --engine oracle", 5, _ZERO_MEAN[:-1], _ZERO_MEAN, None),
          ("witness --name mandel --family thermal --rbar 0 --op pas --p 1 --q 1", 5, _ZERO_MEAN[:-1], _ZERO_MEAN,
           None),
          *[(f"witness --name mandel --family ecs --alpha 1e-170 --engine {engine}", 2, _MEAN_UNDERFLOW[:-1],
             _MEAN_UNDERFLOW, None) for engine in ("analytic", "oracle", "both")],
          ("witness --name mandel --engine oracle --family thermal --rbar 500", 2, _BASIS[:-1], line(_BASIS), None),
          # the basis must hold the k^2-weighted tail of <a'^2 a^2>, not only the mass
          ("witness --name hoa --engine oracle --family thermal --rbar 120", 2,
           _BASIS + "thermal(rbar=120.0)|bare moments need more than 4096 Fock levels",
           line(_BASIS + "thermal(rbar=120.0)|bare moments need more than 4096 Fock levels"), None),
          ("moment --m 2 --n 2 --family thermal --op pas --p 2 --q 2 --rbar 1e200", 2, _RANGE[:-1], line(_RANGE), None),
          (f"{_MOMENT} --family ecs --alpha 1e200", 2, _RANGE[:-1], line(_RANGE), None),
          ("witness --name husimi-zero --family ecs --alpha 200", 2,
           _CONFIG + "Husimi Q of ecs(alpha=200.0)|bare is 0 on the whole window",
           line(_CONFIG + "Husimi Q of ecs(alpha=200.0)|bare is 0 on the whole window"), None),
          # a zero mean at one grid point fails the whole sweep, not a NaN gap
          ("sweep --name mandel --family thermal --variants bare --param-min 0 --steps 5", 5, "undefined witness:",
           _ZERO_MEAN, None),
          ("sweep --name hoa --family thermal --variants PAS(2,2) --param-max 1e200 --steps 3", 2,
           _RANGE + "<a'^2 a^2> of thermal(rbar=5e+199)|PAS(2,2)",
           line(_RANGE + "<a'^2 a^2> of thermal(rbar=5e+199)|PAS(2,2)"), None)]],
    Row("TestExitCodes::test_only_the_vacuum_has_zero_mean", "witness --name mandel --family ecs --alpha 0",
        code=5, err=_ZERO_MEAN),
    # c M! of <a'^l a^l> is not built where its logarithm is far past the
    # range: a term past 170! is taken from log c + lgamma(M + 1)
    *[Row(f"TestExitCodes::test_a_moment_far_past_the_float_range_fails{fast}[{label}]",
          f"witness --name hoa --l {l} --family thermal --rbar 0.5{op}", code=2,
          err=f"{_RANGE}<a'^{l} a^{l}> of thermal(rbar=0.5)|{label} exceeds the float range\n", fresh=fresh)
      for l, fast, fresh in ((1000000, "_fast", 2.0), (3000000, "", 10.0))
      for op, label in (("", "bare"), (" --op pas --p 2 --q 1", "PAS(2,1)"))],
    # hoa l = 2 reads up to <a'^2 a^2>; a k^4-weighted tail would not fit;
    # the value is rbar^2 to 1e-12
    Row("TestExitCodes::test_oracle_basis_weighs_the_tail_by_the_order_read",
        "witness --name hoa --engine oracle --family thermal --rbar 100",
        out=rx(r"hoa,2,(?:9999\.99999999\d*|10000\.0|10000\.00000000\d*),false\n")),
    Row("TestExitCodes::test_oracle_basis_weighs_the_tail_by_the_order_read",
        "witness --name hoa --l 4 --engine oracle --family thermal --rbar 100", code=2, err=line(_BASIS)),
    Row("TestExitCodes::test_klyshko_underflow_hidden_by_rounded_x",
        f"witness --name klyshko --m {10 ** 30} --family thermal --op pas --p 8 --q 8 --rbar 1e16",
        out=f"klyshko,{10 ** 30},0.0,false\n"),

    # -- --engine both and its tolerance ---------------------------------------
    Row("TestBothEngineTolerance::test_figure_deviation_above_tol_fails_but_writes",
        "figure fig7 --grid-steps 5 --engine both --tol 1e-30 --out out", code=1, out=manifest("out", "fig7"),
        err=rx(rf"{_DEVIATION}1e-30: fig7_a \S+\n(?:{_DEVIATION}1e-30: fig7_[b-e] \S+\n)*"), left=pack("out", "fig7")),
    Row("TestBothEngineTolerance::test_sweep_deviation_above_tol_fails_but_writes",
        f"{_SWEEP} --steps 3 --engine both --tol 1e-30 --out out.csv", code=1, out="out.csv\n",
        err=rx(rf"{_DEVIATION}1e-30: PAS\(1,1\) \S+\n(?:{_DEVIATION}1e-30: PSA\(1,1\) \S+\n)?"),
        left={"out.csv": table('param,"PAS(1,1)","PAS(1,1)@oracle","PSA(1,1)","PSA(1,1)@oracle"', 3)}),
    Row("TestBothEngineTolerance::test_witness_deviation_above_tol_fails",
        "witness --name mandel --family thermal --op pas --p 1 --q 1 --rbar 1 --engine both --tol 1e-30", code=1,
        out=record("mandel", 2), err=line(f"{_DEVIATION}1e-30: mandel "), fresh=_ENTRY),
    Row("TestBothEngineTolerance::test_default_tol_passes[figure fig8 --grid-steps 3 --engine both]",
        "figure fig8 --grid-steps 3 --engine both --out out", out=manifest("out", "fig8"), left=pack("out", "fig8")),
    Row("TestBothEngineTolerance::test_default_tol_passes"
        "[sweep --name mandel --family thermal --steps 3 --engine both]",
        f"{_SWEEP} --steps 3 --engine both --out out", out="out\n",
        left={"out": table('param,"PAS(1,1)","PAS(1,1)@oracle","PSA(1,1)","PSA(1,1)@oracle"', 3)}),
    Row("TestRefusedOptions::test_tol_is_read_under_engine_both_from_config",
        "witness --name mandel --family thermal --op pas --p 1 --q 1 --rbar 1 --config run.cfg", code=1,
        out=record("mandel", 2), err=line(f"{_DEVIATION}1e-30: mandel "), setup=config("engine=both\ntol=1e-30\n")),

    # -- verify ------------------------------------------------------------------
    # every suite but signs, which still asserts the reference claim that the
    # PSA(2,1) A3 is never negative; it joins once it asserts the pinned sign
    # change (ROADMAP, open item 1)
    Row("TestVerifyCommand::test_every_suite_but_signs_passes",
        "verify --suite moments --suite witnesses --suite normalization --suite hos --suite hosps_gate"
        " --suite coherent --suite fixtures --suite determinism",
        out=rx("".join(_PASS.format(suite) for suite in ("moments", "witnesses", "normalization", "hos", "hosps_gate"))
               + re.escape("  printed-sign variant = (-1)^l * direct definition; direct used\n")
               + "".join(_PASS.format(suite) for suite in ("coherent", "fixtures", "determinism")))),
    # a tolerance below what doubles resolve fails the grid suites that read
    # one, each FAIL line followed by a note that names a canonical spec
    Row("TestVerifyCommand::test_an_overtight_tolerance_names_a_spec_under_each_failure",
        "verify --suite moments --suite witnesses --suite hosps_gate --tol 1e-16", code=1,
        out=rx("".join(_FAIL.format(suite) + rf"  {GRID_SPEC} [^\n]*\n(?:  [^\n]*\n)*"
                       for suite in ("moments", "witnesses", "hosps_gate")))),
    Row("TestVerifyCommand::test_single_suite_passes", "verify --suite determinism",
        out=rx(_PASS.format("determinism"))),
    Row("TestVerifyCommand::test_overtight_tolerance_fails", "verify --suite fixtures --tol 1e-15", code=1,
        out=rx(_FAIL.format("fixtures") + r"(?:  [^\n]*\n)+")),
    Row("TestVerifyCommand::test_coherent_reads_tol", "verify --suite coherent --tol 1e-30", code=1,
        out=starts("FAIL coherent: 27 checks")),
    Row("TestVerifyCommand::test_tol_no_selected_suite_reads_is_config_error", "verify --suite hos --tol 1e-30", code=2,
        err=line(_CONFIG + "no selected suite reads a tolerance")),
    Row("TestVerifyCommand::test_unknown_suite_is_config_error", "verify --suite astrology", code=2,
        # how argparse quotes the choices differs from one Python release to another
        err=usage("argument --suite: invalid choice: 'astrology'", r" \(choose from [^\n]*determinism'?\)")),

    # -- refused values ------------------------------------------------------------
    # A --tol that is not a finite number >= 0 exits 2, as a flag or as a
    # config value: a NaN or negative tolerance would fail every check, and
    # inf pass every one
    *[Row(f"TestRefusedTolerance::test_flag[{argv}-{value}]", f"{argv} --tol {value}", code=2,
          err=usage(f"argument --tol: invalid tolerance value: '{value}'"))
      for argv, value in (("verify", "nan"), ("verify", "-1"), ("verify --suite fixtures", "inf"),
                          ("witness --name hoa --family thermal --rbar 1 --engine both", "nan"),
                          ("figure fig1 --steps 2 --engine both --out out", "-0.5"),
                          ("witness --name hoa --family thermal --rbar 1 --engine both", "-1"))],
    *[Row(f"TestRefusedTolerance::test_config[{name}]", f"{argv} --config run.cfg", code=2,
          err=f"{_CONFIG}config value tol={value!r} is not a valid tolerance\n", setup=config(text))
      for name, text, argv, value in (
          ("tol=nan-argv0", "tol=nan\n", "verify --suite fixtures", "nan"),
          ("engine=both tol=-1-argv1", "engine=both\ntol=-1\n", "witness --name hoa --family thermal --rbar 1", "-1"))],
    Row("TestRefusedTolerance::test_zero_is_a_tolerance", "verify --suite fixtures --tol 0", code=1,
        out=starts("FAIL fixtures: 25 checks")),
    # A negative value written with an exponent is a value, not a flag: it
    # reads as its decimal form and reaches its flag's type and domain checks
    Row("TestNegativeValues::test_a_value_with_an_exponent_reads_as_its_decimal_form[-1e-3]",
        f"{_ECS} --alpha-im=-1e-3", out="hoa,2,0.4199745418621521,false\n"),
    *[Row(f"TestNegativeValues::test_a_value_with_an_exponent_reads_as_its_decimal_form[{value}]",
          f"{_ECS} --alpha-im {value}", out="hoa,2,0.4199745418621521,false\n")
      for value in ("-1e-3", "-1E-3", "-1e-03", "-0.1e-2", "-.1e-2", "-1.0E-3")],
    *[Row(f"TestNegativeValues::test_a_value_with_an_exponent_meets_its_checks[{argv}-{message}\n]", argv, code=2,
          err=usage(message) if message.startswith("argument") else message + "\n")
      for argv, message in (
          ("witness --name hoa --family thermal --rbar -1e-3", _CONFIG + "mean photon number must be finite and >= 0"),
          ("sweep --name hoa --family thermal --param-min -1E+2",
           _CONFIG + "parameter range must be finite, non-negative and increasing"),
          ("moment --family thermal --rbar 1 --m -1e3 --n 1", "argument --m: invalid int value: '-1e3'"),
          ("verify --tol -1e-3", "argument --tol: invalid tolerance value: '-1e-3'"))],
    # float()'s words, in any case, reach the flag's domain check as the
    # --flag=value form does
    *[Row(f"TestNegativeValues::test_a_negative_float_word_meets_its_checks[{flag}-{value}-{message}]",
          f"witness --name hoa {family} {form}", code=2, err=f"{_CONFIG}{message}\n")
      for flag, value, message in (
          ("--alpha-im", "-inf", "amplitude must be finite"), ("--alpha-im", "-Infinity", "amplitude must be finite"),
          ("--alpha-im", "-INF", "amplitude must be finite"), ("--alpha-im", "-nan", "amplitude must be finite"),
          ("--rbar", "-nan", "mean photon number must be finite and >= 0"),
          ("--rbar", "-NaN", "mean photon number must be finite and >= 0"),
          ("--rbar", "-inf", "mean photon number must be finite and >= 0"))
      for family in ["--family ecs --alpha 1" if flag == "--alpha-im" else "--family thermal"]
      for form in (f"{flag} {value}", f"{flag}={value}")],

    # -- orders ----------------------------------------------------------------------
    # an order past the int64 range is a configuration error on either
    # engine, not a traceback; the int64 maximum itself is read
    *[Row(f"TestOrderLimit::test_an_order_past_int64_is_refused[{name}]", argv, code=2, err=_ORDER_PAST_INT64)
      for name, argv in (
          (f"moment --family --n {_BIG}_0", f"moment --family thermal --rbar 0.5 --m {_BIG} --n {_BIG}"),
          (f"moment --family --n {_BIG}_1", f"moment --family ecs --alpha 0.5 --m {_BIG} --n {_BIG}"),
          ("moment --family --engine both", f"moment --family thermal --rbar 0.5 --m {2 ** 63} --n 1 --engine both"),
          ("witness --name --rbar 0.5", f"witness --name hoa --l {_BIG} --family thermal --rbar 0.5"),
          ("witness --name --engine oracle",
           f"witness --name hoa --l {_BIG} --family thermal --rbar 0.5 --engine oracle"))],
    # decided from the order, before any of its l + 1 (hos: O(l^2)) pairs is listed
    *[Row(f"TestOrderLimit::test_an_order_past_the_float_coefficients_is_refused[{witness}-{order}-{engine}]",
          f"witness --name {witness} --l {order} --family thermal --rbar 0.01 --engine {engine}", code=2,
          err=f"{_RANGE}the coefficients of {witness} at order {order} exceed the float range "
              f"(its largest order is {largest})\n")
      for big in (False, True) for witness, largest in (("mandel", 219), ("hosps", 218), ("hos", 291))
      for order in [_BIG if big else largest + 1] for engine in ("analytic", "oracle")],
    Row("TestOrderLimit::test_the_int64_maximum_is_read",
        f"moment --family thermal --rbar 0.5 --m {2 ** 63 - 1} --n {2 ** 63 - 1}", code=2,
        err=f"{_RANGE}<a'^{2 ** 63 - 1} a^{2 ** 63 - 1}> of thermal(rbar=0.5)|bare exceeds the float range\n"),

    # -- flags given twice, and flags a command does not read ----------------------------
    # every value flag of every command may be given once; a repeat names the flag
    *[Row(f"TestRepeatedFlags::test_repeat_is_config_error[{argv}-{flag}]", argv, code=2,
          err=f"{_CONFIG}{flag} may be given only once\n")
      for argv, flag in (
          ("moment --family thermal --family ecs --alpha 1 --m 1 --n 1", "--family"),
          (f"{_MOMENT} --family thermal --rbar 1 --m 2", "--m"),
          ("witness --name hoa --family thermal --rbar 1 --rbar 2", "--rbar"),
          ("witness --name hoa --family ecs --alpha 1 --alpha-re 2", "--alpha-re"),
          (f"{_SWEEP} --steps 2 --steps 3", "--steps"),
          ("figure fig1 --steps 2 --steps 3", "--steps"),
          ("verify --suite determinism --tol 1 --tol 2", "--tol"))],
    # the command line's --rbar wins and the config value is no repeat
    Row("TestRepeatedFlags::test_config_fills_a_flag_given_once",
        f"{_MOMENT} --family thermal --rbar 1 --config run.cfg", out="1,1,1.0,0\n", setup=config("rbar=2\n")),
    Row("TestRepeatedFlags::test_config_fills_a_flag_given_once", f"{_MOMENT} --family thermal --rbar 1",
        out="1,1,1.0,0\n"),
    # a flag or config key a command would not read exits 2 and names it,
    # before any record is printed or file written
    *[Row(f"TestRefusedOptions::test_refused_before_any_output[{argv}-{message}]", argv, code=2,
          err=usage(message) if message.startswith("unrecognized") else message)
      for argv, message in (
          (f"{_MOMENT} --family thermal --rbar 1 --out x.csv", "unrecognized arguments: --out x.csv"),
          ("witness --name hoa --family thermal --rbar 1 --out x.csv", "unrecognized arguments: --out x.csv"),
          ("witness --name hoa --m 7 --family thermal --rbar 1", _NOT_READ.format("hoa", "m")),
          ("witness --name a3 --l 9 --family thermal --rbar 1", _NOT_READ.format("agarwal_tara", "l")),
          ("witness --name klyshko --m 2 --l 4 --family thermal --rbar 1", _NOT_READ.format("klyshko", "l")),
          ("witness --name husimi-zero --l 4 --family thermal --rbar 1", _NOT_READ.format("husimi_zero", "l")),
          ("witness --name hoa --variant power_of_mean --family thermal --rbar 1", _NOT_READ.format("hoa", "variant")),
          ("sweep --name hoa --family thermal --m 3 --out out.csv", _NOT_READ.format("hoa", "m")),
          ("sweep --name a3 --family thermal --l 7 --out out.csv", _NOT_READ.format("agarwal_tara", "l")),
          (f"{_MOMENT} --family thermal --rbar 1 --tol 1e-3", _TOL_NOT_READ),
          ("witness --name hoa --family thermal --rbar 1 --tol 5", _TOL_NOT_READ),
          (f"{_SWEEP} --steps 3 --engine oracle --tol 1 --out out.csv", _TOL_NOT_READ),
          ("figure fig1 --steps 2 --tol 3 --out out", _TOL_NOT_READ),
          ("verify --suite determinism --suite determinism", _CONFIG + "suite 'determinism' is selected twice\n"),
          (f"{_SWEEP} --steps 3 --variants PAS(1,1),PAS(1:1) --out out.csv",
           _CONFIG + "variant PAS(1,1) is listed twice\n"))],
    # the same refusals as CI wrote them, and the witness orders past their float coefficients
    *[Row("TestRefusedOptions::test_refused_as_written", argv, code=2, err=err)
      for argv, err in (
          ("moment --family thermal --rbar 1 --m 1 --n 1 --out x.csv", usage("unrecognized arguments: --out x.csv")),
          ("sweep --name hoa --family thermal --m 3 --out x.csv", _NOT_READ.format("hoa", "m")),
          ("sweep --name a3 --family thermal --l 7 --out x.csv", _NOT_READ.format("agarwal_tara", "l")),
          ("moment --family thermal --rbar 1 --m 1 --n 1 --tol 1e-3", _TOL_NOT_READ),
          ("sweep --name hoa --family thermal --engine oracle --tol 1 --out x.csv", _TOL_NOT_READ),
          ("figure fig1 --steps 2 --tol 3 --out x", _TOL_NOT_READ),
          ("sweep --name mandel --family thermal --variants PAS(1,1),PAS(1:1) --out x.csv",
           _CONFIG + "variant PAS(1,1) is listed twice\n"),
          *[(f"witness --name {witness} --l {_BIG} --family thermal --rbar 0.5",
             f"{_RANGE}the coefficients of {witness} at order {_BIG} exceed the float range "
             f"(its largest order is {largest})\n")
            for witness, largest in (("mandel", 219), ("hosps", 218), ("hos", 291))],
          ("witness --name hoa --l 2 --family ecs --alpha 1e-80 --op psa --p 2 --q 1",
           _RANGE + "the norm of ecs(alpha=1e-80)|PSA(2,1) is not a normal float\n"),
          ("witness --name hoa --l 2 --family ecs --alpha 1e-80 --op psa --p 2 --q 1 --engine oracle",
           _RANGE + "the oracle mass of ecs(alpha=1e-80)|PSA(2,1) is not a normal float\n"),
          ("witness --name hoa --l 2 --family thermal --rbar 1e-200 --op psa --p 2 --q 1 --engine oracle",
           _RANGE + "the oracle mass of thermal(rbar=1e-200)|PSA(2,1) is not a normal float\n"))],
    *[Row(f"TestRefusedOptions::test_refused_through_config[{name}]", f"{argv} --config run.cfg", code=2, err=err,
          setup=config(text))
      for name, text, argv, err in (
          ("l=9-argv0-configuration error: agarwal_tara takes no --l", "l=9\n",
           "witness --name a3 --family thermal --rbar 1", _NOT_READ.format("agarwal_tara", "l")),
          ("tol=1e-6-argv1-configuration error: --tol is read only under --engine both", "tol=1e-6\n",
           "witness --name hoa --family thermal --rbar 1", _TOL_NOT_READ),
          ("tol=1e-6 engine=oracle-argv2-configuration error: --tol is read only under --engine both",
           "tol=1e-6\nengine=oracle\n", "figure fig1 --steps 2 --out out", _TOL_NOT_READ),
          ("out=x-argv3-configuration error: unknown config key 'out' for moment", "out=x\n",
           f"{_MOMENT} --family thermal --rbar 1", _CONFIG + "unknown config key 'out' for moment\n"))],
    # an --out that cannot be written: an existing file where the pack's
    # directory goes, a missing directory, a directory, a pack directory whose
    # third file is blocked by a directory; no file of the blocked pack is left
    *[Row("TestRefusedOptions::test_unwritable_out", argv, code=2, err=line(f"{_CONFIG}cannot write {out}: "),
          setup=setup)
      for argv, out, setup in (
          ("sweep --name hoa --family thermal --steps 3 --out missing/x.csv", "missing/x.csv", {}),
          ("sweep --name hoa --family thermal --steps 3 --out folder", "folder", {"folder/": None}),
          ("figure fig7 --grid-steps 3 --out pack", "pack", {"pack/": None, "pack/fig7_c.csv/": None}))],

    # the checks of each command's own arguments, each with its one line
    *[Row("TestRefusedOptions::test_refused_by_the_command", argv, code=2, err=_CONFIG + message + "\n")
      for argv, message in (
          ("moment --rbar 1 --m 1 --n 1", "--family is required"),
          ("moment --family thermal --rbar 1 --m -1 --n 1", "--m and --n must be non-negative"),
          ("moment --family thermal --op none --p 1 --rbar 1 --m 1 --n 1", "--op none is incompatible with --p/--q"),
          ("witness --family thermal --rbar 1", "witness requires --name"),
          ("witness --name klyshko --family thermal --rbar 1", "klyshko requires --m"),
          ("witness --name hoa --family thermal --rbar 1 --alpha 1", "thermal family takes no --alpha"),
          ("sweep --name husimi-zero --family thermal", "husimi-zero has no scalar sweep; use the figure packs"),
          ("sweep --name hoa", "sweep requires --family"),
          ("sweep --name hoa --family thermal --variants ,", "no variants given"))],

    # -- config files --------------------------------------------------------------------
    # explicit flags beat config values; 13/3 to 1e-12
    Row("TestConfigFile::test_config_supplies_defaults_flags_win",
        "moment --family thermal --op psa --p 1 --q 1 --config run.cfg", out=rx(r"1,1,4\.333333333333\d*,0\n"),
        setup=config("m=1\nn=1\nrbar=1.0\n")),
    Row("TestConfigFile::test_config_supplies_defaults_flags_win",
        "moment --family thermal --op psa --p 1 --q 1 --config run.cfg --n 0", out=rx(rf"1,0,{F},{F}\n"),
        setup=config("m=1\nn=1\nrbar=1.0\n")),
    # a line is key=value, a comment or blank; the file must be readable
    Row("TestConfigFile::test_a_line_without_equals_is_rejected", f"{_MOMENT} --family thermal --config run.cfg",
        code=2, err=_CONFIG + "config line 'noequals' is not key=value\n", setup=config("noequals\n")),
    Row("TestConfigFile::test_comments_and_blank_lines_are_skipped", f"{_MOMENT} --family thermal --config run.cfg",
        out="1,1,1.0,0\n", setup=config("# a comment\n\nrbar=1\n")),
    Row("TestConfigFile::test_a_missing_file_is_config_error", f"{_MOMENT} --family thermal --config missing.cfg",
        code=2, err=line(_CONFIG + "cannot read config file: ")),
    Row("TestConfigFile::test_unknown_key_rejected", "moment --family thermal --rbar 1 --m 0 --n 0 --config run.cfg",
        code=2, err=_CONFIG + "unknown config key 'wormhole' for moment\n", setup=config("wormhole=1\n")),
    # the --op choices are lower case: PAS is rejected, not read as psa
    *[Row("TestConfigFile::test_op_value_takes_flag_choices",
          "moment --family thermal --rbar 1 --m 1 --n 1 --config run.cfg", code=code, out=out, err=err,
          setup=config(f"op={op}\np=1\nq=1\n"))
      for op, code, out, err in (("pas", 0, rx(r"1,1,3\.333333333333\d*,0\n"), ""),
                                 ("PAS", 2, "", line(_CONFIG + "config value op='PAS' is not one of: ")))],
    *[Row(f"TestConfigFile::test_bad_value_is_config_error[{name}]", f"{argv} --config run.cfg", code=2,
          err=line(_CONFIG), setup=config(text))
      for name, text, argv in (
          ("family=thermall alpha_re=1-moment --m 1 --n 1", "family=thermall\nalpha_re=1\n", _MOMENT),
          ("p=abc-moment --m 1 --n 1 --family thermal --rbar 1", "p=abc\n", f"{_MOMENT} --family thermal --rbar 1"),
          ("engine=foo-moment --m 1 --n 1 --family thermal --rbar 1", "engine=foo\n",
           f"{_MOMENT} --family thermal --rbar 1"),
          ("variant=bogus-witness --name a3 --family thermal --rbar 1", "variant=bogus\n",
           "witness --name a3 --family thermal --rbar 1"))],
    Row("TestConfigKeys::test_bad_value_names_its_key",
        "witness --name mandel --family thermal --rbar 1 --config run.cfg", code=2,
        err=line(_CONFIG + "config value p='abc' "), setup=config("p=abc\n")),
    # rejected while reading the file, before a figure writes anything
    *[Row(f"TestConfigKeys::test_key_of_another_command_is_unknown[{text.split(chr(10))[0]}-{argv.split()[0]}]",
          f"{argv} --config run.cfg", code=2,
          err=line(f"{_CONFIG}unknown config key {text.split('=')[0]!r} for {argv.split()[0]}"), setup=config(text))
      for text, argv in (("steps=3\n", "witness --name mandel --family thermal --rbar 1"),
                         ("grid_steps=5\n", "moment --family thermal --rbar 1 --m 1 --n 1"),
                         ("rbar=1\n", "figure fig1 --steps 3"), ("engine=oracle\n", "verify --suite determinism"))],
    Row("TestConfigKeys::test_key_of_the_invoked_command_is_read", "figure fig1 --config run.cfg --out out",
        out=manifest("out", "fig1"),
        left={**pack("out", "fig1", **config("steps=3\n")),
              "out/fig1_a.csv": table('param,"PAS(1,1)","PSA(1,1)",bare', 3)},
        setup=config("steps=3\n")),

    # -- the analytic engine at its edges ----------------------------------------------
    # the largest operations' contraction tables at m = n = 170 and off the
    # diagonal, order-12 witnesses over (a + a')^12 and (a'a)^12
    *[Row("TestAnalyticEdges::test_evaluates", argv, out=out)
      for argv, out in (
          ("moment --family thermal --rbar 0.01 --op pas --p 8 --q 8 --m 170 --n 170", rx(rf"170,170,{F},{F}\n")),
          ("moment --family thermal --rbar 0.01 --op psa --p 8 --q 8 --m 170 --n 170", rx(rf"170,170,{F},{F}\n")),
          ("moment --family ecs --alpha 1.5 --op pas --p 8 --q 8 --m 40 --n 38", rx(rf"40,38,{F},{F}\n")),
          ("witness --name hos --l 12 --family ecs --alpha 1.2 --op psa --p 8 --q 8", record("hos", 12)),
          ("witness --name mandel --l 12 --family thermal --rbar 0.5 --op pas --p 8 --q 7", record("mandel", 12)),
          ("witness --name hosps --l 12 --family thermal --rbar 0.5 --op pas --p 8 --q 7", record("hosps", 12)))],
    # hos over the closed-form (a + a')^k for every k <= 160, equal to the
    # value recorded before its term sums were stacked; hosps at odd and high
    # order on both families, whose sign the paper's printed (-1)^e form would
    # flip at odd l; klyshko of a thermal state at the subnormal rbar = 1e-320
    *[Row("TestAnalyticEdges::test_records", argv, out=out + "\n")
      for argv, out in (
          ("witness --name hos --l 160 --family thermal --rbar 0.5", "hos,160,1.2089258196146294e+24,false"),
          ("witness --name hos --l 160 --family ecs --alpha 1.2", "hos,160,1877091281815.709,false"),
          (f"{_HOSPS} --l 3 --family thermal --rbar 0.5 --op pas --p 1 --q 2", "hosps,3,2.9446064139941717,false"),
          (f"{_HOSPS} --l 5 --family thermal --rbar 1.5 --op psa --p 2 --q 1", "hosps,5,11328.483753593595,false"),
          (f"{_HOSPS} --l 3 --family ecs --alpha 1.2 --op psa --p 1 --q 2", "hosps,3,-2.771195767552495,true"),
          (f"{_HOSPS} --l 5 --family ecs --alpha 0.7 --op pas --p 2 --q 1", "hosps,5,-12.004785547200974,true"),
          ("witness --name klyshko --m 2 --family thermal --rbar 1e-320 --op pas --p 4 --q 3", "klyshko,2,0.0,false"),
          ("witness --name klyshko --m 0 --family thermal --rbar 1e-320", "klyshko,0,0.0,false"),
          ("witness --name klyshko --m 9223372036854775805 --family thermal --rbar 0.5",
           "klyshko,9223372036854775805,0.0,false"))],

    # -- the oracle at its edges -------------------------------------------------------
    # the edges of its one growth loop: cats whose amplitudes underflow at the
    # first cutoff, a cat whose mass is barely a normal float (about
    # |alpha|^4 = 1e-304), moments whose order the basis must admit and whose
    # tail it must hold, orders whose k^l tail weights and factorial ratios
    # pass the float range, grids whose rows retire at cutoffs from 32 to 2048
    # levels or are annihilated, and photon numbers the basis must grow to hold
    *[Row("TestOracleEdges::test_agrees_with_the_analytic_engine", f"{argv} --engine both", out=out)
      for argv, out in (
          ("witness --name hoa --family ecs --alpha 40", record("hoa", 2)),
          ("witness --name hoa --family ecs --alpha 30", record("hoa", 2)),
          ("witness --name hoa --l 2 --family ecs --alpha 1e-76 --op psa --p 2 --q 1", record("hoa", 2)),
          ("witness --name hoa --l 10 --family ecs --alpha 0.5", record("hoa", 10)),
          ("witness --name hosps --l 8 --family thermal --rbar 0.1", record("hosps", 8)),
          ("witness --name hos --l 8 --family thermal --rbar 0.3 --op psa --p 2 --q 1", record("hos", 8)),
          ("moment --family ecs --alpha 1 --m 20 --n 20", rx(rf"20,20,{F},{F}\n")),
          ("moment --family thermal --rbar 2 --m 20 --n 20", rx(rf"20,20,{F},{F}\n")),
          ("witness --name hoa --l 114 --family thermal --rbar 0.1", record("hoa", 114)),
          ("witness --name hoa --l 120 --family thermal --rbar 0.1", record("hoa", 120)),
          ("sweep --name hoa --family ecs --param-min 0.5 --param-max 40 --steps 9",
           table('param,"PAS(1,1)","PAS(1,1)@oracle","PSA(1,1)","PSA(1,1)@oracle"', 9)),
          ("sweep --name hoa --family thermal --variants PAS(2,1),PSA(2,1) --param-min 0 --param-max 40 --steps 9",
           table('param,"PAS(2,1)","PAS(2,1)@oracle","PSA(2,1)","PSA(2,1)@oracle"', 9)),
          ("witness --name klyshko --m 31 --family thermal --rbar 0.5", record("klyshko", 31)),
          ("witness --name klyshko --m 40 --family ecs --alpha 0.5", record("klyshko", 40)),
          (f"{_HOSPS} --l 3 --family thermal --rbar 0.5 --op pas --p 1 --q 2", record("hosps", 3)),
          (f"{_HOSPS} --l 5 --family thermal --rbar 1.5 --op psa --p 2 --q 1", record("hosps", 5)),
          (f"{_HOSPS} --l 3 --family ecs --alpha 1.2 --op psa --p 1 --q 2", record("hosps", 3)),
          (f"{_HOSPS} --l 5 --family ecs --alpha 0.7 --op pas --p 2 --q 1", record("hosps", 5)))],
]


def prepare(row, cwd):
    """Make the row's setup files and directories in cwd."""
    for name, text in row.setup.items():
        path = pathlib.Path(cwd, name)
        if name.endswith("/"):
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


# a fresh run starts in another directory: PYTHONPATH's entries made absolute
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    os.path.abspath(path) for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path)}


def run_fresh(row, cwd):
    """(exit code, stdout, stderr, seconds) of the row as a new
    `python -W error -m fockwitness` process; a run past the row's wall
    time, or past a minute, is stopped and exits None."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fockwitness", *row.argv], cwd=cwd, env=_ENV,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=row.fresh or 60)
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _matches(expected, text):
    if expected is None:
        return True
    if isinstance(expected, str):
        return text == expected
    return expected.fullmatch(text) is not None


def failures(row, code, out, err, seconds, cwd):
    """What the run broke of its row's contract, one line each; [] if nothing."""
    found = []
    if code != row.code:
        found.append(f"exit {code}, expected {row.code}")
    if not _matches(row.out, out):
        found.append(f"stdout {out[:2000]!r}")
    if not _matches(row.err, err) or "Traceback" in err or "Warning" in err:
        found.append(f"stderr {err[:2000]!r}")
    if row.fresh is not None and seconds is not None and seconds > row.fresh:
        found.append(f"took {seconds:.2f} s, more than {row.fresh} s")
    root = pathlib.Path(cwd)
    left = {path.relative_to(root).as_posix() + ("/" if path.is_dir() else ""): path for path in root.rglob("*")}
    if sorted(left) != sorted(row.left):
        found.append(f"left {sorted(left)}, expected {sorted(row.left)}")
    else:
        found += [f"{name} reads {path.read_text()[:2000]!r}" for name, path in left.items()
                  if not name.endswith("/") and not _matches(row.left[name], path.read_text())]
    return found


def _run(row):
    with tempfile.TemporaryDirectory() as cwd:
        prepare(row, cwd)
        return failures(row, *run_fresh(row, cwd), cwd)


def main():
    """Run every row as a new process, one at a time per CPU, and name each that fails."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(_run, ROWS))
    failed = [(row, found) for row, found in zip(ROWS, results) if found]
    for row, found in failed:
        print(f"FAIL {row!r}", *(f"  {f}" for f in found), sep="\n")
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
