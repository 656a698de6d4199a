import argparse
import math
import subprocess
import sys
import time

import pytest

from fockwitness import cli, oracle, states, witnesses

PKG = [sys.executable, "-m", "fockwitness"]


def run_cli(*args, timeout=300):
    """`python -m fockwitness` in a new process: for tests of the process
    boundary (its exit status, and a stderr free of warnings, which pytest's
    filter would raise in this process)."""
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def run_main(capsys):
    """run_cli's record of one cli.main call in this process: its return
    value, or the code argparse exits with on a usage error, and its
    captured stdout and stderr."""

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)

    return run


class TestMomentCommand:
    def test_past_mean(self, run_main):
        proc = run_main(
            "moment", "--family", "thermal", "--op", "pas", "--p", "1", "--q", "1",
            "--rbar", "1", "--m", "1", "--n", "1",
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(10 / 3, rel=1e-12)
        # shortest round-trip formatting: the record reparses exactly
        assert repr(float(re)) == re

    def test_ecs_parity_zero(self, run_main):
        proc = run_main("moment", "--family", "ecs", "--alpha", "1", "--m", "1", "--n", "0")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0,0,0"

    def test_degenerate_exit_code(self, run_main):
        proc = run_main(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1",
            "--rbar", "0", "--m", "0", "--n", "0",
        )
        assert proc.returncode == 3

    def test_huge_rbar_is_finite(self, run_main):
        proc = run_main(
            "moment", "--family", "thermal", "--op", "pas", "--p", "1", "--q", "1",
            "--rbar", "1e15", "--m", "1", "--n", "1",
        )
        assert proc.returncode == 0
        r = 1e15
        assert float(proc.stdout.split(",")[2]) == pytest.approx(2 * r * (3 * r + 2) / (2 * r + 1), rel=1e-12)

    @pytest.mark.parametrize("order, expected", [(170, 7.2574156153080247e-34), (171, 1.2410180702176722e-33)])
    def test_thermal_high_order_moment(self, order, expected, run_main):
        # order! rbar^order: the float of 171! overflows and 0.01^170
        # underflows, but neither the moment nor its logarithm does
        proc = run_main("moment", "--family", "thermal", "--rbar", "0.01", "--m", str(order), "--n", str(order))
        assert proc.returncode == 0, proc.stderr
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == (str(order), str(order), "0")
        assert float(re) == pytest.approx(expected, rel=1e-11)

    def test_missing_orders_is_config_error(self, run_main):
        proc = run_main("moment", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 2

    def test_both_engine_agrees(self, run_main):
        proc = run_main(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--rbar", "1", "--m", "1", "--n", "1", "--engine", "both",
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(13 / 3, rel=1e-12)


class TestWitnessCommand:
    def test_mandel_record(self, run_main):
        proc = run_main("witness", "--name", "mandel", "--l", "2", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("mandel", "2", "false")
        assert float(value) == pytest.approx(1.0, rel=1e-12)

    def test_power_of_mean_anomaly_record(self, run_main):
        proc = run_main(
            "witness", "--name", "a3", "--variant", "power_of_mean",
            "--family", "thermal", "--rbar", "1",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "agarwal_tara,0,-1.0,true"

    def test_klyshko_record(self, run_main):
        proc = run_main("witness", "--name", "klyshko", "--m", "2", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("klyshko", "2", "false")
        assert float(value) == pytest.approx(1 / 256, rel=1e-12)

    def test_singular_exit_code(self, run_main):
        # thermal vacuum: every determinant vanishes
        proc = run_main("witness", "--name", "a3", "--family", "thermal", "--rbar", "0")
        assert proc.returncode == 5

    def test_unknown_name_is_config_error(self, run_main):
        proc = run_main("witness", "--name", "sorcery", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 2

    def test_klyshko_at_huge_photon_number(self, run_main):
        proc = run_main(
            "witness", "--name", "klyshko", "--m", str(10 ** 200), "--family", "thermal",
            "--op", "pas", "--p", "1", "--q", "1", "--rbar", "1",
        )
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, value, flag) == ("klyshko", str(10 ** 200), "0.0", "false")

    def test_husimi_zero_record(self, run_main):
        proc = run_main(
            "witness", "--name", "husimi-zero", "--family", "thermal",
            "--op", "psa", "--p", "1", "--q", "2", "--rbar", "1",
        )
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("husimi_zero", "0", "true")
        assert float(value) >= 0.0


class TestWitnessNames:
    """--name and --variant take their values from witnesses.WITNESS_READS
    and witnesses.VARIANTS; the CLI adds only the spellings a3 and
    husimi-zero."""

    @pytest.mark.parametrize("name", [*cli._SPELLINGS, *witnesses.WITNESS_READS, "A3", "Husimi-Zero"])
    def test_every_name_resolves_to_a_witness(self, name):
        # klyshko requires its --m, which every other witness refuses
        m = 3 if name == "klyshko" else None
        args = argparse.Namespace(command="witness", name=name, l=None, m=m, variant=None)
        witness, order = cli._witness_order(args)
        assert witness in witnesses.WITNESS_READS
        assert order == {"l": 2, "m": 3}.get(witnesses.WITNESS_READS[witness], 0)

    def test_variant_choices_are_the_witness_variants(self):
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        (action,) = [a for a in commands.choices["witness"]._actions if a.dest == "variant"]
        assert tuple(action.choices) == witnesses.VARIANTS


class TestFigureCommand:
    def test_unknown_figure_exit_code(self, run_main):
        proc = run_main("figure", "fig99")
        assert proc.returncode == 2

    def test_manifest_and_files(self, tmp_path, run_main):
        proc = run_main("figure", "fig11", "--steps", "7", "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            name, path = line.split(",", 1)
            with open(path) as fh:
                assert fh.readline().startswith("param,")

    def test_husimi_figure_csv_columns(self, tmp_path, run_main):
        proc = run_main("figure", "fig8", "--grid-steps", "5", "--out", str(tmp_path))
        assert proc.returncode == 0
        first = proc.stdout.strip().splitlines()[0].split(",", 1)[1]
        with open(first) as fh:
            assert fh.readline().strip() == "re,im,q_value"

    def test_unwritable_out_is_config_error(self, tmp_path, run_main):
        # --out names an existing file, where the pack's directory would go
        out = tmp_path / "taken"
        out.write_text("kept\n")
        proc = run_main("figure", "fig7", "--grid-steps", "3", "--out", str(out))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"configuration error: cannot write {out}: ")
        assert proc.stderr.count("\n") == 1
        assert out.read_text() == "kept\n"

    # a later panel's file is blocked by a directory of its name: the files
    # written before it are removed, and a file the pack does not name stays
    @pytest.mark.parametrize("others", [(), ("notes.txt",)], ids=["alone", "beside-a-file"])
    def test_a_write_that_fails_part_way_leaves_no_pack_file(self, others, tmp_path, run_main):
        out = tmp_path / "d"
        (out / "fig7_c.csv").mkdir(parents=True)
        for name in others:
            (out / name).write_text("kept\n")
        proc = run_main("figure", "fig7", "--grid-steps", "3", "--out", str(out))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"configuration error: cannot write {out}: ")
        assert sorted(path.name for path in out.iterdir()) == sorted(["fig7_c.csv", *others])
        for name in others:
            assert (out / name).read_text() == "kept\n"

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            proc = run_cli("figure", "fig1", "--steps", "9", "--out", str(out))
            assert proc.returncode == 0
        for name in ("fig1_a.csv", "fig1_b.csv", "fig1_c.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweepCommand:
    def test_stdout_csv(self, run_main):
        proc = run_main(
            "sweep", "--name", "mandel", "--l", "2", "--family", "thermal",
            "--variants", "PAS(1:1),PSA(1:1)", "--param-min", "0.2",
            "--param-max", "1.0", "--steps", "3",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == 'param,"PAS(1,1)","PSA(1,1)"'
        assert len(lines) == 4

    def test_header_labels_accepted(self, run_main):
        colon = run_main(*_SWEEP, "--steps", "3", "--variants", "PAS(1:1),PSA(1:1)")
        comma = run_main(*_SWEEP, "--steps", "3", "--variants", "PAS(1,1),PSA(1,1)")
        assert comma.returncode == 0, comma.stderr
        assert comma.stdout == colon.stdout
        # the labels of the CSV header, copied with their quotes
        header = colon.stdout.splitlines()[0].split(",", 1)[1]
        assert header == '"PAS(1,1)","PSA(1,1)"'
        quoted = run_main(*_SWEEP, "--steps", "3", "--variants", header)
        assert (quoted.returncode, quoted.stdout) == (0, colon.stdout)

    # a file in a missing directory, and a directory
    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_is_config_error(self, out, tmp_path, run_main):
        out = str(tmp_path / out)
        proc = run_main(*_SWEEP, "--steps", "3", "--out", out)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"configuration error: cannot write {out}: ")
        assert proc.stderr.count("\n") == 1

    def test_bad_variant_label(self, run_main):
        proc = run_main(
            "sweep", "--name", "hoa", "--family", "thermal", "--variants", "XYZ(1:1)",
        )
        assert proc.returncode == 2

    # --variant is the prefix argparse expands to --variants
    @pytest.mark.parametrize("flag", ["--variants", "--variant"])
    def test_repeated_variants_flag_is_rejected(self, flag, capsys):
        code = cli.main([*_SWEEP, "--steps", "2", flag, "PSA(1,1)", flag, "PAS(2,1)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--variants" in captured.err


_MOMENT = ("moment", "--m", "1", "--n", "1")
_SWEEP = ("sweep", "--name", "mandel", "--family", "thermal")


class TestNumericDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            _MOMENT + ("--family", "thermal", "--rbar", "nan"),
            _MOMENT + ("--family", "thermal", "--rbar", "inf"),
            _MOMENT + ("--family", "ecs", "--alpha", "nan"),
            _MOMENT + ("--family", "ecs", "--alpha", "inf"),
            _SWEEP + ("--param-min", "nan"),
            _SWEEP + ("--param-max", "inf"),
            _SWEEP + ("--steps", "1"),
            _SWEEP + ("--param-min", "5", "--param-max", "1"),
            _SWEEP + ("--variants", "PAS(9:1)"),
            ("witness", "--name", "mandel", "--l", "1", "--family", "thermal", "--rbar", "1"),
            ("witness", "--name", "hoa", "--l", "0", "--family", "thermal", "--rbar", "1"),
            ("witness", "--name", "hos", "--l", "0", "--family", "thermal", "--rbar", "1"),
            ("witness", "--name", "klyshko", "--m", "-1", "--family", "thermal", "--rbar", "1"),
            ("figure", "fig1", "--steps", "1"),
            ("figure", "fig7", "--grid-steps", "1"),
            ("figure", "fig1", "--steps", "0"),
            ("figure", "fig7", "--grid-steps", "0"),
            # the step flag the figure does not read is checked too
            ("figure", "fig1", "--grid-steps", "0", "--steps", "3"),
            ("figure", "fig7", "--steps", "0", "--grid-steps", "3"),
            ("figure", "fig11", "--grid-steps", "1", "--steps", "3"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_is_config_error(self, argv, run_main):
        proc = run_main(*argv)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    # An engineered thermal state at a subnormal rbar is, in double
    # precision, the Fock state |k> its lowest bare level goes to: k = q - p
    # under PAS (0 where p > q) and k = q under PSA. B(m) of |k> is -(m + 1)
    # at k = m + 1 and 0 elsewhere. No RuntimeWarning may escape on the way,
    # which pyproject's filterwarnings makes a failure here.
    @pytest.mark.parametrize("rbar, m, op, p, q", [
        ("1e-320", m, op, p, q) for m in (0, 2) for op in ("pas", "psa") for p in range(5) for q in range(5) if p or q
    ] + [(rbar, m, "none", 0, 0) for rbar in ("1e-320", "5e-309") for m in (0, 2)], ids=str)
    def test_klyshko_at_a_subnormal_rbar(self, run_main, rbar, m, op, p, q):
        k = max(q - p, 0) if op == "pas" else q
        value = -(m + 1.0) if k == m + 1 else 0.0
        proc = run_main("witness", "--name", "klyshko", "--m", str(m), "--family", "thermal", "--rbar", rbar,
                        "--op", op, "--p", str(p), "--q", str(q))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"klyshko,{m},{value!r},{str(value < 0).lower()}\n"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (("witness", "--name", "hos", "--l", "3", "--family", "thermal", "--rbar", "1"),
             2, "configuration error: hos is defined for even order only"),
            (("witness", "--name", "mandel", "--family", "thermal", "--rbar", "0"),
             5, "undefined witness:"),
            (("witness", "--name", "mandel", "--engine", "oracle", "--family", "thermal", "--rbar", "500"),
             2, "oracle basis too large:"),
            # the basis must hold the k^2-weighted tail of <a'^2 a^2>, not only the mass
            (("witness", "--name", "hoa", "--engine", "oracle", "--family", "thermal", "--rbar", "120"),
             2, "oracle basis too large: thermal(rbar=120.0)|bare moments need more than 4096 Fock levels"),
            (("moment", "--m", "2", "--n", "2", "--family", "thermal", "--op", "pas",
              "--p", "2", "--q", "2", "--rbar", "1e200"),
             2, "out of float range:"),
            (_MOMENT + ("--family", "ecs", "--alpha", "1e200"), 2, "out of float range:"),
            (("witness", "--name", "husimi-zero", "--family", "ecs", "--alpha", "200"),
             2, "configuration error: Husimi Q of ecs(alpha=200.0)|bare is 0 on the whole window"),
            # a zero mean at one grid point fails the whole sweep, not a NaN gap
            (("sweep", "--name", "mandel", "--family", "thermal", "--variants", "bare",
              "--param-min", "0", "--steps", "5"),
             5, "undefined witness:"),
            (("sweep", "--name", "hoa", "--family", "thermal", "--variants", "PAS(2,2)",
              "--param-max", "1e200", "--steps", "3"),
             2, "out of float range: <a'^2 a^2> of thermal(rbar=5e+199)|PAS(2,2)"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_typed_error_exit_code(self, argv, code, prefix):
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix), proc.stderr
        assert "Traceback" not in proc.stderr
        # the subprocess is out of reach of the pytest warning filter
        assert "Warning" not in proc.stderr, proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("op, label", [((), "bare"), (("--op", "pas", "--p", "2", "--q", "1"), "PAS(2,1)")],
                             ids=["bare", "PAS(2,1)"])
    def test_a_moment_far_past_the_float_range_fails_fast(self, op, label):
        # c M! of <a'^l a^l> is not built where its logarithm is far past the range
        start = time.perf_counter()
        proc = run_cli("witness", "--name", "hoa", "--l", "1000000", "--family", "thermal", "--rbar", "0.5", *op)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 2
        assert proc.stderr == (f"out of float range: <a'^1000000 a^1000000> of thermal(rbar=0.5)|{label} "
                               "exceeds the float range\n")
        assert proc.stdout == ""

    def test_oracle_basis_weighs_the_tail_by_the_order_read(self):
        # hoa l = 2 reads up to <a'^2 a^2>; a k^4-weighted tail would not fit
        proc = run_cli("witness", "--name", "hoa", "--engine", "oracle", "--family", "thermal",
                       "--rbar", "100")
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("hoa", "2", "false")
        assert float(value) == pytest.approx(100.0 ** 2, rel=1e-12)
        proc = run_cli("witness", "--name", "hoa", "--l", "4", "--engine", "oracle",
                       "--family", "thermal", "--rbar", "100")
        assert proc.returncode == 2
        assert proc.stderr.startswith("oracle basis too large:"), proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr

    def test_klyshko_underflow_hidden_by_rounded_x(self):
        proc = run_cli(
            "witness", "--name", "klyshko", "--m", str(10 ** 30), "--family", "thermal",
            "--op", "pas", "--p", "8", "--q", "8", "--rbar", "1e16",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"klyshko,{10 ** 30},0.0,false"
        assert proc.stderr == ""


class TestBothEngineTolerance:
    def test_figure_deviation_above_tol_fails_but_writes(self, tmp_path, run_main):
        proc = run_main("figure", "fig7", "--grid-steps", "5", "--engine", "both",
                       "--tol", "1e-30", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "analytic/oracle deviation exceeds tolerance 1e-30: fig7_a " in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig7_{c}.csv" for c in "abcde"]
        assert len(proc.stdout.strip().splitlines()) == 5

    def test_sweep_deviation_above_tol_fails_but_writes(self, tmp_path, run_main):
        out = tmp_path / "sweep.csv"
        proc = run_main(*_SWEEP, "--steps", "3", "--engine", "both", "--tol", "1e-30", "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "exceeds tolerance 1e-30: PAS(1,1) " in proc.stderr
        assert out.read_text().startswith('param,"PAS(1,1)","PAS(1,1)@oracle",')

    def test_witness_deviation_above_tol_fails(self, run_main):
        proc = run_main("witness", "--name", "mandel", "--family", "thermal", "--op", "pas",
                       "--p", "1", "--q", "1", "--rbar", "1", "--engine", "both", "--tol", "1e-30")
        assert proc.returncode == 1
        assert proc.stdout.startswith("mandel,2,")
        assert proc.stderr.startswith("analytic/oracle deviation exceeds tolerance 1e-30: mandel ")

    @pytest.mark.parametrize("argv", [
        ("figure", "fig8", "--grid-steps", "3", "--engine", "both"),
        _SWEEP + ("--steps", "3", "--engine", "both"),
    ], ids=lambda argv: " ".join(argv))
    def test_default_tol_passes(self, argv, tmp_path):
        proc = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_moment_deviation_above_tol_fails(self, capsys):
        # plain relative: 4.333333333333333 against the oracle's 4.3333333333333295
        spec = states.StateSpec.thermal(1.0, states.EngineeringOp.psa(1, 1))
        values = [engine.moment_table(spec, ((1, 1),), oracle.DEFAULT_TAIL_TOL).get(1, 1)
                  for engine in witnesses.engines("both")]
        dev = oracle.deviation(*values, oracle.RELATIVE_FLOOR)
        assert 1e-30 < dev < 1e-8
        argv = ["moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1", "--rbar", "1",
                "--m", "1", "--n", "1", "--engine", "both"]
        assert cli.main(argv + ["--tol", "1e-30"]) == 1
        out, err = capsys.readouterr()
        assert out == f"1,1,{values[0].real!r},0\n"
        assert err == f"analytic/oracle deviation exceeds tolerance 1e-30: moment(1,1) {dev!r}\n"
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (out, "")


class TestSweepNaNGaps:
    """sweep --engine both against a NaN at one point: a gap on one engine
    only fails the series, a gap on both agrees."""

    ARGV = ["sweep", "--name", "hoa", "--family", "thermal", "--variants", "PAS(1,1)",
            "--param-min", "0.5", "--param-max", "1.5", "--steps", "5", "--engine", "both"]

    @staticmethod
    def _gap_at(monkeypatch, engines, point=2):
        # the panel's one witness call per engine; its one variant's
        # series is the whole result
        evaluate = witnesses.evaluate_witness

        def with_gap(stack, witness_id, order=None, variant=None, engine="analytic", **kwargs):
            result = evaluate(stack, witness_id, order, variant, engine, **kwargs)
            if engine in engines:
                result.value[point] = math.nan
            return result

        monkeypatch.setattr(witnesses, "evaluate_witness", with_gap)

    def test_a_gap_on_the_oracle_only_fails(self, monkeypatch, capsys):
        self._gap_at(monkeypatch, ("oracle",))
        assert cli.main(self.ARGV) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[3].endswith(",nan")
        assert err == "analytic/oracle deviation exceeds tolerance 1e-08: PAS(1,1) nan\n"

    def test_a_gap_on_the_analytic_engine_only_fails(self, monkeypatch, capsys):
        self._gap_at(monkeypatch, ("analytic",))
        assert cli.main(self.ARGV) == 1
        assert capsys.readouterr().err == "analytic/oracle deviation exceeds tolerance 1e-08: PAS(1,1) nan\n"

    def test_a_gap_on_both_engines_passes(self, monkeypatch, capsys):
        self._gap_at(monkeypatch, ("analytic", "oracle"))
        assert cli.main(self.ARGV) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[3].endswith(",nan,nan")
        assert err == ""


class TestVerifyCommand:
    def test_single_suite_passes(self, run_main):
        proc = run_main("verify", "--suite", "determinism")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS determinism")

    def test_overtight_tolerance_fails(self, run_main):
        proc = run_main("verify", "--suite", "fixtures", "--tol", "1e-15")
        assert proc.returncode == 1

    def test_coherent_reads_tol(self, run_main):
        proc = run_main("verify", "--suite", "coherent", "--tol", "1e-30")
        assert proc.returncode == 1
        assert proc.stdout.startswith("FAIL coherent: 27 checks")

    def test_tol_no_selected_suite_reads_is_config_error(self, run_main):
        proc = run_main("verify", "--suite", "hos", "--tol", "1e-30")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error: no selected suite reads a tolerance")

    def test_unknown_suite_is_config_error(self, run_main):
        proc = run_main("verify", "--suite", "astrology")
        assert proc.returncode == 2


class TestRefusedTolerance:
    """A --tol that is not a finite number >= 0 exits 2, as a flag or as a
    config value: a NaN or negative tolerance would fail every check, and
    inf pass every one."""

    @pytest.mark.parametrize("argv, value", [
        (("verify",), "nan"),
        (("verify",), "-1"),
        (("verify", "--suite", "fixtures"), "inf"),
        (("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1", "--engine", "both"), "nan"),
        (("figure", "fig1", "--steps", "2", "--engine", "both", "--out", "out"), "-0.5"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_flag(self, argv, value, run_main, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        proc = run_main(*argv, "--tol", value)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.rstrip().endswith(f"argument --tol: invalid tolerance value: '{value}'")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text, argv", [
        ("tol=nan\n", ("verify", "--suite", "fixtures")),
        ("engine=both\ntol=-1\n", ("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1")),
    ], ids=lambda v: v.strip().replace("\n", " ") if isinstance(v, str) else None)
    def test_config(self, text, argv, run_main, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        proc = run_main(*argv, "--config", str(cfg))
        value = text.split("tol=")[1].strip()
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"configuration error: config value tol={value!r} is not a valid tolerance\n"

    def test_zero_is_a_tolerance(self, run_main):
        proc = run_main("verify", "--suite", "fixtures", "--tol", "0")
        assert proc.returncode == 1
        assert proc.stdout.startswith("FAIL fixtures: 25 checks")


class TestNegativeValues:
    """A negative value written with an exponent is a value, not a flag: it
    reads as its decimal form and reaches its flag's type and domain checks."""

    _ECS = ("witness", "--name", "hoa", "--family", "ecs", "--alpha", "1")

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1e-03", "-0.1e-2", "-.1e-2", "-1.0E-3"])
    def test_a_value_with_an_exponent_reads_as_its_decimal_form(self, value, run_main):
        proc = run_main(*self._ECS, "--alpha-im", value)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_main(*self._ECS, "--alpha-im=-1e-3").stdout == "hoa,2,0.4199745418621521,false\n"

    @pytest.mark.parametrize("argv, err", [
        (("witness", "--name", "hoa", "--family", "thermal", "--rbar", "-1e-3"),
         "configuration error: mean photon number must be finite and >= 0\n"),
        (("sweep", "--name", "hoa", "--family", "thermal", "--param-min", "-1E+2"),
         "configuration error: parameter range must be finite, non-negative and increasing\n"),
        (("moment", "--family", "thermal", "--rbar", "1", "--m", "-1e3", "--n", "1"),
         "argument --m: invalid int value: '-1e3'\n"),
        (("verify", "--tol", "-1e-3"), "argument --tol: invalid tolerance value: '-1e-3'\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_a_value_with_an_exponent_meets_its_checks(self, argv, err, run_main):
        proc = run_main(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(err), proc.stderr
        assert "expected one argument" not in proc.stderr

    # float()'s words, in any case, reach the flag's domain check as the
    # --flag=value form does
    @pytest.mark.parametrize("flag, value, err", [
        ("--alpha-im", "-inf", "amplitude must be finite"),
        ("--alpha-im", "-Infinity", "amplitude must be finite"),
        ("--alpha-im", "-INF", "amplitude must be finite"),
        ("--alpha-im", "-nan", "amplitude must be finite"),
        ("--rbar", "-nan", "mean photon number must be finite and >= 0"),
        ("--rbar", "-NaN", "mean photon number must be finite and >= 0"),
        ("--rbar", "-inf", "mean photon number must be finite and >= 0"),
    ])
    def test_a_negative_float_word_meets_its_checks(self, flag, value, err, run_main):
        family = ("--family", "ecs", "--alpha", "1") if flag == "--alpha-im" else ("--family", "thermal")
        for args in ((flag, value), (f"{flag}={value}",)):
            proc = run_main("witness", "--name", "hoa", *family, *args)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"configuration error: {err}\n")


class TestOrderLimit:
    """An order past the int64 range is a configuration error on either
    engine, not a traceback; the int64 maximum itself is read."""

    @pytest.mark.parametrize("argv", [
        ("moment", "--family", "thermal", "--rbar", "0.5", "--m", str(10 ** 20), "--n", str(10 ** 20)),
        ("moment", "--family", "ecs", "--alpha", "0.5", "--m", str(10 ** 20), "--n", str(10 ** 20)),
        ("moment", "--family", "thermal", "--rbar", "0.5", "--m", str(2 ** 63), "--n", "1", "--engine", "both"),
        ("witness", "--name", "hoa", "--l", str(10 ** 20), "--family", "thermal", "--rbar", "0.5"),
        ("witness", "--name", "hoa", "--l", str(10 ** 20), "--family", "thermal", "--rbar", "0.5",
         "--engine", "oracle"),
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
    def test_an_order_past_int64_is_refused(self, argv, run_main):
        proc = run_main(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "configuration error: moment orders are limited to 2**63 - 1 = 9223372036854775807\n"

    def test_the_int64_maximum_is_read(self, run_main):
        order = str(2 ** 63 - 1)
        proc = run_main("moment", "--family", "thermal", "--rbar", "0.5", "--m", order, "--n", order)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"out of float range: <a'^{order} a^{order}> of thermal(rbar=0.5)|bare "
                               "exceeds the float range\n")


class TestRepeatedFlags:
    """Every value flag of every command may be given once; a repeat exits 2
    and names the flag, however the command would have read it."""

    @pytest.mark.parametrize("argv, flag", [
        (("moment", "--family", "thermal", "--family", "ecs", "--alpha", "1", "--m", "1", "--n", "1"),
         "--family"),
        (_MOMENT + ("--family", "thermal", "--rbar", "1", "--m", "2"), "--m"),
        (("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1", "--rbar", "2"), "--rbar"),
        (("witness", "--name", "hoa", "--family", "ecs", "--alpha", "1", "--alpha-re", "2"),
         "--alpha-re"),
        (_SWEEP + ("--steps", "2", "--steps", "3"), "--steps"),
        (("figure", "fig1", "--steps", "2", "--steps", "3"), "--steps"),
        (("verify", "--suite", "determinism", "--tol", "1", "--tol", "2"), "--tol"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_repeat_is_config_error(self, argv, flag, capsys, monkeypatch, tmp_path):
        # a figure that ran anyway would write into the working directory
        monkeypatch.chdir(tmp_path)
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"configuration error: {flag} may be given only once\n"
        assert not list(tmp_path.iterdir())

    def test_config_fills_a_flag_given_once(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rbar=2\n")
        # the command line's --rbar wins and the config value is no repeat
        assert cli.main(_MOMENT + ("--family", "thermal", "--rbar", "1", "--config", str(cfg))) == 0
        given = capsys.readouterr().out
        assert cli.main(_MOMENT + ("--family", "thermal", "--rbar", "1")) == 0
        assert given == capsys.readouterr().out


_REFUSED_WITNESS_FLAG = "configuration error: {} takes no --{}\n"
_REFUSED_TOL = "configuration error: --tol is read only under --engine both\n"


class TestRefusedOptions:
    """A flag or config key a command would not read exits 2 and names it,
    before any record is printed or file written."""

    @pytest.mark.parametrize("argv, err", [
        (_MOMENT + ("--family", "thermal", "--rbar", "1", "--out", "x.csv"),
         "unrecognized arguments: --out x.csv"),
        (("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1", "--out", "x.csv"),
         "unrecognized arguments: --out x.csv"),
        (("witness", "--name", "hoa", "--m", "7", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("hoa", "m")),
        (("witness", "--name", "a3", "--l", "9", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("agarwal_tara", "l")),
        (("witness", "--name", "klyshko", "--m", "2", "--l", "4", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("klyshko", "l")),
        (("witness", "--name", "husimi-zero", "--l", "4", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("husimi_zero", "l")),
        (("witness", "--name", "hoa", "--variant", "power_of_mean", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("hoa", "variant")),
        (("sweep", "--name", "hoa", "--family", "thermal", "--m", "3", "--out", "out.csv"),
         _REFUSED_WITNESS_FLAG.format("hoa", "m")),
        (("sweep", "--name", "a3", "--family", "thermal", "--l", "7", "--out", "out.csv"),
         _REFUSED_WITNESS_FLAG.format("agarwal_tara", "l")),
        (_MOMENT + ("--family", "thermal", "--rbar", "1", "--tol", "1e-3"), _REFUSED_TOL),
        (("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1", "--tol", "5"), _REFUSED_TOL),
        (_SWEEP + ("--steps", "3", "--engine", "oracle", "--tol", "1", "--out", "out.csv"), _REFUSED_TOL),
        (("figure", "fig1", "--steps", "2", "--tol", "3", "--out", "out"), _REFUSED_TOL),
        (("verify", "--suite", "determinism", "--suite", "determinism"),
         "configuration error: suite 'determinism' is selected twice\n"),
        (_SWEEP + ("--steps", "3", "--variants", "PAS(1,1),PAS(1:1)", "--out", "out.csv"),
         "configuration error: variant PAS(1,1) is listed twice\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_refused_before_any_output(self, argv, err, run_main, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        proc = run_main(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        if err.startswith("configuration error"):
            assert proc.stderr == err
        else:
            assert proc.stderr.rstrip().endswith(err), proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text, argv, err", [
        ("l=9\n", ("witness", "--name", "a3", "--family", "thermal", "--rbar", "1"),
         _REFUSED_WITNESS_FLAG.format("agarwal_tara", "l")),
        ("tol=1e-6\n", ("witness", "--name", "hoa", "--family", "thermal", "--rbar", "1"), _REFUSED_TOL),
        ("tol=1e-6\nengine=oracle\n", ("figure", "fig1", "--steps", "2", "--out", "out"), _REFUSED_TOL),
        ("out=x\n", _MOMENT + ("--family", "thermal", "--rbar", "1"),
         "configuration error: unknown config key 'out' for moment\n"),
    ], ids=lambda v: v.strip().replace("\n", " ") if isinstance(v, str) else None)
    def test_refused_through_config(self, text, argv, err, run_main, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        monkeypatch.chdir(tmp_path)
        proc = run_main(*argv, "--config", str(cfg))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_tol_is_read_under_engine_both_from_config(self, run_main, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("engine=both\ntol=1e-30\n")
        proc = run_main("witness", "--name", "mandel", "--family", "thermal", "--op", "pas",
                        "--p", "1", "--q", "1", "--rbar", "1", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("analytic/oracle deviation exceeds tolerance 1e-30: mandel ")


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nn=1\nrbar=1.0\n")
        proc = run_main(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--config", str(cfg),
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(13 / 3, rel=1e-12)
        # an explicit flag beats the config value
        proc = run_main(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--config", str(cfg), "--n", "0",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("1,0,")

    def test_unknown_key_rejected(self, tmp_path, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wormhole=1\n")
        proc = run_main("moment", "--family", "thermal", "--rbar", "1", "--m", "0", "--n", "0", "--config", str(cfg))
        assert proc.returncode == 2

    def test_op_value_takes_flag_choices(self, tmp_path, run_main):
        cfg = tmp_path / "run.cfg"
        argv = ("moment", "--family", "thermal", "--rbar", "1", "--m", "1", "--n", "1", "--config", str(cfg))
        cfg.write_text("op=pas\np=1\nq=1\n")
        proc = run_main(*argv)
        assert proc.returncode == 0
        assert float(proc.stdout.split(",")[2]) == pytest.approx(10 / 3, rel=1e-12)
        # the --op choices are lower case: PAS is rejected, not read as psa
        cfg.write_text("op=PAS\np=1\nq=1\n")
        proc = run_main(*argv)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("family=thermall\nalpha_re=1\n", _MOMENT),
            ("p=abc\n", _MOMENT + ("--family", "thermal", "--rbar", "1")),
            ("engine=foo\n", _MOMENT + ("--family", "thermal", "--rbar", "1")),
            ("variant=bogus\n", ("witness", "--name", "a3", "--family", "thermal", "--rbar", "1")),
        ],
        ids=lambda v: v.strip().replace("\n", " ") if isinstance(v, str) else " ".join(v),
    )
    def test_bad_value_is_config_error(self, tmp_path, text, argv, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        proc = run_main(*argv, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConfigKeys:
    def test_bad_value_names_its_key(self, tmp_path, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=abc\n")
        proc = run_main("witness", "--name", "mandel", "--family", "thermal", "--rbar", "1",
                       "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: config value p='abc' "), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("text, argv", [
        ("steps=3\n", ("witness", "--name", "mandel", "--family", "thermal", "--rbar", "1")),
        ("grid_steps=5\n", ("moment", "--family", "thermal", "--rbar", "1", "--m", "1", "--n", "1")),
        ("rbar=1\n", ("figure", "fig1", "--steps", "3")),
        ("engine=oracle\n", ("verify", "--suite", "determinism")),
    ], ids=lambda v: v.strip() if isinstance(v, str) else v[0])
    def test_key_of_another_command_is_unknown(self, tmp_path, text, argv, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        # rejected while reading the file, before a figure writes anything
        proc = run_main(*argv, "--config", str(cfg))
        key = text.split("=")[0]
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"configuration error: unknown config key {key!r} for {argv[0]}"), proc.stderr
        assert proc.stdout == ""

    def test_key_of_the_invoked_command_is_read(self, tmp_path, run_main):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=3\n")
        proc = run_main("figure", "fig1", "--config", str(cfg), "--out", str(tmp_path))
        assert proc.returncode == 0
        rows = (tmp_path / "fig1_a.csv").read_text().splitlines()
        assert len(rows) == 1 + 3


class TestFigureStepFlags:
    @pytest.mark.parametrize("figure_id", ["fig1", "fig7"])
    def test_valid_value_on_the_unread_flag_is_accepted(self, tmp_path, figure_id, run_main):
        # as CI passes --steps 9 --grid-steps 5 to every pack
        proc = run_main("figure", figure_id, "--steps", "3", "--grid-steps", "3", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr


class TestOneParserPerProcess:
    """main() reuses one parser per process, and no call's flags, suites or
    config values reach the next call."""

    @staticmethod
    def _record(proc):
        return proc.returncode, proc.stdout, proc.stderr

    def test_built_once(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        cli.build_parser.cache_clear()
        assert cli.build_parser() is not parser

    def test_a_repeat_is_rejected_on_every_call(self, run_main):
        argv = ("witness", "--name", "hoa", "--family", "ecs", "--alpha", "1")
        once = self._record(run_main(*argv))
        assert once[0] == 0
        for _ in range(2):
            repeated = run_main(*argv, "--alpha", "2")
            assert self._record(repeated) == (2, "", "configuration error: --alpha may be given only once\n")
            assert self._record(run_main(*argv)) == once

    def test_verify_suites_are_not_collected_across_calls(self, run_main):
        for suite, code in (("signs", 1), ("coherent", 0)):
            proc = run_main("verify", "--suite", suite)
            assert proc.returncode == code
            # one PASS/FAIL line per suite run; indented lines detail a failure
            ran = [line.split()[1].rstrip(":") for line in proc.stdout.splitlines() if not line.startswith(" ")]
            assert ran == [suite]

    def test_config_values_do_not_carry_over(self, run_main, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rbar=2\nop=pas\np=1\nq=1\n")
        argv = ("moment", "--family", "thermal", "--m", "1", "--n", "1")
        configured = run_main(*argv, "--config", str(cfg))
        assert configured.returncode == 0
        flagged = run_main(*argv, "--rbar", "2", "--op", "pas", "--p", "1", "--q", "1")
        assert self._record(flagged) == self._record(configured)
        # without the file, none of its values remain
        assert self._record(run_main(*argv)) == (2, "", "configuration error: thermal family requires --rbar\n")
        bare = run_main(*argv, "--rbar", "2")
        assert bare.returncode == 0 and bare.stdout != configured.stdout

    @pytest.mark.parametrize("argv", [("fig1", "--steps", "5"), ("fig8", "--grid-steps", "5")],
                             ids=lambda argv: " ".join(argv))
    def test_figures_in_one_process_equal_a_new_process(self, argv, run_main, tmp_path):
        assert run_cli("figure", *argv, "--out", str(tmp_path / "process")).returncode == 0
        for rerun in ("first", "second"):
            assert run_main("figure", *argv, "--out", str(tmp_path / rerun)).returncode == 0
            for path in (tmp_path / "process").iterdir():
                assert (tmp_path / rerun / path.name).read_bytes() == path.read_bytes(), path.name
