import subprocess
import sys

import pytest

from fockwitness import cli, states
from fockwitness.errors import NonConvergent

PKG = [sys.executable, "-m", "fockwitness"]


def run_cli(*args, timeout=300):
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=timeout
    )


class TestMomentCommand:
    def test_past_mean(self):
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "pas", "--p", "1", "--q", "1",
            "--rbar", "1", "--m", "1", "--n", "1",
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(10 / 3, rel=1e-12)
        # shortest round-trip formatting: the record reparses exactly
        assert repr(float(re)) == re

    def test_ecs_parity_zero(self):
        proc = run_cli("moment", "--family", "ecs", "--alpha", "1", "--m", "1", "--n", "0")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0,0,0"

    def test_degenerate_exit_code(self):
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1",
            "--rbar", "0", "--m", "0", "--n", "0",
        )
        assert proc.returncode == 3

    def test_nonconvergent_exit_code(self, monkeypatch, capsys):
        # the analytic engine sums no infinite series; the mapping stays
        def raise_nonconvergent(spec, m, n):
            raise NonConvergent("series budget exhausted")

        monkeypatch.setattr(states, "moment", raise_nonconvergent)
        code = cli.main([
            "moment", "--family", "thermal", "--op", "pas", "--p", "1", "--q", "1",
            "--rbar", "1", "--m", "1", "--n", "1",
        ])
        assert code == 4
        assert "did not converge" in capsys.readouterr().err

    def test_huge_rbar_is_finite(self):
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "pas", "--p", "1", "--q", "1",
            "--rbar", "1e15", "--m", "1", "--n", "1",
        )
        assert proc.returncode == 0
        r = 1e15
        assert float(proc.stdout.split(",")[2]) == pytest.approx(2 * r * (3 * r + 2) / (2 * r + 1), rel=1e-12)

    @pytest.mark.parametrize("order, expected", [(170, 7.2574156153080247e-34), (171, 1.2410180702176722e-33)])
    def test_thermal_high_order_moment(self, order, expected):
        # order! rbar^order: the float of 171! overflows and 0.01^170
        # underflows, but neither the moment nor its logarithm does
        proc = run_cli("moment", "--family", "thermal", "--rbar", "0.01", "--m", str(order), "--n", str(order))
        assert proc.returncode == 0, proc.stderr
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == (str(order), str(order), "0")
        assert float(re) == pytest.approx(expected, rel=1e-11)

    def test_missing_orders_is_config_error(self):
        proc = run_cli("moment", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 2

    def test_both_engine_agrees(self):
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--rbar", "1", "--m", "1", "--n", "1", "--engine", "both",
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(13 / 3, rel=1e-12)


class TestWitnessCommand:
    def test_mandel_record(self):
        proc = run_cli("witness", "--name", "mandel", "--l", "2", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("mandel", "2", "false")
        assert float(value) == pytest.approx(1.0, rel=1e-12)

    def test_power_of_mean_anomaly_record(self):
        proc = run_cli(
            "witness", "--name", "a3", "--variant", "power_of_mean",
            "--family", "thermal", "--rbar", "1",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "agarwal_tara,0,-1.0,true"

    def test_klyshko_record(self):
        proc = run_cli("witness", "--name", "klyshko", "--m", "2", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("klyshko", "2", "false")
        assert float(value) == pytest.approx(1 / 256, rel=1e-12)

    def test_singular_exit_code(self):
        # thermal vacuum: every determinant vanishes
        proc = run_cli("witness", "--name", "a3", "--family", "thermal", "--rbar", "0")
        assert proc.returncode == 5

    def test_unknown_name_is_config_error(self):
        proc = run_cli("witness", "--name", "sorcery", "--family", "thermal", "--rbar", "1")
        assert proc.returncode == 2

    def test_klyshko_at_huge_photon_number(self):
        proc = run_cli(
            "witness", "--name", "klyshko", "--m", str(10 ** 200), "--family", "thermal",
            "--op", "pas", "--p", "1", "--q", "1", "--rbar", "1",
        )
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, value, flag) == ("klyshko", str(10 ** 200), "0.0", "false")

    def test_husimi_zero_record(self):
        proc = run_cli(
            "witness", "--name", "husimi-zero", "--family", "thermal",
            "--op", "psa", "--p", "1", "--q", "2", "--rbar", "1",
        )
        assert proc.returncode == 0
        name, order, value, flag = proc.stdout.strip().split(",")
        assert (name, order, flag) == ("husimi_zero", "0", "true")
        assert float(value) >= 0.0


class TestFigureCommand:
    def test_unknown_figure_exit_code(self):
        proc = run_cli("figure", "fig99")
        assert proc.returncode == 2

    def test_manifest_and_files(self, tmp_path):
        proc = run_cli("figure", "fig11", "--steps", "7", "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            name, path = line.split(",", 1)
            with open(path) as fh:
                assert fh.readline().startswith("param,")

    def test_husimi_figure_csv_columns(self, tmp_path):
        proc = run_cli("figure", "fig8", "--grid-steps", "5", "--out", str(tmp_path))
        assert proc.returncode == 0
        first = proc.stdout.strip().splitlines()[0].split(",", 1)[1]
        with open(first) as fh:
            assert fh.readline().strip() == "re,im,q_value"

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            proc = run_cli("figure", "fig1", "--steps", "9", "--out", str(out))
            assert proc.returncode == 0
        for name in ("fig1_a.csv", "fig1_b.csv", "fig1_c.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweepCommand:
    def test_stdout_csv(self):
        proc = run_cli(
            "sweep", "--name", "mandel", "--l", "2", "--family", "thermal",
            "--variants", "PAS(1:1),PSA(1:1)", "--param-min", "0.2",
            "--param-max", "1.0", "--steps", "3",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "param,PAS(1,1),PSA(1,1)"
        assert len(lines) == 4

    def test_header_labels_accepted(self):
        colon = subprocess.run(PKG + [*_SWEEP, "--steps", "3", "--variants", "PAS(1:1),PSA(1:1)"],
                               capture_output=True)
        comma = subprocess.run(PKG + [*_SWEEP, "--steps", "3", "--variants", "PAS(1,1),PSA(1,1)"],
                               capture_output=True)
        assert comma.returncode == 0, comma.stderr
        assert comma.stdout == colon.stdout

    def test_bad_variant_label(self):
        proc = run_cli(
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
    def test_is_config_error(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr


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
    def test_figure_deviation_above_tol_fails_but_writes(self, tmp_path):
        proc = run_cli("figure", "fig7", "--grid-steps", "5", "--engine", "both",
                       "--tol", "1e-30", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "analytic/oracle deviation exceeds tolerance 1e-30: fig7_a " in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig7_{c}.csv" for c in "abcde"]
        assert len(proc.stdout.strip().splitlines()) == 5

    def test_sweep_deviation_above_tol_fails_but_writes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(*_SWEEP, "--steps", "3", "--engine", "both", "--tol", "1e-30", "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "exceeds tolerance 1e-30: PAS(1,1) " in proc.stderr
        assert out.read_text().startswith("param,PAS(1,1),PAS(1,1)@oracle,")

    def test_witness_deviation_above_tol_fails(self):
        proc = run_cli("witness", "--name", "mandel", "--family", "thermal", "--op", "pas",
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


class TestVerifyCommand:
    def test_single_suite_passes(self):
        proc = run_cli("verify", "--suite", "determinism")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS determinism")

    def test_overtight_tolerance_fails(self):
        proc = run_cli("verify", "--suite", "fixtures", "--tol", "1e-15")
        assert proc.returncode == 1

    def test_unknown_suite_is_config_error(self):
        proc = run_cli("verify", "--suite", "astrology")
        assert proc.returncode == 2


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


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nn=1\nrbar=1.0\n")
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--config", str(cfg),
        )
        assert proc.returncode == 0
        m, n, re, im = proc.stdout.strip().split(",")
        assert (m, n, im) == ("1", "1", "0")
        assert float(re) == pytest.approx(13 / 3, rel=1e-12)
        # an explicit flag beats the config value
        proc = run_cli(
            "moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1",
            "--config", str(cfg), "--n", "0",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("1,0,")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wormhole=1\n")
        proc = run_cli("moment", "--family", "thermal", "--rbar", "1", "--m", "0", "--n", "0", "--config", str(cfg))
        assert proc.returncode == 2

    def test_op_value_takes_flag_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        argv = ("moment", "--family", "thermal", "--rbar", "1", "--m", "1", "--n", "1", "--config", str(cfg))
        cfg.write_text("op=pas\np=1\nq=1\n")
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert float(proc.stdout.split(",")[2]) == pytest.approx(10 / 3, rel=1e-12)
        # the --op choices are lower case: PAS is rejected, not read as psa
        cfg.write_text("op=PAS\np=1\nq=1\n")
        proc = run_cli(*argv)
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
    def test_bad_value_is_config_error(self, tmp_path, text, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        proc = run_cli(*argv, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConfigKeys:
    def test_bad_value_names_its_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=abc\n")
        proc = run_cli("witness", "--name", "mandel", "--family", "thermal", "--rbar", "1",
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
    def test_key_of_another_command_is_unknown(self, tmp_path, text, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        # rejected while reading the file, before a figure writes anything
        proc = run_cli(*argv, "--config", str(cfg))
        key = text.split("=")[0]
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"configuration error: unknown config key {key!r} for {argv[0]}"), proc.stderr
        assert proc.stdout == ""

    def test_key_of_the_invoked_command_is_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=3\n")
        proc = run_cli("figure", "fig1", "--config", str(cfg), "--out", str(tmp_path))
        assert proc.returncode == 0
        rows = (tmp_path / "fig1_a.csv").read_text().splitlines()
        assert len(rows) == 1 + 3


class TestFigureStepFlags:
    @pytest.mark.parametrize("figure_id", ["fig1", "fig7"])
    def test_valid_value_on_the_unread_flag_is_accepted(self, tmp_path, figure_id):
        # as CI passes --steps 9 --grid-steps 5 to every pack
        proc = run_cli("figure", figure_id, "--steps", "3", "--grid-steps", "3", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
