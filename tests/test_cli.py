"""The command line. Each command's contract is a row of contracts.ROWS, run
here in process, and by `python -W error tests/contracts.py` as a new
process; the tests below check what no one row can: relations between runs,
the process state one call leaves to the next, and README against the code."""

import argparse
import concurrent.futures
import csv
import math
import pathlib
import re
import shlex
import subprocess
import warnings

import pytest

import contracts
from fockwitness import cli, oracle, states, witnesses

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _main(argv, capsys):
    """One cli.main call in this process, every warning an error: its return
    value, or the code argparse exits with on a usage error, and its
    captured stdout and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(list(argv), code, out, err)


@pytest.fixture
def run_main(capsys):
    return lambda *args: _main(args, capsys)


def _run_rows(rows, tmp_path, monkeypatch, capsys):
    """Each row in process, in an empty directory of its own, and a fresh
    row as a new process too."""
    for i, row in enumerate(rows):
        for run in ("in process", "fresh") if row.fresh is not None else ("in process",):
            cwd = tmp_path / f"{i} {run}"
            cwd.mkdir()
            contracts.prepare(row, cwd)
            if run == "fresh":
                result = contracts.run_fresh(row, cwd)
            else:
                monkeypatch.chdir(cwd)
                proc = _main(row.argv, capsys)
                result = (proc.returncode, proc.stdout, proc.stderr, None)
            found = contracts.failures(row, *result, cwd)
            assert not found, f"{row!r} ({run}): {found}"


def _contract_test(cases):
    """The test of one name in contracts.ROWS: {case id: rows}, or {None: rows}."""
    if list(cases) == [None]:
        def test(self, tmp_path, monkeypatch, capsys):
            _run_rows(cases[None], tmp_path, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(self, rows, tmp_path, monkeypatch, capsys):
        _run_rows(rows, tmp_path, monkeypatch, capsys)
    return test


class TestWitnessNames:
    """--name and --variant take their values from witnesses.WITNESSES
    and witnesses.VARIANTS; the CLI adds only the spellings a3 and
    husimi-zero."""

    @pytest.mark.parametrize("name", [*cli._SPELLINGS, *witnesses.WITNESSES, "A3", "Husimi-Zero"])
    def test_every_name_resolves_to_a_witness(self, name):
        # klyshko requires its --m, which every other witness refuses
        m = 3 if name == "klyshko" else None
        args = argparse.Namespace(command="witness", name=name, l=None, m=m, variant=None)
        witness, order = cli._witness_order(args)
        assert witness in witnesses.WITNESSES
        assert order == {"l": 2, "m": 3}.get(witnesses.WITNESSES[witness].reads, 0)

    def test_variant_choices_are_the_witness_variants(self):
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        (action,) = [a for a in commands.choices["witness"]._actions if a.dest == "variant"]
        assert tuple(action.choices) == witnesses.VARIANTS


_SWEEP = ("sweep", "--name", "mandel", "--family", "thermal")


def _columns(text):
    rows = list(csv.reader(text.splitlines()))
    return {label: [row[i] for row in rows[1:]] for i, label in enumerate(rows[0])}


class TestFigureCommand:
    def test_byte_identical_reruns(self, tmp_path):
        rows = [contracts.Row(None, f"figure fig1 --steps 9 --out {out}") for out in "ab"]
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            assert [run[0] for run in pool.map(contracts.run_fresh, rows, [tmp_path] * 2)] == [0, 0]
        for name in ("fig1_a.csv", "fig1_b.csv", "fig1_c.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSweepCommand:
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

    # a sweep panel's variants are one stack, read in one witness call per
    # engine: each variant's two columns, its NaN gaps at 0 included, are
    # those of the variant's own sweep
    @pytest.mark.parametrize("family, witness", contracts.STACKED, ids=[" ".join(case) for case in contracts.STACKED])
    def test_stacked_columns_equal_each_variant_alone(self, family, witness, run_main):
        stack = _columns(run_main(*contracts.stacked_sweep(family, witness, contracts.GAPS).split()).stdout)
        for variant in contracts.GAP_VARIANTS:
            alone = _columns(run_main(*contracts.stacked_sweep(family, witness, variant).split()).stdout)
            labels = ["param", variant, f"{variant}@oracle"]
            assert list(alone) == labels
            assert all(stack[label] == alone[label] for label in labels), variant


class TestBothEngineTolerance:
    def test_moment_deviation_above_tol_fails(self, capsys):
        # plain relative: 4.333333333333333 against the oracle's 4.3333333333333295
        spec = states.StateSpec.thermal(1.0, states.EngineeringOp.psa(1, 1))
        values = [engine.moment_table(spec, ((1, 1),), oracle.DEFAULT_TAIL_TOL).get(1, 1)
                  for engine in witnesses.engines("both")]
        dev = oracle.deviation(*values, oracle.RELATIVE_FLOOR)
        assert 1e-30 < dev < 1e-8
        argv = ["moment", "--family", "thermal", "--op", "psa", "--p", "1", "--q", "1", "--rbar", "1",
                "--m", "1", "--n", "1", "--engine", "both", "--tol", "1e-30"]
        proc = _main(argv, capsys)
        assert proc.returncode == 1
        assert proc.stdout == f"1,1,{values[0].real!r},0\n"
        assert proc.stderr == f"analytic/oracle deviation exceeds tolerance 1e-30: moment(1,1) {dev!r}\n"


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

    # each pack written twice in this process, as a new process per pack
    # writes it; every row of every CSV parses at its header's width (a sweep
    # header quotes its labels, PAS(1,1), as RFC 4180 asks)
    @pytest.mark.parametrize("rows", [
        [contracts.Row(None, "figure fig1 --steps 5 --out process")],
        [contracts.Row(None, "figure fig8 --grid-steps 5 --out process")],
        [row for row in contracts.ROWS if row.test == "TestFigureCommand::test_default_packs"],
    ], ids=["fig1 --steps 5", "fig8 --grid-steps 5", "default packs"])
    def test_figures_in_one_process_equal_a_new_process(self, rows, run_main, tmp_path, monkeypatch):
        dirs = [tmp_path / row.argv[1] for row in rows]
        for path in dirs:
            path.mkdir()
        # the new processes two at a time, while this one writes
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(contracts.run_fresh, row, path) for row, path in zip(rows, dirs)]
            for row, path, run in zip(rows, dirs, runs):
                monkeypatch.chdir(path)
                for rerun in ("first", "second"):
                    assert run_main(*row.argv[:-1], rerun).returncode == 0
                assert run.result()[0] == 0
                for written in (path / "process").iterdir():
                    for rerun in ("first", "second"):
                        assert (path / rerun / written.name).read_bytes() == written.read_bytes(), written.name
                    with open(written, newline="") as fh:
                        assert len({len(fields) for fields in csv.reader(fh)}) == 1, written.name


class TestReadme:
    """README's exit codes, witness order flags and example results are the code's."""

    def test_exit_codes_name_their_stderr_prefixes(self):
        listed = README.split("Exit codes (one table, `cli._EXIT_CODES`")[1].split("\n\n")[1]
        prefixes = {}
        for item in re.split(r"\n(?=\* )", listed):
            code, stderr = re.match(r"\* `(\d)`(?: \(stderr ([^)]*)\))?", item).groups()
            prefixes[int(code)] = set(re.findall(r"`([^`]+)`", stderr or ""))
        expected = {cli.EXIT_OK: set(), cli.EXIT_VERIFY_FAILED: set()}
        for code, prefix in cli._EXIT_CODES.values():
            expected.setdefault(code, set()).add(prefix)
        assert prefixes == expected

    def test_order_flags_are_the_witness_reads(self):
        sentence = re.search(r"A witness's order\s+flag is (.*?)\. ", README, re.DOTALL).group(1)
        flags = {}
        for clause in re.split(r",\s+(?:and\s+)?(?=`--|none)", sentence):
            flag, names = re.split(r"\s+for\s+", clause, 1)
            for name in re.findall(r"`([\w-]+)`", names):
                flags[cli._SPELLINGS.get(name, name)] = flag.strip("`").removeprefix("--")
        assert flags == {name: witness.reads if witness.reads in ("l", "m") else "none"
                         for name, witness in witnesses.WITNESSES.items()}

    def test_each_shown_result_is_a_row(self):
        shown = re.findall(r"^fockwitness ((?:[^\n]*\\\n)*[^\n]*)\n# -> ([^\n]*?)(?:  |$)", README, re.MULTILINE)
        assert len(shown) == 2
        for command, result in shown:
            argv = shlex.split(command.replace("\\\n", " "))
            (row,) = [row for row in contracts.ROWS if row.argv == argv]
            expected = row.out if isinstance(row.out, str) else row.out.pattern
            assert expected.startswith(result if isinstance(row.out, str) else re.escape(result) + r"\n"), command

    def test_the_python_blocks_print_what_their_comments_state(self, tmp_path, monkeypatch, capsys):
        # README's ```python blocks in order, in one namespace, in a temporary
        # directory (the first writes ./out), with every warning an error
        blocks = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
        assert len(blocks) == 5
        monkeypatch.chdir(tmp_path)
        namespace, printed = {}, []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for block in blocks:
                exec(compile(block, "README.md", "exec"), namespace)
                printed.append(capsys.readouterr().out.splitlines())
        assert len(list((tmp_path / "out").iterdir())) == 9
        value, flag = printed[1][0].split()
        assert (float(value), flag) == (pytest.approx(17 / 39, rel=1e-12), "False")
        assert [complex(line) for line in printed[1][1:3]] == [pytest.approx(13 / 3, rel=1e-12)] * 2
        assert printed[1][-1] == "(121, 121)"
        assert printed[2:] == [["(400,)"], ["(200,)", "(3, 200)", "(10, 200)"], ['param,"PSA(1,1)"']]


# one test per name in contracts.ROWS, `Class::method` or `Class::method[case]`,
# built in the class that name gives, so that each row keeps its test's id
_CASES = {}
for _row in contracts.ROWS:
    _class, _, _test = _row.test.partition("::")
    _method, _, _case = _test.partition("[")
    _CASES.setdefault((_class, _method), {}).setdefault(_case[:-1] or None, []).append(_row)
for (_class, _method), _cases in _CASES.items():
    setattr(globals().get(_class) or globals().setdefault(_class, type(_class, (), {})), _method,
            _contract_test(_cases))
