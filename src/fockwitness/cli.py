"""Command-line surface: moments, witnesses, sweeps, figure packs, verify.

Exit codes are the machine-readable failure channel:

    0  success
    1  verification failure (a verify suite failed, or engine=both deviated
       beyond --tol; sweep and figure still write their CSVs)
    2  configuration error: bad flags or config values, an unknown figure
       id, a witness order out of its range (odd for hos), a Husimi window
       on which Q is 0 everywhere, an oracle basis beyond its hard cutoff,
       a value beyond the float range, or an --out that cannot be written
    3  the requested state is annihilated by its engineering operation
    5  an indeterminate or undefined witness (vanishing determinant-ratio
       denominator, Mandel function of a zero-mean state)

All stdout records are single-line CSV. Floats print in their shortest
round-trip form (17 significant digits at most).

--engine is a name of the table witnesses.ENGINES or "both", as read by
witnesses.engines, and the first engine's value is printed. Under "both"
each deviation from the oracle (oracle.deviation, plain relative for
moment) above --tol, or NaN, is named on stderr.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import oracle as oracle_mod
from . import sweep_report, verify
from . import states as states_mod
from . import witnesses as witnesses_mod
from .errors import (
    CutoffExceeded,
    DegenerateState,
    EmptyWindow,
    OddOrder,
    OutOfRange,
    SingularDenominator,
    ZeroMeanPhoton,
)
from .states import EngineeringOp, StateSpec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_SINGULAR = 5

# the --name spellings of two witnesses; every other --name is the witness's
# own name in witnesses.WITNESS_READS
_SPELLINGS = {"a3": "agarwal_tara", "husimi-zero": "husimi_zero"}

# --tol where none is given: the analytic/oracle deviation allowed under --engine both
DEFAULT_TOL = 1e-8


class ConfigError(Exception):
    pass


class _StoreOnce(argparse._StoreAction):
    """A value flag that may be given once: a repeat raises ConfigError
    instead of silently replacing the first value. The option strings of
    one flag (--alpha, --alpha-re) count as one."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ConfigError(f"{option_string} may be given only once")
        super().__call__(parser, namespace, values, option_string)


def _parser(**kwargs) -> argparse.ArgumentParser:
    """An argument parser whose value flags are _StoreOnce."""
    parser = argparse.ArgumentParser(**kwargs)
    parser.register("action", None, _StoreOnce)
    # argparse reads -1e-3, -inf and -nan as flags, as its pattern has no
    # exponent and no float() word; no option string of this CLI looks
    # like a number
    parser._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$",
                                                 re.IGNORECASE)
    return parser


# The one map from exception to exit code and stderr prefix; main() looks
# each raised exception's classes up here, most specific first.
_EXIT_CODES = {
    ConfigError: (EXIT_CONFIG, "configuration error"),
    ValueError: (EXIT_CONFIG, "configuration error"),
    OddOrder: (EXIT_CONFIG, "configuration error"),
    EmptyWindow: (EXIT_CONFIG, "configuration error"),
    CutoffExceeded: (EXIT_CONFIG, "oracle basis too large"),
    OutOfRange: (EXIT_CONFIG, "out of float range"),
    DegenerateState: (EXIT_DEGENERATE, "degenerate state"),
    SingularDenominator: (EXIT_SINGULAR, "indeterminate witness"),
    ZeroMeanPhoton: (EXIT_SINGULAR, "undefined witness"),
}


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    return repr(float(x))


def _compared(name: str, values: list, floor: float = 1.0) -> dict[str, float]:
    """{name: the deviation of the first engine's value from the second's}
    where an engine choice ran two (oracle.deviation), else {}."""
    return {name: oracle_mod.deviation(values[0], values[1], floor)} if len(values) > 1 else {}


def _check_deviations(deviations: dict[str, float], args: argparse.Namespace) -> int:
    """EXIT_VERIFY_FAILED, naming each deviation above --tol on stderr, or EXIT_OK."""
    tol = DEFAULT_TOL if args.tol is None else args.tol
    # a NaN deviation fails too
    failed = {name: dev for name, dev in deviations.items() if not dev <= tol}
    for name, dev in failed.items():
        print(f"analytic/oracle deviation exceeds tolerance {tol!r}: {name} {dev!r}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _config_flags(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """dest -> its value flag in the invoked command: the keys its config file may set."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action
        for action in commands.choices[command]._actions
        if isinstance(action, argparse._StoreAction) and action.option_strings
        and action.dest != "config"
    }


def _read_config_file(path: str, command: str, flags: dict[str, argparse.Action]) -> dict:
    """key=value lines, each value converted and checked by its flag's type and choices."""
    values = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line {line!r} is not key=value")
                key, _, text = line.partition("=")
                key, text = key.strip().replace("-", "_"), text.strip()
                if key not in flags:
                    raise ConfigError(f"unknown config key {key!r} for {command}")
                action = flags[key]
                try:
                    value = action.type(text) if action.type else text
                except ValueError:
                    raise ConfigError(
                        f"config value {key}={text!r} is not a valid {action.type.__name__}"
                    ) from None
                if action.choices is not None and value not in action.choices:
                    choices = ", ".join(action.choices)
                    raise ConfigError(f"config value {key}={text!r} is not one of: {choices}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Precedence: explicit flags > config file values > defaults."""
    if not getattr(args, "config", None):
        return
    flags = _config_flags(parser, args.command)
    for key, value in _read_config_file(args.config, args.command, flags).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=states_mod.FAMILIES)
    parser.add_argument("--op", choices=("none", "pas", "psa"))
    parser.add_argument("--p", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--rbar", type=float)
    parser.add_argument("--alpha", "--alpha-re", dest="alpha_re", type=float)
    parser.add_argument("--alpha-im", dest="alpha_im", type=float)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=(*witnesses_mod.ENGINES, "both"))
    parser.add_argument("--tol", type=verify.tolerance)
    parser.add_argument("--config")


def _build_op(args: argparse.Namespace) -> EngineeringOp:
    p = args.p or 0
    q = args.q or 0
    if args.op in (None, "none"):
        if p or q:
            raise ConfigError("--op none is incompatible with --p/--q")
        return EngineeringOp.bare()
    return (EngineeringOp.pas if args.op == "pas" else EngineeringOp.psa)(p, q)


def _build_spec(args: argparse.Namespace) -> StateSpec:
    if args.family is None:
        raise ConfigError("--family is required")
    family = states_mod.FAMILIES[args.family]
    op = _build_op(args)
    # every family parameter from its flags: the family's own is required, others refused
    alpha_given = args.alpha_re is not None or args.alpha_im is not None
    values = {"rbar": args.rbar,
              "alpha": complex(args.alpha_re or 0.0, args.alpha_im or 0.0) if alpha_given else None}
    value = values.pop(family.parameter)
    if value is None:
        raise ConfigError(f"{family.name} family requires --{family.parameter}")
    for name, other in values.items():
        if other is not None:
            raise ConfigError(f"{family.name} family takes no --{name}")
    return StateSpec.of(family, value, op)


def _witness_order(args: argparse.Namespace) -> tuple[str, int]:
    """The witness --name selects, and the order it reports
    (witnesses.witness_order); of --l, --m and --variant, a flag the
    witness does not read (witnesses.WITNESS_READS) is refused."""
    if args.name is None:
        raise ConfigError(f"{args.command} requires --name")
    name = args.name.lower()
    witness = _SPELLINGS.get(name, name)
    if witness not in witnesses_mod.WITNESS_READS:
        raise ConfigError(f"unknown witness name {args.name!r}")
    for flag in ("l", "m", "variant"):
        if flag != witnesses_mod.WITNESS_READS[witness] and getattr(args, flag, None) is not None:
            raise ConfigError(f"{witness} takes no --{flag}")
    if witness == "klyshko" and args.m is None:
        raise ConfigError("klyshko requires --m")
    # at most the one of --l and --m that the witness reads is given
    return witness, witnesses_mod.witness_order(witness, args.m if args.l is None else args.l)


def _cmd_moment(args: argparse.Namespace) -> int:
    if args.m is None or args.n is None:
        raise ConfigError("moment requires --m and --n")
    if args.m < 0 or args.n < 0:
        raise ConfigError("--m and --n must be non-negative")
    spec = _build_spec(args)
    # the witnesses' route, whose oracle basis holds this moment's tail
    pair = (args.m, args.n)
    values = [engine.moment_table(spec, (pair,), oracle_mod.DEFAULT_TAIL_TOL).get(*pair)
              for engine in witnesses_mod.engines(args.engine or "analytic")]
    print(f"{args.m},{args.n},{_fmt(values[0].real)},{_fmt(values[0].imag)}")
    deviations = _compared(f"moment({args.m},{args.n})", values, oracle_mod.RELATIVE_FLOOR)
    return _check_deviations(deviations, args)


def _cmd_witness(args: argparse.Namespace) -> int:
    witness, order = _witness_order(args)
    spec = _build_spec(args)
    results = [witnesses_mod.evaluate_witness(spec, witness, order=order, variant=args.variant, engine=engine.name)
               for engine in witnesses_mod.engines(args.engine or "analytic")]
    first = results[0]
    flag = "true" if first.nonclassical else "false"
    print(f"{first.witness},{first.order},{repr(float(first.value))},{flag}")
    return _check_deviations(_compared(witness, [r.value for r in results]), args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    witness, order = _witness_order(args)
    if witness == "husimi_zero":
        raise ConfigError("husimi-zero has no scalar sweep; use the figure packs")
    if args.family is None:
        raise ConfigError("sweep requires --family")
    # split at the commas outside parentheses: PAS(1,1) as well as PAS(1:1),
    # and "PAS(1,1)" quoted as the CSV header prints it
    labels = [re.sub(r'^"(.*)"$', r"\1", label.strip())
              for label in re.split(r",(?![^(]*\))", args.variants or "PAS(1:1),PSA(1:1)")]
    variants = [EngineeringOp.from_label(label) for label in labels if label]
    if not variants:
        raise ConfigError("no variants given")
    table = sweep_report.sweep(
        witness,
        order,
        variants,
        states_mod.FAMILIES[args.family],
        param_min=args.param_min,
        param_max=args.param_max,
        steps=args.steps,
        engine=args.engine or "analytic",
        include_bare=args.include_bare,
    )
    text = sweep_report.sweep_table_csv(table)
    if args.out:
        try:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
        print(args.out)
    else:
        sys.stdout.write(text)
    return _check_deviations(table.metadata.get("max_deviation", {}), args)


def _cmd_figure(args: argparse.Namespace) -> int:
    pack = sweep_report.figure_pack(
        args.figure_id,
        steps=args.steps,
        grid_steps=args.grid_steps,
        engine=args.engine or "analytic",
    )
    out_dir = args.out or "."
    try:
        manifest = sweep_report.write_figure_pack(pack, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    for name, path in manifest:
        print(f"{name},{path}")
    # per series for a sweep panel, one number for a Husimi grid
    deviations = {}
    for name, panel in pack.panels:
        dev = panel.metadata.get("max_deviation", {})
        if isinstance(dev, dict):
            deviations.update({f"{args.figure_id}_{name} {label}": v for label, v in dev.items()})
        else:
            deviations[f"{args.figure_id}_{name}"] = dev
    return _check_deviations(deviations, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suites(args.suite or None, tol=args.tol, report=print)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared by
    every main() call.

    Parsing keeps no state in the parser: each parse_args call fills a new
    namespace (so _StoreOnce sees only its own call's flags, and an append
    flag such as verify's --suite starts empty), and _merge_config writes
    config values into that namespace only. cache_clear() makes the next
    call build a new one."""
    parser = _parser(
        prog="fockwitness",
        description="Nonclassicality witnesses for photon-engineered thermal and even coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)

    p_moment = sub.add_parser("moment", help="print one normalized moment <a'^m a^n>")
    _add_state_flags(p_moment)
    _add_shared_flags(p_moment)
    p_moment.add_argument("--m", type=int)
    p_moment.add_argument("--n", type=int)
    p_moment.set_defaults(func=_cmd_moment)

    p_witness = sub.add_parser("witness", help="evaluate one nonclassicality witness")
    _add_state_flags(p_witness)
    _add_shared_flags(p_witness)
    p_witness.add_argument("--name")
    p_witness.add_argument("--l", type=int)
    p_witness.add_argument("--m", type=int)
    p_witness.add_argument("--variant", choices=witnesses_mod.VARIANTS)
    p_witness.set_defaults(func=_cmd_witness)

    p_sweep = sub.add_parser("sweep", help="scan a witness over a parameter range")
    _add_shared_flags(p_sweep)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--name")
    p_sweep.add_argument("--family", choices=states_mod.FAMILIES)
    p_sweep.add_argument("--l", type=int)
    p_sweep.add_argument("--m", type=int)
    p_sweep.add_argument("--variants", help="comma list like PAS(1,1),PSA(2:1),bare")
    p_sweep.add_argument("--include-bare", action="store_true")
    p_sweep.add_argument("--param-min", dest="param_min", type=float)
    p_sweep.add_argument("--param-max", dest="param_max", type=float)
    p_sweep.add_argument("--steps", type=int)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_figure = sub.add_parser("figure", help="emit the CSV pack for one figure")
    _add_shared_flags(p_figure)
    p_figure.add_argument("--out")
    p_figure.add_argument("figure_id")
    p_figure.add_argument("--steps", type=int)
    p_figure.add_argument("--grid-steps", dest="grid_steps", type=int)
    p_figure.set_defaults(func=_cmd_figure)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", action="append", choices=verify.SUITE_NAMES)
    p_verify.add_argument("--tol", type=verify.tolerance)
    p_verify.add_argument("--config")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, parser)
        # verify reads its own --tol (verify.TOL_SUITES)
        if args.command != "verify" and args.tol is not None and args.engine != "both":
            raise ConfigError("--tol is read only under --engine both")
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
