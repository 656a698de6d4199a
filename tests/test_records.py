"""The package's records: what each promises its callers, and a start-up
that compiles no record code."""

import copy
import os
import pickle
import subprocess
import sys
from collections.abc import Hashable

import numpy as np
import pytest

import fockwitness
from fockwitness import oracle, states, sweep_report, verify, witnesses
from fockwitness.states import FAMILY_THERMAL, EngineeringOp, StateSpec

_FAMILY_FIELDS = ("name", "parameter", "kind", "valid", "domain", "window", "diagonal", "constants", "factors",
                  "level_weight", "husimi")


def _engine_body(*args):
    return None


# record, its fields with one value each, and how it compares: "frozen"
# (by value, hashed by value, no assignment), "identity" (frozen, compared
# and hashed by identity) or "mutable" (by value, unhashable)
RECORDS = [
    (EngineeringOp, {"order": states.ORDER_ADD_THEN_SUBTRACT, "p": 2, "q": 1}, "frozen"),
    (states.Family, {field: getattr(FAMILY_THERMAL, field) for field in _FAMILY_FIELDS} | {"name": "twin"},
     "identity"),
    (StateSpec, {"family": FAMILY_THERMAL, "parameter": 0.5, "op": EngineeringOp.pas(1, 1)}, "frozen"),
    (oracle.TruncatedState, {"cutoff": 3, "kind": oracle.KIND_DIAGONAL, "data": np.array([1.0]), "tail_mass": 0.0},
     "frozen"),
    (oracle.FixtureRecord, {"canonical": "thermal(rbar=0.5)|bare", "quantity": "hoa(2)", "cutoff": 64,
                            "value": 0.25}, "frozen"),
    (witnesses.Engine, {"name": "twin", "moment_table": _engine_body, "photon_probs": _engine_body,
                        "husimi": _engine_body}, "frozen"),
    (witnesses.WitnessResult, {"witness": "hoa", "order": 2, "value": -0.25, "nonclassical": True,
                               "provenance": "analytic"}, "frozen"),
    (witnesses.ScanGrid, {"re_min": -1.0, "re_max": 1.0, "im_min": -2.0, "im_max": 2.0, "steps": 5}, "frozen"),
    (sweep_report.SweepTable, {"parameter_name": "rbar", "parameter_values": np.array([0.5]),
                               "series": {"bare": np.array([1.0])}, "metadata": {"engine": "analytic"}}, "mutable"),
    (sweep_report.HusimiGrid, {"label": "bare", "re_values": [0.0], "im_values": [0.0],
                               "q_values": np.array([[1.0]]), "metadata": {"rbar": 2.0}}, "mutable"),
    (sweep_report.FigurePack, {"figure_id": "fig1", "panels": [("mandel_2", None)]}, "mutable"),
    (verify.SuiteResult, {"name": "moments", "passed": True, "max_deviation": 0.0, "checks": 3,
                          "notes": ["one"]}, "mutable"),
]
_IDS = [record.__name__ for record, _, _ in RECORDS]

# each record built without the fields that have defaults, and the fields it then holds
DEFAULTS = [
    (EngineeringOp, {}, {"order": states.ORDER_NONE, "p": 0, "q": 0}),
    (StateSpec, {"family": FAMILY_THERMAL, "parameter": 0.5}, {"op": EngineeringOp.bare()}),
    (witnesses.ScanGrid, {}, {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 4.0, "steps": 81}),
    (sweep_report.SweepTable, {"parameter_name": "rbar", "parameter_values": [0.5], "series": {}}, {"metadata": {}}),
    (sweep_report.HusimiGrid, {"label": "bare", "re_values": [0.0], "im_values": [0.0], "q_values": [[1.0]]},
     {"metadata": {}}),
    (verify.SuiteResult, {"name": "moments", "passed": True, "max_deviation": 0.0, "checks": 3}, {"notes": []}),
]

# fields outside a record's domain, and the ValueError text
REFUSED = [
    (EngineeringOp, {"order": "both"}, "unknown engineering order"),
    (EngineeringOp, {"order": states.ORDER_ADD_THEN_SUBTRACT, "p": -1}, "must be non-negative"),
    (EngineeringOp, {"order": states.ORDER_NONE, "q": 1}, "requires p = q = 0"),
    (EngineeringOp, {"order": states.ORDER_SUBTRACT_THEN_ADD, "p": 9}, "capped at 8"),
    (StateSpec, {"family": "thermal", "parameter": 0.5}, "unknown family"),
    (StateSpec, {"family": FAMILY_THERMAL, "parameter": -0.5}, "must be finite and >= 0"),
    (witnesses.ScanGrid, {"steps": 1}, "at least 2 steps"),
    (witnesses.ScanGrid, {"re_min": 1.0, "re_max": 1.0}, "well ordered"),
]


def _fields_of(record, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, fields, kind", RECORDS, ids=_IDS)
def test_a_record_keeps_its_contract(cls, fields, kind):
    names, values = tuple(fields), tuple(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    # the fields, as given, by position or keyword alike
    assert _fields_of(by_position, names) == _fields_of(by_keyword, names)
    assert all(got is want for got, want in zip(_fields_of(by_keyword, names), values))
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, None)
    # equality, hashing and repr
    if kind == "identity":
        assert by_position != by_keyword and len({by_position, by_keyword}) == 2
        assert repr(by_keyword) == f"<family {fields['name']}>"
    else:
        assert by_position == by_keyword and not by_position != by_keyword
        assert by_keyword != _fields_of(by_keyword, names)
        assert repr(by_keyword) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"
    if kind == "mutable":
        with pytest.raises(TypeError):
            hash(by_keyword)
    elif kind == "frozen" and all(isinstance(value, Hashable) for value in values):
        assert hash(by_position) == hash(by_keyword) == hash(values)
    elif kind == "frozen":
        with pytest.raises(TypeError):
            hash(by_keyword)
    # copies and pickles: equal records of the class; a family record is itself
    original = FAMILY_THERMAL if kind == "identity" else by_keyword
    for twin in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert twin is original if kind == "identity" else (type(twin) is cls and twin == original)
    # assignment
    if kind == "mutable":
        setattr(by_keyword, names[0], "changed")
        assert getattr(by_keyword, names[0]) == "changed"
    else:
        with pytest.raises(AttributeError):
            setattr(by_keyword, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(by_keyword, names[0])
        assert _fields_of(by_keyword, names) == _fields_of(by_position, names)


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS, ids=[cls.__name__ for cls, _, _ in DEFAULTS])
def test_a_left_out_field_takes_its_default(cls, given, defaults):
    first, second = cls(**given), cls(**given)
    assert _fields_of(first, defaults) == tuple(defaults.values())
    # a field with no default must be given
    for name in given:
        with pytest.raises(TypeError, match=f"missing .*{name!r}"):
            cls(**{other: value for other, value in given.items() if other != name})
    # a list or dict default is one per record
    for name, default in defaults.items():
        if isinstance(default, (list, dict)):
            assert getattr(first, name) is not getattr(second, name)
            getattr(first, name).append("x") if isinstance(default, list) else getattr(first, name).update(x=1)
            assert getattr(second, name) == default and getattr(cls(**given), name) == default


@pytest.mark.parametrize("cls, fields, match", REFUSED, ids=[f"{cls.__name__}-{match}" for cls, _, match in REFUSED])
def test_fields_outside_the_domain_raise(cls, fields, match):
    with pytest.raises(ValueError, match=match):
        cls(**fields)


def test_an_operation_pickled_in_another_process_hashes_as_here():
    # strings hash differently from one process to the next: an operation
    # pickled elsewhere is the same cache key here
    code = "import pickle, sys; from fockwitness.states import EngineeringOp; " \
           "sys.stdout.write(pickle.dumps(EngineeringOp.psa(2, 1)).hex())"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    data = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    op = pickle.loads(bytes.fromhex(data))
    assert op == EngineeringOp.psa(2, 1) and hash(op) == hash(EngineeringOp.psa(2, 1))
    assert states._lowest_power(op) == states._lowest_power(EngineeringOp.psa(2, 1))


def test_start_up_imports_no_record_code_generation_or_resources():
    # in a fresh interpreter with no site hook (which may load
    # importlib.resources itself) and numpy already imported, importing the
    # CLI and building its parser loads neither dataclasses nor
    # importlib.resources
    paths = [os.path.dirname(os.path.dirname(np.__file__)), os.path.dirname(os.path.dirname(fockwitness.__file__))]
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = {paths!r}",
        "import numpy",
        "before = set(sys.modules)",
        "from fockwitness import cli",
        "cli.build_parser()",
        "print(sorted({'dataclasses', 'importlib.resources'} & (set(sys.modules) - before)))",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
