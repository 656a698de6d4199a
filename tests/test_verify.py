import pytest

from fockwitness import verify
from fockwitness.states import EngineeringOp, StateSpec


def test_parse_canonical_round_trip():
    specs = [
        StateSpec.thermal(1.0, EngineeringOp.pas(2, 1)),
        StateSpec.thermal(0.25),
        StateSpec.even_coherent(2.0, EngineeringOp.psa(1, 2)),
        StateSpec.even_coherent(1 + 0.5j),
    ]
    for spec in specs:
        assert StateSpec.from_canonical(spec.canonical()) == spec


def test_packaged_fixture_canonicals_parse():
    for record in verify.load_packaged_fixtures():
        spec = StateSpec.from_canonical(record.canonical)
        assert spec.canonical() == record.canonical


def test_run_suites_selection_and_reporting():
    lines = []
    results = verify.run_suites(["determinism"], report=lines.append)
    assert [r.name for r in results] == ["determinism"]
    assert lines and lines[0].startswith("PASS determinism")


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suites(["numerology"])


def test_overtight_tolerance_fails_fixtures():
    results = verify.run_suites(["fixtures"], tol=1e-16, report=None)
    assert not results[0].passed
