"""The family table: every module reads a Family record, and nothing else
passes for a family."""

import argparse
import copy
import pickle

import numpy as np
import pytest

from fockwitness import cli, oracle, states, sweep_report
from fockwitness.states import FAMILIES, EngineeringOp, StateSpec


def _family_choices() -> dict:
    """The --family choices of each CLI command that has the flag."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: action.choices
            for name, command in commands.choices.items()
            for action in command._actions if action.dest == "family"}


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
class TestFamilyRecord:
    def test_canonical_round_trip(self, family):
        spec = StateSpec.of(family, 0.75, EngineeringOp.psa(2, 1))
        assert spec.canonical() == f"{family.name}({family.parameter}=0.75)|PSA(2,1)"
        assert StateSpec.from_canonical(spec.canonical()) == spec
        assert FAMILIES[family.name] is family

    def test_cli_choices_are_the_table(self, family):
        choices = _family_choices()
        assert set(choices) == {"moment", "witness", "sweep"}
        for command_choices in choices.values():
            assert tuple(command_choices) == tuple(FAMILIES)

    def test_oracle_representation_follows_diagonal(self, family):
        state = oracle.build_truncated(StateSpec.of(family, 0.75, EngineeringOp.pas(1, 2)))
        assert (state.kind == oracle.KIND_DIAGONAL) == family.diagonal

    def test_sweep_reads_parameter_and_window(self, family):
        table = sweep_report.sweep("hoa", 2, [EngineeringOp.pas(1, 1)], family, steps=3)
        assert table.parameter_name == family.parameter
        assert (table.parameter_values[0], table.parameter_values[-1]) == family.window
        assert table.metadata["family"] == family.name

    def test_parameter_takes_the_family_kind(self, family):
        spec = StateSpec.of(family, 1)
        assert type(spec.parameter) is family.kind
        grid = StateSpec.of(family, np.array([0.5, 1.0]))
        assert grid.parameter.dtype == np.dtype(family.kind)
        assert not grid.parameter.flags.writeable


@pytest.mark.parametrize("family", ["thermal", "ecs", "even_coherent", None])
def test_anything_but_a_record_is_an_unknown_family(family):
    with pytest.raises(ValueError, match="unknown family"):
        StateSpec.of(family, 1.0)
    with pytest.raises(ValueError, match="unknown family"):
        sweep_report.sweep("hoa", 2, [EngineeringOp.bare()], family, steps=3)


def test_records_compare_by_identity():
    spec = StateSpec.thermal(1.5, EngineeringOp.pas(1, 1))
    assert spec == StateSpec.of(states.FAMILY_THERMAL, 1.5, EngineeringOp.pas(1, 1))
    assert hash(spec) == hash(StateSpec.of(states.FAMILY_THERMAL, 1.5, EngineeringOp.pas(1, 1)))
    assert spec != StateSpec.of(states.FAMILY_EVEN_COHERENT, 1.5, EngineeringOp.pas(1, 1))


@pytest.mark.parametrize("text", [
    "thermal(alpha=1.0)|bare",  # the other family's parameter
    "ecs(rbar=1.0)|bare",
    "even_coherent(alpha=1.0)|bare",  # not a record's name
    "coherent(alpha=1.0)|PAS(1,1)",
])
def test_from_canonical_rejects_a_head_that_is_no_record(text):
    with pytest.raises(ValueError, match="cannot parse canonical spec"):
        StateSpec.from_canonical(text)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_copied_or_pickled_spec_keeps_its_record(family):
    spec = StateSpec.of(family, 0.5, EngineeringOp.pas(1, 1))
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin.family is family
        # the operation too: equal, hashed alike, and the same cache key
        assert twin.op == spec.op and hash(twin.op) == hash(spec.op)
        assert states._contraction_table(twin.op, 1, 1) is states._contraction_table(spec.op, 1, 1)


def _every_pair(m, n):
    return True


def _coherent_factors(stack, pairs):
    """<alpha| a'^M a^N |alpha> = conj(alpha)^M alpha^N per term: the plain
    coherent state, as factor tables alone, with no parity weight."""
    alpha = stack[0]._points
    terms = states._padded(tuple([one.op for one in stack]), pairs, _every_pair, states._ecs_weights,
                           (states._dag, states._plain))
    (dags, plains), (dag, plain) = terms.distinct, terms.index
    conj = np.array([alpha.conjugate() ** M for M in dags] + [0j * alpha])
    power = np.array([alpha ** N for N in plains] + [0j * alpha])
    return terms, ((conj, dag), (power, plain), (terms.weight, range(len(dag)))), None


# a family record defined by its factor tables; its other bodies are the
# cat's, which these tests do not read
COHERENT = states.Family(**{**vars(states.FAMILY_EVEN_COHERENT), "name": "coherent", "factors": _coherent_factors})


def _oracle_coherent_moments(alpha, op, pairs, dim=80):
    """<a'^m a^n> of the engineered coherent state from its truncated
    amplitudes: <a^m psi | a^n psi> / <psi | psi>."""
    psi = oracle._engineer(oracle.coherent_amplitudes(alpha, dim), op, diagonal=False)

    def lowered(k):
        return oracle._ladder(psi, k, creation=False, diagonal=False)

    return np.array([np.vdot(lowered(m), lowered(n)) for m, n in pairs]) / np.vdot(psi, psi)


@pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(1, 2), EngineeringOp.psa(2, 1)],
                         ids=lambda op: op.label())
def test_a_family_of_factor_tables_alone_runs_the_one_contraction(op):
    alpha = 1.1 + 0.4j
    pairs = [(m, n) for m in range(4) for n in range(4)]
    ms, ns = (np.array(orders) for orders in zip(*pairs))
    value = states.moment(StateSpec.of(COHERENT, alpha, op), ms, ns)
    np.testing.assert_allclose(value, _oracle_coherent_moments(alpha, op, pairs), rtol=1e-14)
    if op == EngineeringOp.bare():
        np.testing.assert_allclose(value, [alpha.conjugate() ** m * alpha ** n for m, n in pairs], rtol=1e-15)
    # a grid's columns are its states, bit for bit
    grid = states.moment(StateSpec.of(COHERENT, np.array([0.3, alpha]), op), ms, ns)
    assert np.array_equal(grid[:, 1], value)
