"""A dense density-matrix reference for the truncated-Fock oracle.

The oracle builds its states by slicing ladders over weight vectors or
amplitudes. This builds the same states as D x D matrices, rho -> O rho O'
with O a product of matrix powers of the truncated a and a', and reads
their moments as traces: the independent second route the oracle tests
compare against.
"""

import numpy as np

from fockwitness import oracle
from fockwitness.states import ORDER_SUBTRACT_THEN_ADD


def annihilation_matrix(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def creation_matrix(dim):
    return annihilation_matrix(dim).conj().T


def density_matrix(spec, dim):
    """The engineered state of spec at cutoff dim, normalized to unit trace."""
    psi = oracle._BARE_COMPONENTS[spec.family](spec.parameter, dim)
    rho = np.diag(psi.astype(complex)) if spec.family.diagonal else np.outer(psi, psi.conj())
    a, ad = annihilation_matrix(dim), creation_matrix(dim)
    p, q = spec.op.p, spec.op.q
    if spec.op.order == ORDER_SUBTRACT_THEN_ADD:
        op = np.linalg.matrix_power(ad, q) @ np.linalg.matrix_power(a, p)
    else:
        op = np.linalg.matrix_power(a, p) @ np.linalg.matrix_power(ad, q)
    rho = op @ rho @ op.conj().T
    return rho / float(np.trace(rho).real)


def of_state(state):
    """The density matrix of an oracle TruncatedState."""
    if state.diagonal:
        return np.diag(state.data.astype(complex))
    return np.outer(state.data, state.data.conj())


def probabilities(rho):
    """The photon-number distribution on the diagonal of rho."""
    return np.clip(np.diag(rho).real, 0.0, None)


def moment(rho, m, n):
    """<a'^m a^n> = tr(rho a'^m a^n)."""
    a = annihilation_matrix(len(rho))
    return complex(np.trace(rho @ (np.linalg.matrix_power(a, m).conj().T @ np.linalg.matrix_power(a, n))))
