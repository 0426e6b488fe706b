"""Finite-dimensional multiplication-operator analysis.

On a finite index set with counting measure the multiplication operators are
exactly the diagonal matrices.  This module decides that property by the
size of the off-diagonal entries, extracts a witness when it fails, and
provides the diagonal projection with its trace duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def default_mult_tol(Q):
    """1e-9 (1 + max |Q_ij|), per matrix of a stack."""
    return 1e-9 * (1.0 + np.max(np.abs(Q), axis=(-2, -1), initial=0.0))


def _offdiag_abs_max(Q):
    A = np.abs(np.asarray(Q))
    return np.where(np.eye(A.shape[-1], dtype=bool), 0.0, A).max(axis=(-2, -1))


def is_multiplication(Q, tol=None):
    """True iff Q is (to tolerance) a multiplication operator, i.e. diagonal:
    disjoint supports stay disjoint, so every off-diagonal entry is small.
    For an (..., m, m) stack, one answer per matrix."""
    Q = np.asarray(Q, dtype=complex)
    if tol is None:
        tol = default_mult_tol(Q)
    return _offdiag_abs_max(Q) <= tol


@dataclass(frozen=True)
class MultWitness:
    """Certificate that Q is not a multiplication operator.

    ``f`` is a nonnegative real vector vanishing on the index set ``B`` and
    the pairing (Q f, 1_B) is nonzero.
    """

    f: np.ndarray
    B: tuple
    pairing: complex

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if np.any(f < 0):
            raise ValueError("witness vector must be nonnegative")
        if any(f[i] != 0 for i in self.B):
            raise ValueError("witness vector must vanish on B")
        if self.pairing == 0:
            raise ValueError("witness pairing must be nonzero")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "B", tuple(int(i) for i in self.B))


def find_witness(Q, tol=None):
    """First off-diagonal entry above tolerance, scanned in row-major order.

    Returns ``MultWitness(f=e_j, B={i}, pairing=Q[i, j])`` or None when Q is
    a multiplication operator to the given tolerance.
    """
    Q = np.asarray(Q, dtype=complex)
    if tol is None:
        tol = default_mult_tol(Q)
    m = Q.shape[0]
    hits = np.argwhere((np.abs(Q) > tol) & ~np.eye(m, dtype=bool))
    if not len(hits):
        return None
    i, j = hits[0]
    f = np.zeros(m)
    f[j] = 1.0
    return MultWitness(f, (i,), complex(Q[i, j]))


def diag_projection(Q):
    """Diagonal part of Q: idempotent, trace preserving, norm contractive."""
    Q = np.asarray(Q, dtype=complex)
    return np.diag(np.diag(Q))


def trace_duality_residual(S, T):
    """|Tr(S P(T)) - Tr(P(S) T)|; both sides equal sum_n S_nn T_nn."""
    S = np.asarray(S, dtype=complex)
    T = np.asarray(T, dtype=complex)
    if S.shape != T.shape:
        raise ValueError("operator shapes differ")
    lhs = np.trace(S @ diag_projection(T))
    rhs = np.trace(diag_projection(S) @ T)
    return float(abs(lhs - rhs))
