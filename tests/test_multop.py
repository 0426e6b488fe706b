import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from possem import catalog
from possem.multop import (
    MultWitness,
    default_mult_tol,
    diag_projection,
    find_witness,
    is_multiplication,
    trace_duality_residual,
)


def test_diagonal_is_multiplication():
    assert is_multiplication(np.diag([1.0, 2 + 1j, -3.0]))


def test_single_offdiagonal_entry_is_not():
    Q = np.zeros((2, 2), dtype=complex)
    Q[1, 0] = 1.0
    assert not is_multiplication(Q)


def test_coupling_of_complex_pair_is_not():
    sys_ = catalog.get("ex1_3").build()
    C12 = sys_.eval_coefficient(0, 1, np.array([0.0, 0.0]))
    assert not is_multiplication(C12)
    sys1 = catalog.get("ex1_3_entry1").build()
    C12 = sys1.eval_coefficient(0, 1, np.array([0.0, 0.0]))
    assert not is_multiplication(C12)


def test_find_witness_none_for_diagonal():
    assert find_witness(np.array([[5.0]])) is None
    assert find_witness(np.diag([1.0, 2.0, 3.0])) is None


def test_find_witness_reads_entry():
    Q = np.zeros((2, 2), dtype=complex)
    Q[1, 0] = 3 + 4j
    w = find_witness(Q)
    assert np.allclose(w.f, [1.0, 0.0])
    assert w.B == (1,)
    assert w.pairing == 3 + 4j


def test_find_witness_row_major_order():
    Q = np.zeros((3, 3), dtype=complex)
    Q[0, 2] = 1.0
    Q[2, 0] = 1.0
    w = find_witness(Q)
    assert w.B == (0,) and np.argmax(w.f) == 2


def test_find_witness_symmetrized_coupling():
    sysW = catalog.get("witness_W").build()
    S = sysW.symmetrized(0, 1, np.zeros(2))
    w = find_witness(S)
    assert np.allclose(w.f, [1.0, 0.0])
    assert w.B == (1,)
    assert w.pairing == 2.0


def test_witness_invariants_enforced():
    with pytest.raises(ValueError):
        MultWitness(np.array([1.0, 0.0]), (0,), 1.0)   # f does not vanish on B
    with pytest.raises(ValueError):
        MultWitness(np.array([-1.0, 0.0]), (1,), 1.0)  # f negative
    with pytest.raises(ValueError):
        MultWitness(np.array([1.0, 0.0]), (1,), 0.0)   # zero pairing


def test_diag_projection_basic():
    assert np.allclose(diag_projection(np.eye(3)), np.eye(3))
    Q = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(diag_projection(Q), np.diag([1.0, 4.0]))


def test_diag_projection_idempotent_contractive_trace():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        Q = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        P = diag_projection(Q)
        assert np.allclose(diag_projection(P), P)
        assert np.linalg.norm(P, 2) <= np.linalg.norm(Q, 2) + 1e-12
        assert np.trace(P) == pytest.approx(np.trace(Q))


def test_diag_projection_real_invariance():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((4, 4))
    assert np.abs(diag_projection(Q).imag).max() == 0.0


def test_trace_duality():
    assert trace_duality_residual(np.eye(3), np.eye(3)) == 0.0
    rng = np.random.default_rng(2)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bound = 1e-12 * np.linalg.norm(S, 2) * np.linalg.norm(T, 2) * 4
    assert trace_duality_residual(S, T) <= bound
    # direct-computation oracle: both pairings equal sum_n S_nn T_nn
    both = sum(S[n, n] * T[n, n] for n in range(4))
    assert np.trace(S @ diag_projection(T)) == pytest.approx(both)
    # S diagonal: the residual vanishes up to rounding
    D = np.diag(rng.standard_normal(4)).astype(complex)
    assert trace_duality_residual(D, T) <= 1e-13


def _predicate_offdiagonal(Q, tol):
    """Disjoint supports stay disjoint: every off-diagonal entry is small."""
    m = Q.shape[0]
    return all(abs(Q[i, j]) <= tol for i in range(m) for j in range(m) if i != j)


def _predicate_commutation(Q, tol):
    """Q commutes with every coordinate indicator projection."""
    m = Q.shape[0]
    worst = 0.0
    for n in range(m):
        E = np.zeros((m, m))
        E[n, n] = 1.0
        worst = max(worst, float(np.max(np.abs(E @ Q - Q @ E))))
    return worst <= tol


def _predicate_domination(Q, tol):
    """|Q f| <= c |f| on the standard basis vectors."""
    m = Q.shape[0]
    worst = 0.0
    for j in range(m):
        col = np.abs(Q[:, j])
        mask = np.ones(m, dtype=bool)
        mask[j] = False
        if m > 1:
            worst = max(worst, float(col[mask].max()))
    return worst <= tol


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.booleans())
def test_predicate_agreement(m, seed, diagonal):
    # three characterizations of a multiplication operator agree with it
    rng = np.random.default_rng(seed)
    Q = np.diag(rng.standard_normal(m)).astype(complex)
    if not diagonal and m > 1:
        i, j = rng.integers(0, m, 2)
        if i != j:
            Q[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    tol = default_mult_tol(Q)
    expected = is_multiplication(Q)
    for predicate in (_predicate_offdiagonal, _predicate_commutation,
                      _predicate_domination):
        assert predicate(Q, tol) == expected


def test_witness_complete_for_small_patterns():
    # exhaustive sign/sparsity enumeration for m <= 3: a witness exists
    # exactly when some off-diagonal entry is nonzero
    for m in (1, 2, 3):
        for bits in range(2 ** (m * m)):
            Q = np.zeros((m, m), dtype=complex)
            vals = [(-1.0) ** k for k in range(m * m)]
            for pos in range(m * m):
                if bits >> pos & 1:
                    Q[pos // m, pos % m] = vals[pos]
            offdiag = Q - np.diag(np.diag(Q))
            has_offdiag = np.abs(offdiag).max(initial=0.0) > 0
            w = find_witness(Q, tol=0.0)
            assert (w is None) == (not has_offdiag)
            assert is_multiplication(Q, tol=0.0) == (not has_offdiag)
            if w is not None:
                one_b = np.zeros(m)
                for i in w.B:
                    one_b[i] = 1.0
                assert np.allclose(one_b @ Q @ w.f, w.pairing)
                assert np.all(w.f * one_b == 0.0)


def test_multiplication_at_every_point():
    sys_ = catalog.get("ex5_5").build()
    pts = sys_.interior_tensor_points(2)
    assert not is_multiplication(sys_.coefficient(0, 1).eval(pts)).all()
    # symmetrized coupling of the antisymmetric pair vanishes identically
    sys13 = catalog.get("ex1_3").build()
    sym_vals = [sys13.symmetrized(0, 1, x) for x in sys13.interior_tensor_points(2)]
    assert all(is_multiplication(S) for S in sym_vals)
    from possem.coefficients import ConstantField
    fld = ConstantField(np.diag([1.0, 2.0]).astype(complex))
    assert is_multiplication(fld.eval(pts)).all()
