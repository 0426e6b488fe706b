"""Semigroup engine: matrix exponentials, positivity scans, factorization.

The propagator exp(-t A) with A = Mass^-1 K has two paths.  When K is
Hermitian (to the rounding tolerance 1e-12 * max(1, max |K|)), A is similar to
the Hermitian S = Mass^-1/2 K Mass^-1/2, and one ``eigh`` S = V diag(lam) V^H
gives exp(-t A) = W diag(exp(-t lam)) W^-1 with W = Mass^-1/2 V and
W^-1 = V^H Mass^1/2 at every time: a propagator is one matrix product and a
state two matrix-vector products.  This is backward stable for normal
matrices (Moler and Van Loan, *Nineteen dubious ways to compute the
exponential of a matrix, twenty-five years later*, SIAM Rev. 2003).  Any
other generator goes to ``scipy.linalg.expm`` (scaling and squaring with Pade
approximants, Al-Mohy and Higham 2009).

The positivity scan has a third path for a non-self-adjoint generator: one
chain E(t_k) = exp(-(t_k - t_{k-1}) A) E(t_{k-1}), E(0) = I, over the sorted
times by ``scipy.sparse.linalg.expm_multiply`` on the generator's CSR (Al-Mohy
and Higham, *Computing the action of the matrix exponential*, SIAM J. Sci.
Comput. 2011).  Its truncated Taylor series costs sparse products only, and
the N columns of E share one choice of degree and scaling per step, so it is
taken when CHAIN_COST * nnz(A) * max(1, ||t_max A||_1) <= N^2, the flops of
the chain against those of a dense exponential per time.

With the lumped (positive diagonal) mass, exp(-t A) >= 0 for every t > 0
exactly when A is real with nonpositive off-diagonal entries;
``sign_witness`` reads that criterion from A or from K, and an entry
A_ij > 0 is the lattice witness u+ = e_j, u- = e_i (Berman and Plemmons,
*Nonnegative Matrices*).  The positivity scan decides from the
witness alone and reports the propagator's extremes at the requested times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ContractViolation, NumericalError

#: Relative channel coupling above which ``factorization_residual`` refuses.
BLOCK_TOL = 1e-10

#: The scan's sparse chain costs about CHAIN_COST * nnz(A) * max(1, ||t_max A||_1)
#: per column of E where a dense exponential per time costs N^2 (fitted to
#: timings of both on 2D and 3D forms of 162 to 1250 dofs, one BLAS thread).
CHAIN_COST = 25

#: Rounding band of the offender: entries within this fraction of the
#: largest |entry| above the minimum count as tied with it.
OFFENDER_BAND = 1e-12

#: Seed of numpy's global RNG while a scan runs ``expm_multiply``, whose
#: 1-norm estimate (``onenormest``) resamples columns with np.random.randint.
NORM_ESTIMATE_SEED = 0


@dataclass
class GeneratorOperator:
    """Generator A = Mass^-1 K and its propagators exp(-t A).

    ``spectral`` holds ``(lam, W, W_inv)`` with A = W diag(lam) W_inv when the
    generator is self-adjoint in the mass inner product; None otherwise.
    ``csr`` holds the same entries as A in CSR form (built from A when not
    given).  A, the factors and the CSR arrays are read-only, so one
    generator can be shared.
    """

    A: np.ndarray
    spectral: tuple | None = None
    csr: scipy.sparse.csr_matrix | None = None

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator must be square")
        if not np.all(np.isfinite(A)):
            raise NumericalError("non-finite entries in the generator")
        self.A = _read_only(A)
        if self.spectral is not None:
            self.spectral = tuple(_read_only(np.asarray(f)) for f in self.spectral)
        if self.csr is None:
            self.csr = scipy.sparse.csr_matrix(A)
        for arr in (self.csr.data, self.csr.indices, self.csr.indptr):
            arr.flags.writeable = False

    @classmethod
    def from_discrete_form(cls, dform):
        """The form's generator, built once and kept with the form."""
        return dform.memo("generator", lambda: cls._of_form(dform))

    @classmethod
    def _of_form(cls, dform):
        real = dform.is_real()
        mass = dform.dof_mass
        A = dform.K.toarray()
        K = A.real if real else A
        spectral = None     # K Hermitian: A is similar to S = Mass^-1/2 K Mass^-1/2
        if np.abs(K - K.conj().T).max(initial=0.0) <= 1e-12 * max(
                1.0, float(np.abs(K).max(initial=0.0))):
            root = np.sqrt(mass)
            lam, V = np.linalg.eigh(K / np.outer(root, root))
            spectral = (lam, V / root[:, None], V.conj().T * root)
        A /= mass[:, None]
        # the same complex division per stored entry, so the CSR equals A bit for bit
        data = dform.K.data / np.repeat(mass, np.diff(dform.K.indptr))
        if real:    # contiguous real copies, not views holding the complex bytes
            A, data = A.real.copy(), data.real.copy()
        csr = scipy.sparse.csr_matrix((data, dform.K.indices, dform.K.indptr), shape=A.shape)
        return cls(A, spectral, csr)

    @property
    def ndof(self):
        return self.A.shape[0]

    @property
    def norm1(self):
        return float(np.max(np.abs(self.A).sum(axis=0), initial=0.0))

    @property
    def method(self):
        """How propagators are computed: 'spectral' or 'expm'."""
        return "expm" if self.spectral is None else "spectral"

    def propagator(self, t):
        """exp(-t A)."""
        if self.spectral is None:
            E = scipy.linalg.expm(-float(t) * self.A)
        else:
            lam, W, W_inv = self.spectral
            E = (W * np.exp(-float(t) * lam)) @ W_inv
        return _finite(E)

    def apply(self, t, u):
        """exp(-t A) u: two matrix-vector products with the spectral factors,
        or the dense exponential times u."""
        u = np.asarray(u)
        if self.spectral is None:
            return self.propagator(t) @ u
        lam, W, W_inv = self.spectral
        cols = u.reshape(len(lam), -1)
        split = np.iscomplexobj(u) and not np.iscomplexobj(W)
        if split:       # real factors take the real and imaginary parts as real columns
            cols = np.hstack([cols.real, cols.imag])
        out = W @ (np.exp(-float(t) * lam)[:, None] * (W_inv @ cols))
        if split:
            half = out.shape[1] // 2
            out = out[:, :half] + 1j * out[:, half:]
        return _finite(out.reshape(u.shape))


def _read_only(arr):
    view = arr.view()
    view.flags.writeable = False
    return view


def _finite(E):
    if not np.all(np.isfinite(E)):
        raise NumericalError("matrix exponential overflowed")
    return E


def expm_apply(gen, t, u):
    """Apply the propagator exp(-t A) to a state vector, t > 0."""
    if t <= 0:
        raise ValueError("time must be positive")
    return gen.apply(t, u)


def sign_witness(A):
    """Why exp(-t A) is not entrywise nonnegative for all t > 0, or None.

    ``('lattice', i, j, Re A_ij)`` for the largest off-diagonal real part,
    else ``('nonreal', i, j, Im A_ij)`` for the largest |imaginary part|, each
    counted only above the rounding tolerance 1e-12 * max(1, max |A|).  A
    dense or sparse A; the mass is a positive diagonal, so K gives the same
    signs.  Ties within ``OFFENDER_BAND`` go to the smallest (i, j).
    """
    coo = scipy.sparse.coo_matrix(A)
    scale = max(1.0, float(np.abs(coo.data).max(initial=0.0)))
    for kind, vals in (("lattice", np.where(coo.row != coo.col, coo.data.real, -np.inf)),
                       ("nonreal", np.abs(coo.data.imag))):
        top = float(vals.max(initial=-np.inf))
        if top > 1e-12 * scale:
            tied = np.flatnonzero(vals >= top - OFFENDER_BAND * scale)
            k = tied[np.lexsort((coo.col[tied], coo.row[tied]))[0]]
            value = coo.data[k].real if kind == "lattice" else coo.data[k].imag
            return kind, int(coo.row[k]), int(coo.col[k]), float(value)
    return None


@dataclass(frozen=True)
class PositivityReport:
    times: tuple
    min_entry: float            # most negative real part over all entries/times
    max_imag_entry: float
    offender: tuple             # (t, value, row, col) or None
    witness: tuple              # sign_witness of the generator, or None
    verdict: str                # SIGN-PATTERN-OK | NEGATIVE-FOUND | NONREAL-FOUND
    per_time: tuple             # (min real part, max |imag part|) at each time
    propagator: str             # spectral | expm | expm_multiply

    @property
    def positive(self):
        return self.verdict == "SIGN-PATTERN-OK"


def _scan_propagators(gen, times, norm1):
    """The path and the pairs (t, exp(-t A)) at the sorted distinct times:
    the generator's own propagators, or one sparse chain when its cost rule
    (CHAIN_COST) says that is cheaper than a dense exponential per time."""
    times = sorted(set(times))
    if gen.spectral is None and (CHAIN_COST * gen.csr.nnz * max(1.0, times[-1] * norm1)
                                 <= gen.ndof ** 2):
        return "expm_multiply", _chain(gen.csr, times)
    return gen.method, ((t, gen.propagator(t)) for t in times)


def _expm_multiply(A, B):
    """``scipy.sparse.linalg.expm_multiply(A, B)`` under numpy's global RNG
    seeded with NORM_ESTIMATE_SEED, the caller's state restored after: the
    result does not depend on that state, and the call does not move it."""
    state = np.random.get_state()
    np.random.seed(NORM_ESTIMATE_SEED)
    try:
        return scipy.sparse.linalg.expm_multiply(A, B)
    finally:
        np.random.set_state(state)


def _chain(A, times):
    E, prev = np.eye(A.shape[0], dtype=A.dtype), 0.0
    for t in times:
        E = _finite(_expm_multiply(-(t - prev) * A, E))
        prev = t
        yield t, E


def _extremes(E, tol):
    """Min real part, max |imag part| and the offender (value, row, col) of
    one propagator, the offender None unless the minimum is below tolerance."""
    scale = float(np.abs(E).max(initial=0.0))
    re = E.real
    val = float(re.min())
    imag = float(np.abs(E.imag).max(initial=0.0)) if np.iscomplexobj(E) else 0.0
    if val >= -((1e-9 * scale) if tol is None else tol):
        return val, imag, None
    # the smallest (row, col) among the entries tied with the minimum, so
    # that summation order cannot move the offender
    tied = re <= val + OFFENDER_BAND * scale
    i, j = np.unravel_index(np.argmax(tied), re.shape)
    return val, imag, (float(re[i, j]), int(i), int(j))


def positivity_scan(gen, times=None, tol=None):
    """Decide entrywise nonnegativity of exp(-t A), t > 0, from the sign
    pattern of A, and report the propagator's extremes at the given times.

    Verdicts: SIGN-PATTERN-OK when ``sign_witness`` finds nothing;
    NEGATIVE-FOUND with a reproducible offender when a tested time shows a
    negative entry or a lattice witness A_ij > 0 exists; NONREAL-FOUND
    otherwise; without a witness a negative sampled entry is rounding.  The
    offender is taken at the first time, in the caller's order, whose minimum
    entry is below the tolerance: the smallest (row, col) among the entries
    within ``OFFENDER_BAND`` times the largest |entry| of that minimum.  When
    no tested time shows one, it is the witness entry at
    t = A_ij / (2 ||A||_1^2), where |(A^k)_ij| <= ||A||_1^k bounds the Taylor
    remainder below t A_ij / 2.  Each distinct time's propagator is computed
    once, by the path that ``propagator`` names.  Each ``expm_multiply``
    call runs under a fixed seed of numpy's global RNG, whose state it
    restores, so the report does not depend on the caller's draws.
    """
    norm1 = gen.norm1
    if times is None:
        times = tuple(t / max(norm1, 1e-30) for t in (1e-2, 1e-1, 1.0))
    times = tuple(float(t) for t in times)
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be nonempty and positive")
    witness = sign_witness(gen.csr)
    method, propagators = _scan_propagators(gen, times, norm1)
    stats = {t: _extremes(E, tol) for t, E in propagators}
    per_time = tuple(stats[t][:2] for t in times)
    offender = None
    if witness is not None:
        offender = next(((t,) + stats[t][2] for t in times if stats[t][2]), None)
    if offender is None and witness and witness[0] == "lattice":
        _, i, j, a = witness
        t = a / (2.0 * norm1 ** 2)
        col = _expm_multiply(-t * gen.csr, np.eye(1, gen.ndof, j)[0])
        offender = (t, float(col[i].real), i, j)
    verdict = ("SIGN-PATTERN-OK" if witness is None
               else "NEGATIVE-FOUND" if offender else "NONREAL-FOUND")
    min_entry = min(val for val, _ in per_time)
    max_imag = max(imag for _, imag in per_time)
    return PositivityReport(times, min_entry, max_imag, offender,
                            witness, verdict, per_time, method)


def _apply(dform, t, u):
    """exp(-t A) u on a discrete form, t > 0: by the generator's spectral
    factors, or by a dense exponential computed once per form and time."""
    if t <= 0:
        raise ValueError("time must be positive")
    gen = GeneratorOperator.from_discrete_form(dform)
    if gen.spectral is not None:
        return gen.apply(t, u)
    return dform.memo(("propagator", float(t)), lambda: gen.propagator(t)) @ u


def factorization_residual(dform, scalar_dforms, t, u):
    """Relative gap between the block propagator and the channelwise scalar
    propagators: || exp(-tA) u - stack_n exp(-tA_n) u_n || / ||u||.

    Requires the assembled block stiffness to be channel-decoupled; a
    coupling entry above ``BLOCK_TOL * ||K||`` raises ContractViolation.
    The check and each generator are kept with their forms; a self-adjoint
    generator applies its spectral factors, any other keeps one dense
    propagator per time, so a further state costs 2 (1 + m) or 1 + m
    matrix-vector products.
    """
    m = dform.m
    if len(scalar_dforms) != m:
        raise ValueError(f"need {m} scalar systems")
    scale, coupling = dform.memo("channel coupling", lambda: (
        float(np.abs(dform.K.data).max(initial=0.0)), dform.channel_coupling_max()))
    if coupling > BLOCK_TOL * max(scale, 1.0):
        raise ContractViolation(
            f"stiffness couples channels (max coupling {coupling:.3e})"
        )
    u = np.asarray(u, dtype=complex)
    full = _apply(dform, t, u)
    out = np.zeros_like(full)
    for ch, sf in enumerate(scalar_dforms):
        out[ch::m] = _apply(sf, t, u[ch::m])
    denom = float(np.linalg.norm(u))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(full - out) / denom)
