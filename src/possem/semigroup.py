"""Semigroup engine: matrix exponentials, positivity scans, factorization.

The propagator exp(-t A) with A = Mass^-1 K is computed by
``scipy.linalg.expm`` (scaling and squaring with Pade approximants, Al-Mohy
and Higham 2009).  With the lumped (positive diagonal) mass, exp(-t A) >= 0
for every t > 0 exactly when A is real with nonpositive off-diagonal
entries; ``sign_witness`` reads that criterion from A or from K, and an
entry A_ij > 0 is the lattice witness u+ = e_j, u- = e_i (Berman and
Plemmons, *Nonnegative Matrices*).  The positivity scan decides from the
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

#: Rounding band of the offender: entries within this fraction of the
#: largest |entry| above the minimum count as tied with it.
OFFENDER_BAND = 1e-12


@dataclass
class GeneratorOperator:
    """Generator A = Mass^-1 K and its propagators exp(-t A)."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator must be square")
        if not np.all(np.isfinite(A)):
            raise NumericalError("non-finite entries in the generator")
        self.A = A

    @classmethod
    def from_discrete_form(cls, dform):
        A = dform.generator_matrix()
        if dform.is_real():
            A = A.real
        return cls(A)

    @property
    def ndof(self):
        return self.A.shape[0]

    @property
    def norm1(self):
        return float(np.max(np.abs(self.A).sum(axis=0), initial=0.0))

    def propagator(self, t):
        """exp(-t A)."""
        E = scipy.linalg.expm(-float(t) * self.A)
        if not np.all(np.isfinite(E)):
            raise NumericalError("matrix exponential overflowed")
        return E


def expm_apply(gen, t, u):
    """Apply the propagator exp(-t A) to a state vector, t > 0."""
    if t <= 0:
        raise ValueError("time must be positive")
    u = np.asarray(u)
    return gen.propagator(t) @ u


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

    @property
    def positive(self):
        return self.verdict == "SIGN-PATTERN-OK"


def positivity_scan(gen, times=None, tol=None):
    """Decide entrywise nonnegativity of exp(-t A), t > 0, from the sign
    pattern of A, and report the propagator's extremes at the given times.

    Verdicts: SIGN-PATTERN-OK when ``sign_witness`` finds nothing;
    NEGATIVE-FOUND with a reproducible offender when a tested time shows a
    negative entry or a lattice witness A_ij > 0 exists; NONREAL-FOUND
    otherwise; without a witness a negative sampled entry is rounding.  The
    offender is taken at the first time whose minimum entry is below the
    tolerance: the smallest (row, col) among the entries within
    ``OFFENDER_BAND`` times the largest |entry| of that minimum.  When no
    tested time shows one, it is the witness entry at t = A_ij / (2 ||A||_1^2),
    where |(A^k)_ij| <= ||A||_1^k bounds the Taylor remainder below t A_ij / 2.
    """
    if times is None:
        times = tuple(t / max(gen.norm1, 1e-30) for t in (1e-2, 1e-1, 1.0))
    times = tuple(float(t) for t in times)
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be nonempty and positive")
    witness = sign_witness(gen.A)
    per_time = []
    offender = None
    for t in times:
        E = gen.propagator(t)
        scale = float(np.abs(E).max(initial=0.0))
        t_tol = (1e-9 * scale) if tol is None else tol
        re = E.real
        val = float(re.min())
        imag = float(np.abs(E.imag).max(initial=0.0)) if np.iscomplexobj(E) else 0.0
        per_time.append((val, imag))
        if val < -t_tol and offender is None and witness is not None:
            # the smallest (row, col) among the entries tied with the
            # minimum, so that summation order cannot move the offender
            tied = re <= val + OFFENDER_BAND * scale
            i, j = np.unravel_index(np.argmax(tied), re.shape)
            offender = (t, float(re[i, j]), int(i), int(j))
    if offender is None and witness and witness[0] == "lattice":
        _, i, j, a = witness
        t = a / (2.0 * gen.norm1 ** 2)
        col = scipy.sparse.linalg.expm_multiply(-t * gen.A, np.eye(1, gen.ndof, j)[0])
        offender = (t, float(col[i].real), i, j)
    verdict = ("SIGN-PATTERN-OK" if witness is None
               else "NEGATIVE-FOUND" if offender else "NONREAL-FOUND")
    min_entry = min(val for val, _ in per_time)
    max_imag = max(imag for _, imag in per_time)
    return PositivityReport(times, min_entry, max_imag, offender,
                            witness, verdict, tuple(per_time))


def _propagator(dform, t):
    """exp(-t A) of a discrete form, t > 0, computed once per form and time."""
    if t <= 0:
        raise ValueError("time must be positive")
    gen = dform.memo("generator", lambda: GeneratorOperator.from_discrete_form(dform))
    return dform.memo(("propagator", float(t)), lambda: gen.propagator(t))


def factorization_residual(dform, scalar_dforms, t, u):
    """Relative gap between the block propagator and the channelwise scalar
    propagators: || exp(-tA) u - stack_n exp(-tA_n) u_n || / ||u||.

    Requires the assembled block stiffness to be channel-decoupled; a
    coupling entry above ``BLOCK_TOL * ||K||`` raises ContractViolation.
    The check and each propagator are kept with their forms, so a later
    state at the same time costs 1 + m matrix-vector products.
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
    full = _propagator(dform, t) @ u
    out = np.zeros_like(full)
    for ch, sf in enumerate(scalar_dforms):
        out[ch::m] = _propagator(sf, t) @ u[ch::m]
    denom = float(np.linalg.norm(u))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(full - out) / denom)
