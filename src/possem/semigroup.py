"""Semigroup engine: matrix exponentials, positivity scans, factorization.

The propagator exp(-t A) with A = Mass^-1 K is computed by
``scipy.linalg.expm`` (scaling and squaring with Pade approximants, Al-Mohy
and Higham 2009).  The positivity scan reports a three-valued verdict: a
reproducible negative entry, a generator-level sign certificate that is
sufficient for nonnegativity at every t, or plain sampled nonnegativity at
the tested times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

    def max_positive_offdiag(self):
        R = self.A.real.copy()
        np.fill_diagonal(R, -np.inf)
        return float(R.max(initial=-np.inf))

    def max_imag(self):
        if not np.iscomplexobj(self.A):
            return 0.0
        return float(np.abs(self.A.imag).max(initial=0.0))

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


def default_times(gen):
    scale = max(gen.norm1, 1e-30)
    return tuple(t / scale for t in (1e-2, 1e-1, 1.0))


@dataclass(frozen=True)
class PositivityReport:
    times: tuple
    min_entry: float            # most negative real part over all entries/times
    max_imag_entry: float
    offender: tuple             # (t, value, row, col) or None
    generator_offdiag_max: float
    generator_imag_max: float
    verdict: str                # NEGATIVE-FOUND | SIGN-PATTERN-OK | SAMPLED-NONNEGATIVE
    per_time: tuple             # (min real part, max |imag part|) at each time

    @property
    def positive(self):
        return self.verdict != "NEGATIVE-FOUND"


def positivity_scan(gen, times=None, tol=None):
    """Scan exp(-t A) over the given times for negative entries.

    Verdicts: NEGATIVE-FOUND with a reproducible offender; SIGN-PATTERN-OK
    when additionally A is real with nonpositive off-diagonal entries (a
    sufficient certificate for entrywise nonnegativity at all t); otherwise
    SAMPLED-NONNEGATIVE for the tested times only.  The offender is taken
    at the first time whose minimum entry is below the tolerance: the
    smallest (row, col) among the entries within ``OFFENDER_BAND`` times
    the largest |entry| of that minimum.
    """
    if times is None:
        times = default_times(gen)
    times = tuple(float(t) for t in times)
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be nonempty and positive")
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
        if val < -t_tol and offender is None:
            # the smallest (row, col) among the entries tied with the
            # minimum, so that summation order cannot move the offender
            tied = re <= val + OFFENDER_BAND * scale
            i, j = np.unravel_index(np.argmax(tied), re.shape)
            offender = (t, float(re[i, j]), int(i), int(j))
    gen_off = gen.max_positive_offdiag()
    gen_imag = gen.max_imag()
    scaleA = max(1.0, float(np.abs(gen.A).max(initial=0.0)))
    if offender is not None:
        verdict = "NEGATIVE-FOUND"
    elif gen_off <= 1e-12 * scaleA and gen_imag <= 1e-12 * scaleA:
        verdict = "SIGN-PATTERN-OK"
    else:
        verdict = "SAMPLED-NONNEGATIVE"
    min_entry = min(val for val, _ in per_time)
    max_imag = max(imag for _, imag in per_time)
    return PositivityReport(times, min_entry, max_imag, offender,
                            gen_off, gen_imag, verdict, tuple(per_time))


def factorization_residual(dform, scalar_dforms, t, u):
    """Relative gap between the block propagator and the channelwise scalar
    propagators: || exp(-tA) u - stack_n exp(-tA_n) u_n || / ||u||.

    Requires the assembled block stiffness to be channel-decoupled; a
    coupling entry above ``BLOCK_TOL * ||K||`` raises ContractViolation.
    """
    m = dform.m
    if len(scalar_dforms) != m:
        raise ValueError(f"need {m} scalar systems")
    scale = float(np.abs(dform.K.data).max(initial=0.0))
    coupling = dform.channel_coupling_max()
    if coupling > BLOCK_TOL * max(scale, 1.0):
        raise ContractViolation(
            f"stiffness couples channels (max coupling {coupling:.3e})"
        )
    u = np.asarray(u, dtype=complex)
    gen = GeneratorOperator.from_discrete_form(dform)
    full = expm_apply(gen, t, u)
    out = np.zeros_like(full)
    for ch, sf in enumerate(scalar_dforms):
        gn = GeneratorOperator.from_discrete_form(sf)
        out[ch::m] = expm_apply(gn, t, u[ch::m])
    denom = float(np.linalg.norm(u))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(full - out) / denom)
