"""Positivity decision by coefficient decoupling.

The semigroup of an elliptic system is positive exactly when the system is
equivalent to m independent scalar equations with real coefficients.  The
form determines the symmetrized coefficients C_kl + C_lk: ``probe`` and
``probe_system`` recover them from the form with dilated tent pairs.  The
decision reads them from the coefficient table, tests the necessary
condition that they are real diagonal at (almost) every point, and extracts
the scalar systems when it holds.  For constant and polynomial
coefficients the zero test is exact: every term's symmetrized coefficient
must be real diagonal to the bit.  Grid-sampled coefficients are tested at
the probe points, to within ``default_decision_tol``.  When the test fails,
one witness search (``construct_witness``) builds a ``Witness``:
nonnegative states with a(u+, u-) > 0, or real states whose form value is
not real.  It reads the coefficients once, at the points of the coercivity
check and the probe points together; a Cholesky gate decides every
coercivity check, and eigenvalues are computed only to explain a failure.
The antisymmetric
remainder C_kl - diag(Re C_kl) is not checked yet, so a positive verdict
is not sufficient: on the free space of ex1_3, u+ = (x2 + 4)/8 e_1 and
u- = (x1 + 4)/8 e_2 have a(u+, u-) = 3 + 4i, and ``factorization_residual``
raises ContractViolation (K couples channels).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import form_matrix
from .coefficients import (
    EllipticSystem,
    _entrywise_bound,
    _refined_cell_points,
    default_coercivity_tol,
    default_ellipticity_points,
    hermitian_at_least,
    hermitian_lambda_min,
    pair_sums,
    refinement_cuts,
)
from .errors import (
    ContractViolation,
    DomainError,
    GeometryError,
    IndeterminateDecision,
    NumericalError,
    WitnessNotLocalized,
)
from .multop import MultWitness, find_witness, is_multiplication
from .tents import build_test_pair

#: Dilation schedule: delta_max * 2**-j for j = 0..6.
DEFAULT_SCHEDULE_STEPS = 7

#: A probe diverges when its last step exceeds this factor times its first.
DIVERGENCE_FACTOR = 10.0

#: Dilation halvings a witness search tries before giving up.
MAX_HALVINGS = 40


def default_decision_tol(sys):
    return 1e-8 * max(1.0, sys.bound())


def boundary_distance(box, x0):
    """Distance from x0 to the nearest face of the box, NaN for a NaN
    coordinate (which ``min`` would pass over)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(box),):
        raise DomainError(f"point has dimension {x0.shape}, box has {len(box)}")
    gaps = [min(x - a, b - x) for x, (a, b) in zip(x0.tolist(), box)]
    return math.nan if any(map(math.isnan, gaps)) else min(gaps)


def default_delta_max(box, x0):
    dist = boundary_distance(box, x0)
    if not dist > 0:
        raise GeometryError(f"probe point {x0} is not interior")
    return 0.5 * dist


def system_delta_max(sys, x0):
    """``default_delta_max`` capped at half the distance to the nearest cell
    face of the grid-sampled coefficients, so that every scheduled tent
    support stays inside one cell of every field."""
    dmax = default_delta_max(sys.box, x0)
    for xi, (a, b), (cuts, fine) in zip(x0, sys.box, refinement_cuts(sys) or ()):
        dmax = min(dmax, 0.5 * float(np.abs(a + cuts * (b - a) / fine - xi).min()))
    if not dmax > 0:
        raise GeometryError(f"probe point {x0} lies on a coefficient cell face")
    return dmax


def delta_schedule(dmax):
    return tuple(dmax * 2.0 ** (-j) for j in range(DEFAULT_SCHEDULE_STEPS))


@dataclass(frozen=True)
class ProbeResult:
    """Symmetrized-coefficient estimate recovered from the form at a point."""

    x0: np.ndarray
    ktilde: int
    ltilde: int
    estimate: np.ndarray        # m x m, approximates C_kl(x0) + C_lk(x0)
    deltas: tuple
    history: tuple              # (delta, m x m estimate) per scheduled delta
    extrapolated: bool
    converged: bool


def _checked_schedule(box, x0, deltas):
    """The dilations as floats; GeometryError unless there is one and each
    keeps the probe's support inside the box."""
    deltas = tuple(float(dd) for dd in deltas)
    if not deltas:
        raise GeometryError("need at least one dilation")
    dist = boundary_distance(box, x0)
    for dd in deltas:
        if not 0 < dd <= dist:
            raise GeometryError(
                f"dilation {dd} does not keep the support inside the box"
            )
    return deltas


@functools.cache
def _verified_pair(tau, ktilde, ltilde, d):
    """``build_test_pair``, built and verified once per argument tuple
    (pairs are immutable)."""
    return build_test_pair(tau, ktilde, ltilde, d)


def _probe_pair(d, ktilde, ltilde):
    """The reference tent pair of a probe: tau = 2 on the diagonal, 1 off it."""
    return _verified_pair(2.0 if ktilde == ltilde else 1.0, ktilde, ltilde, d)


def _witness_pair(tau, ktilde, ltilde, d):
    """``build_test_pair(tau, ktilde, ltilde, d)`` bit for bit, for tau != 0,
    from the verified pair of tau's sign: the case depends only on the sign
    and the target, and phi's scale 2**j * |tau| is the exact product of the
    unit pair's 2**j and |tau|.  The unit pair's interaction error, at most
    1e-12, scales by |tau|, so the scaled pair meets ``build_test_pair``'s
    check 1e-12 max(1, |tau|) too."""
    unit = _verified_pair(math.copysign(1.0, tau), ktilde, ltilde, d)
    return replace(unit, phi=replace(unit.phi, scale=unit.phi.scale * abs(tau)), tau=tau)


def _probe_result(x0, ktilde, ltilde, deltas, matrices, d, richardson):
    """ProbeResult of the channel matrices F (S, m, m) of the pair at each
    dilation: the history of delta**(2-d) * F, one stacked product, its
    convergence from its first and last steps, and its estimate.  Every F
    must be finite: a NaN difference never reads as divergence."""
    # each scale is a Python float power, as the history has always had it
    scaled = np.array([dd ** (2 - d) for dd in deltas])[:, None, None] * np.asarray(matrices, dtype=complex)
    flat = scaled.reshape(len(scaled), -1)
    scale, *steps = np.abs(np.concatenate((flat[-1:], flat[1:] - flat[:-1]))).max(axis=1).tolist()
    converged = True
    if steps:
        tiny = 1e-12 * max(1.0, scale)
        if steps[-1] > tiny and steps[-1] > DIVERGENCE_FACTOR * max(steps[0], tiny):
            converged = False
    estimate = scaled[-1]
    extrapolated = False
    if richardson and len(scaled) >= 2:
        estimate = 2.0 * scaled[-1] - scaled[-2]
        extrapolated = True
    return ProbeResult(x0, ktilde, ltilde, estimate, deltas, tuple(zip(deltas, scaled)),
                       extrapolated, converged)


def probe(form_eval, d, box, x0, ktilde, ltilde, deltas=None, richardson=True):
    """Recover C_kl(x0) + C_lk(x0) from the form by dilated tent pairs.

    ``form_eval(phi, psi)`` returns the m x m channel matrix of the form on
    a pair of scalar tensor test functions, ``F[i, j] = a(phi e_j, psi e_i)``;
    it is called once per dilation, so any callable serves.  The pair uses
    tau = 1 off the diagonal and tau = 2 on it, so the scaled matrix
    delta**(2-d) * F of the pair dilated by delta converges to the full
    symmetrized matrix.  ``probe_system`` reads a system's form for every
    dilation at once.  A non-finite ``F`` raises NumericalError.
    """
    x0 = np.asarray(x0, dtype=float)
    if deltas is None:
        deltas = delta_schedule(default_delta_max(box, x0))
    deltas = _checked_schedule(box, x0, deltas)
    pair = _probe_pair(d, ktilde, ltilde)
    matrices = [form_eval(dil.phi, dil.psi) for dil in (pair.dilated(x0, dd) for dd in deltas)]
    if not np.isfinite(matrices).all():
        raise NumericalError("non-finite form value in the probe history")
    return _probe_result(x0, ktilde, ltilde, deltas, matrices, d, richardson)


def probe_system(sys, x0, ktilde, ltilde, deltas=None, richardson=True):
    """``probe`` on a system's form, every dilation from one ``form_matrix``
    call over the schedule; the default schedule starts at
    ``system_delta_max``.  ``form_matrix`` raises NumericalError on
    non-finite moments, so every F is finite here."""
    x0 = np.asarray(x0, dtype=float)
    if deltas is None:
        deltas = delta_schedule(system_delta_max(sys, x0))
    deltas = _checked_schedule(sys.box, x0, deltas)
    pair = _probe_pair(sys.d, ktilde, ltilde).dilated(x0, deltas[0])
    matrices = form_matrix(sys, pair.phi, pair.psi, deltas)
    return _probe_result(x0, ktilde, ltilde, deltas, matrices, sys.d, richardson)


# -- witnesses ----------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Pair of nonnegative real states u+ = phi_delta x f, u- = psi_delta x
    indicator at x0 whose form value z = indicator^H F f certifies that the
    semigroup is not positive.  ``value`` is the part of z the claim reads,
    and threshold = 0.5 * delta**(d-2) * target.  The class attribute
    ``kind`` names the claim: a lattice witness claims Re z >= threshold (to
    a relative 1e-9), a nonreal one |Im z| >= threshold."""

    x0: np.ndarray
    ktilde: int
    ltilde: int
    pair: object                # dilated TestPair
    delta: float
    f: np.ndarray
    indicator: np.ndarray
    value: float
    threshold: float


@dataclass(frozen=True)
class WitnessCertificate(Witness):
    """Lattice witness: f and indicator = 1_B have disjoint supports, the
    pair is ``build_test_pair`` with tau the pairing, and target = tau**2."""

    kind = "lattice"
    mult_witness: MultWitness


@dataclass(frozen=True)
class NonrealWitness(Witness):
    """Nonreal witness: f = e_col, indicator = e_row at the largest |Im Q|,
    the probe's pair, and target = |Im Q[row, col]|; positivity requires a
    real form on real states.  It serves a diagonal Q that is not real."""

    kind = "nonreal"

    @property
    def row(self):
        return int(np.argmax(self.indicator))

    @property
    def col(self):
        return int(np.argmax(self.f))


def construct_witness(sys, x0, ktilde, ltilde, Q, delta0=None, tol=None):
    """Certified witness for a symmetrized matrix Q that is not real diagonal:
    a lattice witness when ``find_witness`` finds an off-diagonal entry of
    Re Q above ``tol`` (by default ``default_mult_tol``), on
    ``build_test_pair`` with tau the pairing (``_witness_pair``), else a
    nonreal one at the largest |Im Q|.  The dilation starts at
    ``system_delta_max``, or at delta0 capped by it, as the probes' do, and
    halves until the exactly evaluated form value clears the threshold; a
    threshold of 0.0 (an underflowing target) certifies nothing.
    """
    x0 = np.asarray(x0, dtype=float)
    d = sys.d
    Q = np.asarray(Q, dtype=complex)
    mult = find_witness(Q.real, tol)
    lattice = mult is not None
    indicator = np.zeros(sys.m)
    if lattice:
        cls, extra, f = WitnessCertificate, (mult,), mult.f
        tau = float(mult.pairing.real)
        pair, target = _witness_pair(tau, ktilde, ltilde, d), tau ** 2
        indicator[list(mult.B)] = 1.0
    else:
        cls, extra, f = NonrealWitness, (), np.zeros(sys.m)
        im = np.abs(Q.imag)
        row, col = np.unravel_index(np.argmax(im), im.shape)
        target = float(im[row, col])
        if target == 0.0:
            raise ValueError("symmetrized matrix is real diagonal; no witness exists")
        pair = _probe_pair(d, ktilde, ltilde)
        f[col] = indicator[row] = 1.0
    delta = float(system_delta_max(sys, x0))
    if delta0 is not None:
        delta = min(delta, float(delta0))
    for _ in range(MAX_HALVINGS):
        dil = pair.dilated(x0, delta)
        z = np.vdot(indicator, form_matrix(sys, dil.phi, dil.psi) @ f)
        threshold = 0.5 * delta ** (d - 2) * target
        value = float(z.real if lattice else z.imag)
        if threshold > 0 and ((value >= threshold * (1.0 - 1e-9)) if lattice
                               else (abs(value) >= threshold)):
            return cls(x0, ktilde, ltilde, dil, delta, f, indicator, value, threshold, *extra)
        delta *= 0.5
    raise WitnessNotLocalized(f"no dilation certified a {cls.kind} witness at {x0} "
                              f"within {MAX_HALVINGS} halvings")


# -- the decision --------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of the decoupling decision.

    Exactly one of ``scalar_systems`` (positive side) and ``witness``
    (negative side) is present.
    """

    decision: str               # 'positive-decoupled' | 'not-positive'
    scalar_systems: tuple       # m scalar systems, or None
    witness: object             # Witness | None
    tol: float
    # the zero test's points; ``decouple`` also tabulates the scalar
    # coefficients there
    probe_points: np.ndarray
    diagnostics: dict

    @property
    def positive(self):
        return self.decision == "positive-decoupled"


def default_probe_points(sys):
    """(p+1)^d interior tensor points at relative offsets j / (p+2), j = 1..p+1,
    of the box, or of every cell of the common refinement of grid-sampled
    coefficients; p is the largest exponent in the system's table.  A
    tensor grid of p+1 nodes per axis is unisolvent for per-axis degree <= p,
    so a symmetrized coefficient vanishes at these points only if it vanishes
    on every cell.  No point lies on a cell face."""
    p = int(sys.table.exps.max(initial=0))
    return _refined_cell_points(sys, np.arange(1, p + 2) / (p + 2))


def extract_scalar_systems(sys):
    """The m scalar systems with coefficients Re (C_kl e_n, e_n), from the
    fields' ``diagonal_scalar``."""
    out = []
    for n in range(sys.m):
        coeffs = tuple(tuple(fld.diagonal_scalar(n) for fld in row) for row in sys.coeffs)
        out.append(EllipticSystem(sys.box, 1, coeffs, sys.bc, sys.mu))
    return out


def scalar_bounds(sys):
    """``bound()`` of each of the m scalar systems, bit for bit: the
    largest channel diagonal of the entrywise bounds of the parent's real
    table (a constant's one term is its absolute value there, other
    channels' rows add 0.0, and a 1 x 1 field's 2-norm is the absolute
    value of its entry), beside the grid-sampled fields' cell values."""
    d, m = sys.d, sys.m
    entrywise = _entrywise_bound(sys.table.exps, sys.table.blocks.real, sys.box)
    out = entrywise.reshape(d, m, d, m).diagonal(axis1=1, axis2=3).max(axis=(0, 1))
    for _, _, fld in sys.table.sampled:
        cells = np.abs(fld.values.diagonal(axis1=-2, axis2=-1).real).reshape(-1, m)
        out = np.maximum(out, cells.max(axis=0))
    return out


def _scalar_blocks(B, m):
    """The block matrices (m, n, d, d) of the m scalar systems at the points
    of the parent's block matrices B (n, d m, d m): scalar system n's is
    Re B[:, n::m, n::m]."""
    return np.stack([B[:, n::m, n::m].real for n in range(m)])


def scalar_coercivity(sys, B, tol):
    """Smallest eigenvalue per scalar system over the points of the parent's
    block matrices B (n, d m, d m), and whether it clears mu - tol: what
    ``check_ellipticity(s, points, tol)`` gives for each of the m scalar
    systems s, bit for bit, from the kernel of ``check_ellipticity``."""
    lams = hermitian_lambda_min(_scalar_blocks(B, sys.m)).min(axis=1)
    return lams, lams >= sys.mu - tol


def _exactly_real_diagonal(table, d, m):
    """Whether every term's symmetrized coefficient ``B_t(k, l) + B_t(l,
    k)`` of a table is real diagonal to the bit: one floating-point
    addition each, since ``from_terms`` adds no two coefficients.  Its
    nonzero real and imaginary parts, side by side, must all be real parts
    of diagonal entries."""
    X = table.blocks.reshape(-1, d, m, d, m)
    parts = (X + X.transpose(0, 3, 2, 1, 4)).view(float)       # (t, k, i, l, (j, re/im))
    return np.count_nonzero(parts) == np.count_nonzero(
        parts[..., ::2].diagonal(axis1=2, axis2=4))


def _first_failure(sys, points, tol, B):
    """First (x0, k, l, Q, diagonal, real) in scan order (points
    lexicographic, then k <= l) whose symmetrized coefficient Q is not real
    diagonal to within tol, or None; every C_kl + C_lk is formed at once
    from the block matrices B (n, d m, d m) at the points.

    Without grid-sampled fields, a scan that finds no failure at tol is
    decided exactly (``_exactly_real_diagonal``): None when the table
    passes, else the point and pair of the largest entry of Q less the real
    part of its diagonal."""
    d, m = sys.d, sys.m
    pairs = [(k, l) for k in range(d) for l in range(k, d)]
    Q = pair_sums(B, d, m, *np.array(pairs).T)
    diagonal = is_multiplication(Q, tol)
    real = np.abs(Q.imag).max(axis=(-2, -1), initial=0.0) <= tol
    failed = ~(diagonal & real)         # the first True, or the largest entry, fails
    if not failed.any():
        if sys.table.sampled or _exactly_real_diagonal(sys.table, d, m):
            return None
        failed = np.abs(Q - np.eye(m) * Q.real).max(axis=(-2, -1), initial=0.0)
    i, j = np.unravel_index(np.argmax(failed), failed.shape)
    return (points[i], *pairs[j], Q[i, j], bool(diagonal[i, j]), bool(real[i, j]))


def decide_decoupling(sys, require_elliptic=True):
    """Decide positivity of the semigroup by testing every symmetrized
    coefficient for real diagonality at every ``default_probe_points``, to
    within ``default_decision_tol``, and, when that passes and no field is
    grid-sampled, exactly, term by term of the coefficient table
    (``_exactly_real_diagonal``).

    The coefficients are read once: one ``block_matrix`` over the points of
    the system's coercivity check (``default_ellipticity_points``) and the
    probe points together, split in two.  With ``require_elliptic`` the
    system's coercivity is checked on the first part, to within
    ``default_coercivity_tol``.  Every coercivity check is decided by the
    Cholesky gate ``hermitian_at_least``; only when the gate fails do the
    eigenvalues (``hermitian_lambda_min``) decide, with the comparison of
    ``check_ellipticity``, and give the smallest one for the message.  The
    points' C_kl + C_lk are formed from the second part (``pair_sums``).

    On success the scalar systems are extracted, and their uniform bounds
    and their coercivity at the probe points are checked for all m at once:
    the bounds from one pass over the system's table (``scalar_bounds``),
    the coercivity from the block matrices of the zero test (the gate, then
    ``scalar_coercivity``).  With ``require_elliptic`` a failed check raises
    ContractViolation, otherwise it is only recorded.  On failure a witness
    is constructed at the first failure in scan order (points
    lexicographic, then k <= l) at ``default_decision_tol``, or, for an
    exact test that fails only below it, at the largest entry of C_kl +
    C_lk less its real diagonal.  The kind is picked, and ``find_witness``
    run, at the test's tolerance: 1e-15 max(1, max |Q|) for an exact test.
    IndeterminateDecision is raised when no witness can be certified there:
    Q is real diagonal to that tolerance, or no dilation's form value
    clears a nonzero threshold (``WitnessNotLocalized``).
    """
    probe_points = default_probe_points(sys)
    tol = default_decision_tol(sys)
    M = sys.bound()
    if require_elliptic:
        points = default_ellipticity_points(sys)
        both = sys.block_matrix(np.concatenate([points, probe_points]))
        E, B = both[:len(points)], both[len(points):]
        floor = sys.mu - default_coercivity_tol(sys)
        if not hermitian_at_least(E, floor):
            lam = float(hermitian_lambda_min(E).min())
            if not lam >= floor:
                raise ContractViolation(
                    f"system fails its declared coercivity: lambda_min = "
                    f"{lam} < mu = {sys.mu}"
                )
    else:
        B = sys.block_matrix(probe_points)
    first_failure = _first_failure(sys, probe_points, tol, B)

    if first_failure is None:
        scalars = extract_scalar_systems(sys)
        bounds_ok = bool((scalar_bounds(sys) <= M + tol).all())
        coercive_ok = (hermitian_at_least(_scalar_blocks(B, sys.m), sys.mu - tol)
                       or bool(scalar_coercivity(sys, B, tol)[1].all()))
        if require_elliptic and not (bounds_ok and coercive_ok):
            failed = "coercivity check at the probe points" if bounds_ok else "bound check"
            raise ContractViolation(f"the decoupled scalar systems fail their {failed}")
        return Verdict(
            "positive-decoupled", tuple(scalars), None, tol, probe_points,
            {"bound": M, "scalar_bounds_ok": bounds_ok,
             "scalar_coercivity_ok": coercive_ok},
        )

    x0, k, l, Q, diagonal, real = first_failure
    diagnostics = {"bound": M, "failed_point": x0, "failed_pair": (k, l),
                   "symmetrized": Q, "diagonal": diagonal, "real": real}
    # the zero test's tolerance, rounding level for an exact test, picks the
    # kind and searches the witness; a nonreal witness reads Im Q only
    wtol = tol if sys.table.sampled else 1e-15 * max(1.0, float(np.abs(Q).max()))
    lattice = not is_multiplication(Q.real, wtol)
    if not (lattice or np.abs(Q.imag).max() > wtol):
        raise IndeterminateDecision(
            f"C_{k}{l} + C_{l}{k} is not real diagonal, but at {x0} it is to "
            f"within {wtol:.3g}", diagnostics)
    try:
        wit = construct_witness(sys, x0, k, l, Q if lattice else 1j * Q.imag, tol=wtol)
    except WitnessNotLocalized as exc:
        raise IndeterminateDecision(str(exc), diagnostics) from exc
    return Verdict("not-positive", None, wit, tol, probe_points, diagnostics)
