"""Positivity decision by coefficient decoupling.

The semigroup of an elliptic system is positive exactly when every
symmetrized coefficient C_kl + C_lk is, at (almost) every point, a real
diagonal matrix; the system is then equivalent to m independent scalar
equations with real coefficients.  This module probes the symmetrized
coefficients (directly, or through the form with dilated tent pairs), decides
the dichotomy, extracts the scalar systems on the positive side, and
constructs a certified witness pair with a(u+, u-) > 0 on the negative side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import affine_tensor, form_matrix
from .coefficients import (
    EllipticSystem,
    _refined_cell_points,
    check_ellipticity,
    realify_matrix,
    refinement_cuts,
)
from .errors import (
    ContractViolation,
    GeometryError,
    IndeterminateDecision,
    UnsupportedContract,
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
    return min(min(x0[i] - a, b - x0[i]) for i, (a, b) in enumerate(box))


def default_delta_max(box, x0):
    dist = boundary_distance(box, x0)
    if dist <= 0:
        raise GeometryError(f"probe point {x0} is not interior")
    return 0.5 * dist


def system_delta_max(sys, x0):
    """``default_delta_max`` capped at half the distance to the nearest cell
    face of the grid-sampled coefficients, so that every scheduled tent
    support stays inside one cell of every field."""
    dmax = default_delta_max(sys.box, x0)
    for xi, (a, b), (cuts, fine) in zip(x0, sys.box, refinement_cuts(sys) or ()):
        dmax = min(dmax, 0.5 * float(np.abs(a + cuts * (b - a) / fine - xi).min()))
    if dmax <= 0:
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


def probe(form_eval, d, box, x0, ktilde, ltilde, deltas=None, richardson=True):
    """Recover C_kl(x0) + C_lk(x0) from the form by dilated tent pairs.

    ``form_eval(phi, psi)`` returns the m x m channel matrix of the form on
    a pair of scalar tensor test functions, ``F[i, j] = a(phi e_j, psi e_i)``
    (``assembly.form_matrix`` for a system).  The pair uses tau = 1 off the
    diagonal and tau = 2 on it, so the scaled matrix delta**(2-d) * F of the
    pair dilated by delta converges to the full symmetrized matrix.
    """
    x0 = np.asarray(x0, dtype=float)
    if deltas is None:
        deltas = delta_schedule(default_delta_max(box, x0))
    deltas = tuple(float(dd) for dd in deltas)
    dist = boundary_distance(box, x0)
    for dd in deltas:
        if dd <= 0 or dd > dist:
            raise GeometryError(
                f"dilation {dd} does not keep the support inside the box"
            )
    tau = 2.0 if ktilde == ltilde else 1.0
    pair = build_test_pair(tau, ktilde, ltilde, d)
    history = []
    for dd in deltas:
        dil = pair.dilated(x0, dd)
        F = np.asarray(form_eval(dil.phi, dil.psi), dtype=complex)
        history.append((dd, dd ** (2 - d) * F))
    diffs = [float(np.abs(history[s][1] - history[s - 1][1]).max())
             for s in range(1, len(history))]
    scale = max(1.0, float(np.abs(history[-1][1]).max()))
    converged = True
    if diffs:
        tiny = 1e-12 * scale
        if diffs[-1] > tiny and diffs[-1] > DIVERGENCE_FACTOR * max(diffs[0], tiny):
            converged = False
    estimate = history[-1][1]
    extrapolated = False
    if richardson and len(history) >= 2:
        estimate = 2.0 * history[-1][1] - history[-2][1]
        extrapolated = True
    return ProbeResult(x0, ktilde, ltilde, estimate, deltas, tuple(history),
                       extrapolated, converged)


def probe_system(sys, x0, ktilde, ltilde, deltas=None, richardson=True):
    """``probe`` on a system's form; the default schedule starts at
    ``system_delta_max``."""
    if deltas is None:
        deltas = delta_schedule(system_delta_max(sys, x0))
    return probe(partial(form_matrix, sys), sys.d, sys.box, x0,
                 ktilde, ltilde, deltas=deltas, richardson=richardson)


# -- witnesses ----------------------------------------------------------------

@dataclass(frozen=True)
class WitnessCertificate:
    """Disjointly supported pair u+ = phi_delta x f, u- = psi_delta x 1_B
    whose form value is positive, certifying that the semigroup is not
    positive."""

    x0: np.ndarray
    ktilde: int
    ltilde: int
    mult_witness: MultWitness
    pair: object                # dilated TestPair
    delta: float
    value: float                # Re a(u+, u-) > 0
    threshold: float            # 0.5 * delta**(d-2) * tau**2
    kind: str = "lattice"

    @property
    def f(self):
        return self.mult_witness.f

    @property
    def indicator(self):
        return _indicator(len(self.f), self.mult_witness.B)


@dataclass(frozen=True)
class NonrealWitness:
    """Real input pair whose form value has nonzero imaginary part.

    Certifies failure of real invariance: positivity requires the form to be
    real on real states.  Arises when the symmetrized coefficient is diagonal
    but not real, where no disjointly supported pair can have positive value.
    """

    x0: np.ndarray
    ktilde: int
    ltilde: int
    row: int
    col: int
    pair: object
    delta: float
    value_imag: float
    kind: str = "nonreal"


def _indicator(m, B):
    one_b = np.zeros(m)
    one_b[list(B)] = 1.0
    return one_b


def _localize(sys, x0, pair, delta0, accept, what):
    """Halve the dilation of ``pair`` at x0 until ``accept(F, delta)``
    returns a value for the form matrix F of the dilated pair; return
    (dilated pair, delta, value).  The search starts at ``system_delta_max``,
    or at delta0 capped by it, so every support stays inside the box and
    inside one cell of every coefficient, as the probes' do."""
    delta = float(system_delta_max(sys, x0))
    if delta0 is not None:
        delta = min(delta, float(delta0))
    for _ in range(MAX_HALVINGS):
        dil = pair.dilated(x0, delta)
        value = accept(form_matrix(sys, dil.phi, dil.psi), delta)
        if value is not None:
            return dil, delta, value
        delta *= 0.5
    raise WitnessNotLocalized(
        f"no dilation certified a {what} at {x0} within {MAX_HALVINGS} halvings")


def construct_witness(sys, x0, ktilde, ltilde, Q, delta0=None):
    """Build a certified witness pair from a non-diagonal symmetrized matrix.

    The tent pair is built with tau equal to the witness pairing of the
    realified Q; the dilation shrinks geometrically until the exactly
    evaluated form value clears the threshold 0.5 * delta**(d-2) * tau**2.
    """
    x0 = np.asarray(x0, dtype=float)
    d = sys.d
    Q_real = realify_matrix(np.asarray(Q, dtype=complex)).real
    witness = find_witness(Q_real)
    if witness is None:
        raise ValueError("symmetrized matrix is diagonal after realification; "
                         "no disjointly supported witness exists")
    tau = float(witness.pairing.real)
    pair = build_test_pair(tau, ktilde, ltilde, d)
    one_b = _indicator(sys.m, witness.B)

    def accept(F, delta):
        value = float(np.vdot(one_b, F @ witness.f).real)
        threshold = 0.5 * delta ** (d - 2) * tau ** 2
        return (value, threshold) if value >= threshold * (1.0 - 1e-9) else None

    dil, delta, (value, threshold) = _localize(
        sys, x0, pair, delta0, accept, "witness")
    return WitnessCertificate(x0, ktilde, ltilde, witness, dil, delta,
                              value, float(threshold))


def construct_nonreal_witness(sys, x0, ktilde, ltilde, Q, delta0=None):
    """Witness for a symmetrized matrix that is diagonal but not real: the
    form entry F[row, col] at the largest |Im Q| has a large imaginary part."""
    x0 = np.asarray(x0, dtype=float)
    d = sys.d
    Q = np.asarray(Q, dtype=complex)
    im = np.abs(Q.imag)
    row, col = np.unravel_index(np.argmax(im), im.shape)
    target = float(Q.imag[row, col])
    if target == 0.0:
        raise ValueError("symmetrized matrix is real; no nonreal witness")
    tau = 2.0 if ktilde == ltilde else 1.0
    pair = build_test_pair(tau, ktilde, ltilde, d)

    def accept(F, delta):
        value = float(F[row, col].imag)
        return value if abs(value) >= 0.5 * delta ** (d - 2) * abs(target) else None

    dil, delta, value = _localize(
        sys, x0, pair, delta0, accept, "nonreal witness")
    return NonrealWitness(x0, ktilde, ltilde, int(row), int(col),
                          dil, delta, value)


# -- the decision --------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of the decoupling decision.

    Exactly one of ``scalar_systems`` (positive side) and ``witness``
    (negative side) is present.
    """

    decision: str               # 'positive-decoupled' | 'not-positive'
    scalar_systems: tuple       # m scalar systems, or None
    witness: object             # WitnessCertificate | NonrealWitness | None
    tol: float
    probe_points: np.ndarray
    diagnostics: dict

    @property
    def positive(self):
        return self.decision == "positive-decoupled"


def default_probe_points(sys):
    """(p+1)^d interior tensor points at relative offsets j / (p+2), j = 1..p+1,
    of the box, or of every cell of the common refinement of grid-sampled
    coefficients; p is the largest per-axis exponent of a non-grid term.  A
    tensor grid of p+1 nodes per axis is unisolvent for per-axis degree <= p,
    so a symmetrized coefficient vanishes at these points only if it vanishes
    on every cell.  No point lies on a cell face."""
    p = max((max(exps) for row in sys.coeffs for fld in row if fld.kind != "grid"
             for exps, _ in fld.monomials(sys.d, sys.box)), default=0)
    return _refined_cell_points(sys, np.arange(1, p + 2) / (p + 2))


def extract_scalar_systems(sys):
    """The m scalar systems with coefficients Re (C_kl e_n, e_n)."""
    out = []
    for n in range(sys.m):
        coeffs = tuple(
            tuple(sys.coefficient(k, l).diagonal_scalar(n) for l in range(sys.d))
            for k in range(sys.d)
        )
        out.append(EllipticSystem(sys.box, 1, coeffs, sys.bc, sys.mu))
    return out


def _first_failure(sys, points, tol, via_probe):
    """First (x0, k, l, Q, diagonal, real) in scan order (points
    lexicographic, then k <= l) whose symmetrized coefficient Q is not real
    diagonal, or None.  The direct path reads each (k, l) once over all
    points; ``via_probe`` probes one point and pair at a time and stops at
    the first failure."""
    pairs = [(k, l) for k in range(sys.d) for l in range(k, sys.d)]

    def probed():
        for x0 in points:
            for k, l in pairs:
                res = probe_system(sys, x0, k, l)
                if not res.converged:
                    raise IndeterminateDecision(
                        f"probe did not converge at {x0} for target ({k}, {l})",
                        diagnostics={"history": res.history},
                    )
                yield x0[None], [(k, l)], res.estimate[None, None]

    reads = probed() if via_probe else [
        (points, pairs, np.stack([sys.symmetrized(k, l, points) for k, l in pairs], axis=1))]
    for pts, kls, Q in reads:
        diagonal = is_multiplication(Q, tol)
        real = np.abs(Q.imag).max(axis=(-2, -1), initial=0.0) <= tol
        failed = ~(diagonal & real)
        if failed.any():
            i, j = np.unravel_index(np.argmax(failed), failed.shape)
            return (pts[i], *kls[j], Q[i, j], bool(diagonal[i, j]), bool(real[i, j]))
    return None


def decide_decoupling(sys, via_probe=False, require_elliptic=True):
    """Decide positivity of the semigroup by testing every symmetrized
    coefficient for real diagonality at every ``default_probe_points``,
    to within ``default_decision_tol``.

    On success the scalar systems are extracted and their uniform bound and
    pointwise coercivity are checked: with ``require_elliptic`` a failed
    check raises ContractViolation, otherwise it is only recorded.  On
    failure a witness is constructed at the first failure in scan order
    (points lexicographic, then k <= l).
    """
    if require_elliptic:
        report = check_ellipticity(sys)
        if not report.passed:
            raise ContractViolation(
                f"system fails its declared coercivity: lambda_min = "
                f"{report.lambda_min:.6g} < mu = {sys.mu}"
            )
    probe_points = default_probe_points(sys)
    tol = default_decision_tol(sys)

    M = sys.bound()
    first_failure = _first_failure(sys, probe_points, tol, via_probe)

    if first_failure is None:
        scalars = extract_scalar_systems(sys)
        bounds_ok = all(s.bound() <= M + tol for s in scalars)
        coercive_ok = all(check_ellipticity(s, probe_points, tol=tol).passed
                          for s in scalars)
        if require_elliptic and not (bounds_ok and coercive_ok):
            failed = "coercivity check at the probe points" if bounds_ok else "bound check"
            raise ContractViolation(f"the decoupled scalar systems fail their {failed}")
        return Verdict(
            "positive-decoupled", tuple(scalars), None, tol, probe_points,
            {"bound": M, "scalar_bounds_ok": bounds_ok,
             "scalar_coercivity_ok": coercive_ok},
        )

    x0, k, l, Q, diagonal, real = first_failure
    if not is_multiplication(realify_matrix(Q).real, tol):
        wit = construct_witness(sys, x0, k, l, Q)
    else:
        wit = construct_nonreal_witness(sys, x0, k, l, Q)
    return Verdict(
        "not-positive", None, wit, tol, probe_points,
        {"bound": M, "failed_point": x0, "failed_pair": (k, l),
         "symmetrized": Q, "diagonal": diagonal, "real": real},
    )


# -- extras ---------------------------------------------------------------------

@dataclass(frozen=True)
class OffdiagReport:
    average: np.ndarray            # exact average of C_12 over the box
    symmetrized_average: np.ndarray
    antisymmetric_average: np.ndarray
    symmetrized_constant: bool


def extract_offdiag_2d(sys, tol=1e-10):
    """Recover the average of C_12 from the form with affine test functions.

    Needs d = 2 with the natural boundary on a bounded box; with the
    zero-trace space the antisymmetric part is pure gauge and cannot be seen.
    """
    if sys.d != 2:
        raise ValueError("off-diagonal extraction is specific to d = 2")
    if sys.bc != "free":
        raise UnsupportedContract(
            "the zero-trace form never determines the antisymmetric part"
        )
    vol = float(np.prod([b - a for a, b in sys.box]))
    phi = affine_tensor(sys.box, 1)     # x2
    psi = affine_tensor(sys.box, 0)     # x1
    avg = form_matrix(sys, phi, psi) / vol
    sym_avg = (sys.coefficient(0, 1).average(sys.box)
               + sys.coefficient(1, 0).average(sys.box))
    anti_avg = avg - sym_avg / 2.0
    syms = sys.symmetrized(0, 1, default_probe_points(sys))
    sym_const = bool(np.abs(syms - syms[0]).max(initial=0.0) <= tol * max(1.0, sys.bound()))
    return OffdiagReport(avg, sym_avg, anti_avg, sym_const)
