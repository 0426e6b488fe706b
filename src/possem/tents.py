"""Piecewise-linear test functions and exact tensor-product quadrature.

The building blocks are the unit tent ``hat`` and the double tent
``double_hat``; ``build_test_pair`` combines scaled and shifted copies into a
pair (phi, psi) of nonnegative tensor-product functions whose gradient
interaction matrix ``G[k, l] = integral of (d_l phi)(d_k psi)`` has a single
prescribed symmetric entry pattern and vanishes elsewhere.  Every 1D factor
is piecewise linear, stored as its values at its breakpoints, and immutable.

Functions that share a center and dilation are integrated in reference
coordinates ``t = (x - center) / delta``: one Gauss-Legendre pass, cut at the
union of the factors' breakpoints, gives the reference moments ``m_j = int
t**j prod_i f_i^(a_i)(t) dt`` of every derivative pattern, and a bounded memo
keyed by the factors' values keeps them.  The binomial shift ``int x**e ... dx
= delta**(1 - #derivs) sum_j C(e, j) center**(e - j) delta**j m_j`` turns
them into the moments of every dilation and center: one path behind
``moment_tables`` (the exact integrals, the pair self-check, ``form_matrix``)
and ``hat_moments`` (the stiffness bands and cell corner matrices).  The
shift runs over a stack at once: every node of a grid axis, or every
dilation and axis of one pair.  ``moment_tables`` is two steps, which
``form_matrix`` calls directly: ``reference_intervals`` clips each axis's
common support by the box, in reference coordinates, for the whole stack as
one array (one pass, which also decides the form's empty dilations and
hull), and ``interval_moments`` reads the memo once per distinct interval
(once per axis when the box clips no dilation, as for every probe, whose
nested supports share their reference moments) and shifts the stack.  At
exponent 0 the shift multiplies by exactly 1, so it is skipped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, GeometryError

#: Gauss-Legendre nodes and weights per piece of the reference moments;
#: 8 nodes integrate degree <= 15 exactly.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: Highest integrand degree that the rule integrates exactly.
CAPACITY = 2 * len(_GAUSS_NODES) - 1

#: Reference moment arrays the memo keeps, least recently used dropped first.
MOMENT_MEMO_SIZE = 128

_BINOMIAL = np.array([[math.comb(e, j) for j in range(CAPACITY + 1)]
                      for e in range(CAPACITY + 1)], dtype=float)
#: The exponents j and max(e - j, 0) of the binomial shift.
_POWERS = np.arange(CAPACITY + 1)
_CENTER_POWERS = np.maximum(_POWERS[:, None] - _POWERS, 0)


def check_capacity(degree):
    """Raise CapacityError when an integrand degree exceeds CAPACITY."""
    if degree > CAPACITY:
        raise CapacityError(
            f"integrand degree {degree} exceeds Gauss-Legendre capacity {CAPACITY}"
        )


@dataclass(frozen=True, eq=False, slots=True)
class PiecewiseLinear1D:
    """Compactly supported piecewise-linear function on the real line.

    The function takes ``values[i]`` at ``breakpoints[i]``, is linear in
    between and zero outside ``[breakpoints[0], breakpoints[-1]]``.  It is
    immutable (read-only arrays) and compares and hashes by its breakpoints
    and values.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    support: tuple = field(init=False, repr=False)     # (first, last breakpoint)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # + 0.0 copies and turns -0.0 into 0.0, so equal functions have equal keys
        bp = np.asarray(self.breakpoints, dtype=float) + 0.0
        if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        vals = np.asarray(self.values, dtype=float) + 0.0
        if vals.shape != bp.shape:
            raise ValueError("need one value per breakpoint")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ValueError("breakpoints and values must be finite")
        bp.flags.writeable = vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", (float(bp[0]), float(bp[-1])))
        object.__setattr__(self, "_key", (bp.tobytes(), vals.tobytes()))

    def __eq__(self, other):
        return isinstance(other, PiecewiseLinear1D) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @classmethod
    def zero(cls):
        return cls([0.0, 1.0], [0.0, 0.0])

    def __call__(self, t):
        return np.interp(t, self.breakpoints, self.values, left=0.0, right=0.0)

    def slope(self, t):
        """Slope of the piece containing t, zero outside the support."""
        slopes = np.diff(self.values) / np.diff(self.breakpoints)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        inside = (idx >= 0) & (idx < len(slopes))
        return np.where(inside, slopes[np.clip(idx, 0, len(slopes) - 1)], 0.0)

    def affine_pullback(self, center, delta):
        """Return q with q(x) = self((x - center) / delta), 0 < delta < inf."""
        if not 0 < delta < math.inf:
            raise GeometryError(f"dilation must be positive and finite, got {delta}")
        return PiecewiseLinear1D(center + delta * self.breakpoints, self.values)


# -- canonical 1D shapes -----------------------------------------------------

def hat():
    """Unit tent: peak 1 at 0, support [-1, 1]."""
    return PiecewiseLinear1D([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])


def double_hat():
    """Two half-width tents peaking at -1/2 and +1/2, support [-1, 1]."""
    return PiecewiseLinear1D([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])


def shifted_hat(center, halfwidth):
    """Tent with peak 1 at ``center`` and support of the given half width."""
    return hat().affine_pullback(center, halfwidth)


# -- tensor-product test functions -------------------------------------------

@dataclass(frozen=True)
class TensorTestFunction:
    """scale * prod_i factor_i((x_i - center_i) / delta)."""

    scale: float
    factors: tuple
    center: tuple = None
    delta: float = 1.0

    def __post_init__(self):
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * len(self.factors))
        if len(self.center) != len(self.factors):
            raise ValueError("center length must match dimension")
        if not 0 < self.delta < math.inf:
            raise GeometryError(f"dilation must be positive and finite, got {self.delta}")

    @property
    def d(self):
        return len(self.factors)

    def support_box(self):
        return [
            (self.center[i] + self.delta * f.support[0],
             self.center[i] + self.delta * f.support[1])
            for i, f in enumerate(self.factors)
        ]

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        vals = np.full(pts.shape[0], self.scale, dtype=float)
        for i, f in enumerate(self.factors):
            vals = vals * f((pts[:, i] - self.center[i]) / self.delta)
        return float(vals[0]) if single else vals

    def dilated(self, center, delta):
        """Re-centered and dilated copy (reference factors unchanged)."""
        return TensorTestFunction(self.scale, self.factors, tuple(center), float(delta))


@functools.lru_cache(maxsize=MOMENT_MEMO_SIZE)
def _reference_moments(factors, lo, hi):
    """Read-only array (2,)*n + (CAPACITY + 1,) of the reference moments
    ``m[a_1, ..., a_n, j] = integral over [lo, hi] of t**j prod_i
    f_i^(a_i)(t) dt``, where a_i = 0 takes factor i's value and a_i = 1
    its slope.  One Gauss-Legendre pass over the pieces between the union
    of the breakpoints; an entry is exact when j plus the number of
    undifferentiated factors is at most CAPACITY."""
    cuts = np.concatenate([[lo, hi]] + [f.breakpoints for f in factors])
    cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    half = 0.5 * np.diff(cuts)[:, None]
    t = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * _GAUSS_NODES
    prod = half * _GAUSS_WEIGHTS
    for f in factors:
        prod = prod[..., None, :, :] * np.stack([f(t), f.slope(t)])
    out = np.einsum("...pg,pgj->...j", prod, t[..., None] ** np.arange(CAPACITY + 1))
    out.flags.writeable = False
    return out


@np.errstate(over="ignore", invalid="ignore")
def binomial_shift(refs, centers, delta, top, derivs):
    """Reference moments ``refs[c, ..., j]`` carried to ``x = center + delta
    t``: ``delta**(1 - derivs) sum_j C(e, j) center**(e - j) delta**j
    refs[c, ..., j]`` for e = 0..top, derivs counting the slopes.  The
    leading index c of refs may span several axes: ``centers`` and
    ``delta`` broadcast against each other to its shape, as the nodes of a
    grid axis (one center each, one dilation) or a stack of dilations (S,
    1) times the axes' centers (d,).  At top 0 the shift is exactly 1 and
    the sum has one term, so no shift is built: the sum is ``refs[..., :1]
    + 0.0``, the bits of the general one-term sum, whose zero start turns
    -0.0 into 0.0.  Moments past the largest double come out inf or NaN
    without a warning; callers check them."""
    delta = np.asarray(delta, dtype=float)
    # delta**(1 - derivs): dx = delta dt and each slope brings 1 / delta
    deriv_scale = delta.reshape(delta.shape + (1,) * (refs.ndim - delta.ndim)) ** (1.0 - derivs)[..., None]
    if top == 0:
        return deriv_scale * (refs[..., :1] + 0.0)
    # shift[c, e, j] = C(e, j) center**(e - j) delta**j, zero for j > e
    shift = (_BINOMIAL[:top + 1, :top + 1] * np.asarray(centers, dtype=float)[..., None, None]
             ** _CENTER_POWERS[:top + 1, :top + 1] * delta[..., None, None] ** _POWERS[:top + 1])
    # one flat index c for the einsum, the leading shape restored after it
    lead = shift.shape[:-2]
    flat = refs[..., :top + 1].reshape((-1,) + refs.shape[len(lead):-1] + (top + 1,))
    moments = np.einsum("c...j,cej->c...e", flat, shift.reshape(flat.shape[:1] + shift.shape[-2:]))
    return deriv_scale * moments.reshape(lead + moments.shape[1:])


#: Tent pairs and reflection signs (-1)**(dp + dq + j) of ``hat_moments``.
_TENT_PAIRS = tuple((hat(), hat().affine_pullback(o, 1.0)) for o in (0, 1))
_REFLECTION = (-1.0) ** np.indices((2, 2, CAPACITY + 1)).sum(axis=0)


@functools.cache
def hat_moments():
    """Reference moments of the unit tent against its neighbours ``hat(t - o)``,
    o = -1, 0, 1, on [0, 1], [-1, 1] and [-1, 0] (grid hats at a left edge,
    interior and right edge node): read-only array (class, o + 1, dp, dq,
    CAPACITY + 1), computed on the first call.  Reflecting the left edge
    gives the right and their sum the interior, so moments that vanish by
    symmetry are exact zeros."""
    out = np.zeros((3, 3, 2, 2, CAPACITY + 1))
    for o in (0, 1):
        out[0, o + 1] = _reference_moments(_TENT_PAIRS[o], 0.0, 1.0)
    out[2] = _REFLECTION * out[0, ::-1]               # t -> -t: right[o] from left[-o]
    out[1] = out[0] + out[2]
    out.flags.writeable = False
    return out


@functools.cache
def _slope_counts(n):
    """Read-only array (2,)*n: how many of n functions each derivative
    pattern differentiates."""
    counts = np.indices((2,) * n).sum(axis=0)
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=MOMENT_MEMO_SIZE)
def _common_support(axes):
    """Read-only array (2, d) of the common support of each axis's factors,
    ``axes[i]`` holding axis i's: its largest first and smallest last
    breakpoint."""
    out = np.array([(max(f.support[0] for f in fs), min(f.support[1] for f in fs))
                    for fs in axes]).T
    out.flags.writeable = False
    return out


def reference_intervals(fns, box=None, deltas=None):
    """Step 1 of ``moment_tables``, for tensor test functions that share
    one center and dilation (ValueError otherwise): ``(stack, lo, hi)``,
    their dilation or ``deltas`` as a float array (S,), and the ends (S, d)
    of each dilation's and axis's reference interval, the factors' common
    support clipped by ``(box - center) / delta``, empty where ``hi <= lo``.
    A dilation that is not positive and finite raises GeometryError."""
    first = fns[0]
    if any(fn.d != first.d for fn in fns):
        raise ValueError("dimension mismatch")
    stack = np.array((first.delta,) if deltas is None else deltas, dtype=float)
    if not all(0 < dd < math.inf for dd in stack.tolist()):
        raise GeometryError(f"dilations must be positive and finite, got {stack.tolist()}")
    if any(fn.delta != first.delta or tuple(fn.center) != tuple(first.center)
           for fn in fns):
        raise ValueError("tensor functions must share their center and dilation")
    if box is not None and len(box) != first.d:
        raise ValueError("box dimension mismatch")
    support_lo, support_hi = _common_support(tuple(zip(*(fn.factors for fn in fns))))
    # fmax and fmin pass over a NaN bound, as max and min do
    bounds = np.array(box if box is not None else [(-np.inf, np.inf)] * first.d, dtype=float)
    box_lo, box_hi = (bounds.T - np.array(first.center, dtype=float))[:, None] / stack[:, None]
    return stack, np.fmax(box_lo, support_lo), np.fmin(box_hi, support_hi)


def interval_moments(fns, top, stack, lo, hi):
    """Step 2 of ``moment_tables``: the (S, d, 2, ..., 2, top + 1) tables at
    the intervals of ``reference_intervals``.  The reference moments are
    read once per axis and distinct interval, in first-seen order (zeros
    for an empty one), and one binomial shift carries the whole stack."""
    n, (S, d) = len(fns), lo.shape
    axes = tuple(zip(*(fn.factors for fn in fns)))          # the factors of each axis
    # the distinct (axis, interval) rows in first-seen order, and where each
    # (dilation, axis) row is among them
    distinct = {}
    where = [distinct.setdefault(row, len(distinct))
             for row in zip(itertools.cycle(range(d)), lo.ravel().tolist(), hi.ravel().tolist())]
    zero = np.zeros((2,) * n + (top + 1,))
    tables = np.array([_reference_moments(axes[axis], a, b)[..., :top + 1] if b > a else zero
                       for axis, a, b in distinct])
    refs = tables.take(where, axis=0).reshape((S, d) + zero.shape)
    return binomial_shift(refs, np.array(fns[0].center, dtype=float), stack[:, None], top,
                          _slope_counts(n))


def moment_tables(fns, top, box=None, deltas=None):
    """Per-axis moments of tensor test functions that share one center and
    dilation (ValueError otherwise), their scales left out.

    Returns an array (d, 2, ..., 2, top + 1), one derivative index per
    function: ``tables[axis, a_1, ..., a_n, e]`` is the integral over the
    line (or the box's interval) of ``x**e prod_i f_i^(a_i)`` in the
    axis's coordinate, where f_i is the axis factor of ``fns[i]`` and
    a_i = 1 differentiates it.  With ``deltas`` the functions are
    re-dilated about their center to each of them and the tables are
    stacked, one (d, 2, ..., 2, top + 1) table per dilation.  The two
    steps are ``reference_intervals`` and ``interval_moments``; an
    unclipped stack (every probe's) shares the factors' support and reads
    one memo entry per axis.  An entry is exact when e plus the number of
    undifferentiated factors is at most CAPACITY; callers check that with
    ``check_capacity``.
    """
    tables = interval_moments(fns, top, *reference_intervals(fns, box, deltas))
    return tables[0] if deltas is None else tables


def tensor_product_integral(terms, weight=None, box=None):
    """Exact integral of a product of (possibly differentiated) tensor test
    functions against an optional polynomial weight, over R^d or over a box.

    ``terms`` is a list of ``(fn, deriv_axis_or_None)`` whose functions share
    one center and dilation (ValueError otherwise); ``weight`` is an iterable
    of ``(exponents, coefficient)`` monomial terms, for instance
    ``MultiPoly.terms()`` or ``zip(*fld.monomials(d, region))`` for a
    ``MatrixField``, or None for the weight 1.  The result is complex with
    the shape of the coefficients (scalars or m x m matrices).  Fubini reduces every term to products of
    per-axis moments from ``moment_tables``.
    """
    if not terms:
        raise ValueError("need at least one function")
    fns = [fn for fn, _ in terms]
    d = fns[0].d
    weight = [((0,) * d, 1.0)] if weight is None else list(weight)
    top = [0] * d
    for exps, _ in weight:
        if len(exps) != d:
            raise ValueError("weight dimension mismatch")
        top = [max(t, e) for t, e in zip(top, exps)]
    for axis in range(d):
        check_capacity(top[axis] + sum(dax != axis for _, dax in terms))
    tables = moment_tables(fns, max(top), box)
    moments = [tables[(axis,) + tuple(int(dax == axis) for _, dax in terms)]
               for axis in range(d)]
    scale = math.prod(fn.scale for fn in fns)
    total = 0.0 + 0.0j
    for exps, coef in weight:
        term = coef * scale
        for axis, e in enumerate(exps):
            term = term * moments[axis][e]
        total = total + term
    return total if isinstance(total, np.ndarray) else complex(total)


# -- the five-case pair construction ------------------------------------------

@dataclass(frozen=True)
class TestPair:
    """Pair (phi, psi) realizing a single-entry gradient interaction pattern.

    The target pattern is ``G[kt, lt] = G[lt, kt] = tau`` (one diagonal entry
    equal to tau when kt == lt) and zero elsewhere.
    """

    phi: TensorTestFunction
    psi: TensorTestFunction
    tau: float
    ktilde: int
    ltilde: int
    case_id: int

    @property
    def d(self):
        return self.phi.d

    def interaction_matrix(self):
        d = self.d
        G = np.full((d, d), self.phi.scale * self.psi.scale)
        for axis, tab in enumerate(moment_tables((self.phi, self.psi), 0)):
            # G[k, l] differentiates phi along l and psi along k
            along = (np.arange(d) == axis).astype(int)
            G *= tab[along[None, :], along[:, None], 0]
        return G

    def expected_interaction(self):
        d = self.d
        G = np.zeros((d, d))
        G[self.ktilde, self.ltilde] = self.tau
        G[self.ltilde, self.ktilde] = self.tau
        return G

    def dilated(self, center, delta):
        return TestPair(
            self.phi.dilated(center, delta),
            self.psi.dilated(center, delta),
            self.tau,
            self.ktilde,
            self.ltilde,
            self.case_id,
        )


#: The reference factors of every pair, built once (factors are immutable):
#: eta, rho and the half-width tents centered at -1/2, 1/2 and 0.
_PAIR_FACTORS = (hat(), double_hat(), shifted_hat(-0.5, 0.5),
                 shifted_hat(0.5, 0.5), shifted_hat(0.0, 0.5))


def build_test_pair(tau, ktilde, ltilde, d, verify=True):
    """Construct the test pair for the prescribed interaction pattern.

    Indices are 0-based.  For ``ktilde != ltilde`` the dimension must be at
    least 2.  With tau = 0 the pair is identically zero.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not (0 <= ktilde < d and 0 <= ltilde < d):
        raise ValueError("target indices out of range")
    if ktilde != ltilde and d < 2:
        raise ValueError("off-diagonal targets need d >= 2")

    eta, rho, left, right, mid = _PAIR_FACTORS

    if tau == 0:
        zero = PiecewiseLinear1D.zero()
        pair = TestPair(
            TensorTestFunction(0.0, (zero,) * d),
            TensorTestFunction(0.0, (zero,) * d),
            0.0, ktilde, ltilde, 5,
        )
    elif tau > 0 and ktilde == ltilde:
        phi = TensorTestFunction(2.0 ** (d - 2) * tau, (eta,) * d)
        psi_factors = tuple(eta if k == ltilde else rho for k in range(d))
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 1)
    elif tau > 0:
        phi = TensorTestFunction(2.0 ** d * tau, (eta,) * d)
        psi_factors = tuple(
            left if k == ktilde else right if k == ltilde else rho for k in range(d)
        )
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 2)
    elif ktilde == ltilde:
        phi_factors = tuple(left if k == ltilde else eta for k in range(d))
        phi = TensorTestFunction(2.0 ** (d - 2) * abs(tau), phi_factors)
        psi_factors = tuple(mid if k == ltilde else rho for k in range(d))
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 3)
    else:
        phi = TensorTestFunction(2.0 ** d * abs(tau), (eta,) * d)
        psi_factors = tuple(
            right if k in (ktilde, ltilde) else rho for k in range(d)
        )
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 4)

    if verify:
        err = np.abs(pair.interaction_matrix() - pair.expected_interaction()).max()
        if err > 1e-12 * max(1.0, abs(tau)):
            raise AssertionError(f"interaction pattern off by {err:.3e}")
    return pair
