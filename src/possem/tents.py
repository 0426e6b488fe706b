"""Piecewise-polynomial test functions and exact tensor-product quadrature.

The building blocks are the unit tent ``hat`` and the double tent
``double_hat``; ``build_test_pair`` combines scaled and shifted copies into a
pair (phi, psi) of nonnegative tensor-product functions whose gradient
interaction matrix ``G[k, l] = integral of (d_l phi)(d_k psi)`` has a single
prescribed symmetric entry pattern and vanishes elsewhere.  All integrals are
evaluated piece by piece with Gauss-Legendre rules of sufficient order, so
they are exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import CapacityError, GeometryError

#: Gauss-Legendre nodes per piece; order 8 integrates degree <= 15 exactly.
DEFAULT_GAUSS_NODES = 8

#: Breakpoints closer than this are merged when forming products.
BREAKPOINT_MERGE_TOL = 1e-14

_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(nodes):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    if nodes not in _gauss_cache:
        _gauss_cache[nodes] = np.polynomial.legendre.leggauss(nodes)
    return _gauss_cache[nodes]


def integrate_poly(coeffs, a, b):
    """Integrate a polynomial (coefficient array, low order first) over [a, b]."""
    coeffs = np.asarray(coeffs)
    deg = len(coeffs) - 1
    capacity = 2 * DEFAULT_GAUSS_NODES - 1
    if deg > capacity:
        raise CapacityError(
            f"integrand degree {deg} exceeds Gauss-Legendre capacity {capacity}"
        )
    x, w = gauss_rule(DEFAULT_GAUSS_NODES)
    t = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * np.sum(w * P.polyval(t, coeffs))


class PiecewisePoly1D:
    """Compactly supported piecewise polynomial on the real line.

    ``pieces[i]`` holds the polynomial coefficients (low order first) valid on
    ``[breakpoints[i], breakpoints[i+1]]``; the function is zero outside
    ``[breakpoints[0], breakpoints[-1]]``.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints, pieces, check_continuity=True):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if len(pieces) != len(bp) - 1:
            raise ValueError("need one piece per interval")
        self.breakpoints = bp
        self.pieces = [np.atleast_1d(np.asarray(p)) for p in pieces]
        if check_continuity:
            jump = self.max_interior_jump()
            if jump > 1e-12:
                raise ValueError(f"discontinuity {jump:.3e} at an interior breakpoint")

    @classmethod
    def zero(cls):
        return cls([0.0, 1.0], [np.zeros(1)], check_continuity=False)

    def max_interior_jump(self):
        jump = 0.0
        for i in range(len(self.pieces) - 1):
            x = self.breakpoints[i + 1]
            jump = max(jump, abs(P.polyval(x, self.pieces[i]) - P.polyval(x, self.pieces[i + 1])))
        return jump

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        idx = np.searchsorted(self.breakpoints, tt, side="right") - 1
        # points exactly at the right support end belong to the last piece
        idx[tt == self.breakpoints[-1]] = len(self.pieces) - 1
        inside = (idx >= 0) & (idx < len(self.pieces))
        out = np.zeros(tt.shape, dtype=self.pieces[0].dtype)
        for i in np.unique(idx[inside]):
            sel = inside & (idx == i)
            out[sel] = P.polyval(tt[sel], self.pieces[i])
        return out[0] if scalar else out

    def derivative(self):
        return PiecewisePoly1D(
            self.breakpoints,
            [P.polyder(p) if len(p) > 1 else np.zeros(1) for p in self.pieces],
            check_continuity=False,
        )

    def scaled(self, factor):
        return PiecewisePoly1D(
            self.breakpoints, [factor * p for p in self.pieces], check_continuity=False
        )

    def affine_pullback(self, center, delta):
        """Return q with q(x) = self((x - center) / delta), delta > 0."""
        if delta <= 0:
            raise GeometryError("dilation must be positive")
        sub = P.Polynomial([-center / delta, 1.0 / delta])
        new_pieces = []
        for p in self.pieces:
            comp = P.Polynomial(p)(sub)
            new_pieces.append(np.atleast_1d(comp.coef))
        return PiecewisePoly1D(
            center + delta * self.breakpoints, new_pieces, check_continuity=False
        )

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scaled(other)
        lo = max(self.breakpoints[0], other.breakpoints[0])
        hi = min(self.breakpoints[-1], other.breakpoints[-1])
        if hi - lo <= BREAKPOINT_MERGE_TOL:
            return PiecewisePoly1D.zero()
        bp = np.concatenate([self.breakpoints, other.breakpoints])
        bp = np.sort(bp[(bp >= lo - BREAKPOINT_MERGE_TOL) & (bp <= hi + BREAKPOINT_MERGE_TOL)])
        keep = [bp[0]]
        for x in bp[1:]:
            if x - keep[-1] > BREAKPOINT_MERGE_TOL:
                keep.append(x)
        bp = np.asarray(keep)
        pieces = []
        for i in range(len(bp) - 1):
            mid = 0.5 * (bp[i] + bp[i + 1])
            pa = self._piece_at(mid)
            pb = other._piece_at(mid)
            pieces.append(P.polymul(pa, pb))
        return PiecewisePoly1D(bp, pieces, check_continuity=False)

    __rmul__ = __mul__

    def _piece_at(self, x):
        idx = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        if idx < 0 or idx >= len(self.pieces):
            return np.zeros(1)
        return self.pieces[idx]

    def integral(self, weight_exponent=0, interval=None):
        """Exact integral of ``t**weight_exponent * self(t)`` over the support
        (or over ``interval`` intersected with the support)."""
        lo, hi = self.support
        if interval is not None:
            lo, hi = max(lo, interval[0]), min(hi, interval[1])
            if hi <= lo:
                return 0.0
        total = 0.0
        weight = np.zeros(weight_exponent + 1)
        weight[-1] = 1.0
        for i in range(len(self.pieces)):
            a = max(self.breakpoints[i], lo)
            b = min(self.breakpoints[i + 1], hi)
            if b - a <= 0:
                continue
            integrand = P.polymul(self.pieces[i], weight) if weight_exponent else self.pieces[i]
            total += integrate_poly(integrand, a, b)
        return total


# -- canonical 1D shapes -----------------------------------------------------

def hat():
    """Unit tent: peak 1 at 0, support [-1, 1]."""
    return PiecewisePoly1D([-1.0, 0.0, 1.0], [[1.0, 1.0], [1.0, -1.0]])


def double_hat():
    """Two half-width tents peaking at -1/2 and +1/2, support [-1, 1]."""
    return PiecewisePoly1D(
        [-1.0, -0.5, 0.0, 0.5, 1.0],
        [[2.0, 2.0], [0.0, -2.0], [0.0, 2.0], [2.0, -2.0]],
    )


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
        if self.delta <= 0:
            raise GeometryError("dilation must be positive")

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


class _AxisProduct:
    """Product of the per-axis 1D factors of several tensor functions.

    Every factor must share the same affine reparametrization (center and
    dilation along the axis); the product is kept in reference coordinates,
    well conditioned for small dilations, and monomial weights are
    transformed instead.
    """

    def __init__(self, terms, axis):
        maps = {(fn.center[axis], fn.delta) for fn, _ in terms}
        if len(maps) != 1:
            raise ValueError("tensor functions must share their center and dilation")
        self.center, self.delta = next(iter(maps))
        self.prod, self.nderiv = None, 0
        for fn, dax in terms:
            f = fn.factors[axis]
            if dax == axis:
                f = f.derivative()
                self.nderiv += 1
            self.prod = f if self.prod is None else self.prod * f
        self._moments = {}

    def _ref_interval(self, interval):
        if interval is None:
            return None
        lo, hi = interval
        return ((lo - self.center) / self.delta, (hi - self.center) / self.delta)

    def _ref_moment(self, k, interval):
        if k not in self._moments:
            self._moments[k] = self.prod.integral(
                k, interval=self._ref_interval(interval))
        return self._moments[k]

    def integral(self, exponent=0, interval=None):
        """Integral of x**exponent times the product, in global x."""
        from math import comb

        base = self.delta ** (1 - self.nderiv)
        total = 0.0
        for k in range(exponent + 1):
            w = comb(exponent, k) * self.center ** (exponent - k) * self.delta ** k
            if w != 0.0:
                total += w * self._ref_moment(k, interval)
        return base * total


def tensor_product_integral(terms, weight=None, box=None):
    """Exact integral of a product of (possibly differentiated) tensor test
    functions against an optional polynomial weight, over R^d or over a box.

    ``terms`` is a list of ``(fn, deriv_axis_or_None)`` whose functions share
    one center and dilation (ValueError otherwise); ``weight`` is an iterable
    of ``(exponents, coefficient)`` monomial terms, for instance
    ``MultiPoly.terms()`` or ``MatrixField.monomials``, or None for the
    weight 1.  The result is complex with the shape of the coefficients
    (scalars or m x m matrices).  Fubini reduces every term to
    per-coordinate piecewise-polynomial integrals.
    """
    if not terms:
        raise ValueError("need at least one function")
    d = terms[0][0].d
    scale = 1.0
    for fn, _ in terms:
        if fn.d != d:
            raise ValueError("dimension mismatch")
        scale *= fn.scale
    if box is not None and len(box) != d:
        raise ValueError("box dimension mismatch")
    per_axis = [_AxisProduct(terms, axis) for axis in range(d)]
    intervals = [None] * d if box is None else list(box)
    if weight is None:
        weight = (((0,) * d, 1.0),)
    total = 0.0 + 0.0j
    for exps, coef in weight:
        if len(exps) != d:
            raise ValueError("weight dimension mismatch")
        term = coef * scale
        for axis, e in enumerate(exps):
            term = term * per_axis[axis].integral(e, interval=intervals[axis])
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
        G = np.zeros((d, d))
        for k in range(d):
            for l in range(d):
                G[k, l] = tensor_product_integral(
                    [(self.phi, l), (self.psi, k)]).real
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

    eta = hat()
    rho = double_hat()
    left = shifted_hat(-0.5, 0.5)
    right = shifted_hat(0.5, 0.5)
    mid = shifted_hat(0.0, 0.5)

    if tau == 0:
        zero = PiecewisePoly1D.zero()
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
