"""Dense multivariate polynomials with complex coefficients.

Coefficients are stored as a dense tensor ``coeffs[a1, ..., ad]`` for the
monomial ``x1**a1 * ... * xd**ad``.  Everything here is exact arithmetic on
the coefficient tensors; evaluation is the only floating-point operation.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval


class MultiPoly:
    """Polynomial in d real variables with complex coefficients."""

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs, d=None):
        c = np.asarray(coeffs, dtype=complex)
        if d is not None and c.ndim != d:
            raise ValueError(f"coefficient tensor has {c.ndim} axes, expected {d}")
        self.coeffs = c
        self.d = c.ndim

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, d):
        c = np.zeros((1,) * d, dtype=complex)
        c[(0,) * d] = value
        return cls(c)

    @classmethod
    def variable(cls, axis, d):
        shape = [1] * d
        shape[axis] = 2
        c = np.zeros(shape, dtype=complex)
        idx = [0] * d
        idx[axis] = 1
        c[tuple(idx)] = 1.0
        return cls(c)

    @classmethod
    def from_terms(cls, terms, d):
        """Build from an iterable of ``(exponents, coefficient)`` pairs."""
        terms = list(terms)
        if not terms:
            return cls.constant(0.0, d)
        shape = [1] * d
        for exps, _ in terms:
            if len(exps) != d:
                raise ValueError("exponent tuple length mismatch")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {tuple(exps)}")
            for i, e in enumerate(exps):
                shape[i] = max(shape[i], int(e) + 1)
        c = np.zeros(shape, dtype=complex)
        for exps, coef in terms:
            c[tuple(int(e) for e in exps)] += coef
        return cls(c)

    # -- structure ----------------------------------------------------------

    def terms(self):
        """Yield ``(exponents, coefficient)`` for every nonzero monomial."""
        for idx in np.argwhere(self.coeffs != 0):
            yield tuple(int(i) for i in idx), complex(self.coeffs[tuple(idx)])

    @property
    def total_degree(self):
        degs = [sum(idx) for idx in np.argwhere(self.coeffs != 0)]
        return max(degs) if degs else 0

    def is_zero(self, tol=0.0):
        return bool(np.max(np.abs(self.coeffs), initial=0.0) <= tol)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        shape = np.maximum(self.coeffs.shape, other.coeffs.shape)
        c = np.zeros(shape, dtype=complex)
        c[tuple(slice(0, s) for s in self.coeffs.shape)] += self.coeffs
        c[tuple(slice(0, s) for s in other.coeffs.shape)] += other.coeffs
        return MultiPoly(c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return MultiPoly(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return MultiPoly(self.coeffs * other)
        other = self._coerce(other)
        shape = tuple(a + b - 1 for a, b in zip(self.coeffs.shape, other.coeffs.shape))
        c = np.zeros(shape, dtype=complex)
        for idx, coef in other.terms():
            sl = tuple(slice(i, i + s) for i, s in zip(idx, self.coeffs.shape))
            c[sl] += coef * self.coeffs
        return MultiPoly(c)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.d != self.d:
                raise ValueError("variable count mismatch")
            return other
        return MultiPoly.constant(other, self.d)

    def partial(self, axis):
        """Partial derivative along the given axis."""
        return MultiPoly(polyder(self.coeffs, axis=axis))

    @property
    def real(self):
        return MultiPoly(self.coeffs.real.astype(complex))

    @property
    def imag(self):
        return MultiPoly(self.coeffs.imag.astype(complex))

    # -- analysis ------------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a point (length-d) or an array of points (..., d)."""
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1:] != (self.d,):
            raise ValueError("point dimension mismatch")
        vals = polyval(pts[..., 0], self.coeffs, tensor=True)
        for axis in range(1, self.d):
            vals = polyval(pts[..., axis], vals, tensor=False)
        return complex(vals) if pts.ndim == 1 else vals

    def bound_on_box(self, box):
        """Upper bound for ``|p(x)|`` over the closed box (coefficient-norm bound)."""
        bound = 0.0
        for idx, coef in self.terms():
            term = abs(coef)
            for (a, b), e in zip(box, idx):
                term *= max(abs(a), abs(b)) ** e
            bound += term
        return bound

    def box_integral(self, box):
        """Exact integral over the box (monomial moments)."""
        total = 0.0 + 0.0j
        for idx, coef in self.terms():
            term = coef
            for (a, b), e in zip(box, idx):
                term *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
            total += term
        return total

    def allclose(self, other, tol=1e-12):
        return (self - self._coerce(other)).is_zero(tol)

    def __repr__(self):
        parts = []
        for idx, coef in self.terms():
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(idx) if e)
            parts.append(f"({coef:g})" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + (" + ".join(parts) if parts else "0") + ")"
