"""Named fixture systems and seeded random generators for property tests."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .coefficients import ConstantField, EllipticSystem, PolynomialField
from .polynomials import MultiPoly


def _constant(matrix):
    return ConstantField(np.asarray(matrix, dtype=complex))


def _zero(m):
    return ConstantField(np.zeros((m, m), dtype=complex))


def scalar_heat(bc="dirichlet"):
    """Plain heat flow on the unit square: identity coefficient pattern."""
    one = _constant([[1.0]])
    zero = _zero(1)
    return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                          ((one, zero), (zero, one)), bc, 1.0)


def coupled_complex_pair(factor=3 + 4j, bc="free"):
    """Two channels with an antisymmetric constant coupling C_21 = -C_12.

    The coupling is not a multiplication operator (and for a complex factor
    does not preserve real vectors), yet the symmetrized coefficients vanish,
    so the semigroup is positive and decouples into two heat flows with
    conductivity 6.
    """
    m = 2
    six = _constant(6 * np.eye(m))
    C12 = np.zeros((m, m), dtype=complex)
    C12[1, 0] = factor
    box = ((-4.0, 4.0), (-4.0, 4.0))
    return EllipticSystem(box, m,
                          ((six, _constant(C12)), (_constant(-C12), six)),
                          bc, 3.5 if factor == 3 + 4j else 5.5)


def _nullform_polys():
    """The three antisymmetric cubic-box coefficients whose form vanishes
    identically on the natural space."""
    d = 3
    x1 = MultiPoly.variable(0, d)
    x2 = MultiPoly.variable(1, d)
    x3 = MultiPoly.variable(2, d)
    one = MultiPoly.constant(1.0, d)
    c12 = -1 * (x1 * x1 - one) * (x2 * x2 - one) * x3
    c23 = -1 * (x2 * x2 - one) * (x3 * x3 - one) * x1
    c13 = (x1 * x1 - one) * (x3 * x3 - one) * x2
    return c12, c13, c23


def nullform_3d(bc="free"):
    """Scalar system on (-1,1)^3 whose form is identically zero on the
    natural space: antisymmetric polynomial coefficients, zero diagonal.
    Not coercive (mu = 0); used for assembly and probe fixtures only."""
    d = 3
    c12, c13, c23 = _nullform_polys()
    zero = MultiPoly.constant(0.0, d)

    def fld(p):
        return PolynomialField(((p,),), d)

    coeffs = (
        (fld(zero), fld(c12), fld(c13)),
        (fld(-1 * c12), fld(zero), fld(c23)),
        (fld(-1 * c13), fld(-1 * c23), fld(zero)),
    )
    box = ((-1.0, 1.0),) * 3
    return EllipticSystem(box, 1, coeffs, bc, 0.0)


def embedded_nullform(bc="free"):
    """The antisymmetric cubic-box coefficients embedded as channel-coupling
    operator entries over a conductivity-6 diagonal; the coupling operators
    are never multiplication operators where they are nonzero, yet the form
    collapses to the decoupled one and the semigroup is positive."""
    d, m = 3, 2
    c12, c13, c23 = _nullform_polys()
    zero = MultiPoly.constant(0.0, d)
    six = MultiPoly.constant(6.0, d)

    def off(p):
        return PolynomialField(((zero, p), (zero, zero)), d)

    def diag():
        return PolynomialField(((six, zero), (zero, six)), d)

    coeffs = (
        (diag(), off(c12), off(c13)),
        (off(-1 * c12), diag(), off(c23)),
        (off(-1 * c13), off(-1 * c23), diag()),
    )
    box = ((-1.0, 1.0),) * 3
    return EllipticSystem(box, m, coeffs, bc, 5.5)


def symmetric_coupling_witness(bc="dirichlet"):
    """Two channels with a symmetric constant coupling C_12 = C_21 = R.

    The symmetrized coefficient 2R is not diagonal, so the semigroup is not
    positive; the canonical witness pairing is 2."""
    m = 2
    six = _constant(6 * np.eye(m))
    R = np.zeros((m, m), dtype=complex)
    R[1, 0] = 1.0
    box = ((-4.0, 4.0), (-4.0, 4.0))
    return EllipticSystem(box, m, ((six, _constant(R)), (_constant(R), six)),
                          bc, 5.5)


def _random_bounded_poly(rng, d, n_terms=3, max_exp=2):
    """Polynomial with sum of |coefficients| equal to 1 (so |p| <= 1 on the
    unit box)."""
    terms = []
    coeffs = rng.uniform(-1.0, 1.0, n_terms)
    coeffs /= np.abs(coeffs).sum()
    for c in coeffs:
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, d))
        terms.append((exps, complex(c)))
    return MultiPoly.from_terms(terms, d)


def _channel_diagonal_field(polys, d):
    m = len(polys)
    zero = MultiPoly.constant(0.0, d)
    entries = tuple(
        tuple(polys[i] if i == j else zero for j in range(m))
        for i in range(m)
    )
    return PolynomialField(entries, d)


def random_decoupled(seed, bc="dirichlet", m=2, d=2):
    """Channel-diagonal real polynomial coefficients on the unit box with a
    built-in coercivity margin."""
    rng = np.random.default_rng(seed)
    box = ((0.0, 1.0),) * d
    per_pair = {}
    for k in range(d):
        for l in range(d):
            polys = []
            for n in range(m):
                if k == l:
                    p = MultiPoly.constant(1.0, d) + 0.3 * _random_bounded_poly(rng, d)
                elif k < l:
                    p = 0.15 * _random_bounded_poly(rng, d)
                else:
                    p = per_pair[(l, k)][n]     # symmetric gradient pair
                polys.append(p)
            per_pair[(k, l)] = polys
    coeffs = tuple(
        tuple(_channel_diagonal_field(per_pair[(k, l)], d) for l in range(d))
        for k in range(d)
    )
    return EllipticSystem(box, m, coeffs, bc, 0.5)


def random_coupled(seed, coupling=0.15, bc="dirichlet", m=2, d=2):
    """A decoupled random system plus a constant symmetric channel coupling
    of the given strength on the (0, 1) gradient pair."""
    base = random_decoupled(seed, bc=bc, m=m, d=d)
    if coupling < 0.1:
        raise ValueError("coupling below the decision-suite floor 0.1")

    def bumped(fld):
        entries = [list(row) for row in fld.entries]
        entries[0][1] = entries[0][1] + MultiPoly.constant(coupling, d)
        return PolynomialField(tuple(tuple(r) for r in entries), d)

    sys = base.with_coefficient(0, 1, bumped(base.coefficient(0, 1)))
    sys = sys.with_coefficient(1, 0, bumped(sys.coefficient(1, 0)))
    return EllipticSystem(sys.box, m, sys.coeffs, bc, 0.2)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: object               # factory(**kwargs) -> EllipticSystem
    expected: str               # 'positive-decoupled' | 'not-positive' | None
    notes: str


_CATALOG = {
    "scalar_heat": CatalogEntry(
        "scalar_heat", scalar_heat, "positive-decoupled",
        "single-channel heat flow on the unit square"),
    "ex1_3": CatalogEntry(
        "ex1_3", coupled_complex_pair, "positive-decoupled",
        "antisymmetric complex coupling 3+4i; coupling is neither diagonal "
        "nor real-preserving, yet the symmetrized coefficients vanish"),
    "ex1_3_entry1": CatalogEntry(
        "ex1_3_entry1", lambda **kw: coupled_complex_pair(factor=1.0, **kw),
        "positive-decoupled",
        "antisymmetric real coupling 1; real-preserving but still not diagonal"),
    "ex3_5_nullform": CatalogEntry(
        "ex3_5_nullform", nullform_3d, None,
        "scalar antisymmetric polynomial coefficients whose form vanishes "
        "identically on the natural space of the cube"),
    "ex5_5": CatalogEntry(
        "ex5_5", embedded_nullform, "positive-decoupled",
        "null-form coefficients embedded as operator entries over a "
        "conductivity-6 diagonal; decouples to two scalar flows"),
    "witness_W": CatalogEntry(
        "witness_W", symmetric_coupling_witness, "not-positive",
        "symmetric constant coupling; symmetrized coefficient 2R is not "
        "diagonal, witness pairing 2"),
    "rand_decoupled": CatalogEntry(
        "rand_decoupled", random_decoupled, "positive-decoupled",
        "seeded channel-diagonal real polynomial coefficients"),
    "rand_coupled": CatalogEntry(
        "rand_coupled", random_coupled, "not-positive",
        "seeded decoupled base plus constant symmetric channel coupling"),
}

_SEEDED = re.compile(r"^(rand_decoupled|rand_coupled)\((\d+)\)$")


def names():
    return tuple(_CATALOG)


def needs_seed(name):
    """Whether ``name`` is a seeded generator named without ``(seed)``,
    which builds only from a seed."""
    return name in ("rand_decoupled", "rand_coupled")


def get(name, **kwargs):
    """Look up a catalog entry; seeded generators accept ``name(seed)``."""
    m = _SEEDED.match(name)
    if m:
        base, seed = m.group(1), int(m.group(2))
        entry = _CATALOG[base]
        return CatalogEntry(
            name, lambda **kw: entry.build(seed, **kw), entry.expected,
            entry.notes + f" (seed {seed})")
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[name]
