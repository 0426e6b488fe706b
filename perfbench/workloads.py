"""The four workloads: seeded job lists and output checks.

Every workload is a fixed list of at least 100 jobs built from the workload
seed; possem receives only the built inputs.  A job is a call into possem's
public API, and its check decides from independent arithmetic (exact
coefficient tensors, scipy's exponentials, sparse identities) whether the
output is right.  Checks run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

#: Decision suite of acceptance criterion 03.
SUITE_POSITIVE = (["scalar_heat", "ex1_3", "ex1_3_entry1", "ex5_5"]
                  + [f"rand_decoupled({s})" for s in range(20)])
SUITE_NEGATIVE = ["witness_W"] + [f"rand_coupled({s})" for s in range(20)]

#: Propagator times of acceptance criterion 05.
FACTORIZATION_TIMES = (0.01, 0.1, 1.0)


@dataclass
class Job:
    name: str
    kind: str                                   # one warm-up job per kind
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]    # None, or why the output is wrong
    known_defect: Optional[str] = None          # expected failure on this code


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _interior_point(rng, box, margin=0.1):
    return np.array([a + (b - a) * rng.uniform(margin, 1.0 - margin) for a, b in box])


# -- exact symmetrized coefficients ------------------------------------------------

def _field_tensor(possem, fld, d):
    """Coefficient tensor of a field, shape (*degrees + 1, m, m) for constant
    and polynomial kinds (monomial coefficients) or (*cells, m, m) for cell
    values."""
    if isinstance(fld, possem.ConstantField):
        return fld.matrix.reshape((1,) * d + fld.matrix.shape), "poly"
    if isinstance(fld, possem.GridSampledField):
        return fld.values, "cells"
    m = len(fld.entries)
    shape = np.max([p.coeffs.shape for row in fld.entries for p in row], axis=0)
    out = np.zeros(tuple(shape) + (m, m), dtype=complex)
    for i, row in enumerate(fld.entries):
        for j, p in enumerate(row):
            out[tuple(slice(0, s) for s in p.coeffs.shape) + (i, j)] = p.coeffs
    return out, "poly"


def exact_symmetrized(possem, sys_, k, l):
    """Tensor of C_kl + C_lk, added coefficient by coefficient."""
    (a, kind_a), (b, kind_b) = (_field_tensor(possem, sys_.coefficient(*kl), sys_.d)
                                for kl in ((k, l), (l, k)))
    if kind_a != kind_b:
        raise ValueError("mixed cell-sampled and polynomial coefficients")
    shape = np.maximum(a.shape, b.shape)
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, s) for s in a.shape)] += a
    out[tuple(slice(0, s) for s in b.shape)] += b
    return out


def exactly_positive(possem, sys_):
    """True iff every C_kl + C_lk is real and diagonal in every coefficient."""
    for k in range(sys_.d):
        for l in range(k, sys_.d):
            S = exact_symmetrized(possem, sys_, k, l)
            tol = 1e-12 * max(1.0, float(np.abs(S).max(initial=0.0)))
            off = S * (1.0 - np.eye(sys_.m))
            if np.abs(off).max(initial=0.0) > tol or np.abs(S.imag).max(initial=0.0) > tol:
                return False
    return True


def _poly_tensor_at(S, x):
    """Evaluate a monomial-coefficient tensor (*degrees + 1, m, m) at x."""
    out = S
    for xi in x:
        out = np.tensordot(xi ** np.arange(out.shape[0]), out, axes=(0, 0))
    return out


# -- decide --------------------------------------------------------------------

def soundness_counterexample(possem):
    """ROADMAP's counterexample: the channel coupling 20(x-1/4)(x-1/2)(x-3/4)
    in C_11 vanishes on the 3^d probe grid, so sampling misses it.  The
    diagonal 3 keeps the Hermitian part above mu = 1 everywhere on the unit
    square (|coupling| <= 1.875)."""
    d = 2
    x = possem.MultiPoly.variable(0, d)
    p = 20 * (x - 0.25) * (x - 0.5) * (x - 0.75)
    three = possem.MultiPoly.constant(3.0, d)
    c11 = possem.PolynomialField(((three, p), (p, three)), d)
    zero = possem.ConstantField(np.zeros((2, 2)))
    c22 = possem.ConstantField(3.0 * np.eye(2))
    return possem.EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 2,
                                 ((c11, zero), (zero, c22)), "dirichlet", 1.0)


def _check_decision(possem, sys_, verdict):
    truth = exactly_positive(possem, sys_)
    if verdict.positive != truth:
        return (f"verdict {verdict.decision}, exact coefficients say "
                f"{'positive' if truth else 'not positive'}")
    d = sys_.d
    if verdict.positive:
        diag = verdict.diagnostics
        if len(verdict.scalar_systems) != sys_.m:
            return f"{len(verdict.scalar_systems)} scalar systems for m = {sys_.m}"
        if not (diag["scalar_bounds_ok"] and diag["scalar_coercivity_ok"]):
            return "scalar systems do not inherit bound and coercivity"
        return None
    w = verdict.witness
    if isinstance(w, possem.NonrealWitness):
        basis = np.eye(sys_.m)
        value = possem.form_value(sys_, (w.pair.phi, basis[w.col]),
                                  (w.pair.psi, basis[w.row]))
        S = _poly_tensor_at(exact_symmetrized(possem, sys_, w.ktilde, w.ltilde), w.x0)
        need = 0.5 * w.delta ** (d - 2) * abs(S.imag[w.row, w.col])
        if not abs(value.imag) >= need * (1 - 1e-9):
            return f"nonreal witness |Im| {abs(value.imag):.6g} below {need:.6g}"
        return None
    value = possem.form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    need = 0.5 * w.delta ** (d - 2) * w.mult_witness.pairing.real ** 2
    if not value >= need * (1 - 1e-9):
        return f"witness value {value:.6g} below {need:.6g}"
    return None


def build_decide(possem, rng):
    cat = possem.catalog
    # 108 jobs, a pass of about 5 s.  The counts put the median in the
    # middle of the 50 2D rand_decoupled jobs (above the 30 cheaper 2D
    # rand_coupled ones) and p90 in the middle of the 10 rand_decoupled m=4
    # jobs (between the 6 rand_coupled m=4 ones and the 7 costliest, d=3 and
    # ex5_5), away from the edges between job kinds.
    systems = [(name, cat.get(name).build()) for name in SUITE_POSITIVE + SUITE_NEGATIVE]
    for base, count, kw in (("rand_decoupled", 30, {}), ("rand_coupled", 10, {}),
                            ("rand_decoupled", 10, {"m": 4}), ("rand_coupled", 6, {"m": 4}),
                            ("rand_decoupled", 3, {"d": 3}), ("rand_coupled", 3, {"d": 3})):
        for s in _seeds(rng, count):
            label = f"{base}({s})" + "".join(f" {k}={v}" for k, v in kw.items())
            systems.append((label, cat.get(f"{base}({s})").build(**kw)))
    jobs = []
    for name, sys_ in systems:
        jobs.append(Job(
            f"decide {name}", f"d{sys_.d}m{sys_.m}",
            lambda s=sys_: possem.decide_decoupling(s),
            lambda v, s=sys_: _check_decision(possem, s, v)))
    cx = soundness_counterexample(possem)
    jobs.append(Job(
        "decide roadmap-counterexample", "d2m2",
        lambda: possem.decide_decoupling(cx),
        lambda v: _check_decision(possem, cx, v),
        known_defect="sampled decision misses a coupling that vanishes on the probe grid"))
    return jobs


# -- probe ---------------------------------------------------------------------------

def _probe_deltas(box, x0, steps=7):
    """Dilations for the 1e-6 check: delta_max is half the boundary distance,
    capped at a twentieth of the shortest box side, so that the extrapolated
    O(delta^2) error of degree-4 coefficients stays well inside 1e-6."""
    dist = min(min(x - a, b - x) for x, (a, b) in zip(x0, box))
    dmax = min(0.5 * dist, 0.05 * min(b - a for a, b in box))
    return tuple(dmax * 2.0 ** -j for j in range(steps))


def _check_probe(possem, sys_, x0, k, l, res):
    if not res.converged:
        return "probe did not converge"
    constant = all(isinstance(sys_.coefficient(i, j), possem.ConstantField)
                   for i in range(sys_.d) for j in range(sys_.d))
    ref = sys_.symmetrized(k, l, x0)
    tol = (1e-12 if constant else 1e-6) * np.maximum(1.0, np.abs(ref))
    err = np.abs(res.estimate - ref)
    if np.any(err > tol):
        return f"probe error {err.max():.3e} above tolerance"
    return None


def build_probe(possem, rng):
    cat = possem.catalog
    # 102 jobs, a pass of about 5 s: the median lies among the constant 2D
    # jobs, whose cost the seed does not move, and p90 among the ex5_5 ones,
    # the costliest kind.
    seeded = [f"{('rand_decoupled', 'rand_coupled')[i % 2]}({s})"
              for i, s in enumerate(_seeds(rng, 14))]
    mix = ([("ex1_3", cat.get("ex1_3").build(), "2d-const")] * 33
           + [("witness_W", cat.get("witness_W").build(), "2d-const")] * 33
           + [(name, cat.get(name).build(), "2d-poly") for name in seeded]
           + [("ex3_5_nullform", cat.get("ex3_5_nullform").build(), "3d")] * 6
           + [("ex5_5", cat.get("ex5_5").build(), "3d")] * 16)
    jobs = []
    for i, (name, sys_, kind) in enumerate(mix):
        x0 = _interior_point(rng, sys_.box)
        pairs = [(k, l) for k in range(sys_.d) for l in range(k, sys_.d)]
        k, l = pairs[i % len(pairs)]
        deltas = _probe_deltas(sys_.box, x0)
        jobs.append(Job(
            f"probe {name} ({k},{l})", kind,
            lambda s=sys_, x=x0, k=k, l=l, dl=deltas: possem.probe_system(s, x, k, l, deltas=dl),
            lambda r, s=sys_, x=x0, k=k, l=l: _check_probe(possem, s, x, k, l, r)))
    return jobs


# -- propagate --------------------------------------------------------------------

def _generator(dform):
    """Sparse Mass^-1 K, built without the semigroup module."""
    return sp.diags(1.0 / np.repeat(dform.mass, dform.m)) @ dform.K


def _check_propagation(dform, report, residuals):
    bad = [r for r in residuals if not r <= 1e-10]
    if bad:
        return f"factorization residual {max(bad):.3e} above 1e-10"
    A = _generator(dform)
    if report.verdict == "NEGATIVE-FOUND":
        t, value, i, j = report.offender
        e = np.zeros(A.shape[0])
        e[j] = 1.0
        col = scipy.sparse.linalg.expm_multiply(-t * A.tocsc(), e)
        ref = float(col[i].real)
        if not (ref < 0 and abs(ref - value) <= 1e-8 * max(1.0, float(np.abs(col).max()))):
            return f"offender {value:.6g} not reproduced (expm_multiply gives {ref:.6g})"
        return None
    dense = A.toarray()
    for t in report.times:
        E = scipy.linalg.expm(-t * dense)
        low = float(E.real.min())
        if low < -1e-9 * float(np.abs(E).max()):
            return f"{report.verdict} but scipy expm has entry {low:.6g} at t = {t:.6g}"
    return None


def build_propagate(possem, rng):
    cat = possem.catalog
    small_2d = ["scalar_heat", "ex1_3", "ex1_3", "ex1_3_entry1", "witness_W",
                "rand_decoupled", "rand_decoupled", "rand_coupled", "rand_coupled"]
    seeds = iter(_seeds(rng, 86 + 6))

    def named(name):
        return f"{name}({next(seeds)})" if name.startswith("rand_") else name

    # 86 small 2D jobs below a block of 13 3D jobs, so that the median sits
    # among the 2D jobs and p90 in the middle of the 7 d=3 rand_decoupled
    # ones (below the 6 costlier ex5_5 ones), and one large dense propagator
    # (ex1_3, natural boundary, 16^2, 578 complex dofs); a pass takes about 6 s
    specs = [(named(small_2d[i % 9]), "free" if i % 9 == 2 else "dirichlet", {},
              6 + 2 * (i // 9 % 2), "2d") for i in range(86)]
    specs += [("ex5_5", "dirichlet", {}, 6, "3d") if i % 2 == 1 else
              (named("rand_decoupled"), "dirichlet", {"d": 3}, 4, "3d")
              for i in range(13)]
    specs += [("ex1_3", "free", {}, 16, "2d")]

    built = {}
    jobs = []
    for name, bc, kw, n, kind in specs:
        key = (name, tuple(kw.items()), bc)
        if key not in built:
            sys_ = cat.get(name).build(bc=bc, **kw)
            positive = bc == "dirichlet" and exactly_positive(possem, sys_)
            built[key] = (sys_, possem.extract_scalar_systems(sys_) if positive else None)
        sys_, scalars = built[key]
        grid = possem.Grid(sys_.box, (n,) * sys_.d, bc)
        states = ()
        if scalars is not None:
            count = 2 if grid.N * sys_.m <= 300 else 1
            states = tuple((t, rng.standard_normal(grid.N * sys_.m))
                           for _ in range(count) for t in FACTORIZATION_TIMES)
        jobs.append(Job(
            f"propagate {name}{''.join(f' {k}={v}' for k, v in kw.items())} {bc} {n}^{sys_.d}",
            kind,
            lambda s=sys_, g=grid, sc=scalars, st=states: _propagate(possem, s, g, sc, st),
            _memoized_propagation_check()))
    return jobs


def _propagate(possem, sys_, grid, scalars, states):
    dform = possem.assemble(sys_, grid)
    gen = possem.GeneratorOperator.from_discrete_form(dform)
    report = possem.positivity_scan(gen)
    residuals = ()
    if scalars is not None:
        forms = [possem.assemble(s, grid) for s in scalars]
        residuals = tuple(possem.factorization_residual(dform, forms, t, u)
                          for t, u in states)
    return dform, report, residuals


def _memoized_propagation_check():
    """A check that re-checks a propagation only when its reported numbers
    change: the dense reference exponentials cost as much as the job."""
    seen = {}

    def check(out):
        _, report, residuals = out
        key = (report.verdict, report.min_entry, report.offender, residuals)
        if key not in seen:
            seen[key] = _check_propagation(*out)
        return seen[key]

    return check


# -- assemble ------------------------------------------------------------------------

def sampled_system(possem, rng, cells=16):
    """Two-channel 2D system with seeded cell-wise coefficients on a 16^2 cell
    grid: diagonal conductivities in [1, 1.5] and a symmetric real channel
    coupling of size <= 0.2 in the mixed-derivative blocks."""
    box = ((0.0, 1.0), (0.0, 1.0))
    u = rng.uniform(size=(cells, cells))
    diag = np.zeros((cells, cells, 2, 2))
    diag[..., 0, 0] = 1.0 + 0.5 * u
    diag[..., 1, 1] = 1.5 - 0.5 * u
    off = np.zeros((cells, cells, 2, 2))
    off[..., 0, 1] = off[..., 1, 0] = 0.2 * rng.uniform(-1.0, 1.0, size=(cells, cells))
    F = possem.GridSampledField
    coeffs = ((F(box, diag), F(box, off)), (F(box, off), F(box, diag)))
    return possem.EllipticSystem(box, 2, coeffs, "free", 0.5)


def _tent_placement(possem, rng, sys_, grid):
    """Seeded centre, gradient pair and channel vectors of a tent pair that
    lives in the Q1 space of the grid (see ``_grid_tent_pair``).  For
    cell-sampled coefficients the pair sits on a coefficient cell so that
    its support stays inside that cell."""
    fld = sys_.coefficient(0, 0)
    if isinstance(fld, possem.GridSampledField):
        idx = rng.integers(0, fld.ncells)
        x0 = np.array([a + (i + 0.5) * w
                       for (a, _), i, w in zip(fld.box, idx, fld.cell_widths())])
    else:
        x0 = np.array([a + hh * rng.integers(3, nn - 2)
                       for (a, _), hh, nn in zip(grid.box, grid.h, grid.n)])
    k, l = (int(v) for v in rng.integers(0, sys_.d, size=2))
    return x0, k, l, rng.standard_normal(sys_.m), rng.standard_normal(sys_.m)


def _grid_tent_pair(possem, sys_, grid, placement):
    """The tent pair and its nodal vectors u, v: delta = 2h puts every
    breakpoint of the pair on a grid line, so interpolation is exact."""
    x0, k, l, f, g = placement
    pair = possem.build_test_pair(1.0, k, l, sys_.d).dilated(x0, 2.0 * grid.h[0])
    nodes = grid.node_points()
    return pair, np.kron(pair.phi(nodes), f), np.kron(pair.psi(nodes), g)


def _check_assembly(possem, sys_, grid, placement, null, dform):
    K, m, d, N = dform.K, sys_.m, sys_.d, grid.N
    if K.shape != (N * m, N * m):
        return f"stiffness shape {K.shape} for {N * m} dofs"
    if K.nnz > N * m * m * 3 ** d:
        return f"nnz {K.nnz} above the Q1 stencil bound {N * m * m * 3 ** d}"
    kmax = float(np.abs(K.data).max(initial=0.0))
    if null and kmax > 1e-10:
        return f"null form assembles to max |K| = {kmax:.3e}"
    scale = max(1.0, kmax)
    if grid.bc == "free":
        for ch in range(m):
            r = K @ np.kron(np.ones(N), np.eye(m)[ch])
            if np.abs(r).max() > 1e-10 * scale:
                return f"K (1 x e_{ch}) = {np.abs(r).max():.3e}, not 0"
    pair, u, v = _grid_tent_pair(possem, sys_, grid, placement)
    _, _, _, f, g = placement
    lattice = complex(np.vdot(v, K @ u))
    exact = possem.form_value(sys_, (pair.phi, f), (pair.psi, g))
    if abs(lattice - exact) > 1e-9 * max(1.0, abs(exact)):
        return f"v^H K u = {lattice:.12g} but the form gives {exact:.12g}"
    return None


def build_assemble(possem, rng):
    cat = possem.catalog
    seeded = [f"rand_decoupled({s})" for s in _seeds(rng, 8)]
    families = {name: (cat.get(name).build(), "dirichlet", "2d-poly") for name in seeded}
    families.update({
        "ex1_3": (cat.get("ex1_3").build(bc="free"), "free", "2d-const"),
        "sampled": (sampled_system(possem, rng), "free", "2d-grid"),
        "ex5_5": (cat.get("ex5_5").build(), "dirichlet", "3d"),
        "ex3_5_nullform": (cat.get("ex3_5_nullform").build(), "free", "3d"),
    })
    # 102 jobs, a pass of about 6 s: the median sits in the middle of the
    # ex1_3 112^2 jobs and p90 among the 16^3 ones, away from the edges
    # between grid sizes
    specs = ([("ex1_3", n) for n, count in ((64, 12), (80, 12), (96, 12), (112, 28), (128, 16))
              for _ in range(count)]
             + [(seeded[i], 64 + 16 * (i % 2)) for i in range(8)]
             + [("sampled", 64)] * 2
             + [("ex5_5", 16)] * 5
             + [("ex3_5_nullform", 16)] * 5
             + [("ex1_3", 256), ("ex5_5", 24)])
    jobs = []
    for name, n in specs:
        sys_, bc, kind = families[name]
        grid = possem.Grid(sys_.box, (int(n),) * sys_.d, bc)
        placement = _tent_placement(possem, rng, sys_, grid)
        null = name == "ex3_5_nullform"
        jobs.append(Job(
            f"assemble {name} {bc} {n}^{sys_.d}", kind,
            lambda s=sys_, g=grid: possem.assemble(s, g),
            lambda out, s=sys_, g=grid, p=placement, z=null:
                _check_assembly(possem, s, g, p, z, out)))
    return jobs


BUILDERS = {
    "decide": build_decide,
    "probe": build_probe,
    "propagate": build_propagate,
    "assemble": build_assemble,
}


def build(workload, possem, seed):
    """The workload's jobs in seeded random order, and one warm-up job per
    kind (the first one built).  The same seed gives the same jobs.  The
    shuffle spreads every kind of job over the whole pass, so that a slow
    spell of the machine does not land on one kind only."""
    rng = np.random.default_rng(seed)
    jobs = BUILDERS[workload](possem, rng)
    warm_up = list({job.kind: job for job in reversed(jobs)}.values())
    return [jobs[i] for i in rng.permutation(len(jobs))], warm_up
