"""Command-line front end: configuration, pipelines, CSV and report output.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 for
configuration problems, 3 for numerical failures.  All CSV output uses a
header row and %.17g number formatting so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import catalog as _catalog
from .assembly import Grid, assemble, export_matrix_text
from .coefficients import check_ellipticity, default_ellipticity_points, tensor_points
from .config import build_system, dump_system
from .decoupling import decide_decoupling, probe_system
from .errors import ConfigError, NumericalError, PossemError
from .multop import diag_projection, find_witness, is_multiplication
from .semigroup import GeneratorOperator, positivity_scan
from .tents import build_test_pair


def _fmt(x):
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\r\n")


class Report:
    """Accumulates the human-readable report and its JSON mirror."""

    def __init__(self, outdir, as_json=False):
        self.outdir = Path(outdir)
        self.as_json = as_json
        self.lines = []
        self.data = {}

    def add(self, line=""):
        self.lines.append(line)
        print(line)

    def record(self, key, value):
        self.data[key] = value

    def finish(self):
        (self.outdir / "report.txt").write_text("\n".join(self.lines) + "\n",
                                                encoding="utf-8")
        if self.as_json:
            (self.outdir / "report.json").write_text(
                json.dumps(self.data, indent=2, sort_keys=True, default=str) + "\n",
                encoding="utf-8")


def _load_system(args):
    name = args.catalog
    seeded = not args.config and _catalog.needs_seed(name)
    if args.seed is not None and not seeded:
        raise ConfigError(
            f"--seed {args.seed} would be ignored: only a seeded catalog "
            f"generator named without (N), such as rand_coupled, takes it")
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        sys_, meta = build_system(text)
        if args.bc:
            sys_ = dataclasses.replace(sys_, bc=args.bc)
        return sys_, meta.get("catalog", args.config)
    if name:
        kwargs = {}
        if args.bc:
            kwargs["bc"] = args.bc
        if seeded:
            if args.seed is None:
                raise ConfigError(
                    f"{name} is seeded: pass --seed N or use {name}(N)")
            kwargs["seed"] = args.seed
        entry = _catalog.get(name)
        return entry.build(**kwargs), name
    raise ConfigError("need --catalog NAME or --config FILE")


def _grid_for(sys_, args):
    res = 8 if args.grid is None else args.grid
    try:
        return Grid(sys_.box, (res,) * sys_.d, sys_.bc)
    except ValueError as exc:
        raise ConfigError(f"--grid {res}: {exc}") from exc


def _witness_samples(args):
    """Samples per axis of witness.csv: --grid of decouple and witness."""
    if args.grid is None:
        return 16
    if args.grid < 1:
        raise ConfigError(f"--grid {args.grid}: need >= 1 sample per axis")
    return args.grid


def _point_for(sys_, args, open_box=False):
    """--point, or the centre of the box; the point must lie in the closed
    box, or with ``open_box`` strictly inside it."""
    if args.point is None:
        return np.array([(a + b) / 2 for a, b in sys_.box])
    if len(args.point) != sys_.d:
        raise ConfigError(f"--point needs {sys_.d} coordinates, got {len(args.point)}")
    x = np.asarray(args.point, dtype=float)
    lo, hi = np.array(sys_.box, dtype=float).T
    if not np.all(((lo < x) & (x < hi)) if open_box else ((lo <= x) & (x <= hi))):
        raise ConfigError(f"--point {' '.join(f'{v:g}' for v in x)}: must lie "
                          f"{'strictly inside' if open_box else 'in'} the box "
                          + " x ".join(f"[{a:g}, {b:g}]" for a, b in sys_.box))
    return x


# -- subcommands ----------------------------------------------------------------

def cmd_check_elliptic(args, report):
    sys_, name = _load_system(args)
    pts = default_ellipticity_points(sys_)
    rep = check_ellipticity(sys_, pts)
    rows = []
    for x, lam in zip(pts, rep.per_point):
        rows.append([_fmt(v) for v in x] + [_fmt(lam)])
    header = [f"x{i + 1}" for i in range(sys_.d)] + ["lambda_min"]
    write_csv(Path(args.out) / "ellipticity.csv", header, rows)
    report.add(f"system: {name}")
    report.add(f"coercivity check over {len(pts)} sample points")
    report.add(f"smallest Hermitian-part eigenvalue: {rep.lambda_min:.12g}")
    report.add(f"declared mu: {sys_.mu:.12g}  ->  {'PASS' if rep.passed else 'FAIL'}")
    report.record("lambda_min", rep.lambda_min)
    report.record("mu", sys_.mu)
    report.record("passed", bool(rep.passed))


def cmd_assemble(args, report):
    sys_, name = _load_system(args)
    grid = _grid_for(sys_, args)
    dform = assemble(sys_, grid)
    out = Path(args.out)
    with open(out / "stiffness.txt", "w", encoding="utf-8") as fh:
        export_matrix_text(dform.K, fh)
    if args.dump_config:
        (out / "system.cfg").write_text(dump_system(sys_), encoding="utf-8")
    kmax = float(np.abs(dform.K.data).max(initial=0.0))
    report.add(f"system: {name}")
    report.add(f"grid: {grid.n} cells, {dform.ndof} degrees of freedom ({grid.bc})")
    report.add(f"stiffness nonzeros: {dform.K.nnz}, max |entry|: {kmax:.12g}")
    report.add(f"real to 1e-12: {dform.is_real()}")
    report.add(f"max channel-coupling entry: {dform.channel_coupling_max():.12g}")
    report.record("ndof", dform.ndof)
    report.record("nnz", int(dform.K.nnz))
    report.record("max_entry", kmax)
    report.record("real", bool(dform.is_real()))


def cmd_positivity(args, report):
    times = tuple(args.times) if args.times else None
    if times and not all(0 < t < np.inf for t in times):
        raise ConfigError(f"--times must be positive and finite, got {' '.join(map(str, times))}")
    sys_, name = _load_system(args)
    grid = _grid_for(sys_, args)
    dform = assemble(sys_, grid)
    rep = positivity_scan(GeneratorOperator.from_discrete_form(dform), times=times)
    rows = [[_fmt(t), _fmt(re_min), _fmt(im_max)]
            for t, (re_min, im_max) in zip(rep.times, rep.per_time)]
    write_csv(Path(args.out) / "positivity.csv",
              ["t", "min_entry_real", "max_entry_imag"], rows)
    report.add(f"system: {name} on {grid.n} cells ({grid.bc})")
    report.add(f"times: {', '.join(_fmt(t) for t in rep.times)}")
    report.add("propagator: " + {"spectral": "spectral (self-adjoint channel groups)",
                                 "expm_multiply": "expm_multiply (sparse generator)"}
               .get(rep.propagator, rep.propagator))
    report.add(f"minimum propagator entry (real part): {rep.min_entry:.12g}")
    report.add(f"max propagator entry imaginary part: {rep.max_imag_entry:.12g}")
    w = rep.witness
    report.add("generator sign witness: " + (
        f"{w[0]} entry ({w[1] + 1}, {w[2] + 1}) = {w[3]:.12g}" if w else "none"))
    if w:   # dofs are channel-minor: dof i belongs to channel i mod m
        pair = [w[1] % dform.m + 1, w[2] % dform.m + 1]
        coupling = "same-channel" if pair[0] == pair[1] else "cross-channel"
        report.add(f"witness channels: ({pair[0]}, {pair[1]}), {coupling}")
        report.record("witness_channels", pair)
        report.record("witness_coupling", coupling)
    report.add(f"verdict: {rep.verdict}")
    if rep.offender:
        t, val, i, j = rep.offender
        report.add(f"offender: t = {_fmt(t)}, entry ({i + 1}, {j + 1}) = {val:.12g}")
    report.record("propagator", rep.propagator)
    report.record("verdict", rep.verdict)
    report.record("min_entry", rep.min_entry)
    report.record("witness", rep.witness)


def cmd_decouple(args, report):
    samples = _witness_samples(args)
    sys_, name = _load_system(args)
    verdict = decide_decoupling(sys_)
    out = Path(args.out)
    report.add(f"system: {name}")
    report.add(f"zero test: exact; tolerance {verdict.tol:.6g} places a failure "
               f"and gives the scalar checks their slack")
    if verdict.positive:
        report.add("verdict: POSITIVE-DECOUPLED")
        report.add(f"coefficient bound M = {verdict.diagnostics['bound']:.12g}; "
                   f"scalar bounds inherited: {verdict.diagnostics['scalar_bounds_ok']}; "
                   f"scalar coercivity inherited: {verdict.diagnostics['scalar_coercivity_ok']}")
        header = [f"x{i + 1}" for i in range(sys_.d)] + ["k", "l", "c"]
        for n, scalar in enumerate(verdict.scalar_systems):
            # with m = 1 the block matrix is the d x d array of c_kl(x)
            C = scalar.block_matrix(verdict.probe_points).real
            rows = [[_fmt(v) for v in x] + [str(k + 1), str(l + 1), _fmt(c)]
                    for x, Cx in zip(verdict.probe_points, C)
                    for k, row in enumerate(Cx) for l, c in enumerate(row)]
            write_csv(out / f"coefficients_{n + 1}.csv", header, rows)
        report.add(f"wrote {sys_.m} scalar coefficient tables "
                   f"over {len(verdict.probe_points)} probe points")
        if args.grid is not None:
            report.add(f"--grid {args.grid} unused: it only sizes the witness.csv "
                       f"of a NOT-POSITIVE verdict")
    else:
        report.add("verdict: NOT-POSITIVE")
        _report_witness(report, out, sys_, verdict.witness, samples)
    report.record("decision", verdict.decision)


def _report_witness(report, out, sys_, wit, samples):
    if wit.kind == "lattice":
        report.add(f"witness at x0 = {np.array2string(wit.x0, precision=6)}, "
                   f"gradient pair ({wit.ktilde + 1}, {wit.ltilde + 1})")
        # the pairing is tau, printed as the complex entry of Re Q it came from
        report.add(f"channel vector f = e_{int(np.argmax(wit.f)) + 1}, "
                   f"set B = {{{', '.join(str(i + 1) for i in np.flatnonzero(wit.indicator))}}}, "
                   f"pairing = {complex(wit.pair.tau):.12g}")
        report.add(f"dilation delta = {_fmt(wit.delta)}")
        report.add(f"form value on the split pair: {wit.value:.12g} "
                   f"(threshold {wit.threshold:.12g})")
        grid = np.linspace(wit.x0 - 1.5 * wit.delta, wit.x0 + 1.5 * wit.delta,
                           samples + 1, axis=0)
        rows = []
        pts = tensor_points(grid.T)
        phi_vals = wit.pair.phi(pts)
        psi_vals = wit.pair.psi(pts)
        for p, a, b in zip(pts, phi_vals, psi_vals):
            for ch in range(sys_.m):
                rows.append([_fmt(v) for v in p]
                            + [str(ch + 1), _fmt(a * wit.f[ch]), _fmt(b * wit.indicator[ch])])
        header = [f"x{i + 1}" for i in range(sys_.d)] + ["channel", "u_plus", "u_minus"]
        write_csv(out / "witness.csv", header, rows)
        report.record("witness_value", wit.value)
    else:
        report.add(f"witness at x0 = {np.array2string(wit.x0, precision=6)}: "
                   f"the form takes the non-real value Im = {wit.value:.12g} on real states "
                   f"(channels {np.argmax(wit.f) + 1} -> {np.argmax(wit.indicator) + 1})")
        report.record("witness_imag", wit.value)


def cmd_probe(args, report):
    sys_, name = _load_system(args)
    x0 = _point_for(sys_, args, open_box=True)
    kt, lt = (args.kl if args.kl else (1, 1))
    if not (1 <= kt <= sys_.d and 1 <= lt <= sys_.d):
        raise ConfigError(f"--kl {kt} {lt}: indices must lie in 1..{sys_.d}")
    res = probe_system(sys_, x0, kt - 1, lt - 1)
    rows = []
    for dd, est in res.history:
        for i in range(sys_.m):
            for j in range(sys_.m):
                rows.append([_fmt(dd), str(i + 1), str(j + 1),
                             _fmt(est[i, j].real), _fmt(est[i, j].imag), "0"])
    for i in range(sys_.m):
        for j in range(sys_.m):
            rows.append([_fmt(res.deltas[-1]), str(i + 1), str(j + 1),
                         _fmt(res.estimate[i, j].real),
                         _fmt(res.estimate[i, j].imag), "1"])
    write_csv(Path(args.out) / "probe.csv",
              ["delta", "row", "col", "re", "im", "extrapolated"], rows)
    report.add(f"system: {name}")
    report.add(f"probe at x0 = {np.array2string(x0, precision=6)}, "
               f"gradient pair ({kt}, {lt}); converged: {res.converged}")
    report.add("symmetrized coefficient estimate:")
    for i in range(sys_.m):
        report.add("  " + "  ".join(f"{res.estimate[i, j]:.10g}"
                                    for j in range(sys_.m)))
    report.record("estimate", [[str(v) for v in row] for row in res.estimate])


def cmd_witness(args, report):
    samples = _witness_samples(args)
    sys_, name = _load_system(args)
    verdict = decide_decoupling(sys_)
    report.add(f"system: {name}")
    if verdict.positive:
        report.add("verdict: POSITIVE-DECOUPLED; no witness exists")
        report.record("decision", verdict.decision)
        return
    report.add("verdict: NOT-POSITIVE")
    _report_witness(report, Path(args.out), sys_, verdict.witness, samples)
    report.record("decision", verdict.decision)


def cmd_analyze(args, report):
    sys_, name = _load_system(args)
    x0 = _point_for(sys_, args)
    report.add(f"system: {name}; coefficient analysis at "
               f"x0 = {np.array2string(x0, precision=6)}")
    for k in range(sys_.d):
        for l in range(sys_.d):
            C = sys_.eval_coefficient(k, l, x0)
            mult = is_multiplication(C)
            line = f"C[{k + 1},{l + 1}]: multiplication operator: {mult}"
            wit = find_witness(C)
            if wit is not None:
                line += (f"; witness f = e_{int(np.argmax(wit.f)) + 1}, "
                         f"B = {{{wit.B[0] + 1}}}, pairing = {wit.pairing:.10g}")
            report.add(line)
            P = diag_projection(C)
            report.add(f"    diagonal part trace = {np.trace(P):.10g} "
                       f"(trace preserved: {abs(np.trace(P) - np.trace(C)) < 1e-12})")
    for k in range(sys_.d):
        for l in range(k, sys_.d):
            Q = sys_.symmetrized(k, l, x0)
            report.add(f"symmetrized ({k + 1},{l + 1}): diagonal: "
                       f"{is_multiplication(Q)}, max |imag|: "
                       f"{float(np.abs(Q.imag).max(initial=0.0)):.6g}")


def cmd_selftest_tents(args, report):
    report.add("d,tau,ktilde,ltilde,k,l,G,expected,abs_error")
    worst = 0.0
    for d in (2, 3, 4):
        for tau in (-3.0, -1.0, 0.0, 1.0, 2.0):
            for kt in range(d):
                for lt in range(d):
                    pair = build_test_pair(tau, kt, lt, d)
                    G = pair.interaction_matrix()
                    E = pair.expected_interaction()
                    for k in range(d):
                        for l in range(d):
                            err = abs(G[k, l] - E[k, l])
                            worst = max(worst, err)
                            report.add(
                                f"{d},{_fmt(tau)},{kt + 1},{lt + 1},{k + 1},"
                                f"{l + 1},{_fmt(G[k, l])},{_fmt(E[k, l])},{_fmt(err)}")
    report.add(f"worst entrywise error: {worst:.3e}")
    report.record("worst_error", worst)
    if worst > 1e-12:
        raise NumericalError("tent self-test exceeded 1e-12")


def cmd_catalog(args, report):
    report.add("name            expected              notes")
    for name in _catalog.names():
        entry = _catalog.get(name)
        expected = entry.expected or "-"
        report.add(f"{name:<15} {expected:<21} {entry.notes}")


# -- driver ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="possem",
        description="positivity of elliptic-system semigroups: decide, "
                    "certify, falsify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cells_help = "cells per dimension (default 8)"
    samples_help = "samples per axis of a witness's witness.csv (default 16)"

    def add_common(p, system=True, grid_help=None):
        p.add_argument("--out", default=os.environ.get("POSSEM_OUTDIR", "."),
                       help="output directory (default: POSSEM_OUTDIR or .)")
        p.add_argument("--json", action="store_true",
                       help="also write report.json")
        if system:
            p.add_argument("--seed", type=int, default=None,
                           help="seed of a seeded catalog generator")
            p.add_argument("--catalog", help="catalog system name")
            p.add_argument("--config", help="config file with a system definition")
            p.add_argument("--bc", choices=["dirichlet", "free"], default=None,
                           help="override the system boundary condition")
        if grid_help:
            p.add_argument("--grid", type=int, default=None, help=grid_help)

    p = sub.add_parser("check-elliptic", help="coercivity check")
    add_common(p)
    p.set_defaults(func=cmd_check_elliptic)

    p = sub.add_parser("assemble", help="assemble the discrete form")
    add_common(p, grid_help=cells_help)
    p.add_argument("--dump-config", action="store_true",
                   help="echo the system as a config file")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("positivity", help="scan the propagator for negative entries")
    add_common(p, grid_help=cells_help)
    p.add_argument("--times", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("decouple", help="run the positivity decision")
    add_common(p, grid_help=samples_help)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("probe", help="recover a symmetrized coefficient from the form")
    add_common(p)
    p.add_argument("--point", type=float, nargs="+", default=None)
    p.add_argument("--kl", type=int, nargs=2, default=None,
                   help="1-based gradient pair (default 1 1)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("witness", help="construct a non-positivity witness")
    add_common(p, grid_help=samples_help)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("analyze", help="multiplication-operator analysis at a point")
    add_common(p)
    p.add_argument("--point", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("selftest-tents", help="print tent interaction matrices")
    add_common(p, system=False)
    p.set_defaults(func=cmd_selftest_tents)

    p = sub.add_parser("catalog", help="list catalog systems")
    add_common(p, system=False)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.out, as_json=args.json)
    try:
        report.outdir.mkdir(parents=True, exist_ok=True)
        args.func(args, report)
        report.finish()
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except KeyError as exc:
        print(f"configuration error: {exc.args[0]}", file=_sys.stderr)
        return 2
    except (NumericalError, PossemError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
