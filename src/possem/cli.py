"""Command-line front end: configuration, pipelines, CSV and report output.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 for
configuration problems, 3 for numerical failures.  All CSV output uses a
header row and %.17g number formatting so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import catalog as _catalog
from .assembly import Grid, assemble, export_matrix_text
from .coefficients import check_ellipticity, default_ellipticity_points
from .config import build_system, dump_system
from .decoupling import (
    NonrealWitness,
    WitnessCertificate,
    decide_decoupling,
    probe_system,
)
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
    seeded = (not args.config and bool(name) and name.startswith("rand_")
              and "(" not in name)
    if args.seed is not None and not seeded:
        raise ConfigError(
            f"--seed {args.seed} would be ignored: only a seeded catalog "
            f"generator named without (N), such as rand_coupled, takes it")
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        sys_, meta = build_system(text)
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
    res = args.grid or 8
    return Grid(sys_.box, (res,) * sys_.d, sys_.bc)


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
    sys_, name = _load_system(args)
    grid = _grid_for(sys_, args)
    dform = assemble(sys_, grid)
    gen = GeneratorOperator.from_discrete_form(dform)
    times = tuple(args.times) if args.times else None
    rep = positivity_scan(gen, times=times)
    rows = []
    for t in rep.times:
        E = gen.propagator(t)
        re_min = float(E.real.min())
        im_max = float(np.abs(E.imag).max()) if np.iscomplexobj(E) else 0.0
        rows.append([_fmt(t), _fmt(re_min), _fmt(im_max)])
    write_csv(Path(args.out) / "positivity.csv",
              ["t", "min_entry_real", "max_entry_imag"], rows)
    report.add(f"system: {name} on {grid.n} cells ({grid.bc})")
    report.add(f"times: {', '.join(_fmt(t) for t in rep.times)}")
    report.add(f"minimum propagator entry (real part): {rep.min_entry:.12g}")
    report.add(f"max propagator entry imaginary part: {rep.max_imag_entry:.12g}")
    report.add(f"generator max positive off-diagonal: {rep.generator_offdiag_max:.12g}")
    report.add(f"verdict: {rep.verdict}")
    if rep.offender:
        t, val, i, j = rep.offender
        report.add(f"offender: t = {_fmt(t)}, entry ({i + 1}, {j + 1}) = {val:.12g}")
    report.record("verdict", rep.verdict)
    report.record("min_entry", rep.min_entry)


def cmd_decouple(args, report):
    sys_, name = _load_system(args)
    verdict = decide_decoupling(sys_)
    out = Path(args.out)
    report.add(f"system: {name}")
    report.add(f"decision tolerance: {verdict.tol:.6g}")
    if verdict.positive:
        report.add("verdict: POSITIVE-DECOUPLED")
        report.add(f"coefficient bound M = {verdict.diagnostics['bound']:.12g}; "
                   f"scalar bounds inherited: {verdict.diagnostics['scalar_bounds_ok']}; "
                   f"scalar coercivity inherited: {verdict.diagnostics['scalar_coercivity_ok']}")
        header = [f"x{i + 1}" for i in range(sys_.d)] + ["k", "l", "c"]
        for n, scalar in enumerate(verdict.scalar_systems):
            rows = []
            for x in verdict.probe_points:
                for k in range(sys_.d):
                    for l in range(sys_.d):
                        val = scalar.eval_coefficient(k, l, x)[0, 0].real
                        rows.append([_fmt(v) for v in x]
                                    + [str(k + 1), str(l + 1), _fmt(val)])
            write_csv(out / f"coefficients_{n + 1}.csv", header, rows)
        report.add(f"wrote {sys_.m} scalar coefficient tables "
                   f"over {len(verdict.probe_points)} probe points")
    else:
        report.add("verdict: NOT-POSITIVE")
        _report_witness(report, out, sys_, verdict.witness, args)
    report.record("decision", verdict.decision)


def _report_witness(report, out, sys_, wit, args):
    if isinstance(wit, WitnessCertificate):
        report.add(f"witness at x0 = {np.array2string(wit.x0, precision=6)}, "
                   f"gradient pair ({wit.ktilde + 1}, {wit.ltilde + 1})")
        report.add(f"channel vector f = e_{int(np.argmax(wit.f)) + 1}, "
                   f"set B = {{{', '.join(str(i + 1) for i in wit.mult_witness.B)}}}, "
                   f"pairing = {wit.mult_witness.pairing:.12g}")
        report.add(f"dilation delta = {_fmt(wit.delta)}")
        report.add(f"form value on the split pair: {wit.value:.12g} "
                   f"(threshold {wit.threshold:.12g})")
        res = args.grid or 16
        grid = np.linspace(wit.x0 - 1.5 * wit.delta, wit.x0 + 1.5 * wit.delta,
                           res + 1, axis=0)
        rows = []
        mesh = np.meshgrid(*[grid[:, i] for i in range(sys_.d)], indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh], axis=-1)
        phi_vals = wit.pair.phi(pts)
        psi_vals = wit.pair.psi(pts)
        one_b = wit.indicator
        for p, a, b in zip(pts, phi_vals, psi_vals):
            for ch in range(sys_.m):
                rows.append([_fmt(v) for v in p]
                            + [str(ch + 1), _fmt(a * wit.f[ch]), _fmt(b * one_b[ch])])
        header = [f"x{i + 1}" for i in range(sys_.d)] + ["channel", "u_plus", "u_minus"]
        write_csv(out / "witness.csv", header, rows)
        report.record("witness_value", wit.value)
    elif isinstance(wit, NonrealWitness):
        report.add(f"witness at x0 = {np.array2string(wit.x0, precision=6)}: "
                   f"the form takes the non-real value Im = {wit.value_imag:.12g} "
                   f"on real states (channels {wit.col + 1} -> {wit.row + 1})")
        report.record("witness_imag", wit.value_imag)


def cmd_probe(args, report):
    sys_, name = _load_system(args)
    x0 = np.asarray(args.point if args.point else
                    [(a + b) / 2 for a, b in sys_.box], dtype=float)
    kt, lt = (args.kl if args.kl else (1, 1))
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
    sys_, name = _load_system(args)
    verdict = decide_decoupling(sys_)
    report.add(f"system: {name}")
    if verdict.positive:
        report.add("verdict: POSITIVE-DECOUPLED; no witness exists")
        report.record("decision", verdict.decision)
        return
    report.add("verdict: NOT-POSITIVE")
    _report_witness(report, Path(args.out), sys_, verdict.witness, args)
    report.record("decision", verdict.decision)


def cmd_analyze(args, report):
    sys_, name = _load_system(args)
    x0 = np.asarray(args.point if args.point else
                    [(a + b) / 2 for a, b in sys_.box], dtype=float)
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

    def add_common(p, system=True, grid=False):
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
        if grid:
            p.add_argument("--grid", type=int, default=None,
                           help="cells per dimension (default 8)")

    p = sub.add_parser("check-elliptic", help="coercivity check")
    add_common(p)
    p.set_defaults(func=cmd_check_elliptic)

    p = sub.add_parser("assemble", help="assemble the discrete form")
    add_common(p, grid=True)
    p.add_argument("--dump-config", action="store_true",
                   help="echo the system as a config file")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("positivity", help="scan the propagator for negative entries")
    add_common(p, grid=True)
    p.add_argument("--times", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("decouple", help="run the positivity decision")
    add_common(p, grid=True)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("probe", help="recover a symmetrized coefficient from the form")
    add_common(p)
    p.add_argument("--point", type=float, nargs="+", default=None)
    p.add_argument("--kl", type=int, nargs=2, default=None,
                   help="1-based gradient pair (default 1 1)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("witness", help="construct a non-positivity witness")
    add_common(p, grid=True)
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
