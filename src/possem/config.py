"""Flat key = value run configuration with coefficient tables.

Example::

    d = 2
    m = 2
    box = -4 4 -4 4
    bc = free
    mu = 3.5

    [coeff 1 1]
    kind = constant
    entry 1 1 = [6, 0]
    entry 2 2 = [6, 0]

    [coeff 1 2]
    kind = polynomial
    term 2 1 = 0 0 : [3, 4]

Complex numbers are written as ``[re, im]`` pairs; coefficient and channel
indices are 1-based in config files (the Python API is 0-based).  Polynomial
``term <i> <j>`` lines give one monomial per line as the d exponents followed
by the coefficient.
"""

from __future__ import annotations

import re

import numpy as np

from .coefficients import DEFAULT_MAX_TOTAL_DEGREE, ConstantField, EllipticSystem, PolynomialField
from .errors import ConfigError
from .polynomials import MultiPoly

_PAIR = re.compile(r"^\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]$")


def _parse_complex(text, line):
    m = _PAIR.match(text.strip())
    if not m:
        raise ConfigError(f"expected a [re, im] pair, got {text!r}", line)
    try:
        z = complex(float(m.group(1)), float(m.group(2)))
    except ValueError as exc:
        raise ConfigError(f"bad number in pair {text!r}", line) from exc
    if not np.isfinite(z):
        raise ConfigError(f"non-finite number in pair {text!r}", line)
    return z


def parse_config(text):
    """Parse config text into scalars plus per-(k, l) coefficient tables."""
    top = {}
    tables = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.match(r"^\[\s*coeff\s+(\d+)\s+(\d+)\s*\]$", line)
            if not m:
                raise ConfigError(f"bad section header {line!r}", lineno)
            key = (int(m.group(1)) - 1, int(m.group(2)) - 1)
            current = tables.setdefault(key, {"entries": [], "terms": [], "line": lineno})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            top[key] = (value, lineno)
            continue
        if key == "kind":
            current["kind"] = (value, lineno)
        elif key.startswith("entry"):
            m = re.match(r"^entry\s+(\d+)\s+(\d+)$", key)
            if not m:
                raise ConfigError(f"bad entry key {key!r}", lineno)
            current["entries"].append(
                (int(m.group(1)) - 1, int(m.group(2)) - 1,
                 _parse_complex(value, lineno), lineno))
        elif key.startswith("term"):
            m = re.match(r"^term\s+(\d+)\s+(\d+)$", key)
            if not m:
                raise ConfigError(f"bad term key {key!r}", lineno)
            if ":" not in value:
                raise ConfigError("term needs 'exponents : [re, im]'", lineno)
            exps_text, _, coef_text = value.partition(":")
            try:
                exps = tuple(int(tok) for tok in exps_text.split())
            except ValueError as exc:
                raise ConfigError(f"bad exponents {exps_text!r}", lineno) from exc
            current["terms"].append(
                (int(m.group(1)) - 1, int(m.group(2)) - 1, exps,
                 _parse_complex(coef_text, lineno), lineno))
        else:
            raise ConfigError(f"unknown coefficient key {key!r}", lineno)
    return top, tables


def _get_scalar(top, key, conv, required=True, default=None):
    if key not in top:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value, line = top[key]
    try:
        return conv(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}", line) from exc


def build_system(text):
    """Build an elliptic system (or resolve a catalog name) from config text.

    Returns ``(system, meta)`` where meta carries catalog name/seed when the
    config delegated to the catalog.
    """
    top, tables = parse_config(text)
    bc = _get_scalar(top, "bc", str, required=False, default="dirichlet")
    if bc not in ("dirichlet", "free"):
        raise ConfigError(f"bc must be 'dirichlet' or 'free', got {bc!r}", top["bc"][1])
    kind, keys = (("a catalog", ("catalog", "seed", "bc")) if "catalog" in top
                  else ("an inline", ("d", "m", "box", "bc", "mu")))
    for key, (value, key_line) in top.items():
        if key not in keys:
            raise ConfigError(f"{key} = {value} would be ignored: {kind} config takes "
                              f"only {', '.join(keys)}", key_line)
    if "catalog" in top:
        from . import catalog

        name, line = top["catalog"]
        if tables:
            (k, l), table = next(iter(tables.items()))
            raise ConfigError(f"[coeff {k + 1} {l + 1}] would be ignored: a catalog "
                              f"config takes no coefficient sections", table["line"])
        seed = _get_scalar(top, "seed", int, required=False)
        seeded = catalog.needs_seed(name)
        if seed is None and seeded:
            raise ConfigError(f"{name} is seeded: add 'seed = N' or use {name}(N)", line)
        if seed is not None and not seeded:
            raise ConfigError(
                f"seed = {seed} would be ignored: only a seeded catalog generator "
                f"named without (N), such as rand_coupled, takes it", top["seed"][1])
        kwargs = {} if seed is None else {"seed": seed}
        if "bc" in top:
            kwargs["bc"] = bc
        entry = catalog.get(name)
        return entry.build(**kwargs), {"catalog": name, "seed": seed}

    d = _get_scalar(top, "d", int)
    m = _get_scalar(top, "m", int)
    for key, n in (("d", d), ("m", m)):
        if n < 1:
            raise ConfigError(f"{key} must be at least 1, got {n}", top[key][1])
    box_text, box_line = top.get("box", (None, None))
    if box_text is None:
        raise ConfigError("missing required key 'box'")
    try:
        nums = [float(tok) for tok in box_text.split()]
    except ValueError as exc:
        raise ConfigError(f"bad box {box_text!r}", box_line) from exc
    if len(nums) != 2 * d:
        raise ConfigError(f"box needs {2 * d} numbers for d = {d}", box_line)
    box = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(d))
    mu = _get_scalar(top, "mu", float, required=False, default=0.0)
    if not np.isfinite(mu):
        raise ConfigError(f"mu must be finite, got {mu}", top["mu"][1])
    for (k, l), table in tables.items():
        if not (0 <= k < d and 0 <= l < d):
            raise ConfigError(f"coefficient ({k + 1}, {l + 1}) out of range for d = {d}",
                              table["line"])

    coeffs = []
    for k in range(d):
        row = []
        for l in range(d):
            table = tables.get((k, l))
            if table is None:
                row.append(ConstantField(np.zeros((m, m), dtype=complex)))
                continue
            kind, kind_line = table.get("kind", (None, table["line"]))
            if kind == "constant":
                if table["terms"]:
                    raise ConfigError("constant tables take 'entry' lines only",
                                      table["terms"][0][4])
                mat = np.zeros((m, m), dtype=complex)
                for i, j, val, line in table["entries"]:
                    if not (0 <= i < m and 0 <= j < m):
                        raise ConfigError(f"entry index ({i + 1}, {j + 1}) out of range", line)
                    mat[i, j] = val
                row.append(ConstantField(mat))
            elif kind == "polynomial":
                terms = {}
                for i, j, exps, coef, line in table["terms"]:
                    if not (0 <= i < m and 0 <= j < m):
                        raise ConfigError(f"term index ({i + 1}, {j + 1}) out of range", line)
                    if len(exps) != d or min(exps) < 0 or sum(exps) > DEFAULT_MAX_TOTAL_DEGREE:
                        raise ConfigError(f"need {d} exponents >= 0 of sum at most "
                                          f"{DEFAULT_MAX_TOTAL_DEGREE}", line)
                    terms.setdefault((i, j), []).append((exps, coef))
                zero = MultiPoly.constant(0.0, d)
                entries = tuple(
                    tuple(
                        MultiPoly.from_terms(terms[(i, j)], d) if (i, j) in terms else zero
                        for j in range(m))
                    for i in range(m))
                row.append(PolynomialField(entries, d))
            else:
                raise ConfigError(f"unknown coefficient kind {kind!r}", kind_line)
        coeffs.append(tuple(row))
    try:
        return EllipticSystem(box, m, tuple(coeffs), bc, mu), {}
    except ValueError as exc:
        raise ConfigError(str(exc), box_line) from exc


def dump_system(sys):
    """Emit config text that round-trips through build_system."""
    lines = [
        f"d = {sys.d}",
        f"m = {sys.m}",
        "box = " + " ".join(f"{v:.17g}" for ab in sys.box for v in ab),
        f"bc = {sys.bc}",
        f"mu = {sys.mu:.17g}",
    ]
    for k in range(sys.d):
        for l in range(sys.d):
            fld = sys.coefficient(k, l)
            if fld.is_zero():
                continue
            lines.append("")
            lines.append(f"[coeff {k + 1} {l + 1}]")
            if isinstance(fld, ConstantField):
                lines.append("kind = constant")
                for i in range(sys.m):
                    for j in range(sys.m):
                        v = fld.matrix[i, j]
                        if v != 0:
                            lines.append(
                                f"entry {i + 1} {j + 1} = "
                                f"[{v.real:.17g}, {v.imag:.17g}]")
            elif isinstance(fld, PolynomialField):
                lines.append("kind = polynomial")
                for i in range(sys.m):
                    for j in range(sys.m):
                        for exps, coef in sorted(fld.entry(i, j).terms()):
                            etxt = " ".join(str(e) for e in exps)
                            lines.append(
                                f"term {i + 1} {j + 1} = {etxt} : "
                                f"[{coef.real:.17g}, {coef.imag:.17g}]")
            else:
                raise ConfigError("grid-sampled fields are not expressible in config")
    return "\n".join(lines) + "\n"
