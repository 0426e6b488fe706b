"""In-memory spans around possem's public functions, installed from outside.

Each hooked function is replaced, at every name its callers look up, by a
wrapper that records a span (name, parent span, start, end).  Spans are
folded after every job into per-layer calls, total time and self time, where
self time is a span's duration minus the time its child spans cover.
Nothing under ``src/`` is changed; a hook whose target no longer exists is
reported as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter


def _ellipticity_points(args, kwargs, out):
    return {"points": len(out.per_point)}


def _witness_halvings(args, kwargs, out):
    # delta_max is the default first dilation: half the distance to the boundary
    box = args[0].box
    dist = min(min(x - a, b - x) for x, (a, b) in zip(out.x0, box))
    return {"halvings": math.log2(0.5 * dist / out.delta)}


def _assembly_size(args, kwargs, out):
    return {"ndof": out.ndof, "nnz": out.K.nnz}


def _expm_size(args, kwargs, out):
    n = out.shape[0]
    return {"n3": float(n) ** 3, "bytes": out.nbytes}


#: (module, qualified name, extra counters, function computing them) per
#: hooked function.  ``catalog.build`` is the ``build`` factory of the entries
#: ``catalog.get`` hands out.
HOOKS = (
    ("catalog", "build", (), None),
    ("coefficients", "check_ellipticity", ("points",), _ellipticity_points),
    ("coefficients", "EllipticSystem.block_matrix", (), None),
    ("coefficients", "EllipticSystem.bound", (), None),
    ("polynomials", "MultiPoly.__call__", (), None),
    ("polynomials", "MultiPoly.bound_on_box", (), None),
    ("multop", "is_multiplication", (), None),
    ("multop", "find_witness", (), None),
    ("tents", "build_test_pair", (), None),
    ("tents", "tensor_product_integral", (), None),
    ("assembly", "form_value", (), None),
    ("assembly", "assemble", ("ndof", "nnz"), _assembly_size),
    ("assembly", "directional_stiffness", (), None),
    ("decoupling", "probe", (), None),
    ("decoupling", "decide_decoupling", (), None),
    ("decoupling", "construct_witness", ("halvings",), _witness_halvings),
    ("decoupling", "extract_scalar_systems", (), None),
    ("semigroup", "GeneratorOperator.from_discrete_form", (), None),
    ("semigroup", "expm_dense", ("n3", "bytes"), _expm_size),
    ("semigroup", "positivity_scan", (), None),
    ("semigroup", "factorization_residual", (), None),
)

#: Extra counters that report the largest value seen instead of the sum.
MAX_EXTRAS = {"semigroup.expm_dense.bytes"}


class Tracer:
    """Span recorder; spans are kept until ``fold`` turns them into totals."""

    def __init__(self):
        self.enabled = False
        self._spans = []            # [name, parent index, start, end]
        self._open = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extras = defaultdict(float)

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._open[-1] if self._open else -1, perf_counter(), None]
            self._open.append(len(self._spans))
            self._spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._open.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, out).items():
                    full = f"{name}.{key}"
                    if full in MAX_EXTRAS:
                        self.extras[full] = max(self.extras[full], value)
                    else:
                        self.extras[full] += value
            return out

        return wrapper

    def fold(self):
        """Add the recorded spans to the per-layer totals and drop them."""
        covered = [0.0] * len(self._spans)
        for name, parent, start, end in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end), child in zip(self._spans, covered):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child
        self._spans.clear()

    def take(self):
        """Return and reset the folded totals."""
        self.fold()
        out = (dict(self.calls), dict(self.total_s), dict(self.self_s), dict(self.extras))
        for table in (self.calls, self.total_s, self.self_s, self.extras):
            table.clear()
        return out


def _rebind(modules, old, new):
    """Point every module-level name bound to ``old`` at ``new``."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(tracer):
    """Wrap every hook target of the loaded possem package; return the names
    of the hooks whose target does not exist."""
    modules = [m for name, m in sys.modules.items()
               if name == "possem" or name.startswith("possem.")]
    absent = []
    for module_name, qualname, _, extra in HOOKS:
        name = f"{module_name}.{qualname}"
        module = sys.modules.get(f"possem.{module_name}")
        if (module_name, qualname) == ("catalog", "build"):
            raw_get = getattr(module, "get", None)
            if raw_get is None:
                absent.append(name)
                continue

            def get(*args, _raw=raw_get, _name=name, **kwargs):
                entry = _raw(*args, **kwargs)
                return dataclasses.replace(entry, build=tracer.wrap(_name, entry.build))

            _rebind(modules, raw_get, functools.wraps(raw_get)(get))
            continue
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            absent.append(name)
            continue
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, extra)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, extra))
        else:
            _rebind(modules, raw, tracer.wrap(name, raw, extra))
    return absent
