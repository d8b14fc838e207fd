"""Per-layer tracing of u22lab from the outside.

The tracer wraps public functions and methods of the u22lab modules for
the duration of a traced run and restores them afterwards; the program
itself carries no tracing code.  Each wrapped callable belongs to a span
name such as ``groups.decompose``.  For every span name the tracer keeps

* ``calls``: outermost calls (a call made while a span of the same name is
  already open is part of that span and is not counted again);
* ``total_s``: wall time of those outermost calls;
* ``self_s``: ``total_s`` minus the time of other spans opened inside;
* ``units``: a work count taken from the arguments (samples drawn, points
  evaluated), where the span defines one.

Count-only spans (``matrices.frob``, called ~10^5 times per battery) only
bump ``calls`` so that their wrapper stays cheap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _points(fn_self, pts, *args, **kwargs):
    return pts.size


def _samples(sampler, n, *args, **kwargs):
    return n


# (module, attribute path) -> (span name, unit counter or None, timed?)
TARGETS = {
    ("u22lab.measures", "PolarShellSampler.sample"): ("measures.sample", _samples, True),
    ("u22lab.measures", "LogNormalSampler.sample"): ("measures.sample", _samples, True),
    ("u22lab.measures", "BoxSampler.sample"): ("measures.sample", _samples, True),
    ("u22lab.measures", "integrate_mc"): ("measures.integrate", None, True),
    ("u22lab.measures", "divergence_probe"): ("measures.probe", None, True),
    ("u22lab.representation", "GroupFunction.__call__"): ("representation.eval", _points, True),
    ("u22lab.representation", "CocycleVector.evaluate"): ("representation.eval", _points, True),
    ("u22lab.representation", "gram_matrix"): ("representation.gram", None, True),
    ("u22lab.groups", "iwasawa_decompose"): ("groups.decompose", None, True),
    ("u22lab.groups", "structured_p_factor"): ("groups.p_factor", None, True),
    ("u22lab.groups", "is_in_u22"): ("groups.membership", None, True),
    ("u22lab.groups", "random_s"): ("groups.random", None, True),
    ("u22lab.groups", "random_n"): ("groups.random", None, True),
    ("u22lab.groups", "random_q"): ("groups.random", None, True),
    ("u22lab.groups", "random_p"): ("groups.random", None, True),
    ("u22lab.groups", "random_k"): ("groups.random", None, True),
    ("u22lab.groups", "random_u22"): ("groups.random", None, True),
    ("u22lab.matrices", "frob"): ("matrices.frob", None, False),
    ("u22lab.matrices", "matrix_exp"): ("matrices.exp", None, True),
    ("u22lab.matrices", "matrix_to_json"): ("matrices.json", None, True),
    ("u22lab.matrices", "matrix_from_json"): ("matrices.json", None, True),
    ("u22lab.orbits", "classify_orbit"): ("orbits.classify", None, True),
    ("u22lab.orbits", "orbit_coordinates"): ("orbits.chart", None, True),
    ("u22lab.extension", "act_k"): ("extension.act_k", None, True),
    ("u22lab.extension", "extend_cocycle"): ("extension.extend", None, True),
    ("u22lab.lie", "real_span_rank"): ("lie.rank", None, True),
    ("u22lab.lie", "generated_subalgebra_dimension"): ("lie.rank", None, True),
    ("u22lab.rank1", "almost_invariant_check"): ("rank1.check", None, True),
}

SPAN_NAMES = sorted({span for span, _, _ in TARGETS.values()})


class Tracer:
    """Installs span wrappers on u22lab; use as a context manager."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.units = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.ops = []  # (name, start, end) of each top-level operation
        self._open = set()
        self._child_time = []  # one accumulator per open timed span
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn, unit):
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if unit is not None:
                self.units[name] += unit(*args, **kwargs)
            self._open.add(name)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                self._open.discard(name)
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if self._child_time:
                    self._child_time[-1] += elapsed

        return wrapper

    def op(self, name, fn):
        """Run one top-level benchmark operation, recording its span."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.ops.append((name, start, time.perf_counter()))

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "u22lab" or n.startswith("u22lab.")]
        for (modname, path), (name, unit, timed) in TARGETS.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = self._timed(name, original, unit) if timed else self._counted(name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            # functions imported by name elsewhere are rebound in every module
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "units": self.units[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in SPAN_NAMES
        }
