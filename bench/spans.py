"""In-memory spans around calls into the package's public functions.

The tracer rebinds each target function, in every ``shadowcodes``
module that holds it, to a wrapper that records one span per call:
name, start, end, parent span and job id, plus counts taken at the same
boundary (evaluations, codewords, points, checks).  The original
bindings come back when the ``installed`` block ends, so untraced
passes run the package untouched.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _evals(args, kw, result):
    return {"evals": len(args[1].points)}


def _codewords(args, kw, result):
    return {"codewords": (1 << args[0].k) - 1}


def _irreducible(args, kw, result):
    return {"tested": 1, "accepted": int(bool(result))}


def _points(args, kw, result):
    return {"points": args[0].field.q}


def _checks(args, kw, result):
    return {"checks": result["checks"]}


# (module, function, counts at the boundary); the span is named
# "<module>.<function>", except the verify suites, named "verify.<suite>"
TARGETS = (
    ("poly", "is_irreducible", _irreducible),
    ("poly", "all_monic_irreducibles", None),
    ("poly", "enumerate_monic_irreducibles", None),
    ("shadow", "construct", None),
    ("shadow", "lambda_map", _evals),
    ("shadow", "to_descriptor", None),
    ("shadow", "from_descriptor", None),
    ("binary", "gf2_rank", None),
    ("binary", "exact_min_distance", _codewords),
    ("binary", "weight_distribution", _codewords),
    ("binary", "sampled_min_distance_upper", None),
    ("concat", "concat_generator", None),
    ("bounds", "fig3_rows", None),
    ("bounds", "gv_min_distance", None),
    ("bounds", "k0", None),
    ("weil", "count_zeros", _points),
    ("verify", "verify_weil", _checks),
    ("verify", "verify_theorem4", _checks),
    ("verify", "verify_theorem6", _checks),
    ("verify", "verify_theorem7", _checks),
    ("verify", "verify_section6", _checks),
)


def span_name(module: str, func: str) -> str:
    if module == "verify":
        return "verify." + func.removeprefix("verify_")
    return f"{module}.{func}"


class Tracer:
    """Spans are tuples (name, start, end, parent index, job id, counts),
    with start and end read from ``now``."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._found: list[tuple] | None = None
        self.job = None

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, counts) -> None:
        self._stack.pop()
        self.spans[idx] = (name, t0, self.now(), parent, self.job, counts)

    @contextmanager
    def span(self, name: str, job=None):
        """A span opened by the benchmark itself, around one job."""
        if job is not None:
            self.job = job
        idx, parent = self._open()
        t0 = self.now()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0, None)

    def wrap(self, name: str, fn, count):
        def traced(*args, **kw):
            idx, parent = self._open()
            t0 = self.now()
            counts = None
            try:
                result = fn(*args, **kw)
                if count is not None:
                    counts = count(args, kw, result)
                return result
            finally:
                self._close(idx, parent, name, t0, counts)

        traced.__wrapped__ = fn
        return traced

    def _bindings(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every place a
        loaded shadowcodes module binds a target function."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("shadowcodes")]
        found = []
        for mod_name, func, count in TARGETS:
            original = getattr(sys.modules[f"shadowcodes.{mod_name}"], func)
            wrapper = self.wrap(span_name(mod_name, func), original, count)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        found.append((mod, attr, original, wrapper))
        return found

    @contextmanager
    def installed(self):
        """Rebind every target to its wrapper for the length of the block."""
        if self._found is None:
            self._found = self._bindings()
        for mod, attr, _, wrapper in self._found:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._found:
                setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
