"""Outside-in span tracer for the stabcert modules.

The package binds its helpers with ``from .x import f``, so one function
object lives under several module namespaces.  ``Tracer.install`` wraps
each traced function once and rebinds the wrapper in every ``stabcert.*``
namespace that holds the original object; patching only the defining
module would leave every cross-module call untraced.

Each span's self time is its duration minus the time covered by its
child spans.  Spans are aggregated in memory per name (calls, total,
self) and read out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped by the tracer, grouped by layer.
TRACED = {
    "lyapunov": ("solve_algebraic", "membership_margin", "certificate", "construct_q0",
                 "refute_stability"),
    "numkernel": ("expm", "hermitian_eig", "singular_extremes", "solve_linear"),
    "semigroup": ("certified_decay", "growth_bound_estimate", "lower_envelope",
                  "envelope_witness_search"),
    "resolvent": ("verify_bound_right", "verify_bound_left_strip", "export_scan_csv",
                  "resolvent_norm"),
    "space": ("op_norm", "dual_map_norm", "strong_positivity_theta"),
    "perturb": ("verify_perturbation", "max_alpha"),
    "models": ("build_model", "random_matrix", "random_hermitian", "random_vector"),
}

# Spans the benchmark opens itself around its two kinds of CLI call.
CLI_SPANS = ("cli.main", "cli.recheck")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns) + CLI_SPANS

_SCANS = ("resolvent.verify_bound_right", "resolvent.verify_bound_left_strip")
_DECOMPS = ("numkernel.hermitian_eig", "numkernel.singular_extremes")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregator plus the few counters the per-layer metrics need."""

    def __init__(self):
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self._stack = []  # [name, child_seconds] per open span
        self.singular_failures = 0
        self.expm_distinct = 0
        self._expm_keys = set()
        self.scan_points = 0
        self.margin_decomps = 0
        self._restore = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, frame, started):
        elapsed = time.perf_counter() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        stat = self.stats[frame[0]]
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - frame[1]

    @contextmanager
    def span(self, name):
        frame, started = self._enter(name)
        try:
            yield
        finally:
            self._leave(frame, started)

    def end_job(self):
        """Close the per-job distinct-(A, t) window of the expm counter."""
        self.expm_distinct += len(self._expm_keys)
        self._expm_keys.clear()

    # -- installation --------------------------------------------------
    def _wrap(self, name, fn, singular_error):
        import numpy as np  # only the child that installs the tracer needs numpy

        tracer = self

        def traced(*args, **kwargs):
            if name == "numkernel.expm":
                a = args[0] if args else kwargs["a"]
                t = args[1] if len(args) > 1 else kwargs["t"]
                matrix = np.ascontiguousarray(np.asarray(a, dtype=complex))
                tracer._expm_keys.add((hashlib.sha1(matrix.tobytes()).digest(), float(t)))
            elif name in _DECOMPS and any(
                f[0] == "lyapunov.membership_margin" for f in tracer._stack
            ):
                tracer.margin_decomps += 1
            frame, started = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except singular_error:
                if name == "numkernel.solve_linear":
                    tracer.singular_failures += 1
                raise
            finally:
                tracer._leave(frame, started)
            if name in _SCANS:
                tracer.scan_points += len(result.grid)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Rebind every traced function in every loaded stabcert namespace."""
        importlib.import_module("stabcert.cli")
        singular_error = importlib.import_module("stabcert.numkernel").SingularMatrixError
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "stabcert" or key.startswith("stabcert."))]
        for module, names in TRACED.items():
            home = importlib.import_module(f"stabcert.{module}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original, singular_error)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()
