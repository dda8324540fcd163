"""Per-layer spans recorded from outside the program.

A layer is one module of the ``cfota`` package.  ``Tracer.install`` wraps
every public function and public method that a ``cfota`` module defines,
and rebinds the wrapper wherever the package holds the original (module
attributes, ``from x import y`` aliases, class attributes).  Each wrapper
times its call with ``perf_counter`` and keeps the span on a stack, so a
call's self time is its duration minus the durations of the wrapped calls
it made.  Spans are folded into per-function totals as they close; nothing
is written until the traced region ends.

The tracer assumes one thread: trace only a job run with ``threads=1``.
"""

from dataclasses import dataclass
import hashlib
import inspect
import time

import numpy as np

LAYERS = ("topology", "channel", "estimation", "aggregation", "fl_engine",
          "accounting", "rng", "runner")


@dataclass
class FnStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span stack plus hooks that read solver and round results."""

    def __init__(self, package):
        self.package = package
        self.stats = {}          # (layer, qualname) -> FnStat
        self.scoped_self = {}    # (layer, runner scope) -> self seconds
        self.top_level_s = 0.0
        self.wall_s = 0.0
        self.solves = []         # (kind, iterations, terminated_by, seconds, key)
        self.level3_builds = 0
        self.error_cov_bytes = 0
        self.round_errors = []   # OtaRoundResult.error_sq of channel rounds
        self._stack = []         # frames: [child seconds, runner scope]
        self._undo = []
        self._t0 = 0.0

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, layer, name):
        key = (layer, name)
        stat = self.stats.setdefault(key, FnStat())
        hook = _HOOKS.get(key)
        stack = self._stack
        scoped = self.scoped_self

        def traced(*args, **kwargs):
            scope = name if layer == "runner" else (stack[-1][1] if stack else "")
            frame = [0.0, scope]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = dt - frame[0]
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += own
                scoped[(layer, scope)] = scoped.get((layer, scope), 0.0) + own
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if hook is not None:
                hook(self, args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        owners = []  # (namespace object, attribute, original)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and _public(attr) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and _public(meth):
                            wrapped = self._wrap(fn, layer, f"{obj.__name__}.{meth}")
                            owners.append((obj, meth, fn))
                            setattr(obj, meth, wrapped)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    owners.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._undo = owners

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def __enter__(self):
        self.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._t0
        self.uninstall()
        return False

    # -- derived figures --------------------------------------------------

    def layer_self_s(self, layer):
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)

    def fn(self, layer, name):
        return self.stats.get((layer, name), FnStat())

    def matching(self, layer, predicate):
        """Sum of the stats of every function of a layer whose name matches."""
        out = FnStat()
        for (lay, name), s in self.stats.items():
            if lay == layer and predicate(name):
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
        return out

    @property
    def glue_s(self):
        """Traced wall time spent outside every layer span."""
        return self.wall_s - self.top_level_s


def _public(name):
    return not name.startswith("_")


def _problem_key(problem, kwargs):
    """Digest of what determines a solve's result (estimates, weights, budget)."""
    h = hashlib.blake2b(digest_size=16)
    w = problem.weights
    for arr in (problem.h_hat, problem.power_limit, w.gamma, w.omega, w.nu,
                w.theta_bar, np.diagonal(problem.error_cov, axis1=-2, axis2=-1)):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((problem.noise_power, sorted(kwargs.items()))).encode())
    return h.hexdigest()


def _solve_hook(kind):
    def hook(tracer, args, kwargs, result, dt):
        hist = result.history
        tracer.solves.append((kind, hist.iterations, hist.terminated_by, dt,
                              _problem_key(args[0], kwargs)))
    return hook


def _stack_hook(tracer, args, kwargs, result, dt):
    tracer.error_cov_bytes = max(tracer.error_cov_bytes, result[1].nbytes)


def _build_hook(tracer, args, kwargs, result, dt):
    tracer.level3_builds += 1


def _round_hook(tracer, args, kwargs, result, dt):
    if args[1].level != "errorfree":
        tracer.round_errors.append(np.asarray(result.error_sq, dtype=float))


_HOOKS = {
    ("aggregation", "alternating_optimize"): _solve_hook("level3"),
    ("aggregation", "cellular_optimize"): _solve_hook("cellular"),
    ("aggregation", "stack_for_cpu"): _stack_hook,
    ("runner", "level3_problem"): _build_hook,
    ("fl_engine", "ota_round"): _round_hook,
}
