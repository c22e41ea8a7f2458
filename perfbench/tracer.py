"""Per-module tracing of one suite pass, installed from outside the package.

Each traced public function is rebound in every ``waveop_lab`` module
that holds it by name (``integrate_adaptive`` sits in quadrature,
kernels, singular, experiments and specfun; ``eval_F`` in specfun,
kernels and resolvent), so calls made through imported names are
caught as well as calls through module attributes.  The checks are
wrapped through ``experiments.CHECKS`` and ``numpy.linalg.inv`` is
wrapped for the dense layer.

Every call is a span with a start, an end and a parent.  Per name the
tracer keeps calls, points (abscissae, array elements or items handed
to the call), inclusive seconds and self seconds: a span's duration
minus the part covered by its child spans.  Coarse spans (checks,
inversions, K3 sweeps, ...) are also kept in full and written out at
the end; the hot spans (quadrature, special functions, integrands)
number in the millions and are only aggregated.

The tracer assumes the suite runs serially (``threads = 0``, the
program default): span nesting is tracked on one stack.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

# spans kept in full; every other name is aggregated only
COARSE = {
    "potential.build_potential", "resolvent.expansion_terms", "resolvent.m_tilde",
    "resolvent.linalg_inv", "kernels.K3Evaluator.eval_pairs", "singular.schur_growth",
    "parallel.pmap",
}


def _size(x) -> int:
    return int(np.size(x))


class Stat:
    __slots__ = ("calls", "points", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps package functions, records spans and counts for one pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []          # (id, name, start, end, parent id)
        self._stack: list[list] = []          # [span id or None, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._thread = threading.get_ident()
        self.err_ratio_max = 0.0
        self.accuracy_errors = 0
        self.inv_gflop = 0.0
        self.inv_sizes: dict[int, int] = {}

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -------------------------------------------------------------- spans
    def _enter(self, keep: bool) -> float:
        if threading.get_ident() != self._thread:
            raise RuntimeError("the tracer supports serial runs only (threads = 0)")
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([span_id, 0.0])
        return time.perf_counter()

    def _exit(self, key: str, t0: float, points: int) -> None:
        t1 = time.perf_counter()
        span_id, child = self._stack.pop()
        dur = t1 - t0
        st = self.stat(key)
        st.calls += 1
        st.points += points
        st.s += dur
        st.self_s += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans.append((span_id, key, t0, t1, parent))

    def wrap(self, key: str, fn, points=None):
        """Traced version of ``fn``, recorded under ``key``.

        ``points(args, kwargs)`` counts the work handed to the call.
        """
        keep = key in COARSE or key.startswith("experiments.check.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = points(args, kwargs) if points else 0
            t0 = self._enter(keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, t0, n)

        return traced

    # ------------------------------------------------------------ binding
    def _rebind(self, original, wrapper, expect_in) -> None:
        """Put ``wrapper`` wherever a waveop_lab module holds ``original``."""
        found = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("waveop_lab"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found.add(mod_name.rsplit(".", 1)[-1])
        missing = set(expect_in) - found
        if missing:
            raise RuntimeError(f"{original.__name__} is not bound in {sorted(missing)}")

    def _set(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _traced_integrate_adaptive(self, ia):
        """integrate_adaptive with integrand time split off and err/tol kept."""
        from waveop_lab.errors import AccuracyError
        params = list(inspect.signature(ia).parameters.values())
        pos = {p.name: i - 1 for i, p in enumerate(params)}   # index in args after f
        default = {p.name: p.default for p in params}
        stat = self.stat("quadrature.integrate_adaptive")

        def arg(name, args, kwargs):
            if name in kwargs:
                return kwargs[name]
            i = pos[name]
            return args[i] if i < len(args) else default[name]

        @functools.wraps(ia)
        def traced(f, *args, **kwargs):

            def integrand(x):
                stat.points += _size(x)
                t0 = self._enter(False)
                try:
                    return f(x)
                finally:
                    self._exit("quadrature.integrand", t0, 0)

            t0 = self._enter(False)
            try:
                val, err = ia(integrand, *args, **kwargs)
            except AccuracyError:
                self.accuracy_errors += 1
                raise
            finally:
                self._exit("quadrature.integrate_adaptive", t0, 0)
            tol = max(arg("rel_tol", args, kwargs) * abs(val), arg("abs_tol", args, kwargs))
            if tol > 0:
                self.err_ratio_max = max(self.err_ratio_max, float(err) / tol)
            return val, err

        return traced

    def _inv_points(self, args, kwargs) -> int:
        """Count an inversion and its computed flops from the matrix size."""
        a = args[0] if args else kwargs["a"]
        n = int(np.shape(a)[-1])
        batch = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
        # LU plus inversion from the factors: 2 n^3 real flops; a complex
        # multiply-add costs 4 real ones
        scale = 4.0 if np.iscomplexobj(a) else 1.0
        self.inv_gflop += batch * 2.0 * n ** 3 * scale / 1e9
        self.inv_sizes[n] = self.inv_sizes.get(n, 0) + batch
        return batch

    def install(self) -> None:
        from waveop_lab import (experiments, kernels, parallel, potential, quadrature,
                                resolvent, singular, specfun)

        ia = quadrature.integrate_adaptive
        self._rebind(ia, self._traced_integrate_adaptive(ia),
                     ("quadrature", "kernels", "singular", "experiments", "specfun"))
        self._rebind(specfun.eval_F,
                     self.wrap("specfun.eval_F", specfun.eval_F,
                               points=lambda a, k: _size(a[1] if len(a) > 1 else k["s"])),
                     ("specfun", "kernels", "resolvent"))

        for name in ("m_tilde", "expansion_terms"):
            fn = getattr(resolvent, name)
            self._rebind(fn, self.wrap(f"resolvent.{name}", fn), ("resolvent",))
        self._set(np.linalg, "inv",
                  self.wrap("resolvent.linalg_inv", np.linalg.inv, points=self._inv_points))
        self._set(kernels.K3Evaluator, "eval_pairs",
                  self.wrap("kernels.K3Evaluator.eval_pairs", kernels.K3Evaluator.eval_pairs,
                            points=lambda a, k: len(a[1])))

        # the factory is trivial; the batch callables it returns do the work
        factory = kernels.make_psi_batch

        @functools.wraps(factory)
        def make_psi_batch(*args, **kwargs):
            return self.wrap("kernels.make_psi_batch", factory(*args, **kwargs),
                             points=lambda a, k: _size(a[1]))

        self._rebind(factory, make_psi_batch, ("kernels",))

        self._rebind(singular.schur_growth,
                     self.wrap("singular.schur_growth", singular.schur_growth), ("singular",))
        self._rebind(potential.build_potential,
                     self.wrap("potential.build_potential", potential.build_potential),
                     ("potential", "experiments"))

        pmap = parallel.pmap
        traced_pmap = self.wrap("parallel.pmap", pmap, points=lambda a, k: len(a[1]))

        @functools.wraps(pmap)
        def listed_pmap(fn, items):
            return traced_pmap(fn, list(items))

        self._rebind(pmap, listed_pmap, ("parallel",))

        for name, fn in list(experiments.CHECKS.items()):
            self._restore.append((experiments.CHECKS, name, fn))
            experiments.CHECKS[name] = self.wrap(f"experiments.check.{name}", fn)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results
    def dump(self) -> dict:
        return {"stats": {k: {"calls": s.calls, "points": s.points, "s": s.s,
                              "self_s": s.self_s} for k, s in sorted(self.stats.items())},
                "quadrature_err_ratio_max": self.err_ratio_max,
                "quadrature_accuracy_errors": self.accuracy_errors,
                "linalg_inv_gflop": self.inv_gflop,
                "linalg_inv_sizes": {str(n): c for n, c in sorted(self.inv_sizes.items())},
                "spans": [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                          for i, n, a, b, p in self.spans]}
