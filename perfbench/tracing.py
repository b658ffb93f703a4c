"""Span recording around zetascope's public functions, for the traced run.

Each wrapper appends (layer, parent span, CPU start, CPU end, extra) to a
list kept in memory. A function is wrapped in every zetascope module
namespace that binds it by name, so a call that goes through
`zetascope.scan.log_zeta_derivs` is seen as well as one through
`zetascope.zeta_engine.log_zeta_derivs`. Self time is a span's CPU time
minus that of its child spans. `is_prime` is only counted, not spanned: it
runs hundreds of thousands of times per omega round.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

# (module, function, layer)
SPANNED = (
    ("zeta_engine", "zeta_array", "zeta_engine.zeta_array"),
    ("zeta_engine", "log_zeta_tracked", "zeta_engine.log_zeta_tracked"),
    ("zeta_engine", "log_zeta_derivs", "zeta_engine.log_zeta_derivs"),
    ("zeta_engine", "zeta_derivs", "zeta_engine.zeta_derivs"),
    ("scan", "scan_log_derivs", "scan"),
    ("scan", "scan_zeta_derivs", "scan"),
    ("scan", "refine_hit", "scan.refine_hit"),
    ("phases", "log_euler_deriv", "phases.log_euler_deriv"),
    ("omega", "construct_phases", "omega.construct_phases"),
    ("omega", "tail_constants", "omega.tail_constants"),
    ("omega", "solve_vandermonde", "omega.solve_vandermonde"),
    ("omega", "align_phases", "omega.align_phases"),
    ("primes", "build_blocks", "primes.build_blocks"),
    ("primes", "primes_up_to", "primes.primes_up_to"),
    ("universality", "run_universality", "universality.run_universality"),
    ("universality", "taylor_coeffs", "universality.taylor_coeffs"),
    ("universality", "boundary_max", "universality.boundary_max"),
    ("universality", "check_disk_approximation", "universality.check_disk_approximation"),
)

# layers with a self time: every spanned layer and PhaseAssignment's builds
_SELF_S = tuple(dict.fromkeys(layer for _, _, layer in SPANNED)) + ("phases.PhaseAssignment",)
_CALLS = (
    "zeta_engine.zeta_array", "zeta_engine.log_zeta_tracked", "zeta_engine.log_zeta_derivs",
    "zeta_engine.zeta_derivs", "scan.refine_hit", "omega.construct_phases",
    "omega.tail_constants", "primes.primes_up_to",
)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zetascope" or name.startswith("zetascope."))]


class Tracer:
    """Installs span-recording wrappers into a loaded zetascope; undone by uninstall()."""

    def __init__(self):
        self.spans = []      # [layer, parent index, cpu start, cpu end, extra]
        self.is_prime_calls = 0
        self._stack = []
        self._undo = []      # (namespace, attribute, original)

    # -- recording ----------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, self._stack[-1] if self._stack else -1,
                           time.process_time(), None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, extra=None) -> None:
        self.spans[idx][3] = time.process_time()
        self.spans[idx][4] = extra
        self._stack.pop()

    def _spanned(self, layer: str, fn):
        if layer == "zeta_engine.zeta_array":
            def wrapper(s, *args, **kwargs):
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                idx = self._open(layer)
                try:
                    return fn(s, *args, **kwargs)
                finally:
                    self._close(idx, (int(np.size(s)),
                                      resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
        elif layer == "scan":
            def wrapper(*args, **kwargs):
                idx = self._open(layer)
                extra = None
                try:
                    res = fn(*args, **kwargs)
                    extra = (res.n_grid, len(res.hits))
                    return res
                finally:
                    self._close(idx, extra)
        elif layer == "phases.log_euler_deriv":
            def wrapper(primes, *args, **kwargs):
                idx = self._open(layer)
                try:
                    return fn(primes, *args, **kwargs)
                finally:
                    self._close(idx, len(primes))
        else:
            def wrapper(*args, **kwargs):
                idx = self._open(layer)
                ok = False
                try:
                    res = fn(*args, **kwargs)
                    ok = True
                    return res
                finally:
                    self._close(idx, ok)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        pkg = sys.modules["zetascope"]
        for module, name, layer in SPANNED:
            fn = getattr(getattr(pkg, module), name)
            self._replace_everywhere(fn, self._spanned(layer, fn))

        is_prime = pkg.primes.is_prime

        def counted(n):
            self.is_prime_calls += 1
            return is_prime(n)

        self._replace_everywhere(is_prime, counted)

        cls = pkg.phases.PhaseAssignment
        init = cls.__init__

        def traced_init(obj, *args, **kwargs):
            idx = self._open("phases.PhaseAssignment")
            entries = None
            try:
                init(obj, *args, **kwargs)
                entries = len(obj)
            finally:
                self._close(idx, entries)

        cls.__init__ = traced_init
        self._undo.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    # -- aggregation --------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values over every span recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = {}, {}
        points = faults = grid = hits = entries = primes = attempts = built = 0
        for i, (layer, parent, t0, t1, extra) in enumerate(spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - child[i]
            if layer == "zeta_engine.zeta_array":
                points += extra[0]
                faults += extra[1]
            elif layer == "scan" and extra is not None:
                grid += extra[0]
                hits += extra[1]
            elif layer == "phases.PhaseAssignment" and extra is not None:
                entries += extra
            elif layer == "phases.log_euler_deriv":
                primes += extra
            elif layer == "omega.construct_phases" and extra:
                built += 1
            elif layer == "primes.build_blocks":
                up = parent
                while up >= 0 and spans[up][0] != "omega.construct_phases":
                    up = spans[up][1]
                attempts += up >= 0
        refined = calls.get("scan.refine_hit", 0)
        out = {f"{layer}.calls": calls.get(layer, 0) for layer in _CALLS}
        out.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in _SELF_S})
        out.update({
            "zeta_engine.zeta_array.points": points,
            "zeta_engine.zeta_array.minor_faults": faults,
            "scan.grid_points": grid,
            "scan.hit_yield": hits / refined if refined else 0.0,
            "phases.PhaseAssignment.builds": calls.get("phases.PhaseAssignment", 0),
            "phases.PhaseAssignment.entries": entries,
            "primes.is_prime.calls": self.is_prime_calls,
            "phases.log_euler_deriv.primes": primes,
            "omega.attempts": attempts,
            "omega.attempt_yield": built / attempts if attempts else 0.0,
        })
        return out

    def span_records(self) -> list:
        return [{"layer": layer, "parent": parent, "start": t0, "end": t1}
                for layer, parent, t0, t1, _ in self.spans]
