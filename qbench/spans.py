"""Per-layer spans for the traced run, recorded from outside the engine.

`Tracer` swaps named public functions of qmorse for timing wrappers and puts
the originals back when its `with` block ends; the engine's source is never
edited.  Every span accumulates its call count, busy seconds and self seconds
(busy time minus the time spent in wrapped callees), plus the work counts its
`count` function reads off the arguments and the result.
"""

from __future__ import annotations

import functools
import time


def _products(args, out):
    """Work of one product: term pairs visited and terms produced."""
    return {"pairs": len(args[0]) * len(args[1]), "terms_out": len(out)}


def layer_targets():
    """(owner, attribute, span, count, when) for every wrapped layer entry.

    A function imported by name into another module is wrapped where the
    caller looks it up, so `bracket_i_hbar` is patched in both of its callers.
    """
    from qmorse import _kernel, algebra, flow, gevrey, normal_form, parser, spectrum
    from qmorse.series import ScalarSeries

    def is_series_product(args):
        return isinstance(args[1], ScalarSeries)

    return [
        (_kernel, "qmul", "kernel.qmul", _products, None),
        (ScalarSeries, "__mul__", "series.smul", _products, is_series_product),
        (ScalarSeries, "subs_series", "series.subs", None, None),
        (normal_form, "bracket_i_hbar", "algebra.bracket", None, None),
        (flow, "bracket_i_hbar", "algebra.bracket", None, None),
        (normal_form, "compose_scalar", "algebra.compose_scalar", None, None),
        (normal_form, "split_homological", "normal_form.split", None, None),
        (normal_form, "invert_series_z", "normal_form.reversion", None, None),
        (normal_form, "spectrum_closure", "normal_form.closure", None, None),
        (flow, "integrate_heisenberg", "flow.integrate", None, None),
        (spectrum, "rs_perturbation", "spectrum.rs", None, None),
        (spectrum, "apply_rho", "spectrum.apply_rho", None, None),
        (spectrum, "diagonalize", "spectrum.diag", None, None),
        (gevrey, "gevrey_report", "gevrey.report", None, None),
        (parser, "elaborate", "parser.elaborate", None, None),
    ]


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit."""

    def __init__(self, targets):
        self.targets = targets
        self.stats: dict[str, dict[str, float]] = {}
        self._saved = []
        self._stack: list[float] = []

    def __enter__(self):
        for owner, attr, span, count, when in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, count, when))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def _record(self, span):
        rec = self.stats.get(span)
        if rec is None:
            rec = self.stats[span] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return rec

    def _wrap(self, fn, span, count, when):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = self._record(span)
                rec["calls"] += 1
                rec["s"] += elapsed
                rec["self_s"] += elapsed - inner
            if count is not None:
                for key, value in count(args, out).items():
                    rec[key] = rec.get(key, 0) + value
            return out

        return wrapper
