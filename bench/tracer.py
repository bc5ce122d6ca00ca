"""Outside-in tracer: times the layers of ``twrelay`` by wrapping their
public functions, without changing the package.

Each traced function is looked up in the module that defines it, and the
one wrapper replaces it in every ``twrelay`` module namespace that holds it
(``sweep.capacity_series`` and ``analytic.capacity_series`` are the same
object, so both names route through the wrapper).  A stack of open spans
gives exact self time: a span's duration minus the durations of the traced
spans it encloses.  ``quad_adaptive`` also wraps the integrand it is given,
to count evaluations.  A traced name that does not exist is reported with 0
calls and a note; it never stops the run.
"""

from __future__ import annotations

import sys
import time

# (defining module, function name) of every traced function.
TRACED = (
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "validate_sweep"),
    ("analytic", "outage_exact"),
    ("analytic", "outage_bounds"),
    ("analytic", "outage_high_snr"),
    ("analytic", "capacity_quadrature"),
    ("analytic", "capacity_series"),
    ("analytic", "capacity_bounds"),
    ("analytic", "dmt"),
    ("numerics", "quad_adaptive"),
    ("specfun", "bessel_xk1"),
    ("specfun", "tricomi_psi"),
    ("mc", "estimate_outage"),
    ("mc", "estimate_capacity"),
    ("mc", "estimate_diversity_fd"),
)

PACKAGE = "twrelay"


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = {"quad_evals": 0, "series_terms": 0, "mc_samples": 0}
        self.notes: list[str] = []
        self._open: list[float] = []  # child time of each open span

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, func_name in TRACED:
            span = f"{module_name}.{func_name}"
            self.spans[span] = [0, 0.0, 0.0]
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.notes.append(f"{span} not found; reported as 0 calls")
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, span: str, fn):
        stats = self.spans[span]
        open_spans = self._open
        after = self._after.get(span)
        count_integrand = span == "numerics.quad_adaptive"

        def traced(*args, **kwargs):
            if count_integrand and args:
                args = (self._counted(args[0]),) + args[1:]
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(self, result)
            return result

        return traced

    def _counted(self, f):
        counts = self.counts

        def integrand(*args):
            counts["quad_evals"] += 1
            return f(*args)

        return integrand

    def _series_terms(self, result) -> None:
        terms = getattr(result, "terms_used", None)
        if terms is None:
            self._note_once("analytic.capacity_series result has no terms_used")
            return
        self.counts["series_terms"] += sum(terms) if isinstance(terms, tuple) else int(terms)

    def _mc_samples(self, result) -> None:
        n = getattr(result, "n", None)
        if n is None:
            self._note_once("mc estimate has no sample count n")
            return
        self.counts["mc_samples"] += int(n)

    def _note_once(self, note: str) -> None:
        if note not in self.notes:
            self.notes.append(note)

    _after = {
        "analytic.capacity_series": _series_terms,
        "mc.estimate_outage": _mc_samples,
        "mc.estimate_capacity": _mc_samples,
    }

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "notes": self.notes}
