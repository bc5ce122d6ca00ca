"""The sweep methods in one table: for each method name a config may list,
one evaluator per metric family it serves, and its CSV rows with how
``validate`` judges each.  An evaluator maps ``(config, points)`` to one
output tuple per point, each value a float or an ``mc.Estimate``; a failure
at a point is marked with its index (``errors.failed_at``).  Methods that
share an evaluator share its outputs, each taking its rows from ``first`` on,
so a sweep evaluates each closed form once per point.  Evaluators look up
``analytic.*`` and ``mc.*`` when called, so a function rebound there is the
one that runs.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from typing import Callable, NamedTuple

from . import analytic, mc
from .errors import DomainError, NumericalError, failed_at

# How validate judges a row against Monte Carlo: within 3 standard errors
# (exact), at or below it (lower), at or above it (upper), or not at all.
EXACT, LOWER, UPPER, REFERENCE = "exact", "lower", "upper", "reference"


class Family(NamedTuple):
    noun: str  # names the metric in config errors
    maximise: bool  # lambda-star is the grid maximum of the metric, else the minimum


FAMILIES = {
    "outage": Family("outage-probability", False),
    "capacity": Family("ergodic-capacity", True),
    "dmt": Family("diversity-gain", True),
}


class Method(NamedTuple):
    evaluators: dict[str, Callable]  # metric family -> evaluator
    rows: tuple[tuple[str, str], ...]  # (suffix, judgment); a row is named method + suffix
    first: int = 0  # index of the first output this method's rows take

    @property
    def analytic(self) -> bool:
        """An analytic method serves one family; mc and non_coop serve several."""
        return len(self.evaluators) == 1


def _each(evaluate: Callable) -> Callable:
    """Batch an evaluator of ``(config, point)`` over the points of a sweep."""
    def batch(c, points):
        outputs = []
        for i, p in enumerate(points):
            try:
                outputs.append(evaluate(c, p))
            except (NumericalError, DomainError) as exc:
                raise failed_at(i, exc)
        return outputs
    return batch


def _one(family: str, judgment: str, evaluate: Callable, first: int = 0) -> Method:
    return Method({family: evaluate}, (("", judgment),), first)


_outage_exact = _each(lambda c, p: (analytic.outage_exact(p.params, p.targets),))
_outage_bounds = _each(lambda c, p: analytic.outage_bounds(p.params, p.targets))

METHODS: dict[str, Method] = {
    "mc": Method({
        "outage": lambda c, points: [(e,) for e in mc.estimate_outage(
            [p.params for p in points], [p.targets for p in points], c.mc_n,
            c.seed, workers=c.workers)],
        "capacity": lambda c, points: [(e,) for e in mc.estimate_capacity(
            [p.params for p in points], c.mc_n, c.seed, workers=c.workers)],
        "dmt": lambda c, points: [(e,) for e in mc.estimate_diversity_fd(
            [p.params for p in points], [p.r for p in points],
            [10.0 * math.log10(p.gamma) for p in points], n=c.mc_n, seed=c.seed,
            workers=c.workers)],
    }, (("", REFERENCE),)),
    "non_coop": Method({
        "outage": _each(lambda c, p: (analytic.non_coop_outage(p.params, p.targets),)),
        "capacity": _each(lambda c, p: (analytic.non_coop_capacity(p.params),)),
    }, (("", REFERENCE),)),
    # Two names for the one exact outage, kept so existing configs still run.
    "exact_taylor": _one("outage", EXACT, _outage_exact),
    "exact_quadrature": _one("outage", EXACT, _outage_exact),
    # The bounds come as one (lower, upper) pair per point.
    "lower_bound": _one("outage", LOWER, _outage_bounds),
    "upper_bound": _one("outage", UPPER, _outage_bounds, first=1),
    "high_snr": _one("outage", REFERENCE, _each(lambda c, p: (
        analytic.outage_high_snr(p.params, p.targets),))),
    "capacity_quadrature": _one("capacity", EXACT, _each(lambda c, p: (
        analytic.capacity_quadrature(p.params),))),
    "capacity_series": _one("capacity", EXACT, _each(lambda c, p: (
        analytic.capacity_series(p.params).value,))),
    # astuple gives CapacityBounds' fields in row order: lower, tight, loose.
    "capacity_bounds": Method(
        {"capacity": _each(lambda c, p: astuple(analytic.capacity_bounds(p.params)))},
        ((":lower", LOWER), (":tight_upper", UPPER), (":loose_upper", UPPER)),
    ),
    "dmt": _one("dmt", EXACT, _each(lambda c, p: (analytic.dmt(p.r, p.gamma, p.params),))),
}
