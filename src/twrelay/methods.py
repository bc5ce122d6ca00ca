"""The sweep methods in one table: for each method name a config may list,
one evaluator per metric family it serves, and its CSV rows with how
``validate`` judges each.  An evaluator maps ``(config, points)`` to one
output tuple per point, each value a float or an ``mc.Estimate``, by one
batched call of an ``analytic.*`` or ``mc.*`` function over all points; a
failure is marked with the index of its first failing point
(``errors.failed_at``).  Methods that share an evaluator share its outputs,
each taking its rows from ``first`` on, so a sweep runs each closed form
once.  Evaluators look up ``analytic.*`` and ``mc.*`` when called, so a
function rebound there is the one that runs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import analytic, mc

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


def _one(family: str, judgment: str, evaluate: Callable, first: int = 0) -> Method:
    return Method({family: evaluate}, (("", judgment),), first)


def _params(points) -> list:
    return [p.params for p in points]


def _targets(points) -> list:
    return [p.targets for p in points]


def _column(values) -> list[tuple]:
    """One output tuple per point from a batch of one value per point."""
    return [(v,) for v in values]


def _outage_exact(c, points):
    return _column(analytic.outage_exact(_params(points), _targets(points)))


def _outage_bounds(c, points):
    return analytic.outage_bounds(_params(points), _targets(points))


METHODS: dict[str, Method] = {
    "mc": Method({
        "outage": lambda c, points: _column(mc.estimate_outage(
            _params(points), _targets(points), c.mc_n, c.seed, workers=c.workers)),
        "capacity": lambda c, points: _column(mc.estimate_capacity(
            _params(points), c.mc_n, c.seed, workers=c.workers)),
        "dmt": lambda c, points: _column(mc.estimate_diversity_fd(
            _params(points), [p.r for p in points], c.mc_n, c.seed, workers=c.workers)),
    }, (("", REFERENCE),)),
    "non_coop": Method({
        "outage": lambda c, points: _column(
            analytic.non_coop_outage(_params(points), _targets(points))),
        "capacity": lambda c, points: _column(analytic.non_coop_capacity(_params(points))),
    }, (("", REFERENCE),)),
    # Two names for the one exact outage, kept so existing configs still run.
    "exact_taylor": _one("outage", EXACT, _outage_exact),
    "exact_quadrature": _one("outage", EXACT, _outage_exact),
    # The bounds come as one (lower, upper) pair per point.
    "lower_bound": _one("outage", LOWER, _outage_bounds),
    "upper_bound": _one("outage", UPPER, _outage_bounds, first=1),
    "high_snr": _one("outage", REFERENCE, lambda c, points: _column(
        analytic.outage_high_snr(_params(points), _targets(points)))),
    "capacity_quadrature": _one("capacity", EXACT, lambda c, points: _column(
        analytic.capacity_quadrature(_params(points)))),
    "capacity_series": _one("capacity", EXACT, lambda c, points: _column(
        r.value for r in analytic.capacity_series(_params(points)))),
    # The bounds come as one (lower, tight_upper, loose_upper) triple per point.
    "capacity_bounds": Method(
        {"capacity": lambda c, points: analytic.capacity_bounds(_params(points))},
        ((":lower", LOWER), (":tight_upper", UPPER), (":loose_upper", UPPER)),
    ),
    "dmt": _one("dmt", EXACT, lambda c, points: _column(
        analytic.dmt(_params(points), [p.r for p in points]))),
}
