"""The sweep methods in one table: for each method name a config may list,
one evaluator per metric family it serves, and its CSV rows with how
``validate`` judges each.  An evaluator maps ``(config, points, r)`` to
the tuple of its outputs, by one batched call of an ``analytic.*`` or
``mc.*`` function over all points.  ``points`` is the sweep's one
``analytic.Shared``: its ``params``, the columns of one ``SystemParams``,
and their ``targets``, with the parts its family's closed forms share, which
each closed form reads from it; ``r`` is the multiplexing gain.  An output
is a list of one float per point, or an ``mc.Estimate`` of such lists.  An
Estimate, like every record of the package, is a NamedTuple, yet it is one
output: its evaluator returns it in a 1-tuple, and the sweep tells it from
a list by its type.  Each row of a method is one column of the sweep's
result (``sweep.Column``): an output's values, with an Estimate's standard
errors.  A failure is marked with the index of its first failing point
(``errors.failed_at``).  Methods that share an evaluator share its
outputs, each taking its rows from output ``first`` on, so a sweep runs
each closed form once.  Evaluators look up ``analytic.*`` and
``mc.*`` when called, so a function rebound there is the one that runs.
The metric families are one table too, ``FAMILIES``: how config errors
name each metric, whether lambda-star maximises it, and its plot's y label
and scale.
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
    label: str  # the plot's y label
    log_scale: bool  # the plot's y axis is logarithmic


FAMILIES = {
    "outage": Family("outage-probability", False, "outage probability", True),
    "capacity": Family("ergodic-capacity", True, "ergodic capacity (bit/s/Hz)", False),
    "dmt": Family("diversity-gain", True, "diversity gain", False),
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


def _outage_exact(c, points, r):
    return (analytic.outage_exact(points, points.targets),)


def _outage_bounds(c, points, r):
    return analytic.outage_bounds(points, points.targets)


METHODS: dict[str, Method] = {
    "mc": Method({
        "outage": lambda c, points, r: (mc.estimate_outage(
            points.params, points.targets, c.mc_n, c.seed, workers=c.workers),),
        "capacity": lambda c, points, r: (mc.estimate_capacity(
            points.params, c.mc_n, c.seed, workers=c.workers),),
        "dmt": lambda c, points, r: (mc.estimate_diversity_fd(
            points.params, r, c.mc_n, c.seed, workers=c.workers),),
    }, (("", REFERENCE),)),
    "non_coop": Method({
        "outage": lambda c, points, r: (analytic.non_coop_outage(points, points.targets),),
        "capacity": lambda c, points, r: (analytic.non_coop_capacity(points),),
    }, (("", REFERENCE),)),
    # Two names for the one exact outage, kept so existing configs still run.
    "exact_taylor": _one("outage", EXACT, _outage_exact),
    "exact_quadrature": _one("outage", EXACT, _outage_exact),
    # The bounds come as one pair of outputs, (lower, upper).
    "lower_bound": _one("outage", LOWER, _outage_bounds),
    "upper_bound": _one("outage", UPPER, _outage_bounds, first=1),
    "high_snr": _one("outage", REFERENCE, lambda c, points, r: (
        analytic.outage_high_snr(points, points.targets),)),
    "capacity_quadrature": _one("capacity", EXACT, lambda c, points, r: (
        analytic.capacity_quadrature(points),)),
    "capacity_series": _one("capacity", EXACT, lambda c, points, r: (
        analytic.capacity_series(points).value,)),
    # The bounds come as three outputs, (lower, tight_upper, loose_upper).
    "capacity_bounds": Method(
        {"capacity": lambda c, points, r: analytic.capacity_bounds(points)},
        ((":lower", LOWER), (":tight_upper", UPPER), (":loose_upper", UPPER)),
    ),
    "dmt": _one("dmt", EXACT, lambda c, points, r: (analytic.dmt(points.params, r),)),
}
