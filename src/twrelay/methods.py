"""The sweep methods in one table: for each method name a config may list,
one evaluator per metric family it serves, and its CSV rows with how
``validate`` judges each.  An evaluator maps ``(config, point)`` to one value
per row, a float or an ``mc.Estimate``; it looks up ``analytic.*`` and
``mc.*`` when called, so a function rebound there is the one that runs.
"""

from __future__ import annotations

import math
from dataclasses import astuple
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

    @property
    def analytic(self) -> bool:
        """An analytic method serves one family; mc and non_coop serve several."""
        return len(self.evaluators) == 1


def _one(family: str, judgment: str, evaluate: Callable) -> Method:
    return Method({family: evaluate}, (("", judgment),))


METHODS: dict[str, Method] = {
    "mc": Method({
        "outage": lambda c, p: (mc.estimate_outage(
            p.params, p.targets, c.mc_n, c.seed, workers=c.workers),),
        "capacity": lambda c, p: (mc.estimate_capacity(
            p.params, c.mc_n, c.seed, workers=c.workers),),
        "dmt": lambda c, p: (mc.estimate_diversity_fd(
            p.params, p.r, 10.0 * math.log10(p.gamma), n=c.mc_n, seed=c.seed,
            workers=c.workers),),
    }, (("", REFERENCE),)),
    "non_coop": Method({
        "outage": lambda c, p: (analytic.non_coop_outage(p.params, p.targets),),
        "capacity": lambda c, p: (analytic.non_coop_capacity(p.params),),
    }, (("", REFERENCE),)),
    # Two names for the one exact outage, kept so existing configs still run.
    "exact_taylor": _one("outage", EXACT, lambda c, p: (
        analytic.outage_exact(p.params, p.targets),)),
    "exact_quadrature": _one("outage", EXACT, lambda c, p: (
        analytic.outage_exact(p.params, p.targets),)),
    "lower_bound": _one("outage", LOWER, lambda c, p: (
        analytic.outage_bounds(p.params, p.targets)[0],)),
    "upper_bound": _one("outage", UPPER, lambda c, p: (
        analytic.outage_bounds(p.params, p.targets)[1],)),
    "high_snr": _one("outage", REFERENCE, lambda c, p: (
        analytic.outage_high_snr(p.params, p.targets),)),
    "capacity_quadrature": _one("capacity", EXACT, lambda c, p: (
        analytic.capacity_quadrature(p.params),)),
    "capacity_series": _one("capacity", EXACT, lambda c, p: (
        analytic.capacity_series(p.params).value,)),
    # astuple gives CapacityBounds' fields in row order: lower, tight, loose.
    "capacity_bounds": Method(
        {"capacity": lambda c, p: astuple(analytic.capacity_bounds(p.params))},
        ((":lower", LOWER), (":tight_upper", UPPER), (":loose_upper", UPPER)),
    ),
    "dmt": _one("dmt", EXACT, lambda c, p: (analytic.dmt(p.r, p.gamma, p.params),)),
}
