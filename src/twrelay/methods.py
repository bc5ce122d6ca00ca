"""The sweep methods in one table: for each method name a config may list,
one evaluator per metric family it serves, and its CSV rows with how
``validate`` judges each.  An evaluator maps ``(config, params, targets,
r)``, a sweep's points as the columns of one ``SystemParams`` with their
targets and multiplexing gains, to the tuple of its outputs, by one batched
call of an ``analytic.*`` or ``mc.*`` function over all points.  An output
is a list of one float per point, or an ``mc.Estimate`` of such lists; a
failure is marked with the index of its first failing point
(``errors.failed_at``).  Methods that share an evaluator share its outputs,
each taking its rows from output ``first`` on, so a sweep runs each closed
form once.  Evaluators look up ``analytic.*`` and ``mc.*`` when called, so a
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


def _outage_exact(c, params, targets, r):
    return (analytic.outage_exact(params, targets),)


def _outage_bounds(c, params, targets, r):
    return analytic.outage_bounds(params, targets)


METHODS: dict[str, Method] = {
    "mc": Method({
        "outage": lambda c, params, targets, r: (mc.estimate_outage(
            params, targets, c.mc_n, c.seed, workers=c.workers),),
        "capacity": lambda c, params, targets, r: (mc.estimate_capacity(
            params, c.mc_n, c.seed, workers=c.workers),),
        "dmt": lambda c, params, targets, r: (mc.estimate_diversity_fd(
            params, r, c.mc_n, c.seed, workers=c.workers),),
    }, (("", REFERENCE),)),
    "non_coop": Method({
        "outage": lambda c, params, targets, r: (analytic.non_coop_outage(params, targets),),
        "capacity": lambda c, params, targets, r: (analytic.non_coop_capacity(params),),
    }, (("", REFERENCE),)),
    # Two names for the one exact outage, kept so existing configs still run.
    "exact_taylor": _one("outage", EXACT, _outage_exact),
    "exact_quadrature": _one("outage", EXACT, _outage_exact),
    # The bounds come as one pair of outputs, (lower, upper).
    "lower_bound": _one("outage", LOWER, _outage_bounds),
    "upper_bound": _one("outage", UPPER, _outage_bounds, first=1),
    "high_snr": _one("outage", REFERENCE, lambda c, params, targets, r: (
        analytic.outage_high_snr(params, targets),)),
    "capacity_quadrature": _one("capacity", EXACT, lambda c, params, targets, r: (
        analytic.capacity_quadrature(params),)),
    "capacity_series": _one("capacity", EXACT, lambda c, params, targets, r: (
        analytic.capacity_series(params).value,)),
    # The bounds come as three outputs, (lower, tight_upper, loose_upper).
    "capacity_bounds": Method(
        {"capacity": lambda c, params, targets, r: analytic.capacity_bounds(params)},
        ((":lower", LOWER), (":tight_upper", UPPER), (":loose_upper", UPPER)),
    ),
    "dmt": _one("dmt", EXACT, lambda c, params, targets, r: (analytic.dmt(params, r),)),
}
