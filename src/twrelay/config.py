"""Experiment configuration: a flat key = value text format.

Unknown keys are errors.  The ``lambda`` key maps onto the ``lam``
attribute (a Python keyword cannot be a field name).  The base operating
point is given either as explicit powers (``p1``/``p2``) or as a symmetric
``snr_db`` = 10*log10(P/sigma2); supplying both is rejected, and so is an
``snr_db`` sweep with explicit powers.  dB-to-linear conversion happens
here, at the boundary; everything below works in linear scale.  A config is
a NamedTuple of its fields, validated when it is made, so none exists
invalid: ``plan`` checks it and binds the sweep's whole grid, once, into
the columns of one ``SystemParams``.  The config keeps that ``Plan``
(``config.plan``), and the sweep evaluates it.  Each sweep axis is named
once, in ``AXES``: the point fields it sets, the column it sets them to,
and its plot's x label.  ``parse_config_text`` is the one way a config
file, or a figure preset (``sweep.PRESETS``), becomes a config.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ParameterError, raise_first
from .methods import FAMILIES, METHODS
from .model import SystemParams, TargetRates, build_params, check_symmetric_powers, db_to_linear


def _snr_power(sigma2: float, snr_db: float) -> float:
    """The power P = sigma2 * 10^(snr_db/10) of an SNR given in dB
    (``model.db_to_linear``); one that is not a positive finite float raises
    ConfigError naming the values."""
    power = sigma2 * db_to_linear(snr_db)
    if not 0.0 < power < math.inf:
        raise ConfigError(
            f"snr_db = {snr_db:g} at sigma2 = {sigma2:g} gives power {power:g}; "
            "it must be a positive finite float"
        )
    return power


def _gains(values) -> np.ndarray:
    """The multiplexing gains ``values`` as a column; the first outside
    (0, 2] raises ParameterError."""
    gains = np.array(values)
    raise_first((~((0.0 < gains) & (gains <= 2.0)),
                 lambda i: ParameterError(f"r must lie in (0, 2]; got {gains[i]}")))
    return gains


#: What keeps a name on one line of a CSV comment or a report, escaped as in
#: a Python string literal; every other character is written as is.
ONE_LINE = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})


class Axis(NamedTuple):
    fields: tuple[str, ...]  # the point fields the axis sets
    column: Callable  # (config, values) -> the column it sets them to
    label: str  # the plot's x label


#: The sweep axes, by config name: an snr_db value sets p1 = p2 to its power.
AXES = {
    "snr_db": Axis(("p1", "p2"), lambda c, values: [_snr_power(c.sigma2, v) for v in values],
                   "SNR (dB)"),
    "lambda": Axis(("lam",), lambda c, values: values, "power splitting ratio"),
    "r": Axis(("r",), lambda c, values: _gains(values), "multiplexing gain"),
    "d1": Axis(("d1",), lambda c, values: values, "relay position"),
}


class Plan(NamedTuple):
    """A valid config's sweep: its metric family, the values of its axis
    and their labels, each written at the CSV's 12 significant digits and
    unique, which name the points wherever a point is named, and the
    points the values bind, as the columns of one ``SystemParams`` (a
    column per swept field), the targets (set by t1 and t2) and the
    multiplexing gain r, a float or, under an r sweep, a column, from which
    the dmt evaluators derive their own thresholds at each SNR they use."""

    family: str
    grid: list[float]
    labels: list[str]
    params: SystemParams
    targets: TargetRates
    r: object


class _Fields(NamedTuple):
    # Base operating point (§ defaults: midpoint relay, unit rates, eta=1).
    p1: float | None = None
    p2: float | None = None
    snr_db: float = 20.0
    sigma2: float = 1.0
    eta: float = 1.0
    lam: float = 0.75
    epsilon: float = 0.5
    d1: float = 0.5
    path_loss_exp: float = 3.0
    t1: float = 1.0
    t2: float = 1.0
    r: float = 0.5
    # Sweep definition.
    sweep: str = "snr_db"
    start: float = 0.0
    stop: float = 30.0
    steps: int = 7
    methods: tuple[str, ...] = ("mc", "exact_quadrature")
    mc_n: int = 1_000_000
    seed: int = 12345
    workers: int = 1
    output_path: str = "sweep.csv"


class ExperimentConfig(_Fields):
    """The fields of one experiment.  Making one, by name or by ``_make``
    and so ``_replace``, runs ``plan`` and keeps its Plan as ``plan``
    (a subclass, as ``typing.NamedTuple`` forbids ``__new__`` in its body)."""

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        config.plan = plan(config)
        return config

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def plan(config: ExperimentConfig) -> Plan:
    """Check ``config`` and bind its sweep: the one binding of swept values.
    The first fault raises ConfigError; a value out of its key's range
    raises it with the model's message."""
    if config.sweep not in AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(AXES)}; got {config.sweep!r}")
    if config.steps < 2:
        raise ConfigError(f"steps must be >= 2; got {config.steps}")
    if not (math.isfinite(config.start) and math.isfinite(config.stop)
            and config.start < config.stop):
        raise ConfigError(f"sweep range must be finite and increasing; "
                          f"got start={config.start}, stop={config.stop}")
    if not config.methods:
        raise ConfigError("methods must be nonempty")
    unknown = sorted(set(config.methods) - METHODS.keys())
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; valid: {sorted(METHODS)}")
    if len(set(config.methods)) != len(config.methods):
        raise ConfigError("methods contains duplicates")
    # the metric is inferred from the analytic methods; mc and non_coop serve several
    families = {f for m in config.methods if METHODS[m].analytic for f in METHODS[m].evaluators}
    if len(families) > 1:
        raise ConfigError(
            f"methods mix metric families {sorted(families)}; one sweep evaluates one metric"
        )
    family = families.pop() if families else "outage"
    for m in config.methods:
        if family not in METHODS[m].evaluators:
            raise ConfigError(f"{m} has no {FAMILIES[family].noun} interpretation")
    if config.sweep == "r" and family != "dmt":
        raise ConfigError("an r sweep only applies to the dmt metric")
    if config.mc_n < 1:
        raise ConfigError(f"mc_n must be >= 1; got {config.mc_n}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0; got {config.seed}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1; got {config.workers}")
    if (config.p1 is None) != (config.p2 is None):
        raise ConfigError("p1 and p2 must be given together")
    if config.sweep == "snr_db" and config.p1 is not None:
        raise ConfigError(
            "an snr_db sweep sets p1 = p2 from each axis value; "
            "give either the snr_db sweep or explicit p1/p2, not both"
        )
    if not config.output_path:
        raise ConfigError("output_path must be set")
    p1, p2 = ((_snr_power(config.sigma2, config.snr_db),) * 2 if config.p1 is None
              else (float(config.p1), float(config.p2)))
    grid = [float(v) for v in np.linspace(config.start, config.stop, config.steps)]
    # The base point, and the base r, are checked even where the axis
    # replaces their values; binding the grid checks every point.
    try:
        base = build_params(p1, p2, config.sigma2, config.eta, config.lam, config.epsilon,
                            config.d1, config.path_loss_exp)
        if family == "dmt":
            check_symmetric_powers(base)
        _gains([config.r])
        point = dict(p1=p1, p2=p2, lam=config.lam, d1=config.d1, r=config.r)
        axis = AXES[config.sweep]
        point.update(dict.fromkeys(axis.fields, axis.column(config, grid)))
        params = build_params(point["p1"], point["p2"], config.sigma2, config.eta, point["lam"],
                              config.epsilon, point["d1"], config.path_loss_exp)
        targets = TargetRates.from_rates(config.t1, config.t2)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    # a bound grid ascends, so values that the CSV writes alike are neighbours
    labels = [f"{v:.12g}" for v in grid]
    for label, after in zip(labels, labels[1:]):
        if label == after:
            raise ConfigError(f"{config.steps} steps from {config.start!r} to {config.stop!r} "
                              f"give the sweep value {label} twice at the CSV's 12 digits")
    return Plan(family, grid, labels, params, targets, point["r"])


#: The one config key that is not its field's name: a Python keyword cannot be one.
_FIELD_TO_KEY = {"lam": "lambda"}
_KEY_TO_FIELD = {_FIELD_TO_KEY.get(name, name): name for name in ExperimentConfig._fields}

#: How a value is read, by the type of its field's default (p1 and p2 default to None).
_PARSERS = {float: float, type(None): float, int: int, str: str,
            tuple: lambda value: tuple(m.strip() for m in value.split(",") if m.strip())}
_PARSE = {name: _PARSERS[type(default)]
          for name, default in ExperimentConfig._field_defaults.items()}


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """Parse the flat key = value format; '#' starts a comment.  ``overrides``
    are field values that replace the text's where not None."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'; got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        field = _KEY_TO_FIELD[key]
        try:
            values[field] = _PARSE[field](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r}") from exc
    if "snr_db" in seen and ("p1" in seen or "p2" in seen):
        raise ConfigError("give either snr_db or explicit p1/p2, not both")
    values.update((field, value) for field, value in overrides.items() if value is not None)
    return ExperimentConfig(**values)


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path!r}: not UTF-8 "
                          f"({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text, **overrides)


def canonical_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Deterministic (key, value) echo of a config, for CSV metadata.

    Execution-only knobs that must not influence results (worker count,
    output directory) are excluded so identical experiments emit identical
    bytes regardless of where and how parallel they ran.
    """
    out = []
    for name, value in config._asdict().items():
        if name == "workers" or value is None:
            continue
        key = _FIELD_TO_KEY.get(name, name)
        if name == "output_path":
            rendered = os.path.basename(str(value)).translate(ONE_LINE)
        elif isinstance(value, tuple):
            rendered = ",".join(value)
        elif isinstance(value, float):
            rendered = f"{value:.12g}"
        else:
            rendered = str(value)
        out.append((key, rendered))
    return sorted(out)

