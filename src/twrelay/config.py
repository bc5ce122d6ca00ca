"""Experiment configuration: a flat key = value text format.

Unknown keys are errors.  The ``lambda`` key maps onto the ``lam``
attribute (a Python keyword cannot be a field name).  The base operating
point is given either as explicit powers (``p1``/``p2``) or as a symmetric
``snr_db`` = 10*log10(P/sigma2); supplying both is rejected, and so is an
``snr_db`` sweep with explicit powers.  dB-to-linear conversion happens
here, at the boundary; everything below works in linear scale.  A config is
validated when it is made, so none exists invalid: validating resolves the
sweep's whole grid, once, into the columns of one ``SystemParams``, which
the config keeps (``grid``, ``points``) and the sweep evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, ParameterError, raise_first
from .methods import FAMILIES, METHODS
from .model import SystemParams, TargetRates, build_params, check_symmetric_powers, db_to_linear

SWEEP_AXES = ("snr_db", "lambda", "r", "d1")


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


@dataclass(frozen=True)
class ExperimentConfig:
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

    def __post_init__(self) -> None:
        self.validate()

    @property
    def metric_family(self) -> str:
        """outage / capacity / dmt, inferred from the analytic methods."""
        specs = [METHODS[m] for m in self.methods if m in METHODS]
        families = {f for spec in specs if spec.analytic for f in spec.evaluators}
        if len(families) > 1:
            raise ConfigError(
                f"methods mix metric families {sorted(families)}; "
                "one sweep evaluates one metric"
            )
        return families.pop() if families else "outage"

    # The parts of a point that no axis value changes are worked out once
    # per config; cached_property stores them past the frozen __setattr__.
    @cached_property
    def base_powers(self) -> tuple[float, float]:
        if self.p1 is not None:
            return float(self.p1), float(self.p2)
        p = _snr_power(self.sigma2, self.snr_db)
        return p, p

    @cached_property
    def targets(self) -> TargetRates:
        """The targets of every point, set by t1 and t2."""
        try:
            return TargetRates.from_rates(self.t1, self.t2)
        except OverflowError:  # of tau = 2^(2t) - 1
            raise ParameterError(
                f"target rates ({self.t1}, {self.t2}) give thresholds 2^(2t) - 1 "
                "past the float range"
            ) from None

    @cached_property
    def grid(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]

    @cached_property
    def points(self) -> tuple[SystemParams, TargetRates, object]:
        """The grid bound by ``resolve_points``, once, when validating."""
        return resolve_points(self, self.grid)

    def validate(self) -> None:
        if self.sweep not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}; got {self.sweep!r}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2; got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise ConfigError(f"sweep range must be finite and increasing; "
                              f"got start={self.start}, stop={self.stop}")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        unknown = sorted(set(self.methods) - METHODS.keys())
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; valid: {sorted(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods contains duplicates")
        family = self.metric_family
        for m in self.methods:
            if family not in METHODS[m].evaluators:
                raise ConfigError(f"{m} has no {FAMILIES[family].noun} interpretation")
        if self.sweep == "r" and family != "dmt":
            raise ConfigError("an r sweep only applies to the dmt metric")
        if self.mc_n < 1:
            raise ConfigError(f"mc_n must be >= 1; got {self.mc_n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0; got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1; got {self.workers}")
        if (self.p1 is None) != (self.p2 is None):
            raise ConfigError("p1 and p2 must be given together")
        if self.sweep == "snr_db" and self.p1 is not None:
            raise ConfigError(
                "an snr_db sweep sets p1 = p2 from each axis value; "
                "give either the snr_db sweep or explicit p1/p2, not both"
            )
        if not self.output_path:
            raise ConfigError("output_path must be set")
        # The base point is checked even where the axis replaces its value;
        # resolving the grid checks every point and the targets.
        try:
            base = build_params(*self.base_powers, self.sigma2, self.eta, self.lam,
                                self.epsilon, self.d1, self.path_loss_exp)
            if family == "dmt":
                check_symmetric_powers(base)
            self.points  # kept for the sweep
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc


def resolve_points(config: ExperimentConfig, values: list[float]):
    """Bind the ``values`` of ``config``'s sweep axis to its config key: the
    one binding of swept values, which gives a config its ``points``.
    Returns ``(params, targets, r)``: the system parameters, one column per
    swept field, the targets (set by t1 and t2) and the multiplexing gain r,
    from which the dmt evaluators derive their own thresholds at each SNR
    they use.  The first value outside its key's range raises ParameterError
    (ConfigError for a power out of range)."""
    r = np.array(values) if config.sweep == "r" else config.r
    # the base r is checked even where the axis replaces it
    gains = np.append(config.r, r)
    raise_first((~((0.0 < gains) & (gains <= 2.0)),
                 lambda i: ParameterError(f"r must lie in (0, 2]; got {gains[i]}")))
    p1, p2 = config.base_powers
    lam, d1 = config.lam, config.d1
    if config.sweep == "snr_db":
        p1 = p2 = [_snr_power(config.sigma2, value) for value in values]
    elif config.sweep == "lambda":
        lam = values
    elif config.sweep == "d1":
        d1 = values
    params = build_params(
        p1, p2, config.sigma2, config.eta, lam, config.epsilon, d1,
        config.path_loss_exp,
    )
    return params, config.targets, r


#: The one config key that is not its field's name: a Python keyword cannot be one.
_FIELD_TO_KEY = {"lam": "lambda"}
_KEY_TO_FIELD = {_FIELD_TO_KEY.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}

#: How a value is read, by the annotation of its field.
_PARSERS = {
    "float": float,
    "float | None": float,
    "int": int,
    "str": str,
    "tuple[str, ...]": lambda value: tuple(m.strip() for m in value.split(",") if m.strip()),
}
_PARSE = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


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
    return parse_config_text(text, **overrides)


def canonical_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Deterministic (key, value) echo of a config, for CSV metadata.

    Execution-only knobs that must not influence results (worker count,
    output directory) are excluded so identical experiments emit identical
    bytes regardless of where and how parallel they ran.
    """
    import os

    out = []
    for f in fields(ExperimentConfig):
        if f.name == "workers":
            continue
        key = _FIELD_TO_KEY.get(f.name, f.name)
        value = getattr(config, f.name)
        if value is None:
            continue
        if f.name == "output_path":
            rendered = os.path.basename(str(value))
        elif isinstance(value, tuple):
            rendered = ",".join(value)
        elif isinstance(value, float):
            rendered = f"{value:.12g}"
        else:
            rendered = str(value)
        out.append((key, rendered))
    return sorted(out)

