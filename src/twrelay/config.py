"""Experiment configuration: a flat key = value text format.

Unknown keys are errors.  The ``lambda`` key maps onto the ``lam``
attribute (a Python keyword cannot be a field name).  The base operating
point is given either as explicit powers (``p1``/``p2``) or as a symmetric
``snr_db`` = 10*log10(P/sigma2); supplying both is rejected.  dB-to-linear
conversion happens here, at the boundary; everything below works in linear
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ParameterError
from .methods import FAMILIES, METHODS
from .model import SystemParams, TargetRates, build_params, check_symmetric_powers

SWEEP_AXES = ("snr_db", "lambda", "r", "d1")


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

    def base_powers(self) -> tuple[float, float]:
        if self.p1 is not None:
            return float(self.p1), float(self.p2)
        p = self.sigma2 * 10.0 ** (self.snr_db / 10.0)
        return p, p

    def base_params(self) -> SystemParams:
        p1, p2 = self.base_powers()
        return build_params(
            p1, p2, self.sigma2, self.eta, self.lam, self.epsilon,
            self.d1, self.path_loss_exp,
        )

    def validate(self) -> None:
        if self.sweep not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}; got {self.sweep!r}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2; got {self.steps}")
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep range must be increasing; got start={self.start}, stop={self.stop}"
            )
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
        if self.t1 < 0 or self.t2 < 0:
            raise ConfigError(f"target rates must be >= 0; got ({self.t1}, {self.t2})")
        if self.mc_n < 1:
            raise ConfigError(f"mc_n must be >= 1; got {self.mc_n}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1; got {self.workers}")
        if (self.p1 is None) != (self.p2 is None):
            raise ConfigError("p1 and p2 must be given together")
        if not self.output_path:
            raise ConfigError("output_path must be set")
        # Each point check bounds one key by an interval, so a sweep whose two
        # ends resolve has every point in range.
        try:
            base = self.base_params()
            if family == "dmt":
                check_symmetric_powers([base])
            for end in (self.start, self.stop):
                resolve_point(self, end, family)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class SweepPoint:
    params: SystemParams
    targets: TargetRates
    r: float


def resolve_point(config: ExperimentConfig, value: float, family: str) -> SweepPoint:
    """Bind one value of ``config``'s sweep axis to its config key and return
    the point: its system parameters, its targets (for the ``dmt`` family
    set by r at the point's SNR P1/sigma2, else by t1 and t2) and its
    multiplexing gain r.  This is the one binding of a swept value, used by
    the sweep engine for every point and by ``validate`` for the two ends;
    a value outside its key's range raises ParameterError."""
    p1, p2 = config.base_powers()
    lam, d1, r = config.lam, config.d1, config.r
    if config.sweep == "snr_db":
        p1 = p2 = config.sigma2 * 10.0 ** (value / 10.0)
    elif config.sweep == "lambda":
        lam = value
    elif config.sweep == "d1":
        d1 = value
    elif config.sweep == "r":
        r = value
    if not 0.0 < r <= 2.0:
        raise ParameterError(f"r must lie in (0, 2]; got {r}")
    params = build_params(
        p1, p2, config.sigma2, config.eta, lam, config.epsilon, d1,
        config.path_loss_exp,
    )
    if family == "dmt":
        targets = TargetRates.from_multiplexing_gain(r, p1 / config.sigma2)
    else:
        targets = TargetRates.from_rates(config.t1, config.t2)
    return SweepPoint(params=params, targets=targets, r=r)


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


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; '#' starts a comment."""
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
    config = ExperimentConfig(**values)
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


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


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Functional update accepting config-file key names (e.g. 'lambda')."""
    mapped = {}
    for key, value in overrides.items():
        field = _KEY_TO_FIELD.get(key, key)
        mapped[field] = value
    updated = replace(config, **mapped)
    updated.validate()
    return updated
