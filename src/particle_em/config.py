"""Experiment configuration: key-value config files plus command-line overrides.

Config files hold one ``key = value`` pair per line; blank lines and lines
starting with '#' are ignored. Command-line flags override file values.
Unknown keys are rejected so typos fail loudly, and validation reports every
violation of the config at once. The model and data parameters are checked
where they are used, so the CLI reports them when it builds the model: after
the data file is read, before any step runs or any file is written.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Mapping

from .algorithms import RunConfig, RunOptions, _is_number, validate_run
from .data import content_lines
from .exceptions import ConfigError

logger = logging.getLogger(__name__)

MODELS = ("toy", "logreg", "network")
SWEEP_PARAMS = ("gamma", "particles")
#: the keys only the ``sweep`` command reads
SWEEP_KEYS = ("sweep_param", "sweep_values", "sweep_metric")

#: keys whose absence triggers a logged notice about the default being used
NOTICED_DEFAULTS = ("particles", "iters", "seed")
#: the keys that name a file or directory, or a file's basename
_PATH_KEYS = ("name", "output_dir", "data_path", "edgelist_path", "labels_path")
#: the network model's link_sign of each ``link_sign`` spelling
LINK_SIGNS = {"minus": -1.0, "plus": 1.0}


@dataclass(kw_only=True)
class ExperimentConfig(RunOptions):
    """Fully resolved settings for one experiment invocation, the optimizer's :class:`RunOptions` included."""

    model: str = ""
    algorithm: str = ""
    particles: int = 10
    iters: int = 500
    seed: int = 0
    run_index: int = 0
    output_dir: str = "runs"
    name: str = ""  # defaults to "<model>_<algorithm>"

    # sweep settings
    sweep_param: str | None = None
    sweep_values: list[float] = field(default_factory=list)
    sweep_metric: str | None = None

    # toy model
    toy_dim: int = 100
    theta_true: float = 1.0

    # logistic regression model
    data_path: str | None = None
    label_column: str = "label"
    positive_label: str = "1"
    test_fraction: float = 0.2
    prior_var: float = 5.0

    # network model
    edgelist_path: str | None = None
    labels_path: str | None = None
    embed_dim: int = 2
    prior_var_z: float = 1.0
    link_sign: str = "minus"  # 'minus': logit = theta - distance; 'plus': theta + distance

    def resolved_name(self) -> str:
        return self.name or f"{self.model}_{self.algorithm}"

    def run_config(self, **overrides) -> RunConfig:
        """The optimizer settings as a RunConfig; ``overrides`` (seed, metric_hooks, ...) win."""
        settings = {f.name: getattr(self, f.name) for f in fields(RunOptions)}
        return RunConfig(**{"n_particles": self.particles, "n_iters": self.iters, **settings, **overrides})


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


#: the parser of each annotation a config field has; ``X | None`` parses as X
_TYPE_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
                 "list[float]": lambda text: [float(v) for v in text.split(",") if v.strip()]}
#: what the parser of each annotation outside ``_RUN_KEYS`` gives, in words, then as a test of a value set
#: directly: the builtin types that pass at once, and the test of any other value (numpy scalars pass, a
#: bool is never a number). The config is checked on every parse, so the common values take no call.
_TYPE_CHECKS = {"int": ("an integer", (int,), lambda v: _is_number(v, numbers.Integral)),
                "float": ("a real number", (float, int), _is_number),
                "str": ("a str", (str,), lambda v: isinstance(v, str)),
                "list[float]": ("a list of real numbers", (), lambda v: isinstance(v, list) and (
                    {*map(type, v)} <= {float} or all(map(_is_number, v))))}
#: how each key's text becomes its value: the parser of its ExperimentConfig field's annotation
_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(ExperimentConfig)}
#: the keys validate_run checks, as the run's options, counts and seed, or as the algorithm
_RUN_KEYS = {f.name for f in fields(RunOptions)} | {"particles", "iters", "seed", "algorithm"}


def _typed_field(f) -> tuple:
    """(name, words, types that pass at once, test of any other value) of one field; None passes at once
    where the annotation allows it."""
    words, types, test = _TYPE_CHECKS[f.type.removesuffix(" | None")]
    if f.type.endswith(" | None"):
        types += (type(None),)
    return f.name, words, types, test


_TYPED_FIELDS = [_typed_field(f) for f in fields(ExperimentConfig) if f.name not in _RUN_KEYS]


def read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for line_no, text in content_lines(path):
        if "=" not in text:
            raise ConfigError([f"{path}: line {line_no}: expected 'key = value', got {text!r}"])
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def parse_config(path: str | None = None, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    """Build and validate a config from an optional file plus overrides.

    ``overrides`` win over file entries. Every value is read from its text by
    its key's parser, as a file line is: ``5`` and ``"5"`` are one override, and a
    list is given as ``"a,b"``. Raises :class:`ConfigError` listing every violation.
    """
    violations: list[str] = []
    raw: dict[str, object] = {}
    if path is not None:
        raw.update(read_config_file(path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    values: dict[str, object] = {}
    for key, value in raw.items():
        parse = _PARSERS.get(key)
        if parse is None:
            violations.append(f"unknown config key {key!r}")
            continue
        try:
            values[key] = parse(str(value).strip())
        except ValueError as err:
            violations.append(f"bad value for {key!r}: {err}")

    for key in NOTICED_DEFAULTS:
        # a sweep runs its grid values in place of the swept key, so its default never runs
        if key not in values and key != values.get("sweep_param"):
            logger.info("config key %r not given, using default %r", key, getattr(ExperimentConfig, key))

    config = ExperimentConfig(**values) if not violations else None
    if config is not None:
        violations.extend(validate(config))
    if violations:
        raise ConfigError(violations)
    return config


def _mistyped(config: ExperimentConfig) -> list[str]:
    """One problem per field outside ``_RUN_KEYS`` whose value is not of the type its key's parser gives."""
    problems = []
    for name, words, types, test in _TYPED_FIELDS:
        value = getattr(config, name)
        if type(value) not in types and not test(value):
            problems.append(f"{name} must be {words}, got {value!r}")
    return problems


def validate(config: ExperimentConfig) -> list[str]:
    """Return all constraint violations of a resolved config.

    Fields of the wrong type (possible only in a config built directly, not
    through :func:`parse_config`) are reported without the other checks,
    which read each field as the type its key's parser gives.
    """
    problems = _mistyped(config)
    if problems:
        return problems
    if config.model not in MODELS:
        problems.append(f"model must be one of {MODELS}, got {config.model!r}")
    # a sweep runs each grid value in place of the swept field, and the sweep checks below cover
    # every value, so a fixed valid value stands in for the field here
    stand_in = {"gamma": {"gamma": 1.0}, "particles": {"n_particles": 1}}.get(config.sweep_param, {})
    problems.extend(validate_run(config.algorithm, config.run_config(seed=config.seed, **stand_in)))
    if config.name in (".", "..") or any(sep and sep in config.name for sep in (os.sep, os.altsep)):
        problems.append(f"name must be a file basename, without a path, got {config.name!r}")
    for key in _PATH_KEYS:
        if "\0" in (getattr(config, key) or ""):
            problems.append(f"{key} must not contain a NUL byte, got {getattr(config, key)!r}")
    if config.run_index < 0:  # the run's seed stream; run_config does not carry it
        problems.append(f"run_index must be >= 0, got {config.run_index}")
    if config.link_sign not in LINK_SIGNS:
        problems.append(f"link_sign must be {' or '.join(map(repr, LINK_SIGNS))}, got {config.link_sign!r}")
    if config.sweep_param is not None:
        if config.sweep_param not in SWEEP_PARAMS:
            problems.append(f"sweep_param must be one of {SWEEP_PARAMS}, got {config.sweep_param!r}")
        bad = [v for v in config.sweep_values if not (math.isfinite(v) and v > 0)]
        if not config.sweep_values:
            problems.append("sweep_values must be a non-empty list when sweep_param is set")
        elif bad:
            problems.append(f"sweep_values must all be finite and positive, got {bad}")
        elif config.sweep_param == "particles" and any(v != int(v) for v in config.sweep_values):
            problems.append("sweep over particles requires integer values")
    required = {"logreg": "data_path", "network": "edgelist_path"}.get(config.model)
    if required and not getattr(config, required):
        problems.append(f"{config.model} model requires {required}")
    return problems
