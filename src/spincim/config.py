"""Shared JSON experiment configuration: defaults, validation, builders.

The device, array and cost defaults, the credential width and the credential
policy are read off the model dataclasses (``CurrentLevelModel``,
``Collapse``, ``ArrayGeometry``, ``SenseConfig``, ``CostTable``, ``AuthDb``
and ``CredentialPolicy``), so each shipped value is written once, where the
model defines it; the calibration constants live in ``device.py``. The level
sections ``device.single_levels`` and ``device.pair_levels`` are the model's
two ladders keyed by state name, read in ladder order. Unknown keys
anywhere in a user file, or in the config a run is given, are rejected so a
typo cannot silently fall back to a default. One schema declares each leaf
once, with its default and its check; :func:`validate_run` checks every key.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

from .array import ArrayGeometry, SenseConfig
from .attack import AttackVariant, AuthDb, CredentialPolicy
from .cost import CostMode, CostTable
from .device import LADDERS, Collapse, CurrentLevelModel
from .errors import ConfigError

_MODEL = CurrentLevelModel()
_COSTS = CostTable().as_dict()


def _merge(base: dict, override: dict) -> dict:
    for key, value in override.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def finite_number(text: str, parse=float):
    """``parse(text)``, refusing NaN, infinities and literals beyond float range."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"must be a finite number, got {text}")
    return parse(text)


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_sigma(value) -> bool:
    return _is_number(value) and value >= 0


def _int_at_least(least: int):
    return (lambda value: type(value) is int and value >= least), f"an integer >= {least}"


def _one_of(*choices: str):
    return (lambda value: value in choices), "one of " + ", ".join(choices)


def _increasing(*names: str):
    return (
        lambda value: all(value[lo] < value[hi] for lo, hi in zip(names, names[1:])),
        "increasing: " + " < ".join(names),
    )


_NUMBER = (_is_number, "a finite number")
_SIGMA = (_is_sigma, "a finite number >= 0")
# the credential policies a config or a CLI flag may choose
POLICY_MODES = ("correct", "random")
_COST_ROW = (
    lambda value: type(value) in (list, tuple) and len(value) == 2
    and all(map(_is_sigma, value)),
    "two finite numbers >= 0",
)
_ORDERED = (
    lambda value: 0 < value["alpha"] < value["beta"] < value["gamma"],
    "ordered: 0 < alpha < beta < gamma",
)


def _leaves(defaults: dict, rule) -> dict:
    """Schema entries giving each of ``defaults`` the same rule."""
    return {key: (default, rule) for key, default in defaults.items()}


def _levels(levels: dict):
    """A section of finite-number levels that increase in their listed order."""
    return _leaves(levels, _NUMBER), _increasing(*levels)


# every config key once: a leaf is (default, (check, what it must be)); a
# section is (its entries, its relation or None), the relation checked once
# the section's own entries pass
_SCHEMA = {
    "device": ({
        **{key: _levels(dict(zip(names, getattr(_MODEL, key))))
           for key, names in LADDERS.items()},
        "sigma": (_MODEL.sigma, _SIGMA),
        "ambient_temp": (_MODEL.ambient_temp, _NUMBER),
        "collapse": (_leaves({"a": Collapse().a, "b": Collapse().b}, _NUMBER), None),
    }, None),
    "array": ({
        **_leaves(dataclasses.asdict(ArrayGeometry()), _int_at_least(1)),
        **_leaves(dataclasses.asdict(SenseConfig()), _NUMBER),
    }, _increasing(*(f.name for f in dataclasses.fields(SenseConfig)))),
    "cost": ({
        "mode": (_COSTS["mode"], _one_of(*(mode.value for mode in CostMode))),
        "standard": (_leaves(_COSTS["standard"], _COST_ROW), None),
        "enhanced": (_leaves(_COSTS["enhanced"], _COST_ROW), None),
    }, None),
    "attack": ({
        "variant": ("XnorLevel", _one_of(*(variant.value for variant in AttackVariant))),
        "zone_temp": (100.0, _NUMBER),
        "force_flip": (False, (lambda value: type(value) is bool, "true or false")),
        "credential_width": (AuthDb.width, (
            lambda value: type(value) is int and 1 <= value <= 64, "an integer from 1 to 64"
        )),
        "username": (0xA5A5, _int_at_least(0)),
        "password": (0x5AC3, _int_at_least(0)),
        "policy": (_leaves({
            "user": CredentialPolicy.user, "password": CredentialPolicy.password
        }, _one_of(*POLICY_MODES)), None),
    }, (
        lambda value: max(value["username"], value["password"]).bit_length()
        <= value["credential_width"],
        "username and password of at most credential_width bits",
    )),
    "sca": ({
        "sigma_duration": (0.05, _SIGMA),
        "sweep_sigma_energy": ([0.5, 1.0, 2.0, 5.0], (
            lambda value: type(value) in (list, tuple) and all(map(_is_sigma, value)),
            "a list of finite numbers >= 0",
        )),
        "samples_per_class": (10000, _int_at_least(1)),
    }, None),
    "mitigation": ({
        "shift_estimate": (
            _leaves({"alpha": 0.15, "beta": 0.2, "gamma": 0.25}, _NUMBER), _ORDERED
        ),
        "collapse_estimate": (
            _leaves({"alpha": 0.2, "beta": 0.4, "gamma": 0.6}, _NUMBER), _ORDERED
        ),
        "zone_temp": (100.0, _NUMBER),
    }, None),
    "seed": (20240, _int_at_least(0)),
    "trials": (10000, _int_at_least(1)),
    "threads": (1, _int_at_least(1)),
    "out_dir": ("results", (
        lambda value: type(value) is str and value != "", "a non-empty string"
    )),
}


def _defaults(schema: dict) -> dict:
    return {
        key: _defaults(default) if isinstance(default, dict) else default
        for key, (default, _) in schema.items()
    }


DEFAULT_CONFIG: dict = _defaults(_SCHEMA)


def _check(schema: dict, section, path: str = "") -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'the config'} must be an object, got {section!r}")
    for key in [*section, *schema]:   # an undeclared key first, then a missing one
        if key not in schema or key not in section:
            kind = "unknown" if key not in schema else "missing"
            raise ConfigError(f"{kind} configuration key: {path}{'.' if path else ''}{key}")
    for key, (default, rule) in schema.items():
        here = f"{path}.{key}" if path else key
        value = section[key]
        if isinstance(default, dict):
            _check(default, value, here)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{here} must be {rule[1]}, got {value!r}")


def validate_run(config: dict) -> dict:
    """``config``, once it has exactly the keys of ``_SCHEMA``, each leaf its type
    and range and each section, after its leaves, its relation."""
    _check(_SCHEMA, config)
    return config


def _unique_keys(pairs: list) -> dict:
    """One JSON object's pairs as a dict; ConfigError names a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ConfigError(f"config key {repeated!r} is repeated")
    return obj


def load_config(path: str | Path | None = None) -> dict:
    """Defaults overlaid with a JSON file, checked by ``validate_run``."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(
            text,
            parse_constant=finite_number,
            parse_float=finite_number,
            parse_int=lambda t: finite_number(t, int),
            object_pairs_hook=_unique_keys,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_run(_merge(config, data))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"

# runtime-only keys: they steer execution, never the experiment outcome
_UNHASHED_KEYS = ("threads", "out_dir")


def config_hash(config: dict) -> str:
    hashed = {k: v for k, v in config.items() if k not in _UNHASHED_KEYS}
    return hashlib.sha256(canonical_json(hashed).encode()).hexdigest()


def build_model(config: dict) -> CurrentLevelModel:
    dev = config["device"]
    return CurrentLevelModel(
        **{key: [dev[key][name] for name in names] for key, names in LADDERS.items()},
        sigma=dev["sigma"], ambient_temp=dev["ambient_temp"],
    )


def build_collapse(config: dict) -> Collapse:
    dev = config["device"]
    return Collapse(**dev["collapse"], zone_temp=dev["ambient_temp"])


def _from_fields(cls, section: dict):
    """``cls`` built from the keys of ``section`` that name its fields."""
    return cls(**{f.name: section[f.name] for f in dataclasses.fields(cls)})


def build_sense(config: dict) -> SenseConfig:
    return _from_fields(SenseConfig, config["array"])


def build_geometry(config: dict) -> ArrayGeometry:
    return _from_fields(ArrayGeometry, config["array"])


def build_cost_table(config: dict) -> CostTable:
    return CostTable.from_dict(config["cost"])
