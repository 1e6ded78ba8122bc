"""Shared JSON experiment configuration: defaults, validation, builders.

The device, array and cost defaults are read off the model dataclasses
(``CurrentLevelModel``, ``Collapse``, ``ArrayGeometry``, ``SenseConfig`` and
``CostTable``), so each shipped value is written once, where the model
defines it; the calibration constants live in ``device.py``. Unknown keys
anywhere in a user file are rejected so a typo cannot silently fall back to
a default, and :func:`validate_run` checks the type and range of every leaf
but the device metadata, a block of descriptive fabrication parameters that
the behavioral simulation never reads.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

from .array import ArrayGeometry, SenseConfig
from .attack import AttackVariant
from .cost import CostMode, CostTable
from .device import Collapse, CurrentLevelModel
from .errors import ConfigError

_MODEL = CurrentLevelModel()

DEFAULT_CONFIG: dict = {
    "device": {
        "single_levels": {state.value: level for state, level in _MODEL.single_levels.items()},
        "pair_levels": dict(_MODEL.pair_levels),
        "sigma": _MODEL.sigma,
        "ambient_temp": _MODEL.ambient_temp,
        "collapse": {"a": Collapse().a, "b": Collapse().b},
        "metadata": {
            "mtj_surface_length_nm": 40,
            "mtj_surface_width_nm": 40,
            "spin_hall_angle": 0.3,
            "resistance_area_product_ohm_m2": 1e-12,
            "oxide_barrier_thickness_nm": 0.82,
            "tmr_percent": 100,
            "saturation_field_a_per_m": 1e6,
            "gilbert_damping": 0.03,
            "perpendicular_anisotropy_a_per_m": 4.5e5,
            "temperature_k": 300,
        },
    },
    "array": {**dataclasses.asdict(ArrayGeometry()), **dataclasses.asdict(SenseConfig())},
    "cost": CostTable().as_dict(),
    "attack": {
        "variant": "XnorLevel",
        "zone_temp": 100.0,
        "force_flip": False,
        "credential_width": 16,
        "username": 0xA5A5,
        "password": 0x5AC3,
        "policy": {"user": "correct", "password": "random"},
    },
    "sca": {
        "sigma_duration": 0.05,
        "sweep_sigma_energy": [0.5, 1.0, 2.0, 5.0],
        "samples_per_class": 10000,
    },
    "mitigation": {
        "shift_estimate": {"alpha": 0.15, "beta": 0.2, "gamma": 0.25},
        "collapse_estimate": {"alpha": 0.2, "beta": 0.4, "gamma": 0.6},
        "zone_temp": 100.0,
    },
    "seed": 20240,
    "trials": 10000,
    "threads": 1,
    "out_dir": "results",
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            _merge(base[key], value, here)
        else:
            if isinstance(value, dict):
                raise ConfigError(f"{here} must not be an object")
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
_ESTIMATES = ("shift_estimate", "collapse_estimate")

# every leaf a flag or a file sets, outside the unread device metadata:
# (check, what the value must be); a section's check follows its leaves
_RUN_LEAVES = {
    ("seed",): _int_at_least(0),
    ("trials",): _int_at_least(1),
    ("threads",): _int_at_least(1),
    **{
        ("device", levels, name): _NUMBER
        for levels in ("single_levels", "pair_levels")
        for name in DEFAULT_CONFIG["device"][levels]
    },
    **{
        ("device", levels): _increasing(*DEFAULT_CONFIG["device"][levels])
        for levels in ("single_levels", "pair_levels")
    },
    ("device", "sigma"): _SIGMA,
    ("device", "ambient_temp"): _NUMBER,
    ("device", "collapse", "a"): _NUMBER,
    ("device", "collapse", "b"): _NUMBER,
    **{("array", f.name): _int_at_least(1) for f in dataclasses.fields(ArrayGeometry)},
    **{("array", f.name): _NUMBER for f in dataclasses.fields(SenseConfig)},
    ("array",): _increasing(*(f.name for f in dataclasses.fields(SenseConfig))),
    ("cost", "mode"): _one_of(*(mode.value for mode in CostMode)),
    **{
        ("cost", table, name): (
            lambda value: type(value) in (list, tuple) and len(value) == 2
            and all(map(_is_sigma, value)),
            "two finite numbers >= 0",
        )
        for table in ("standard", "enhanced")
        for name in DEFAULT_CONFIG["cost"][table]
    },
    ("attack", "variant"): _one_of(*(variant.value for variant in AttackVariant)),
    ("attack", "zone_temp"): _NUMBER,
    ("attack", "force_flip"): (lambda value: type(value) is bool, "true or false"),
    ("attack", "credential_width"): (
        lambda value: type(value) is int and 1 <= value <= 64, "an integer from 1 to 64"
    ),
    ("attack", "username"): _int_at_least(0),
    ("attack", "password"): _int_at_least(0),
    ("attack", "policy", "user"): _one_of(*POLICY_MODES),
    ("attack", "policy", "password"): _one_of(*POLICY_MODES),
    ("attack",): (
        lambda value: max(value["username"], value["password"]).bit_length()
        <= value["credential_width"],
        "username and password of at most credential_width bits",
    ),
    ("sca", "samples_per_class"): _int_at_least(1),
    ("sca", "sigma_duration"): _SIGMA,
    ("sca", "sweep_sigma_energy"): (
        lambda value: type(value) in (list, tuple) and all(map(_is_sigma, value)),
        "a list of finite numbers >= 0",
    ),
    ("mitigation", "zone_temp"): _NUMBER,
    **{
        ("mitigation", estimate, name): _NUMBER
        for estimate in _ESTIMATES
        for name in ("alpha", "beta", "gamma")
    },
    **{
        ("mitigation", estimate): (
            lambda value: 0 < value["alpha"] < value["beta"] < value["gamma"],
            "ordered: 0 < alpha < beta < gamma",
        )
        for estimate in _ESTIMATES
    },
    ("out_dir",): (lambda value: type(value) is str and value != "", "a non-empty string"),
}


def validate_run(config: dict) -> dict:
    """``config``, once every leaf of ``_RUN_LEAVES`` has its type and range."""
    for path, (check, want) in _RUN_LEAVES.items():
        value = config
        for key in path:
            value = value[key]
        if not check(value):
            raise ConfigError(f"{'.'.join(path)} must be {want}, got {value!r}")
    return config


def load_config(path: str | Path | None = None) -> dict:
    """Defaults overlaid with a JSON file; unknown keys are rejected."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(
            text,
            parse_constant=finite_number,
            parse_float=finite_number,
            parse_int=lambda t: finite_number(t, int),
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(config, data)


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
        mu_ap=dev["single_levels"]["AP"],
        mu_p=dev["single_levels"]["P"],
        mu_ap_ap=dev["pair_levels"]["AP,AP"],
        mu_ap_p=dev["pair_levels"]["AP,P"],
        mu_p_p=dev["pair_levels"]["P,P"],
        sigma=dev["sigma"],
        ambient_temp=dev["ambient_temp"],
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
