"""Shared JSON experiment configuration: defaults, validation, builders.

The defaults reproduce the shipped calibrated model. Unknown keys anywhere in
a user file are rejected so a typo cannot silently fall back to a default.
The device metadata block carries descriptive fabrication parameters only;
the behavioral simulation never reads it.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

from .array import ArrayGeometry, SenseConfig
from .attack import AttackVariant
from .cost import CostMode, CostTable, OpClass, OpCost
from .device import (
    DEFAULT_COLLAPSE_A,
    DEFAULT_COLLAPSE_B,
    DEFAULT_SIGMA,
    Collapse,
    CurrentLevelModel,
)
from .errors import ConfigError

DEFAULT_CONFIG: dict = {
    "device": {
        "single_levels": {"AP": 10.0, "P": 15.5},
        "pair_levels": {"AP,AP": 17.0, "AP,P": 20.2, "P,P": 22.7},
        "sigma": DEFAULT_SIGMA,
        "ambient_temp": 20.0,
        "collapse": {"a": DEFAULT_COLLAPSE_A, "b": DEFAULT_COLLAPSE_B},
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
    "array": {
        "banks": 1,
        "rows_per_bank": 64,
        "cols_per_row": 16,
        "i_ref_read": 12.75,
        "i_ref_or": 18.6,
        "i_ref_and": 21.45,
    },
    "cost": {
        "mode": "PerWord",
        "standard": {
            "Read1": [0.6, 8.611],
            "Read0": [0.6, 7.669],
            "Write1": [4.4, 233.3],
            "Write0": [3.3, 191.4],
        },
        "enhanced": {
            "Read1": [0.63, 22.69],
            "Read0": [0.67, 23.85],
            "Write1": [4.40, 244.64],
            "Write0": [3.30, 202.70],
            "CimNOT": [0.60, 22.20],
            "CimAND": [0.55, 22.30],
            "CimOR": [0.53, 22.90],
            "CimNAND": [0.45, 18.89],
            "CimNOR": [0.45, 21.00],
            "CimXOR": [0.53, 26.34],
            "CimADD": [0.53, 26.32],
        },
    },
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
        "sigma_energy": 1.0,
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

# every leaf a flag or a file sets and an experiment reads as a number, a
# count or a switch: (check, what the value must be)
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
    ("array", "banks"): _int_at_least(1),
    ("array", "rows_per_bank"): _int_at_least(1),
    ("array", "cols_per_row"): _int_at_least(1),
    ("array", "i_ref_read"): _NUMBER,
    ("array", "i_ref_or"): _NUMBER,
    ("array", "i_ref_and"): _NUMBER,
    ("array",): _increasing("i_ref_read", "i_ref_or", "i_ref_and"),
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
    ("attack", "credential_width"): _int_at_least(1),
    ("attack", "username"): _int_at_least(0),
    ("attack", "password"): _int_at_least(0),
    ("attack", "policy", "user"): _one_of(*POLICY_MODES),
    ("attack", "policy", "password"): _one_of(*POLICY_MODES),
    ("sca", "samples_per_class"): _int_at_least(1),
    ("sca", "sigma_duration"): _SIGMA,
    ("sca", "sweep_sigma_energy"): (
        lambda value: type(value) in (list, tuple) and all(map(_is_sigma, value)),
        "a list of finite numbers >= 0",
    ),
    ("mitigation", "zone_temp"): _NUMBER,
    **{
        ("mitigation", estimate, name): _NUMBER
        for estimate in ("shift_estimate", "collapse_estimate")
        for name in ("alpha", "beta", "gamma")
    },
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


def build_collapse(config: dict, zone_temp: float | None = None) -> Collapse:
    dev = config["device"]
    return Collapse(
        a=dev["collapse"]["a"],
        b=dev["collapse"]["b"],
        zone_temp=dev["ambient_temp"] if zone_temp is None else zone_temp,
    )


def build_sense(config: dict) -> SenseConfig:
    arr = config["array"]
    return SenseConfig(
        i_ref_read=arr["i_ref_read"],
        i_ref_or=arr["i_ref_or"],
        i_ref_and=arr["i_ref_and"],
    )


def build_geometry(config: dict) -> ArrayGeometry:
    arr = config["array"]
    return ArrayGeometry(
        banks=arr["banks"],
        rows_per_bank=arr["rows_per_bank"],
        cols_per_row=arr["cols_per_row"],
    )


def _cost_map(rows: dict) -> dict[OpClass, OpCost]:
    out = {}
    for name, pair in rows.items():
        try:
            kind = OpClass(name)
        except ValueError as exc:
            raise ConfigError(f"unknown cost-table operation: {name}") from exc
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"cost row {name} must be [delay_ns, energy_fj]")
        out[kind] = OpCost(float(pair[0]), float(pair[1]))
    return out


def build_cost_table(config: dict) -> CostTable:
    cost = config["cost"]
    try:
        mode = CostMode(cost["mode"])
    except ValueError as exc:
        raise ConfigError(f"unknown cost mode: {cost['mode']}") from exc
    return CostTable(
        standard=_cost_map(cost["standard"]),
        enhanced=_cost_map(cost["enhanced"]),
        mode=mode,
    )


def dump_cost_table(table: CostTable) -> dict:
    """Inverse of build_cost_table; defaults round-trip bit-exactly."""
    return {
        "mode": table.mode.value,
        "standard": {
            kind.value: [cost.delay_ns, cost.energy_fj]
            for kind, cost in table.standard.items()
        },
        "enhanced": {
            kind.value: [cost.delay_ns, cost.energy_fj]
            for kind, cost in table.enhanced.items()
        },
    }
