"""Flat key = value run configuration.

One scalar per line, dotted keys for nesting, `#` comments, unknown keys
rejected.  A config names a preset (`scenarios.PRESETS`, itself a flat
config) and sets any subset of the keys; `build_scenario` lays the
config's keys over the preset's and builds the scenario from the merged
keys.  `canonical_config` flattens a scenario back to the complete key
set, so a dumped config re-runs identically.

The scalar keys are one table, `_SCALARS`, that building, the canonical
form and key validation all read.  The policy and loss-model identifiers
and their parameters are derived from the Layer*Policy and LossModel
unions: each class names itself with its `ident`, and its Record fields
(its annotated class attributes) are its parameters.

    scenario = loss_sweep
    seed = 7
    packets = 2500
    algorithm.layer3.k = 4.0
    loss.variant = bernoulli
    loss.p = 0.25
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Optional, get_args

from .estimators import Layer1Policy, Layer2Policy
from .scenarios import (
    CHAIN_DOWNSTREAM_RATES,
    LossModel,
    PRESETS,
    SCENARIO_NAMES,
    Scenario,
)
from .sim import LinkSpec, Topology
from .timeout import Layer3Policy, Layer4Policy, Layer5Policy
from .transport import RetransmitScope, TimeoutAlgorithm, TimerMode


class ConfigError(Exception):
    """Invalid key, value, or combination; the CLI maps this to exit 2."""


# int() and float() also take underscores and non-ASCII digits, which
# canonical_config never writes, so _as_int and _as_float refuse them

def _as_int(key: str, text: str) -> int:
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected an integer, got {text!r}")


def _as_float(key: str, text: str) -> float:
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected a number, got {text!r}")


def _as_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {text!r}")


def _as_float_or_none(key: str, text: str) -> Optional[float]:
    return None if text.lower() == "none" else _as_float(key, text)


def _as_member(enum: type[Enum]) -> Callable[[str, str], Enum]:
    members = {member.value: member for member in enum}

    def parse(key: str, text: str) -> Enum:
        if text not in members:
            raise ConfigError(f"{key}: expected one of "
                              f"{' '.join(sorted(members))}, got {text!r}")
        return members[text]
    return parse


#: scalar key -> (Scenario field, parser); `none` clears an optional field
_SCALARS: dict[str, tuple[str, Callable]] = {
    "seed": ("seed", _as_int),
    "packets": ("packet_count", _as_int),
    "horizon": ("horizon", _as_float_or_none),
    "window": ("window_size", _as_int),
    "true_rtt": ("true_rtt", _as_float),
    "initial_e": ("initial_mean", _as_float),
    "initial_v": ("initial_variance", _as_float),
    "timer_mode": ("timer_mode", _as_member(TimerMode)),
    "retransmit_scope": ("retransmit_scope", _as_member(RetransmitScope)),
    "copy_echo": ("copy_echo", _as_bool),
    "sample_floor": ("sample_floor", _as_float),
    "stop_estimate_above": ("stop_estimate_above", _as_float_or_none),
    "packet_size_bits": ("packet_size_bits", _as_int),
}


# -- policy registry -------------------------------------------------------
# identifier -> class, shared by config parsing and the CLI policy catalog;
# a class's Record fields are its parameters

#: converter for each parameter annotation; the policy modules postpone
#: annotations, so a Record's `_fields` hold their annotations as text
_CONVERTERS = {"int": _as_int, "float": _as_float,
               "Optional[float]": _as_float}

LAYER_POLICIES: dict[int, dict[str, type]] = {
    n: {cls.ident: cls for cls in get_args(union)} for n, union in enumerate(
        (Layer1Policy, Layer2Policy, Layer3Policy, Layer4Policy,
         Layer5Policy), start=1)
}
_LOSS_VARIANTS = {cls.ident: cls for cls in get_args(LossModel)}


def _describe(value) -> tuple[str, dict[str, object]]:
    """Inverse of the registry: (identifier, parameter values)."""
    return value.ident, {name: getattr(value, name) for name in value._fields
                         if getattr(value, name) is not None}


#: (identifier key, parameter key prefix, registry) of the five layers and
#: the loss model
_CHOICES = [(f"algorithm.layer{n}", f"algorithm.layer{n}.", registry)
            for n, registry in LAYER_POLICIES.items()] + \
    [("loss.variant", "loss.", _LOSS_VARIANTS)]

#: topology key -> parser; the keys set the ingress link's rate, every
#: link's propagation delay and the buffer capacity of the Tsao-Lee chain
_TOPOLOGY = {"topology.ingress_rate": _as_int,
             "topology.buffer_capacity": _as_int,
             "topology.propagation": _as_float}
_AXIS_KEYS = frozenset({"axis.param", "axis.values"})
_AXIS_SHORTHAND = {"p": "loss.p", "k": "algorithm.layer3.k"}
_KEYS = frozenset({"scenario", *_SCALARS, *_TOPOLOGY, *_AXIS_KEYS,
                   "loss.variant"} |
                  {f"loss.{param}" for cls in _LOSS_VARIANTS.values()
                   for param in cls._fields})


def _validate_key(key: str) -> None:
    if key in _KEYS:
        return
    parts = key.split(".")
    if parts[0] == "algorithm" and 2 <= len(parts) <= 3:
        layer = parts[1]
        if layer in ("layer1", "layer2", "layer3", "layer4", "layer5"):
            return
    raise ConfigError(f"unknown configuration key: {key}")


# -- parsing ---------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """The keys and values of a config text.  A key set on two lines is
    refused: only `--set` (apply_overrides) overrides a value."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        _validate_key(key)
        if key in lines:
            raise ConfigError(f"line {lineno}: {key} is already set on line "
                              f"{lines[key]}")
        lines[key] = lineno
        values[key] = value
    return values


def load_config(path: str) -> dict[str, str]:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # stay on the first key
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: byte "
                              f"{exc.object[exc.start]:#04x} at offset "
                              f"{exc.start}") from None
    return parse_config_text(text)


def apply_overrides(config: dict[str, str],
                    assignments: Iterable[str]) -> dict[str, str]:
    merged = dict(config)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override must look like key=value, "
                              f"got {assignment!r}")
        key, value = assignment.split("=", 1)
        key = key.strip()
        value = value.strip()
        _validate_key(key)
        merged[key] = value
    return merged


# -- scenario construction -------------------------------------------------

def _build(key: str, prefix: str, registry: dict[str, type], ident: str,
           params: dict[str, str]):
    """The object that `ident` names in the registry, with its parameters
    given as text; `key` is the identifier's config key and `prefix` that
    of its parameter keys."""
    if ident not in registry:
        raise ConfigError(f"{key}: unknown policy {ident!r} "
                          f"(choose from {' '.join(sorted(registry))})")
    cls = registry[ident]
    kwargs = {}
    for param, text in params.items():
        if param not in cls._fields:
            raise ConfigError(
                f"{prefix}{param}: not a parameter of {ident!r} "
                f"(has: {' '.join(sorted(cls._fields)) or 'none'})")
        kwargs[param] = _CONVERTERS[cls._fields[param]](prefix + param, text)
    missing = cls._fields.keys() - cls._defaults.keys() - kwargs.keys()
    if missing:
        raise ConfigError(f"{key} = {ident} needs " + " ".join(
            prefix + param for param in sorted(missing)))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key} ({ident}): {exc}") from None


def _topology_settings(topology: Topology) -> dict[str, object]:
    first = topology.links[0]
    return {"topology.ingress_rate": first.rate_bps,
            "topology.buffer_capacity": topology.buffer_capacity,
            "topology.propagation": first.propagation}


def _chain(settings: dict[str, str]) -> Topology:
    """The Tsao-Lee chain that the topology keys in `settings` describe."""
    ingress, capacity, propagation = (
        parse(key, settings[key]) for key, parse in _TOPOLOGY.items())
    try:
        return Topology(links=tuple(
            LinkSpec(rate, propagation)
            for rate in (ingress, *CHAIN_DOWNSTREAM_RATES)),
            buffer_capacity=capacity)
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from None


def build_scenario(config: dict[str, str]) -> Scenario:
    """The named preset with the config's keys laid over it.

    An identifier key that the config sets drops the preset's parameters
    under that identifier, so the choice starts from its class defaults.
    """
    for key in config:
        _validate_key(key)
    name = config.get("scenario")
    if name is None:
        raise ConfigError("missing required key: scenario")
    if name not in PRESETS:
        raise ConfigError(f"unknown scenario {name!r} "
                          f"(choose from {' '.join(SCENARIO_NAMES)})")
    preset = PRESETS[name]
    chosen = tuple(prefix for key, prefix, _ in _CHOICES if key in config)
    merged = {key: value for key, value in preset.items()
              if not key.startswith(chosen)}
    merged.update(config)

    fields = {field: parse(key, merged[key])
              for key, (field, parse) in _SCALARS.items() if key in merged}
    *layers, loss = (
        _build(key, prefix, registry, merged[key],
               {other[len(prefix):]: value for other, value in merged.items()
                if other.startswith(prefix) and other != key})
        for key, prefix, registry in _CHOICES)
    fields["algorithm"] = TimeoutAlgorithm(*layers)
    fields["loss"] = loss

    if _TOPOLOGY.keys() <= preset.keys():
        fields["topology"] = _chain(merged)
    elif _TOPOLOGY.keys() & config.keys():
        raise ConfigError(
            f"topology settings do not apply to scenario {name!r}")

    try:
        if "topology" in fields and "true_rtt" not in merged:
            fields["true_rtt"] = fields["topology"].unloaded_rtt(
                fields.get("packet_size_bits",
                           Scenario._defaults["packet_size_bits"]))
        return Scenario(name=name, **fields)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


# -- canonical form --------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def canonical_config(scenario: Scenario) -> dict[str, str]:
    """Complete flat key set; building from it reproduces the scenario.

    An unset optional field is written as `none` only where the scenario's
    preset sets it, so the preset's value does not come back on a rebuild.
    A scenario that no config rebuilds raises ValueError naming the field:
    its name is not a preset, or its topology is not the chain that its
    preset's topology keys, as written, describe.
    """
    if scenario.name not in PRESETS:
        raise ValueError(f"name: {scenario.name!r} is not a preset "
                         f"(choose from {' '.join(SCENARIO_NAMES)})")
    preset = PRESETS[scenario.name]
    config = {"scenario": scenario.name}
    for key, (field, _) in _SCALARS.items():
        value = getattr(scenario, field)
        if value is not None:
            config[key] = _format_value(value)
        elif key in preset:
            config[key] = "none"
    choices = [getattr(scenario.algorithm, f"layer{n}") for n in range(1, 6)]
    for (key, prefix, _), choice in zip(_CHOICES, choices + [scenario.loss]):
        ident, params = _describe(choice)
        config[key] = ident
        for param, value in params.items():
            config[prefix + param] = _format_value(value)
    if scenario.topology is not None:
        for key, value in _topology_settings(scenario.topology).items():
            config[key] = _format_value(value)
    rebuilt = None
    if _TOPOLOGY.keys() <= preset.keys():
        try:
            rebuilt = _chain({**preset, **config})
        except ConfigError:
            pass  # a written value that its key refuses rebuilds nothing
    if rebuilt != scenario.topology:
        raise ValueError(f"topology: the topology keys of {scenario.name!r} "
                         f"do not rebuild {scenario.topology}")
    return config


def dump_config(config: dict[str, str]) -> str:
    return "\n".join(f"{key} = {config[key]}" for key in sorted(config)) + "\n"


# -- sweep axis ------------------------------------------------------------

def resolve_axis(config: dict[str, str]) -> tuple[str, list[tuple[float, str]]]:
    """(config key, values) for the sweep axis; shorthands p and k accepted.

    Each value is a (numeric, raw text) pair: numeric for sorting and
    display, raw text so integer-valued keys round-trip unharmed.
    """
    if "axis.param" not in config:
        raise ConfigError("sweep needs axis.param (e.g. --set axis.param=p)")
    if "axis.values" not in config:
        raise ConfigError("sweep needs axis.values, a comma-separated list")
    param = config["axis.param"]
    key = _AXIS_SHORTHAND.get(param, param)
    try:
        _validate_key(key)
    except ConfigError:
        raise ConfigError(f"axis.param: unknown parameter {param!r}") from None
    if key in ("scenario", "timer_mode", "retransmit_scope", "loss.variant") \
            or key.startswith("axis.") \
            or (key.startswith("algorithm.") and key.count(".") == 1):
        raise ConfigError(f"axis.param: {param!r} is not numeric")
    values = []
    for piece in config["axis.values"].split(","):
        piece = piece.strip()
        if piece:
            values.append((_as_float("axis.values", piece), piece))
    if not values:
        raise ConfigError("axis.values: no values given")
    return key, values
