"""Flat key = value run configuration.

One scalar per line, dotted keys for nesting, `#` comments, unknown keys
rejected.  A config names a base scenario and overrides any subset of its
fields; `canonical_config` flattens a scenario back to the complete key
set, so a dumped config re-runs identically.

The policy and loss-model identifiers and their parameters are derived from
the Layer*Policy and LossModel unions: each class names itself with its
`ident`, and its dataclass fields are its parameters.

    scenario = loss_sweep
    seed = 7
    packets = 2500
    algorithm.layer3.k = 4.0
    loss.variant = bernoulli
    loss.p = 0.25
"""
from __future__ import annotations

from dataclasses import fields, replace
from typing import Callable, Optional, get_args, get_type_hints

from .estimators import Layer1Policy, Layer2Policy
from .scenarios import (
    LossModel,
    SCENARIO_NAMES,
    Scenario,
    named_scenario,
)
from .sim import LinkSpec, Topology
from .timeout import Layer3Policy, Layer4Policy, Layer5Policy
from .transport import RetransmitScope, TimeoutAlgorithm, TimerMode


class ConfigError(Exception):
    """Invalid key, value, or combination; the CLI maps this to exit 2."""


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _as_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _as_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {text!r}")


# -- policy registry -------------------------------------------------------
# identifier -> (factory, {parameter: converter}); shared by config parsing
# and the CLI policy catalog

Registry = dict[str, tuple[Callable, dict[str, Callable]]]

#: converter for each parameter annotation; the policy modules postpone
#: annotations, so a dataclass field holds its annotation as text
_CONVERTERS = {"int": _as_int, "float": _as_float,
               "Optional[float]": _as_float}


def _nested_field(cls) -> Optional[str]:
    """The field that holds another policy union, as IgnoreAndIncrease's
    scheme does, or None."""
    for f in fields(cls):
        if f.type not in _CONVERTERS:
            return f.name
    return None


def _wrap(cls, inner: Callable) -> Callable:
    return lambda **params: cls(inner(**params))


def _registry(union) -> Registry:
    """Every class in the union under its ident.  A class that holds a
    nested policy offers one `<ident>_<inner ident>` per member of the
    nested union, with the inner class's parameters."""
    registry: Registry = {}
    for cls in get_args(union):
        nested = _nested_field(cls)
        if nested is None:
            registry[cls.ident] = (cls, {f.name: _CONVERTERS[f.type]
                                         for f in fields(cls)})
            continue
        inner_union = get_type_hints(cls)[nested]
        for ident, (inner, params) in _registry(inner_union).items():
            registry[f"{cls.ident}_{ident}"] = (_wrap(cls, inner), params)
    return registry


LAYER_POLICIES: dict[int, Registry] = {
    n: _registry(union) for n, union in enumerate(
        (Layer1Policy, Layer2Policy, Layer3Policy, Layer4Policy,
         Layer5Policy), start=1)
}
_LOSS_VARIANTS = _registry(LossModel)


def _describe(value) -> tuple[str, dict[str, object]]:
    """Inverse of the registry: (identifier, parameter values)."""
    nested = _nested_field(type(value))
    if nested is not None:
        ident, params = _describe(getattr(value, nested))
        return f"{value.ident}_{ident}", params
    return value.ident, {f.name: getattr(value, f.name) for f in fields(value)
                         if getattr(value, f.name) is not None}


_SCALAR_KEYS = frozenset({
    "scenario", "seed", "packets", "horizon", "window", "true_rtt",
    "initial_e", "initial_v", "timer_mode", "retransmit_scope", "copy_echo",
    "sample_floor", "stop_estimate_above", "packet_size_bits",
})
_TOPOLOGY_KEYS = frozenset({"topology.ingress_rate",
                            "topology.buffer_capacity",
                            "topology.propagation"})
_AXIS_KEYS = frozenset({"axis.param", "axis.values"})
_AXIS_SHORTHAND = {"p": "loss.p", "k": "algorithm.layer3.k"}


def _validate_key(key: str) -> None:
    if key in _SCALAR_KEYS or key in _TOPOLOGY_KEYS or key in _AXIS_KEYS:
        return
    if key in ("loss.variant", "loss.p", "loss.i"):
        return
    parts = key.split(".")
    if parts[0] == "algorithm" and 2 <= len(parts) <= 3:
        layer = parts[1]
        if layer in ("layer1", "layer2", "layer3", "layer4", "layer5"):
            return
    raise ConfigError(f"unknown configuration key: {key}")


# -- parsing ---------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
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
        values[key] = value
    return values


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(config: dict[str, str],
                    assignments: tuple[str, ...]) -> dict[str, str]:
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

def _build_policy(layer: int, ident: str, params: dict[str, str]):
    registry = LAYER_POLICIES[layer]
    if ident not in registry:
        raise ConfigError(
            f"algorithm.layer{layer}: unknown policy {ident!r} "
            f"(choose from {' '.join(sorted(registry))})")
    factory, converters = registry[ident]
    kwargs = {}
    for param, text in params.items():
        if param not in converters:
            raise ConfigError(
                f"algorithm.layer{layer}.{param}: not a parameter of "
                f"{ident!r} (has: {' '.join(sorted(converters)) or 'none'})")
        kwargs[param] = converters[param](f"algorithm.layer{layer}.{param}",
                                          text)
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"algorithm.layer{layer} ({ident}): {exc}") from None


def _update_policy(layer: int, policy, params: dict[str, str]):
    """Parameter keys without an identifier tweak the scenario's policy."""
    ident, existing = _describe(policy)
    merged = {param: str(value) for param, value in existing.items()}
    merged.update(params)
    return _build_policy(layer, ident, merged)


def _build_loss(ident: str, params: dict[str, str]):
    if ident not in _LOSS_VARIANTS:
        raise ConfigError(f"loss.variant: unknown variant {ident!r} "
                          f"(choose from {' '.join(sorted(_LOSS_VARIANTS))})")
    cls, converters = _LOSS_VARIANTS[ident]
    kwargs = {}
    for param, text in params.items():
        if param not in converters:
            raise ConfigError(f"loss.{param}: not a parameter of {ident!r}")
        kwargs[param] = converters[param](f"loss.{param}", text)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"loss ({ident}): {exc}") from None


_TIMER_MODES = {mode.value: mode for mode in TimerMode}
_SCOPES = {scope.value: scope for scope in RetransmitScope}


def build_scenario(config: dict[str, str]) -> Scenario:
    """Named base scenario with every configured field overridden."""
    for key in config:
        if key not in _AXIS_KEYS:
            _validate_key(key)
    name = config.get("scenario")
    if name is None:
        raise ConfigError("missing required key: scenario")
    seed = _as_int("seed", config.get("seed", "1"))
    try:
        scenario = named_scenario(name, seed=seed)
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r} "
            f"(choose from {' '.join(SCENARIO_NAMES)})") from None

    updates: dict[str, object] = {}
    if "packets" in config:
        updates["packet_count"] = _as_int("packets", config["packets"])
    if "horizon" in config:
        updates["horizon"] = _as_float("horizon", config["horizon"])
    if "window" in config:
        updates["window_size"] = _as_int("window", config["window"])
    if "initial_e" in config:
        updates["initial_mean"] = _as_float("initial_e", config["initial_e"])
    if "initial_v" in config:
        updates["initial_variance"] = _as_float("initial_v",
                                                config["initial_v"])
    if "sample_floor" in config:
        updates["sample_floor"] = _as_float("sample_floor",
                                            config["sample_floor"])
    if "stop_estimate_above" in config:
        text = config["stop_estimate_above"]
        updates["stop_estimate_above"] = (
            None if text.lower() == "none"
            else _as_float("stop_estimate_above", text))
    if "packet_size_bits" in config:
        updates["packet_size_bits"] = _as_int("packet_size_bits",
                                              config["packet_size_bits"])
    if "timer_mode" in config:
        text = config["timer_mode"]
        if text not in _TIMER_MODES:
            raise ConfigError(f"timer_mode: expected one of "
                              f"{' '.join(sorted(_TIMER_MODES))}, got {text!r}")
        updates["timer_mode"] = _TIMER_MODES[text]
    if "retransmit_scope" in config:
        text = config["retransmit_scope"]
        if text not in _SCOPES:
            raise ConfigError(f"retransmit_scope: expected one of "
                              f"{' '.join(sorted(_SCOPES))}, got {text!r}")
        updates["retransmit_scope"] = _SCOPES[text]
    if "copy_echo" in config:
        updates["copy_echo"] = _as_bool("copy_echo", config["copy_echo"])

    # algorithm layers: identifier keys select, parameter keys adjust
    layers: dict[int, object] = {n: getattr(scenario.algorithm, f"layer{n}")
                                 for n in range(1, 6)}
    for n in range(1, 6):
        ident_key = f"algorithm.layer{n}"
        params = {key.split(".")[2]: value for key, value in config.items()
                  if key.startswith(ident_key + ".")}
        if ident_key in config:
            layers[n] = _build_policy(n, config[ident_key], params)
        elif params:
            layers[n] = _update_policy(n, layers[n], params)
    updates["algorithm"] = TimeoutAlgorithm(layers[1], layers[2], layers[3],
                                            layers[4], layers[5])

    loss_params = {key.split(".")[1]: value for key, value in config.items()
                   if key.startswith("loss.") and key != "loss.variant"}
    if "loss.variant" in config:
        updates["loss"] = _build_loss(config["loss.variant"], loss_params)
    elif loss_params:
        ident, existing = _describe(scenario.loss)
        merged = {param: str(value) for param, value in existing.items()}
        merged.update(loss_params)
        updates["loss"] = _build_loss(ident, merged)

    topology_overrides = {key: value for key, value in config.items()
                          if key in _TOPOLOGY_KEYS}
    if topology_overrides and scenario.topology is None:
        raise ConfigError(
            f"topology settings do not apply to scenario {name!r}")
    if scenario.topology is not None and topology_overrides:
        base = scenario.topology
        ingress = _as_int("topology.ingress_rate",
                          config.get("topology.ingress_rate",
                                     str(base.links[0].rate_bps)))
        capacity = _as_int("topology.buffer_capacity",
                           config.get("topology.buffer_capacity",
                                      str(base.buffer_capacity)))
        propagation = _as_float("topology.propagation",
                                config.get("topology.propagation",
                                           str(base.links[0].propagation)))
        try:
            links = (LinkSpec(ingress, propagation),) + tuple(
                LinkSpec(spec.rate_bps, propagation)
                for spec in base.links[1:])
            topology = Topology(links=links, buffer_capacity=capacity)
        except ValueError as exc:
            raise ConfigError(f"topology: {exc}") from None
        updates["topology"] = topology
        size = updates.get("packet_size_bits", scenario.packet_size_bits)
        updates["true_rtt"] = topology.unloaded_rtt(size)

    if "true_rtt" in config:
        updates["true_rtt"] = _as_float("true_rtt", config["true_rtt"])

    updates["seed"] = seed
    try:
        return replace(scenario, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- canonical form --------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_config(scenario: Scenario) -> dict[str, str]:
    """Complete flat key set; building from it reproduces the scenario."""
    config: dict[str, str] = {
        "scenario": scenario.name,
        "seed": str(scenario.seed),
        "packets": str(scenario.packet_count),
        "window": str(scenario.window_size),
        "true_rtt": _format_value(scenario.true_rtt),
        "initial_e": _format_value(scenario.initial_mean),
        "initial_v": _format_value(scenario.initial_variance),
        "timer_mode": scenario.timer_mode.value,
        "retransmit_scope": scenario.retransmit_scope.value,
        "copy_echo": _format_value(scenario.copy_echo),
        "sample_floor": _format_value(scenario.sample_floor),
        "packet_size_bits": str(scenario.packet_size_bits),
    }
    if scenario.horizon is not None:
        config["horizon"] = _format_value(scenario.horizon)
    if scenario.stop_estimate_above is not None:
        config["stop_estimate_above"] = \
            _format_value(scenario.stop_estimate_above)
    for n in range(1, 6):
        policy = getattr(scenario.algorithm, f"layer{n}")
        ident, params = _describe(policy)
        config[f"algorithm.layer{n}"] = ident
        for param, value in params.items():
            config[f"algorithm.layer{n}.{param}"] = _format_value(value)
    ident, params = _describe(scenario.loss)
    config["loss.variant"] = ident
    for param, value in params.items():
        config[f"loss.{param}"] = _format_value(value)
    if scenario.topology is not None:
        config["topology.ingress_rate"] = \
            str(scenario.topology.links[0].rate_bps)
        config["topology.buffer_capacity"] = \
            str(scenario.topology.buffer_capacity)
        config["topology.propagation"] = \
            _format_value(scenario.topology.links[0].propagation)
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
