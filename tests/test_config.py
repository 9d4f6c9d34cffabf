import pytest

from rtosim.config import (
    LAYER_POLICIES,
    _LOSS_VARIANTS,
    ConfigError,
    apply_overrides,
    build_scenario,
    canonical_config,
    dump_config,
    parse_config_text,
    resolve_axis,
)
from rtosim.estimators import FromCopy, Mills
from rtosim.scenarios import SCENARIO_NAMES, BernoulliLoss, EveryFirstCopyLost
from rtosim.timeout import Scale
from rtosim.transport import TimerMode


def test_parse_skips_comments_and_blank_lines():
    text = """
    # a full-line comment
    scenario = fig3   # trailing comment
    seed = 5

    packets = 3
    """
    assert parse_config_text(text) == {
        "scenario": "fig3", "seed": "5", "packets": "3"}


def test_parse_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_text("scenario = fig3\nretries = 7\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("scenario fig3\n")
    with pytest.raises(ConfigError, match="empty"):
        parse_config_text("seed = \n")


def test_overrides_merge_and_validate():
    merged = apply_overrides({"scenario": "fig3"}, ("seed=9", "packets=4"))
    assert merged == {"scenario": "fig3", "seed": "9", "packets": "4"}
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ("seed",))
    with pytest.raises(ConfigError, match="unknown"):
        apply_overrides({}, ("sedd=9",))


def test_minimal_config_builds_the_named_base():
    scenario = build_scenario({"scenario": "fig3"})
    assert scenario.name == "fig3"
    assert scenario.packet_count == 12
    assert scenario.loss == EveryFirstCopyLost()
    assert scenario.seed == 1


def test_scalar_overrides_land_on_the_scenario():
    scenario = build_scenario({
        "scenario": "fig3",
        "seed": "9",
        "packets": "4",
        "window": "2",
        "initial_e": "0.5",
        "timer_mode": "per_packet",
        "copy_echo": "true",
        "stop_estimate_above": "none",
    })
    assert scenario.seed == 9
    assert scenario.packet_count == 4
    assert scenario.window_size == 2
    assert scenario.initial_mean == 0.5
    assert scenario.timer_mode == TimerMode.PER_PACKET
    assert scenario.copy_echo is True
    assert scenario.stop_estimate_above is None


def test_missing_or_unknown_scenario():
    with pytest.raises(ConfigError, match="missing required key"):
        build_scenario({"seed": "1"})
    with pytest.raises(ConfigError, match="unknown scenario"):
        build_scenario({"scenario": "fig99"})


def test_layer_identifier_selects_a_fresh_policy():
    scenario = build_scenario({
        "scenario": "fig3",
        "algorithm.layer1": "mills",
        "algorithm.layer1.alpha1": "0.9375",
        "algorithm.layer1.alpha2": "0.75",
        "algorithm.layer2": "from_copy",
        "algorithm.layer2.j": "3",
    })
    assert scenario.algorithm.layer1 == Mills(0.9375, 0.75)
    assert scenario.algorithm.layer2 == FromCopy(3)


def test_bare_parameter_adjusts_the_base_policy():
    scenario = build_scenario({"scenario": "fig3",
                               "algorithm.layer3.k": "6.5"})
    assert scenario.algorithm.layer3 == Scale(6.5)


def test_policy_errors_become_config_errors():
    with pytest.raises(ConfigError, match="unknown policy"):
        build_scenario({"scenario": "fig3", "algorithm.layer1": "median"})
    with pytest.raises(ConfigError, match="not a parameter"):
        build_scenario({"scenario": "fig3", "algorithm.layer3.t_min": "1"})
    with pytest.raises(ConfigError, match="layer1"):
        build_scenario({"scenario": "fig3", "algorithm.layer1.alpha": "2.0"})
    with pytest.raises(ConfigError, match="expected a number"):
        build_scenario({"scenario": "fig3", "initial_e": "fast"})


def test_loss_override_rebuilds_and_tweaks():
    rebuilt = build_scenario({"scenario": "fig3", "loss.variant": "bernoulli",
                              "loss.p": "0.25"})
    assert rebuilt.loss == BernoulliLoss(0.25)
    tweaked = build_scenario({"scenario": "loss_sweep", "loss.p": "0.05"})
    assert tweaked.loss == BernoulliLoss(0.05)
    with pytest.raises(ConfigError, match="loss"):
        build_scenario({"scenario": "fig3", "loss.variant": "bernoulli",
                        "loss.p": "1.5"})


def test_topology_overrides_recompute_the_base_delay():
    scenario = build_scenario({"scenario": "tsao_lee_slow",
                               "topology.ingress_rate": "1000000"})
    assert scenario.topology.links[0].rate_bps == 1_000_000
    assert scenario.true_rtt == scenario.topology.unloaded_rtt(8000)
    with pytest.raises(ConfigError, match="do not apply"):
        build_scenario({"scenario": "fig3", "topology.ingress_rate": "9600"})


def test_chain_delay_follows_the_packet_size():
    scenario = build_scenario({"scenario": "tsao_lee_slow",
                               "packet_size_bits": "16000"})
    assert scenario.true_rtt == scenario.topology.unloaded_rtt(16000)
    # a topology key that changes nothing leaves the delay where it was
    assert build_scenario({"scenario": "tsao_lee_slow",
                           "packet_size_bits": "16000",
                           "topology.buffer_capacity": "2"}) == scenario
    explicit = build_scenario({"scenario": "tsao_lee_slow",
                               "packet_size_bits": "16000",
                               "true_rtt": "1.5"})
    assert explicit.true_rtt == 1.5


ROUND_TRIP_EXTRAS = ({}, {"stop_estimate_above": "none"}, {"horizon": "50"},
                     {"packet_size_bits": "16000"})


@pytest.mark.parametrize("name,extra", [
    pytest.param(name, extra,
                 id="-".join([name, *(f"{k}={v}" for k, v in extra.items())]))
    for name in SCENARIO_NAMES for extra in ROUND_TRIP_EXTRAS])
def test_canonical_config_round_trips(name, extra):
    scenario = build_scenario({"scenario": name, "seed": "4", **extra})
    flat = canonical_config(scenario)
    assert build_scenario(flat) == scenario
    assert canonical_config(build_scenario(flat)) == flat
    # and the textual form re-parses to the same mapping
    assert parse_config_text(dump_config(flat)) == flat


#: a valid non-default value for every parameter of every identifier, keyed
#: by (identifier key, identifier); each value is written as the canonical
#: form writes it
NON_DEFAULT = {
    ("algorithm.layer1", "ewma"): {"alpha": "0.25"},
    ("algorithm.layer1", "ewma_shift"): {"n": "4"},
    ("algorithm.layer1", "mills"): {"alpha1": "0.875", "alpha2": "0.5"},
    ("algorithm.layer1", "edge"): {"alpha": "0.25", "beta": "0.75"},
    ("algorithm.layer2", "from_first"): {},
    ("algorithm.layer2", "from_last"): {},
    ("algorithm.layer2", "from_copy"): {"j": "3"},
    ("algorithm.layer2", "ignore"): {},
    ("algorithm.layer2", "ignore_increase_linear"): {"delta": "3.0"},
    ("algorithm.layer2", "ignore_increase_parabolic"): {"delta0": "2.0",
                                                       "delta2": "0.5"},
    ("algorithm.layer2", "ignore_increase_exp"): {"c": "3.0"},
    ("algorithm.layer2", "ignore_increase_exp2"): {"c0": "1.25",
                                                  "delta_c": "0.25"},
    ("algorithm.layer3", "scale"): {"k": "2.5"},
    ("algorithm.layer3", "mean_plus_dev"): {"k": "3.0"},
    ("algorithm.layer3", "clamped"): {"k": "3.0", "t_min": "0.5",
                                      "t_max": "20.0"},
    ("algorithm.layer4", "none"): {"t_max": "60.0"},
    ("algorithm.layer4", "exp"): {"b": "3.0", "t_max": "60.0"},
    ("algorithm.layer4", "rand_exp"): {"b": "3.0", "t_min": "0.001",
                                       "t_max": "60.0"},
    ("algorithm.layer4", "linear"): {"delta_t": "0.5", "t_max": "60.0"},
    ("algorithm.layer5", "fixed_retries"): {"r": "7"},
    ("algorithm.layer5", "growing_retries"): {"base_r": "5"},
    ("algorithm.layer5", "time_and_retries"): {"g": "30.0", "r": "4"},
    ("loss.variant", "none"): {},
    ("loss.variant", "bernoulli"): {"p": "0.25"},
    ("loss.variant", "every_first_copy_lost"): {},
    ("loss.variant", "buffer_overflow_only"): {},
    ("loss.variant", "drop_copies_before"): {"i": "3"},
}

_IDENTIFIERS = [(f"algorithm.layer{n}", ident, cls)
                for n, registry in LAYER_POLICIES.items()
                for ident, cls in registry.items()] + \
    [("loss.variant", ident, cls) for ident, cls in _LOSS_VARIANTS.items()]


@pytest.mark.parametrize("key, ident, cls", _IDENTIFIERS,
                         ids=[f"{key}.{ident}" for key, ident, _ in _IDENTIFIERS])
def test_every_identifier_round_trips(key, ident, cls):
    # build -> canonical -> build with a non-default value for each parameter
    params = NON_DEFAULT[key, ident]
    assert params.keys() == cls._fields.keys()
    prefix = "loss." if key == "loss.variant" else key + "."
    base = "tsao_lee_slow" if ident == "buffer_overflow_only" else "fig3"
    scenario = build_scenario({"scenario": base, key: ident, **{
        prefix + param: value for param, value in params.items()}})
    choice = scenario.loss if key == "loss.variant" else getattr(
        scenario.algorithm, key.split(".")[1])
    assert type(choice) is cls
    for param, value in params.items():
        assert getattr(choice, param) != cls._defaults.get(param), param
    flat = canonical_config(scenario)
    assert flat[key] == ident
    assert {param: flat[prefix + param] for param in params} == params
    assert build_scenario(flat) == scenario
    assert canonical_config(build_scenario(flat)) == flat


def test_axis_shorthands_resolve():
    key, values = resolve_axis({"axis.param": "p",
                                "axis.values": "0.30, 0.10"})
    assert key == "loss.p"
    assert values == [(0.30, "0.30"), (0.10, "0.10")]
    key, _ = resolve_axis({"axis.param": "k", "axis.values": "2"})
    assert key == "algorithm.layer3.k"
    key, _ = resolve_axis({"axis.param": "seed", "axis.values": "1,2"})
    assert key == "seed"


def test_axis_validation():
    with pytest.raises(ConfigError, match="axis.param"):
        resolve_axis({"axis.values": "1"})
    with pytest.raises(ConfigError, match="axis.values"):
        resolve_axis({"axis.param": "p"})
    with pytest.raises(ConfigError, match="unknown parameter"):
        resolve_axis({"axis.param": "verdict", "axis.values": "1"})
    with pytest.raises(ConfigError, match="not numeric"):
        resolve_axis({"axis.param": "scenario", "axis.values": "1"})
    with pytest.raises(ConfigError, match="no values"):
        resolve_axis({"axis.param": "p", "axis.values": " , "})
