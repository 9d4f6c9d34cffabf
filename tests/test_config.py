import hashlib
import math
from fractions import Fraction

import pytest
from conftest import invoke

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
from rtosim.estimators import Ewma, FromCopy, Mills
from rtosim.scenarios import (
    SCENARIO_NAMES,
    BernoulliLoss,
    EveryFirstCopyLost,
    NoLoss,
    Scenario,
)
from rtosim.sim import LinkSpec, Topology
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
    # a file states each key once; only --set overrides
    with pytest.raises(ConfigError,
                       match="line 3: packets is already set on line 1"):
        parse_config_text("packets = 5\nseed = 2\npackets = 7\n")


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


def test_a_named_identifier_starts_from_its_class_defaults():
    # the preset's parameters under the identifier are dropped with it
    scenario = build_scenario({"scenario": "jth_matrix",
                               "algorithm.layer1": "ewma"})
    assert scenario.algorithm.layer1 == Ewma()
    assert scenario.algorithm.layer2 == FromCopy(2)
    with pytest.raises(ConfigError, match="needs loss.p"):
        build_scenario({"scenario": "loss_sweep", "loss.variant": "bernoulli"})


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


def test_canonical_config_refuses_a_name_outside_the_presets():
    # build_scenario refuses `scenario = chain0`
    scenario = build_scenario({"scenario": "fig3"})
    with pytest.raises(ValueError, match="name: 'chain0' is not a preset"):
        canonical_config(Scenario(**{**vars(scenario), "name": "chain0"}))


def _chain(*rates, propagation=0.002):
    return Topology(tuple(LinkSpec(rate, propagation) for rate in rates))


@pytest.mark.parametrize("name, topology", [
    # the keys describe the 3-link Tsao-Lee chain: these would rebuild it
    # as (48000, 19200, 19200) with every propagation at 0.002 s
    ("tsao_lee_slow", _chain(48000, 9600)),
    # one propagation key for every link
    ("tsao_lee_slow", Topology((LinkSpec(19200, 0.01), LinkSpec(19200, 0.01),
                                LinkSpec(19200, 0.02)))),
    # a preset without topology keys, and a chain preset without a chain
    ("loss_sweep", _chain(19200, 19200, 19200)),
    ("tsao_lee_slow", None),
], ids=["two_links", "propagations", "not_a_chain_preset", "no_chain"])
def test_canonical_config_refuses_a_topology_its_keys_do_not_rebuild(
        name, topology):
    scenario = build_scenario({"scenario": name})
    changed = Scenario(**{**vars(scenario), "topology": topology,
                          "loss": NoLoss()})
    with pytest.raises(ValueError, match="^topology: "):
        canonical_config(changed)


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


#: annotation -> values a parameter of it refuses: an int parameter is a
#: count, so zero, a fraction and a bool are refused; a float parameter is
#: a finite int or float, and a bool or a Fraction (written `1/3`) is not;
#: only an Optional parameter may be None (the canonical form leaves it out)
_REFUSED = {"int": (0, 2.5, True),
            "float": (math.nan, math.inf, Fraction(1, 3), True, False, None),
            "Optional[float]": (math.nan, math.inf, Fraction(1, 3), True,
                                False)}
_BAD_PARAMETERS = [(cls, param, annotation, value)
                   for _, _, cls in _IDENTIFIERS
                   for param, annotation in cls._fields.items()
                   for value in _REFUSED[annotation]]


@pytest.mark.parametrize(
    "cls, param, annotation, value", _BAD_PARAMETERS,
    ids=[f"{cls.ident}.{param}={value}"
         for cls, param, _, value in _BAD_PARAMETERS])
def test_every_policy_parameter_refuses_what_it_cannot_hold(
        cls, param, annotation, value):
    # the class defaults hold the other parameters
    with pytest.raises(ValueError, match=f"{param} must be an integer >= 1"
                       if annotation == "int"
                       else f"{param} must be a finite number"):
        cls(**{param: value})


def test_the_count_parameters_are_the_six_integers():
    assert {f"{cls.ident}.{param}" for cls, param, annotation, _
            in _BAD_PARAMETERS if annotation == "int"} == {
        "ewma_shift.n", "from_copy.j", "fixed_retries.r",
        "growing_retries.base_r", "time_and_retries.r",
        "drop_copies_before.i"}


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


#: SHA-256 of `rtosim run NAME --dump-config --seed S`; the seed-1 bytes are
#: pinned in test_golden.py
DUMP_CONFIG_BY_SEED = {
    ("fig3", 2):
        "3f8820303a8bd2ae928d10e92f28fd090132c11ce7c5a84a165fe51ac0901e37",
    ("fig3", 3):
        "ff3d74473aca6ab98732729f530c7e32d67d103a3e17206acac5617de5c305a3",
    ("fig6_fromlast", 2):
        "f02898b96565a0c92466d675e46f9ec520eb5a158ee20baaf73355191c8312c5",
    ("fig6_fromlast", 3):
        "03bbe7cc884848a34e3c2205e3d72e2e636d6c54851db130fd9e7733d87b639b",
    ("fig6_ignore", 2):
        "229fa239d7315f75c89444f54fa3c54a655322a09c87c123b849c7a7c5984878",
    ("fig6_ignore", 3):
        "6dde2e4260541d80ba62da266f8e16561b55224080b532361e87f89e98da76c8",
    ("tsao_lee_slow", 2):
        "2da2d8f52c64a7fb5def69408a673b77ea19bc3af0a7a14f332ee0455bde2fc3",
    ("tsao_lee_slow", 3):
        "a9539cd697427384f546677131d57fdadff9889894f35e0b80a967ac8d2e840b",
    ("tsao_lee_fast", 2):
        "e1a4139a0cb7e511c0a618e4e201f050f09ad50196fe57a3334b9843712c73e1",
    ("tsao_lee_fast", 3):
        "321c8133ed5e9c5413c5be8a70708ca70d6583d57e79db6eb6a3f7657282591b",
    ("loss_sweep", 2):
        "37792a1c635ee1e5407bff4c34e7e90b7ecab9091740ea8512343446680c370f",
    ("loss_sweep", 3):
        "0d834398be67b51f3a81c1d600bb5ed6c946aa4a6f20dfae29b3c6d8bdfa44ef",
    ("jth_matrix", 2):
        "7f2bebe2f62386af745c37ef35b0f4e9c11cacf0510116978eccbf4bd9c6e28c",
    ("jth_matrix", 3):
        "397e427b561bc7fde0a19cea388513b205c9fc528e3479417a810bb7de4bb681",
    ("classify", 2):
        "fec2a1c6635916b81c88e3aaf199633e3416256bc5eb4c0a607f3aa044f10d4f",
    ("classify", 3):
        "f50a9cd5805add1013a4418ec31235170fe305bae4e1a86eb06f55818d5dea3c",
}

#: SHA-256 of `rtosim run ARGS --dump-config` for one run of each experiment
#: driver, written as the key overrides that give that run
DUMP_CONFIG_OF_DRIVER_RUNS = {
    "fig3 --set packets=12":
        "7e6b3a27624bf8245e177fb438202a29169f6c3142a8a33806f068fd5c9c2f44",
    "fig6_ignore --set packets=1000":
        "a8eeaddf34229ea81471bb931875249e79d902c4d84570bb15c95bf5968909e6",
    "jth_matrix --set loss.i=3 --set algorithm.layer2.j=1":
        "fb84230dd65cd92b950ca951376431f04696c76bd07d54c3b5ce929af88f6aec",
    "classify --set algorithm.layer1.alpha=0.875"
    " --set algorithm.layer2=from_copy --set algorithm.layer2.j=2"
    " --set algorithm.layer3.k=2.0 --set loss.variant=none --set packets=12"
    " --set initial_e=0.49":
        "dfee45c132c835851d8b4af101f60b61fe9e0db11cf0fd8f53bf48494055f345",
    "loss_sweep --set loss.p=0.35 --set algorithm.layer3.k=2.5":
        "ded4753b9d9bce7237019082b0eea127ad369d8ee70a1e5e3d4a08d4aaa154ed",
    "tsao_lee_slow --set topology.ingress_rate=38400":
        "7b25c6f12c92b6212b599ce1e8cbef9fc9856e2da51534af7a4b7dff4ac4f06b",
}


def _dump_config_sha256(*args: str) -> str:
    result = invoke("run", *args, "--dump-config")
    assert result.exit_code == 0, result.output
    return hashlib.sha256(result.output.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name, seed", DUMP_CONFIG_BY_SEED,
                         ids=[f"{name}-seed{seed}"
                              for name, seed in DUMP_CONFIG_BY_SEED])
def test_dump_config_bytes_at_other_seeds(name, seed):
    assert _dump_config_sha256(name, "--seed", str(seed)) == \
        DUMP_CONFIG_BY_SEED[name, seed]


@pytest.mark.parametrize("command", DUMP_CONFIG_OF_DRIVER_RUNS,
                         ids=[command.split()[0]
                              for command in DUMP_CONFIG_OF_DRIVER_RUNS])
def test_dump_config_bytes_of_driver_runs(command):
    assert _dump_config_sha256(*command.split()) == \
        DUMP_CONFIG_OF_DRIVER_RUNS[command]
