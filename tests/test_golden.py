"""Golden bytes: SHA-256 hashes of outputs that must never change.

Pinned here are `rtosim run NAME --dump-config` for every named scenario,
`rtosim list-policies`, and the summary and trace of short runs that
together use every policy identifier, both retransmit scopes, copy echo,
a chain path, random back-off, disconnection, a horizon and the stop guard.
Runs with a timer per packet pin their summary only.

A refactor that keeps behaviour passes this file unchanged; a failure names
the output whose bytes moved.
"""
import hashlib
import io

import pytest
from conftest import invoke

from rtosim.config import build_scenario
from rtosim.metrics import write_summary, write_trace
from rtosim.scenarios import SCENARIO_NAMES, run_scenario


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def cli_output(*args: str) -> str:
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result.output


#: name -> flat config; both summary and trace are pinned
SINGLE_TIMER_RUNS = {
    "ewma_first_scale_none_fixed": {
        "scenario": "loss_sweep", "seed": "3", "packets": "80",
        "loss.p": "0.3", "stop_estimate_above": "none",
        "algorithm.layer1": "ewma", "algorithm.layer1.alpha": "0.75",
        "algorithm.layer2": "from_first",
        "algorithm.layer3": "scale", "algorithm.layer3.k": "3.0",
        "algorithm.layer4": "none",
        "algorithm.layer5": "fixed_retries", "algorithm.layer5.r": "2"},
    "shift_last_dev_exp_growing_all_unacked": {
        "scenario": "loss_sweep", "seed": "3", "packets": "60",
        "loss.p": "0.3", "window": "3", "retransmit_scope": "all_unacked",
        "initial_v": "0.25",
        "algorithm.layer1": "ewma_shift", "algorithm.layer1.n": "2",
        "algorithm.layer2": "from_last",
        "algorithm.layer3": "mean_plus_dev", "algorithm.layer3.k": "2.0",
        "algorithm.layer4": "exp", "algorithm.layer4.t_max": "8.0",
        "algorithm.layer5": "growing_retries",
        "algorithm.layer5.base_r": "2"},
    "mills_copy_clamped_randexp_time_echo": {
        "scenario": "loss_sweep", "seed": "4", "packets": "70",
        "loss.p": "0.3", "window": "2", "copy_echo": "true",
        "algorithm.layer1": "mills",
        "algorithm.layer2": "from_copy", "algorithm.layer2.j": "2",
        "algorithm.layer3": "clamped", "algorithm.layer3.t_min": "0.5",
        "algorithm.layer3.t_max": "10.0",
        "algorithm.layer4": "rand_exp", "algorithm.layer4.t_min": "0.1",
        "algorithm.layer5": "time_and_retries",
        "algorithm.layer5.g": "6.0", "algorithm.layer5.r": "2"},
    "edge_ignore_linear_horizon": {
        "scenario": "loss_sweep", "seed": "5", "packets": "60",
        "loss.p": "0.2", "horizon": "40.0",
        "algorithm.layer1": "edge", "algorithm.layer1.beta": "0.75",
        "algorithm.layer2": "ignore",
        "algorithm.layer4": "linear", "algorithm.layer4.delta_t": "0.5"},
    "fig3_increase_linear": {
        "scenario": "fig3", "packets": "8",
        "algorithm.layer2": "ignore_increase_linear"},
    "fig3_increase_parabolic": {
        "scenario": "fig3", "packets": "8",
        "algorithm.layer2": "ignore_increase_parabolic",
        "algorithm.layer2.delta2": "0.5"},
    "fig3_increase_exp": {
        "scenario": "fig3", "packets": "8",
        "algorithm.layer2": "ignore_increase_exp"},
    "fig3_increase_exp2": {
        "scenario": "fig3", "packets": "6",
        "algorithm.layer2": "ignore_increase_exp2"},
    "fig3_echo_window2": {
        "scenario": "fig3", "copy_echo": "true", "window": "2"},
    "increase_parabolic_all_unacked_stop": {
        "scenario": "loss_sweep", "seed": "6", "packets": "50",
        "loss.p": "0.25", "window": "4", "retransmit_scope": "all_unacked",
        "algorithm.layer2": "ignore_increase_parabolic"},
    "tsao_lee_fast": {"scenario": "tsao_lee_fast", "packets": "60"},
    "fig6_fromlast": {"scenario": "fig6_fromlast", "packets": "30"},
    "jth_matrix": {"scenario": "jth_matrix", "seed": "3"},
    "classify": {"scenario": "classify"},
}

#: name -> flat config; summary only (see the per-packet trace tests)
PER_PACKET_RUNS = {
    "pp_exp_stop": {
        "scenario": "loss_sweep", "seed": "7", "packets": "100",
        "loss.p": "0.2", "window": "4", "timer_mode": "per_packet",
        "algorithm.layer4": "exp"},
    "pp_exp2_growing_all_unacked": {
        "scenario": "loss_sweep", "seed": "8", "packets": "80",
        "loss.p": "0.3", "window": "3", "timer_mode": "per_packet",
        "retransmit_scope": "all_unacked",
        "algorithm.layer2": "ignore_increase_exp2",
        "algorithm.layer5": "growing_retries",
        "algorithm.layer5.base_r": "3"},
    "pp_spurious_exp": {
        "scenario": "fig3", "window": "2", "timer_mode": "per_packet",
        "algorithm.layer3.k": "0.25", "algorithm.layer4": "exp"},
    "pp_randexp_echo_disconnect": {
        "scenario": "loss_sweep", "seed": "9", "packets": "60",
        "loss.p": "0.5", "window": "2", "timer_mode": "per_packet",
        "copy_echo": "true", "algorithm.layer4": "rand_exp",
        "algorithm.layer5": "fixed_retries", "algorithm.layer5.r": "2"},
    "pp_chain": {
        "scenario": "tsao_lee_fast", "packets": "40",
        "timer_mode": "per_packet"},
}

GOLDEN_DUMP_CONFIG = {
    "fig3":
        "7e6b3a27624bf8245e177fb438202a29169f6c3142a8a33806f068fd5c9c2f44",
    "fig6_fromlast":
        "dc4d6cd1125d3ef96c0d79c613a76c0d3447f164decb7b66d31ba81ffefa3255",
    "fig6_ignore":
        "a8eeaddf34229ea81471bb931875249e79d902c4d84570bb15c95bf5968909e6",
    "tsao_lee_slow":
        "20bef5a16b3cadc85a61e387d35bf08461d82e67363d52357c3587e3f2b5f68c",
    "tsao_lee_fast":
        "25f947873ec39ac51f7d70c8907337fb4ba9dcb69f5f5f17f16fde6c42550cc3",
    "loss_sweep":
        "e6fd5ba7fbbd976ffc87a34c85013908b081bfed6c129cc3639a06bc8b85f55c",
    "jth_matrix":
        "fd16f21e6899bf792a2bbc8445459bf0230ebf313ccdf86b364955fa07e058d2",
    "classify":
        "08697093ee5173c39f83e2e4b9b1eeb621c045c4524bde7a7508ffd34cebe666",
}

GOLDEN_LIST_POLICIES = \
    "5b163afd263643122b0c886d42539e58a9bd4ef38dba66a08d3a8c38c48c6a5b"

GOLDEN_RUNS = {
    "ewma_first_scale_none_fixed": {
        "summary":
            "775ee8cd67daa75b98667f1035c5304602845a1b641fa360bc154babd6c100dc",
        "trace":
            "d9661a9515682a9ccbdcf889a97ff25805a0d458c9cc912807204124467323c6",
    },
    "shift_last_dev_exp_growing_all_unacked": {
        "summary":
            "f3c22cbc4450584ab748e51c22365cf255798e3308e41de9b7341da5f16714c6",
        "trace":
            "0460c07e73c84f4a7bc968607200132272538b5a1b165fd92508a514465d0770",
    },
    "mills_copy_clamped_randexp_time_echo": {
        "summary":
            "7968fb3e5299a1461c0a1110b8e82e8abd87b076423dcf06b90cc6314cffcb5a",
        "trace":
            "e13cb340c7aa3340ece5847c049bd0b6f88ab8ffa69e4226a514c191bfae507b",
    },
    "edge_ignore_linear_horizon": {
        "summary":
            "fa43f6a1a4c1006a44fe4064536a64cc252962500b33ad49ab8ee21c3a6f4b49",
        "trace":
            "f421a6a6a4fd25bf1d3d9b600209c376272bcc13c7c35fe683807863a7c3a7e8",
    },
    "fig3_increase_linear": {
        "summary":
            "8caac1eba46fac229d4fb12911c5268097d6d5c304fb78a22f6cdcfe6986b1f1",
        "trace":
            "455504dfceea66ea3f2ea708b1521f867a43566905e4ab1c4b9e5b837f4af1ba",
    },
    "fig3_increase_parabolic": {
        "summary":
            "6bf59797d19cae6b3065de81c4000bae139c266c108daed4e3db2595f1b76976",
        "trace":
            "9a4f45b11e664c5c553ec0f4ad0bae7c5c9fe97b25b9fe83f826e662731b76b2",
    },
    "fig3_increase_exp": {
        "summary":
            "b54f72cafe31236ce04d80a08d59c21db1fc05b0ccb7648a3b684502680c2f09",
        "trace":
            "cb28a30682f53612c634178dbcdea1814d8091e4b384c6680deabc815b72948b",
    },
    "fig3_increase_exp2": {
        "summary":
            "779b8909d0e970f392159289f602f9cea2a018f98152b98fcb6729f3422bea39",
        "trace":
            "d17289a39a646e417862f9e3d6d95c00f3f0671873e11bf6ae86f3fdb62b0e10",
    },
    "fig3_echo_window2": {
        "summary":
            "e22d2f5215b05876164c2f10345b61463c224b5d94807f56dd327d9f1b519ac6",
        "trace":
            "34f7424024f7e8118e72df250f784e0e5e0f39071ee0c774764f0e0fafea5e67",
    },
    "increase_parabolic_all_unacked_stop": {
        "summary":
            "a245c4b332a46a606c0a424718eb14e8e2e15819fd39aafda732ef357d831be5",
        "trace":
            "50cc7ef1178457a72c7a4c328c365b30b4a858e820ae8d3178b4b59f28d0bea0",
    },
    "tsao_lee_fast": {
        "summary":
            "4096d0298995dc754d707e90634ae749878b5da024075a818b64997f2dbaf809",
        "trace":
            "dcfc9838a5e40d004a5e407514bcb8fa4411206df93f5d7e68b400d4676db015",
    },
    "fig6_fromlast": {
        "summary":
            "86647065780ac7909e8b438a6fb21f3ba3d9375b83e22f06182a33305651d2c1",
        "trace":
            "6b6fc211baa637a78f1265d643e3b315ebe7cb216af443b0144cc2681bfee109",
    },
    "jth_matrix": {
        "summary":
            "84347ae2300d6a1005822eaf20d38e955f711b26d592082c1317aeb41bae746a",
        "trace":
            "3a27a5d009d458330d87b702b3f8d82741dc8777f819e9593a7e4197d13597ff",
    },
    "classify": {
        "summary":
            "a8cd563bc52502c3d041f7fdf060d8f756ced42941ab27ff9f34b6898b33837b",
        "trace":
            "0d0100b4b97d0503029e0b0e17b63880092af4d3b66c652ee58d676142eabc66",
    },
    "pp_exp_stop": {
        "summary":
            "c75170bc3d93e6913ee0a6515e9d93704315e2189c7448af3ab4c7f6f714feda",
    },
    "pp_exp2_growing_all_unacked": {
        "summary":
            "d2bda1ede7c3c6639bb8b466f7ed218f1d8e3d3e2da3d03326eba14db0169a60",
    },
    "pp_spurious_exp": {
        "summary":
            "ff2f26bbc5670d3e77774945ea745bd25b30d0060944d81c201a15fe8103b881",
    },
    "pp_randexp_echo_disconnect": {
        "summary":
            "40ff773fa72affc3e42af415fb16d8b8acbc9eb7464ef81aa9a6930e20f1f954",
    },
    "pp_chain": {
        "summary":
            "9c4c9ab1fe93df043d07dd0e30d9b865fd2ece9235fce05777a829d13727ef7b",
    },
}


def run_outputs(config: dict[str, str]) -> tuple[str, str]:
    result = run_scenario(build_scenario(dict(config)))
    summary, trace = io.StringIO(), io.StringIO()
    write_summary(result.summary, summary)
    write_trace(result.rows, trace)
    return summary.getvalue(), trace.getvalue()


def test_the_runs_use_every_policy_identifier():
    listed = set()
    for line in cli_output("list-policies").splitlines():
        if line.startswith("layer"):
            layer, idents = line.split(": ")
            listed |= {f"{layer}.{ident}" for ident in idents.split()}
    used = {f"{key.split('.')[1]}.{value}"
            for config in (*SINGLE_TIMER_RUNS.values(),
                           *PER_PACKET_RUNS.values())
            for key, value in config.items()
            if key.startswith("algorithm.") and key.count(".") == 1}
    used |= {"layer1.ewma", "layer2.from_first", "layer3.scale",
             "layer4.none", "layer5.fixed_retries"}  # the scenario defaults
    assert len(listed) == 22
    assert used == listed


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_dump_config_bytes(name):
    assert sha256(cli_output("run", name, "--dump-config")) == \
        GOLDEN_DUMP_CONFIG[name]


def test_list_policies_bytes():
    assert sha256(cli_output("list-policies")) == GOLDEN_LIST_POLICIES


@pytest.mark.parametrize("name", SINGLE_TIMER_RUNS)
def test_single_timer_run_bytes(name):
    summary, trace = run_outputs(SINGLE_TIMER_RUNS[name])
    assert {"summary": sha256(summary), "trace": sha256(trace)} == \
        GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", PER_PACKET_RUNS)
def test_per_packet_run_summary_bytes(name):
    summary, _ = run_outputs(PER_PACKET_RUNS[name])
    assert {"summary": sha256(summary)} == GOLDEN_RUNS[name]
