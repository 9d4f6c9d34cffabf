import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import invoke

import rtosim
from rtosim.cli import main
from rtosim.metrics import read_trace, summarize
from rtosim.scenarios import SCENARIO_NAMES


def test_run_prints_a_verdict_line():
    result = invoke("run", "fig6_fromlast", "--set", "packets=50")
    assert result.exit_code == 0
    assert result.output.strip() == "verdict=FalseConverged"


def test_run_writes_trace_and_summary_files(tmp_path):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.txt"
    result = invoke("run", "fig3", "--trace", str(trace),
                    "--summary", str(summary))
    assert result.exit_code == 0
    assert len(read_trace(trace)) > 0
    assert "verdict=Diverged" in summary.read_text()


def test_run_reads_a_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("scenario = fig3\npackets = 3\n")
    result = invoke("run", "--config", str(config))
    assert result.exit_code == 0


def test_config_errors_exit_2():
    result = invoke("run", "fig99")
    assert result.exit_code == 2
    assert "unknown scenario" in result.output
    result = invoke("run", "fig3", "--set", "packets=few")
    assert result.exit_code == 2


@pytest.mark.parametrize("setting", [
    "window=0", "packets=-3", "packets=0", "initial_e=0", "initial_e=nan",
    "initial_v=-1", "true_rtt=-1", "sample_floor=inf", "horizon=-5",
    "sample_floor=-1", "packet_size_bits=0", "stop_estimate_above=nan",
    # a true_rtt that rounds to 0 ticks (5e-7 rounds half to even)
    "true_rtt=1e-7", "true_rtt=4e-7", "true_rtt=5e-7",
])
def test_out_of_range_scalars_exit_2(setting):
    result = invoke("run", "fig3", "--set", setting)
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "Traceback" not in result.output


def test_a_true_rtt_of_one_tick_runs_a_one_tick_path(tmp_path):
    trace = tmp_path / "trace.csv"
    result = invoke("run", "loss_sweep", "--set", "true_rtt=6e-7",
                    "--set", "packets=3", "--trace", str(trace))
    assert result.exit_code == 0
    assert "Traceback" not in result.output
    rows = read_trace(trace)
    first_ack_time = next(time_ticks for time_ticks, event, *_ in rows
                          if event == "ack")
    assert first_ack_time == 1


@pytest.mark.parametrize("scenario,setting", [
    ("fig3", "true_rtt=1e305"),
    ("fig3", "sample_floor=1e305"),
    ("fig3", "horizon=1e305"),
    ("fig3", "algorithm.layer3.k=inf"),
    ("fig3", "algorithm.layer3.k=nan"),
    ("tsao_lee_fast", "topology.propagation=inf"),
    ("tsao_lee_fast", "topology.propagation=nan"),
    ("tsao_lee_fast", "topology.propagation=1e305"),
    ("tsao_lee_fast", "topology.ingress_rate=0"),
])
def test_tick_overflowing_values_exit_2(scenario, setting):
    result = invoke("run", scenario, "--set", setting)
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command,parameter", [
    pytest.param(command, parameter, id=command)
    for command, parameter in [
        ("tsao_lee_fast --set loss.variant=every_first_copy_lost", None),
        ("tsao_lee_slow --set loss.variant=bernoulli --set loss.p=0.1"
         " --dump-config", None),
        ("fig3 --set algorithm.layer4=exp --set algorithm.layer4.b=inf", "b"),
        ("fig3 --set algorithm.layer4=linear"
         " --set algorithm.layer4.delta_t=inf", "delta_t"),
        ("fig3 --set algorithm.layer4=none --set algorithm.layer4.t_max=nan",
         "t_max"),
        ("fig3 --set algorithm.layer4=rand_exp"
         " --set algorithm.layer4.t_min=inf", "t_min"),
        ("fig3 --set algorithm.layer4.t_max=inf", "t_max"),
        ("fig3 --set algorithm.layer4.t_max=0 --dump-config", "t_max"),
        ("fig3 --set algorithm.layer4=exp --set algorithm.layer4.t_max=-1"
         " --dump-config", "t_max"),
        # a non-finite increase step, time budget or clamp is named up front
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_linear"
         " --set algorithm.layer2.delta=nan", "delta"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_linear"
         " --set algorithm.layer2.delta=inf", "delta"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_parabolic"
         " --set algorithm.layer2.delta0=nan", "delta0"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_parabolic"
         " --set algorithm.layer2.delta2=inf", "delta2"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_exp"
         " --set algorithm.layer2.c=nan", "c"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_exp2"
         " --set algorithm.layer2.c0=inf", "c0"),
        ("fig3 --set packets=5 --set algorithm.layer2=ignore_increase_exp2"
         " --set algorithm.layer2.delta_c=nan", "delta_c"),
        ("fig3 --set packets=5 --set algorithm.layer5=time_and_retries"
         " --set algorithm.layer5.g=nan", "g"),
        ("fig3 --set packets=5 --set algorithm.layer3=clamped"
         " --set algorithm.layer3.t_max=inf", "t_max"),
    ]
])
def test_unrunnable_configs_exit_2(command, parameter):
    result = invoke("run", *command.split())
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "Traceback" not in result.output
    if parameter is not None:
        assert f" {parameter} must be" in result.output


@pytest.mark.parametrize("command", [
    ("run", "fig3"),
    ("sweep", "fig3", "--seed", "1", "--set", "axis.param=packets",
     "--set", "axis.values=3,4"),
], ids=["run", "sweep"])
@pytest.mark.parametrize("variant, key", [
    ("bernoulli", "loss.p"), ("drop_copies_before", "loss.i")])
def test_a_loss_variant_without_its_parameter_exits_2(command, variant, key):
    # the loss model used to be built without it: a TypeError traceback
    result = invoke(*command, "--set", f"loss.variant={variant}")
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        f"error: loss.variant = {variant} needs {key}"]


@pytest.mark.parametrize("command,true_rtt,rows", [
    pytest.param(command, true_rtt, rows, id=command)
    for command, true_rtt, rows in [
        ("fig3 --set packets=800", 1.0, 4550),
        ("fig3 --set algorithm.layer3.k=1e300", 1.0, 8),
        ("fig3 --set initial_e=1e305", 1.0, 2),
        ("fig3 --set initial_e=1e305 --set window=4 --set timer_mode=per_packet",
         1.0, 8),
        ("loss_sweep --set algorithm.layer1=edge"
         " --set algorithm.layer3=mean_plus_dev --set loss.p=0.5"
         " --set packets=3000 --set stop_estimate_above=none", 1.0, 5146),
        # the first timer overflows inside start(): no event runs
        ("fig6_fromlast --set initial_e=1e305 --set packets=5", 15.0, 1),
    ]
])
def test_a_timer_past_float_range_ends_the_run_as_diverged(
        command, true_rtt, rows, tmp_path):
    _check_run_ends_with("Diverged", rows, command, true_rtt, tmp_path)


def test_a_capped_rand_exp_backoff_outlives_the_float_range_of_b_to_the_i(
        tmp_path):
    # b ** retry_count overflows after about 1,000 retries; t_max still caps
    _check_run_ends_with(
        "Bounded", 12600,
        "jth_matrix --set loss.variant=drop_copies_before --set loss.i=2000"
        " --set algorithm.layer4=rand_exp --set algorithm.layer4.t_max=0.01"
        " --set packets=2", 1.0, tmp_path)


def _check_run_ends_with(verdict, rows, command, true_rtt, tmp_path):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.txt"
    result = invoke("run", *command.split(), "--trace", str(trace),
                    "--summary", str(summary))
    assert result.exit_code == 0
    assert result.output.strip() == f"verdict={verdict}"
    assert "Traceback" not in result.output
    assert len(read_trace(trace)) == rows
    replayed = summarize(read_trace(trace), true_rtt)
    assert replayed.as_lines() == summary.read_text().splitlines()


def test_negative_propagation_is_named_in_the_error():
    result = invoke("run", "tsao_lee_fast", "--set", "topology.propagation=-1")
    assert result.exit_code == 2
    assert "propagation" in result.output


def test_missing_config_file_exits_3():
    result = invoke("run", "--config", "/nonexistent/run.cfg")
    assert result.exit_code == 3
    assert "cannot read config" in result.output


@pytest.mark.parametrize("command", [("run",), ("sweep", "--seed", "1")])
def test_a_config_file_that_is_not_utf8_exits_2(command, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"scenario = fig3\nseed = \xff\n")
    result = invoke(*command, "--config", str(config))
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        f"error: {config}: not UTF-8 text: byte 0xff at offset 23"]


@pytest.mark.parametrize("command", [("run",), ("sweep", "--seed", "1")])
def test_a_config_file_may_start_with_a_byte_order_mark(command, tmp_path):
    # the mark used to stay on the first key: "unknown configuration key:
    # scenario", with the mark invisible in the message
    text = ("scenario = loss_sweep\npackets = 20\n"
            "axis.param = p\naxis.values = 0.1,0.2\n")
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("ascii"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("ascii"))
    expected = invoke(*command, "--config", str(plain))
    assert expected.exit_code == 0
    result = invoke(*command, "--config", str(marked))
    assert (result.exit_code, result.output) == (0, expected.output)


@pytest.mark.parametrize("setting, message", [
    ("packets=1_0", "packets: expected an integer, got '1_0'"),
    ("seed=١٢", "seed: expected an integer, got '١٢'"),
    ("true_rtt=1_0.5", "true_rtt: expected a number, got '1_0.5'"),
    ("initial_e=١.5", "initial_e: expected a number, got '١.5'"),
    ("algorithm.layer3.k=４",
     "algorithm.layer3.k: expected a number, got '４'"),
    ("loss.p=0.١", "loss.p: expected a number, got '0.١'"),
])
def test_numbers_in_config_values_are_ascii_without_underscores(setting,
                                                                 message):
    # int() and float() take both, and --dump-config used to write the
    # value back in the form canonical_config writes, not as it was given
    for flags in ((), ("--dump-config",)):
        result = invoke("run", "loss_sweep", "--set", setting, *flags)
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", [
    ("run",),
    ("sweep", "--set", "axis.param=p", "--set", "axis.values=0.05,0.1"),
], ids=["run", "sweep"])
@pytest.mark.parametrize("seed", ["١٢", "1_2"])
def test_the_seed_option_takes_the_seed_key_s_numbers(command, seed):
    # --seed and --set seed= go through one parser, so they refuse alike
    for flags in ((), ("--dump-config",)):
        result = invoke(*command, "loss_sweep", "--seed", seed, *flags)
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"error: seed: expected an integer, got {seed!r}"]


def test_unwritable_trace_exits_3(tmp_path):
    result = invoke("run", "fig3", "--set", "packets=2",
                    "--trace", str(tmp_path / "no_such_dir" / "t.csv"))
    assert result.exit_code == 3
    assert "cannot write output" in result.output


def test_dump_config_round_trips_to_the_same_run(tmp_path):
    dumped = invoke("run", "fig3", "--seed", "5", "--dump-config")
    assert dumped.exit_code == 0
    config = tmp_path / "dumped.cfg"
    config.write_text(dumped.output)

    direct = tmp_path / "direct.csv"
    replayed = tmp_path / "replayed.csv"
    assert invoke("run", "fig3", "--seed", "5",
                  "--trace", str(direct)).exit_code == 0
    assert invoke("run", "--config", str(config),
                  "--trace", str(replayed)).exit_code == 0
    assert direct.read_bytes() == replayed.read_bytes()


#: command lines whose dumped config must dump to the same bytes: every
#: scenario, the long_transfer and wide_window benchmark configs (stop
#: guard off), three driver runs (a jth_matrix cell, the class-3 drift case
#: and the Tsao-Lee chain at another ingress rate) and the two sweep shapes
#: of the sweep_grid benchmark workload
ROUND_TRIP_COMMANDS = [f"run {name}" for name in SCENARIO_NAMES] + [
    "run loss_sweep --seed 1 --set loss.p=0.1 --set packets=20000"
    " --set stop_estimate_above=none",
    "run loss_sweep --seed 1 --set loss.p=0.05 --set packets=20000"
    " --set window=32 --set timer_mode=per_packet"
    " --set algorithm.layer2=ignore --set algorithm.layer4=exp"
    " --set stop_estimate_above=none",
    "run jth_matrix --set loss.i=3 --set algorithm.layer2.j=1",
    "run classify --set algorithm.layer1.alpha=0.875"
    " --set algorithm.layer2=from_copy --set algorithm.layer2.j=2"
    " --set algorithm.layer3.k=2.0 --set loss.variant=none"
    " --set packets=12 --set initial_e=0.49",
    "run tsao_lee_slow --set topology.ingress_rate=38400",
    "sweep loss_sweep --seed 1 --set axis.param=p --set axis.values=0.05,0.1",
    "sweep tsao_lee_fast --seed 1 --set packets=2000"
    " --set stop_estimate_above=100 --set axis.param=topology.ingress_rate"
    " --set axis.values=19200,38400",
]


@pytest.mark.parametrize("command", ROUND_TRIP_COMMANDS)
def test_a_dumped_config_dumps_to_the_same_bytes(command, tmp_path):
    subcommand, *args = command.split()
    dumped = invoke(subcommand, *args, "--dump-config")
    assert dumped.exit_code == 0, dumped.output
    config = tmp_path / "dumped.cfg"
    config.write_text(dumped.output)
    again = invoke(subcommand, "--config", str(config), "--dump-config")
    assert again.exit_code == 0, again.output
    assert again.output == dumped.output


def test_sweep_emits_a_sorted_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "loss_sweep", "--seed", "1",
                    "--set", "packets=40",
                    "--set", "axis.param=p",
                    "--set", "axis.values=0.2,0.0",
                    "--summary", str(out))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "param,verdict,final_e,throughput,duplicates"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[2].startswith("0.2,")
    assert out.read_text() == result.output


def test_sweep_requires_an_explicit_seed():
    result = invoke("sweep", "loss_sweep",
                    "--set", "axis.param=p", "--set", "axis.values=0.1")
    assert result.exit_code == 2
    assert "explicit seed" in result.output


def test_sweep_requires_an_axis():
    result = invoke("sweep", "loss_sweep", "--seed", "1")
    assert result.exit_code == 2
    assert "axis.param" in result.output


def test_list_policies_catalog():
    result = invoke("list-policies")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "layer1: ewma ewma_shift mills edge" in lines
    assert "layer3: scale mean_plus_dev clamped" in lines
    assert "layer5: fixed_retries growing_retries time_and_retries" in lines
    assert "  mills: alpha1 alpha2" in lines
    assert "  time_and_retries: g r" in lines


def test_sweep_summary_file_has_the_bytes_of_stdout(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "loss_sweep", "--seed", "1",
                    "--set", "packets=20", "--set", "axis.param=p",
                    "--set", "axis.values=0.1,0.2", "--summary", str(out))
    assert result.exit_code == 0
    assert out.read_bytes() == result.output.encode("ascii")


@pytest.mark.parametrize("args", [
    ("run", "fig3", "--dump"),  # no abbreviation: not read as --dump-config
    ("run", "fig3", "--seed", "abc"),
    ("run", "fig3", "--no-such-option"),
    (),
], ids=["abbreviated-option", "non-integer-seed", "unknown-option",
        "no-command"])
def test_usage_errors_exit_2(args):
    result = invoke(*args)
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "Traceback" not in result.output
    assert "scenario = " not in result.output


def test_run_help_exits_0():
    result = invoke("run", "--help")
    assert result.exit_code == 0
    assert "--dump-config" in result.output


def test_main_returns_on_success_unless_standalone(capsys):
    # the benchmark calls main(argv, standalone_mode=False) in-process
    assert main(["run", "fig3", "--set", "packets=2"],
                standalone_mode=False) is None
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fig3", "--set", "packets=2"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "verdict=Bounded\n" * 2


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(rtosim.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_prints_only_the_verdict():
    done = _python("-m", "rtosim.cli", "run", "fig3", "--set", "packets=2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "verdict=Bounded\n"
    assert done.stderr == ""


def test_a_fresh_import_loads_no_click_dataclasses_or_inspect():
    # each short `rtosim` process pays for every module its import pulls in
    done = _python("-c", "import sys; before = set(sys.modules)\n"
                   "import rtosim.cli, rtosim.config, rtosim.scenarios\n"
                   "loaded = set(sys.modules) - before\n"
                   "print(sorted(loaded & {'click', 'dataclasses', "
                   "'inspect'}))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_reproduce_results_prints_the_committed_tables():
    # every line but the per-section (N.NNs) timings
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    done = _python(str(scripts / "reproduce_results.py"))
    assert done.returncode == 0, done.stderr
    tables = re.sub(r"(?m)^   \([0-9]+\.[0-9]+s\)\n", "", done.stdout)
    assert tables == (scripts / "reproduce_results.expected").read_text()
