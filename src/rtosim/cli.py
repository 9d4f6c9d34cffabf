"""The rtosim command: run scenarios, sweep a parameter, list policies.

Built on argparse.  Exit codes: 0 success, 2 configuration or usage error,
3 I/O error.  The only machine-readable success output of `run` is the final
`verdict=...` line.
"""
from __future__ import annotations

import argparse
import sys

from .config import (
    ConfigError,
    LAYER_POLICIES,
    apply_overrides,
    build_scenario,
    canonical_config,
    dump_config,
    load_config,
    resolve_axis,
)
from .metrics import write_summary, write_trace
from .scenarios import run_scenario

EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command in `argv` (default: the process arguments).  Errors
    exit 2 or 3; success exits 0 if `standalone_mode`, else returns."""
    args = _parser().parse_args(argv)
    args.handler(args)
    if standalone_mode:
        sys.exit(0)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtosim", allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, handler) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=handler.__doc__.split("\n")[0],
                                  description=handler.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler)
        return sub

    run = command("run", _run)
    sweep = command("sweep", _sweep)
    command("list-policies", _list_policies)
    for sub, summary_help, seed_help in (
            (run, "Write the key=value summary here.", "Random seed."),
            (sweep, "Also write the CSV table here.",
             "Random seed (required for sweeps).")):
        sub.add_argument("scenario", nargs="?", help="Named base scenario.")
        sub.add_argument("--config", dest="config_path", metavar="PATH",
                         help="Config file (flat key = value).")
        sub.add_argument("--set", dest="overrides", action="append",
                         default=[], metavar="KEY=VALUE",
                         help="Override one config key; repeatable.")
        sub.add_argument("--summary", dest="summary_path", metavar="PATH",
                         help=summary_help)
        # kept as text for the seed key's own parser (config._as_int)
        sub.add_argument("--seed", help=seed_help)
        sub.add_argument("--dump-config", dest="dump", action="store_true",
                         help="Print the effective config and exit.")
    run.add_argument("--trace", dest="trace_path", metavar="PATH",
                     help="Write the event trace CSV here.")
    return parser


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _gather(args: argparse.Namespace) -> dict[str, str]:
    config: dict[str, str] = {}
    if args.config_path is not None:
        try:
            config = load_config(args.config_path)
        except OSError as exc:
            _fail(EXIT_IO_ERROR, f"cannot read config: {exc}")
    config = apply_overrides(config, args.overrides)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.scenario is not None:
        config["scenario"] = args.scenario
    return config


def _run(args: argparse.Namespace) -> None:
    """Run one scenario and print its verdict."""
    try:
        built = build_scenario(_gather(args))
    except ConfigError as exc:
        _fail(EXIT_CONFIG_ERROR, str(exc))
    if args.dump:
        sys.stdout.write(dump_config(canonical_config(built)))
        return
    result = run_scenario(built)
    try:
        if args.trace_path is not None:
            write_trace(result.rows, args.trace_path)
        if args.summary_path is not None:
            write_summary(result.summary, args.summary_path)
    except OSError as exc:
        _fail(EXIT_IO_ERROR, f"cannot write output: {exc}")
    print(f"verdict={result.summary.verdict}")


def _sweep(args: argparse.Namespace) -> None:
    """Run a scenario once per axis value and print a CSV table.

    The axis is named by config keys, e.g.:
    --set axis.param=p --set axis.values=0.05,0.1,0.2
    """
    try:
        config = _gather(args)
        if "seed" not in config:
            raise ConfigError("sweeps need an explicit seed (--seed)")
        axis_key, values = resolve_axis(config)
        base = {key: value for key, value in config.items()
                if not key.startswith("axis.")}
        if args.dump:
            effective = canonical_config(build_scenario(base))
            effective.update((key, config[key])
                             for key in ("axis.param", "axis.values"))
            sys.stdout.write(dump_config(effective))
            return
        table = ["param,verdict,final_e,throughput,duplicates"]
        for numeric, raw in sorted(values, key=lambda pair: pair[0]):
            summary = run_scenario(
                build_scenario({**base, axis_key: raw})).summary
            table.append(f"{numeric:g},{summary.verdict},"
                         f"{summary.final_e:.6f},{summary.throughput:.6f},"
                         f"{summary.duplicates_received}")
    except ConfigError as exc:
        _fail(EXIT_CONFIG_ERROR, str(exc))
    text = "\n".join(table) + "\n"
    sys.stdout.write(text)
    if args.summary_path is not None:
        try:
            with open(args.summary_path, "w", encoding="ascii",
                      newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(EXIT_IO_ERROR, f"cannot write output: {exc}")


def _list_policies(args: argparse.Namespace) -> None:
    """Print every policy identifier, grouped by layer."""
    for layer in range(1, 6):
        registry = LAYER_POLICIES[layer]
        print(f"layer{layer}: " + " ".join(registry))
        for ident, cls in registry.items():
            if cls._fields:
                print(f"  {ident}: " + " ".join(cls._fields))


if __name__ == "__main__":
    main()
