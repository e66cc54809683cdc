"""Command-line entry point: mipt-qfi <experiment> --config FILE [--out DIR].

Exit codes: 0 success, 2 invalid config or usage, 3 a cross-check exceeded
its tolerance, 4 numerical fault.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalFault, ToleranceFailure
from .experiments import EXPERIMENTS, load_config, run_experiment

EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_NUMERICAL = 4


def _execute(experiment: str, config_path: str, out: str | None) -> None:
    try:
        config = load_config(config_path)
        # run_experiment rejects a config that is no JSON object
        if isinstance(config, dict):
            declared = config.get("experiment")
            if declared is None:
                config["experiment"] = experiment
            elif declared != experiment:
                raise ConfigError(
                    f"config declares experiment {declared!r} but the "
                    f"{experiment!r} subcommand was invoked"
                )
        result = run_experiment(config, out_dir=out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_TOLERANCE)
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERICAL)
    print(f"wrote {result.csv_path} and {result.json_path}")


def main(argv: list[str] | None = None) -> None:
    """Monitored Ising chain QFI experiments."""
    parser = argparse.ArgumentParser(prog="mipt-qfi", description=main.__doc__)
    commands = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT", required=True)
    for name in EXPERIMENTS:
        command = commands.add_parser(name, help=f"Run the {name} experiment.", allow_abbrev=False)
        command.add_argument("--config", required=True, metavar="FILE", help="JSON config file")
        command.add_argument("--out", metavar="DIR", help="output directory")
    args = parser.parse_args(argv)
    _execute(args.experiment, args.config, args.out)


if __name__ == "__main__":
    main(sys.argv[1:])
