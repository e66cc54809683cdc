"""Command-line entry point: mipt-qfi <experiment> --config FILE [--out DIR].

Exit codes: 0 success, 2 invalid config, 3 a cross-check exceeded its
tolerance, 4 numerical fault.
"""

from __future__ import annotations

import sys

import click

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
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except ToleranceFailure as exc:
        click.echo(f"tolerance failure: {exc}", err=True)
        sys.exit(EXIT_TOLERANCE)
    except NumericalFault as exc:
        click.echo(f"numerical fault: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(f"wrote {result.csv_path} and {result.json_path}")


@click.group()
def main() -> None:
    """Monitored Ising chain QFI experiments."""


def _register(name: str) -> None:
    @main.command(name=name)
    @click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
    @click.option("--out", default=None, type=click.Path(), help="output directory")
    def _cmd(config_path: str, out: str | None) -> None:
        _execute(name, config_path, out)

    _cmd.__doc__ = f"Run the {name} experiment."


for _name in EXPERIMENTS:
    _register(_name)


if __name__ == "__main__":
    main()
