"""Command-line entry points: run scenarios, summarize metrics, audit dumps."""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
import sys

import click

from .chain import DumpFormatError
from .harness import (
    ScenarioConfig,
    ScenarioError,
    audit as run_audit,
    read_metrics_csv,
    render_summary,
    run_scenario,
    summarize as summarize_runs,
    write_metrics_csv,
)
from .model import ModelError

# refusals of bad input: reported in one line, without a traceback
_REFUSALS = (ScenarioError, ModelError, DumpFormatError)


def _configure_logging() -> None:
    level = os.environ.get("CHORCHAIN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="[%(asctime)s] %(name)s %(levelname)s %(message)s")


@click.group()
def main() -> None:
    """Choreography runtime verification over a simulated blockchain."""
    _configure_logging()


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


@main.command()
@click.option("--model", type=click.IntRange(1, 4), required=True, help="evaluation model number")
@click.option("--variant", default="0", show_default=True, help="comma list of XOR branch picks")
@click.option("--verify", type=click.Choice(["on", "off"]), default="on", show_default=True)
@click.option("--greedy", type=click.Choice(["on", "off"]), default="off", show_default=True)
@click.option("--fault-step", default="none", show_default=True,
              help="1-based handover to corrupt, or 'none'")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
@click.option("--block-mean", type=click.FloatRange(min=0, min_open=True), default=6.0,
              show_default=True, callback=_finite,
              help="mean block interval in simulated seconds")
@click.option("--fee", type=click.IntRange(min=1), default=18_982, show_default=True,
              help="per-transaction fee [sat]")
@click.option("--reps", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def run(model, variant, verify, greedy, fault_step, seed, block_mean, fee, reps, out) -> None:
    """Execute one scenario and write metrics, chain dumps, and traces."""
    try:
        fault = None if fault_step == "none" else int(fault_step)
    except ValueError:
        raise click.ClickException(
            f"fault step {fault_step!r} is neither a handover number nor 'none'"
        ) from None
    config = ScenarioConfig(
        model_id=model,
        variant=variant,
        verify=verify == "on",
        greedy=greedy == "on",
        fault_step=fault,
        seed=seed,
        block_interval_mean=block_mean,
        fee_per_tx=fee,
        repetitions=reps,
    )
    try:
        result = run_scenario(config)
    except _REFUSALS as exc:
        raise click.ClickException(str(exc)) from None
    out_dir = pathlib.Path(out)
    (out_dir / "chains").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w", newline="") as fp:
        write_metrics_csv(result.runs, fp)
    for rep, (dump, trace) in enumerate(zip(result.dumps, result.trace_reports)):
        if dump:
            (out_dir / "chains" / f"rep{rep}.chain").write_text(dump)
        (out_dir / "traces" / f"rep{rep}.json").write_text(json.dumps(trace, indent=2))
    with open(out_dir / "metrics.csv") as fp:
        summary = summarize_runs(read_metrics_csv(fp))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    click.echo(render_summary(summary))


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def summarize(directory, as_json) -> None:
    """Aggregate every metrics.csv found under DIRECTORY."""
    rows = []
    for path in sorted(pathlib.Path(directory).rglob("metrics.csv")):
        with open(path) as fp:
            rows.extend(read_metrics_csv(fp))
    if not rows:
        raise click.ClickException(f"no metrics.csv under {directory}")
    summary = summarize_runs(rows)
    click.echo(json.dumps(summary, indent=2) if as_json else render_summary(summary))


@main.command()
@click.option("--chain", "chain_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--model", "model_file", type=click.Path(exists=True, dir_okay=False), required=True)
def audit(chain_file, model_file) -> None:
    """Verify every process instance recorded in a chain dump."""
    try:
        report = run_audit(
            pathlib.Path(chain_file).read_text(), pathlib.Path(model_file).read_text()
        )
    except _REFUSALS as exc:
        raise click.ClickException(str(exc)) from None
    click.echo(report.to_json())
    if not report.all_clean:
        sys.exit(1)


if __name__ == "__main__":
    main()
