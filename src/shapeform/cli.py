"""Command-line interface: generate scenarios, run plans, sweep experiments."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import click

from .generate import GenParams, generate_scenario
from .model import AlgoParams, ScenarioError, validate_scenario
from .scenario_io import (ParseError, export_event_log, load_scenario, save_result,
                          save_scenario)
from .simulate import run_scenario
from .sweeps import SWEEP_KINDS, SweepParams, run_cases, run_sweep

OUT_DIR_ENV = "SHAPEFORM_OUT_DIR"


def _writable(path: Path, source: str) -> Path:
    """``path`` if a file can be written there; a usage error (exit 2), raised
    before any work, if it names a directory or its directory is missing."""
    if path.is_dir():
        raise click.UsageError(f"{source}: {str(path)!r} is a directory")
    if not path.parent.is_dir():
        raise click.UsageError(f"{source}: directory {str(path.parent)!r} does not exist")
    return path


def _out_path(out: str | None, default_name: str) -> Path:
    if out:
        return _writable(Path(out), "--out")
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    try:
        base.mkdir(parents=True, exist_ok=True)
    except OSError:
        raise click.UsageError(f"{OUT_DIR_ENV}: cannot use {str(base)!r} "
                               "as a directory") from None
    return _writable(base / default_name, OUT_DIR_ENV)


def _parse_points(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a comma-separated list of integers",
                                 param_hint="'--points'") from None


class _Main(click.Group):
    """Reports a bad scenario file or parameter as one ``Error:`` line and
    exit code 1; engine errors keep their traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ScenarioError, ParseError) as error:
            raise click.ClickException(str(error)) from error


@click.group(cls=_Main)
def main() -> None:
    """Configuration-formation planner and experiment harness."""


@main.command()
@click.option("--spots", "n_spots", type=int, required=True, help="Spots in the target.")
@click.option("--modules", "n_modules", type=int, default=None,
              help="Module count (defaults to --spots).")
@click.option("--seed", type=int, default=0)
@click.option("--equal-config-size", type=int, default=None,
              help="All initial configurations take this size (reproduction mode).")
@click.option("--singletons-only", is_flag=True, default=False)
@click.option("--dmax", type=int, default=3,
              help="Eviction depth bound: the most hops an eviction chain may take.")
@click.option("--max-embeddings", type=int, default=20)
@click.option("--out", type=str, default=None)
def generate(n_spots, n_modules, seed, equal_config_size, singletons_only,
             dmax, max_embeddings, out):
    """Generate a random scenario file."""
    path = _out_path(out, f"scenario_{n_spots}_{seed}.json")
    params = GenParams(n_spots=n_spots, n_modules=n_modules, seed=seed,
                       equal_config_size=equal_config_size,
                       singletons_only=singletons_only,
                       algo_params=AlgoParams(max_eviction_depth=dmax,
                                              max_embeddings=max_embeddings))
    scenario = generate_scenario(params)
    save_scenario(scenario, path)
    click.echo(f"wrote {path} ({len(scenario.modules)} modules, "
               f"{len(scenario.configurations)} configurations, "
               f"{len(scenario.target.spots)} spots)")


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--dmax", type=int, default=None, help="Override eviction bound.")
@click.option("--max-embeddings", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--events", type=str, default=None, help="Also export the event log here.")
def run(scenario_path, dmax, max_embeddings, out, events):
    """Plan and act one scenario, saving the result as JSON."""
    path = _out_path(out, Path(scenario_path).stem + "_result.json")
    events_path = _writable(Path(events), "--events") if events else None
    scenario = load_scenario(scenario_path)
    algo = scenario.algo_params
    if dmax is not None:
        algo = dataclasses.replace(algo, max_eviction_depth=dmax)
    if max_embeddings is not None:
        algo = dataclasses.replace(algo, max_embeddings=max_embeddings)
    scenario = validate_scenario(dataclasses.replace(scenario, algo_params=algo))
    result = run_scenario(scenario)
    save_result(result, path)
    if events_path:
        export_event_log(result, events_path)
    m = result.metrics
    click.echo(f"complete={result.complete} spots={len(result.allocation)} "
               f"planning={m.planning_wall_time * 1000:.1f}ms "
               f"broadcasts={m.broadcast_count} distance={m.total_distance:.2f} "
               f"disconnections={m.disconnection_count} utility={m.total_utility:.3f}")
    click.echo(f"wrote {path}")


@main.command()
@click.argument("kind", type=click.Choice(SWEEP_KINDS))
@click.option("--points", type=str, default=None,
              help="Comma-separated sweep points: module counts, or block sizes for "
                   "table1 and mcs_time (default: the kind's grid).")
@click.option("--spots", "n_spots", type=int, default=100,
              help="Spot count for table1 and mcs_time.")
@click.option("--runs", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--dmax", type=int, default=3)
@click.option("--max-embeddings", type=int, default=20)
@click.option("--out", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def sweep(kind, points, n_spots, runs, seed, dmax, max_embeddings, out, fmt):
    """Run one experiment sweep and write a report."""
    path = _out_path(out, f"sweep_{kind}.{fmt}")
    params = SweepParams(points=None if points is None else _parse_points(points), runs=runs,
                         seed=seed, spots=n_spots,
                         algo_params=AlgoParams(max_eviction_depth=dmax,
                                                max_embeddings=max_embeddings))
    report = run_sweep(kind, params)
    report.write(path, fmt)
    click.echo(report.to_csv().rstrip())
    if report.failures:
        click.echo(f"{len(report.failures)} failed runs recorded")
    click.echo(f"wrote {path}")


@main.command()
@click.argument("case_dir", type=click.Path(exists=True, file_okay=False), default="cases")
@click.option("--out", type=str, default=None)
def cases(case_dir, out):
    """Run the bundled formation cases and check recorded expectations."""
    path = _out_path(out, "cases_report.json")
    report = run_cases(case_dir, path)
    for row in report.rows:
        click.echo(f"{row['case']}: planning={row['planning_time_s'] * 1000:.1f}ms "
                   f"disconnections={row['disconnections']} "
                   f"complete={row['complete']} ok={row['ok']}")
    path.write_text(report.to_json())
    click.echo(f"wrote {path}")
    if not report.all_ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
