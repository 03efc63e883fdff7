"""Command-line entry point: compile, gen-problem, plan, play, bench,
validate-kb.

Exit codes: 0 on success, 1 on a domain error (bad game description, failed
validation, lost episode is still 0), 2 on usage errors.  VGDL2PDDL_CONFIG
may point at a YAML file with default paths (games_dir, kb_dir, planners,
out_dir); explicit flags win.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import click
import yaml

from . import agent as agent_mod
from . import bench as bench_mod
from . import engine as engine_mod
from .compiler import compile_game
from .errors import Vgdl2PddlError
from .games import games_dir
from .kb import KnowledgeBase, validate_kb
from .ground import ground
from .pddl import print_domain, print_problem, format_plan, read_domain, read_problem
from .planner import Mode, SearchConfig, Status, external_solve, solve
from .problems import config_to_text, emit_config, generate_problem
from .vgdl import parse_gdf, parse_ldf

MODE_NAMES = {
    "gbfs": Mode.GBFS_HADD,
    "bfs": Mode.BLIND_BFS,
    "astar": Mode.ASTAR_HADD,
    "goalcount": Mode.GOAL_COUNT,
}

SECONDS = click.FloatRange(min=0, min_open=True)  # a search time limit


class ProjectConfig:
    """Optional default paths from the file VGDL2PDDL_CONFIG points at.

    Unconfigured entries stay None and each command falls back to its own
    default (shipped games, shipped templates, local output directories).
    """

    def __init__(self):
        self.games_dir = None
        self.kb_dir = None
        self.planners = None
        self.out_dir = None
        path = os.environ.get("VGDL2PDDL_CONFIG")
        if path:
            data = yaml.safe_load(Path(path).read_text()) or {}
            for key in ("games_dir", "kb_dir", "planners", "out_dir"):
                if key in data:
                    value = Path(data[key])
                    if key != "out_dir" and not value.exists():
                        raise Vgdl2PddlError(
                            f"config {key} does not exist: {value}")
                    setattr(self, key, value)


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
def main():
    """VGDL-to-PDDL compiler toolchain."""


def _load_game_file(gdf: Path):
    return parse_gdf(Path(gdf).read_text(), name=Path(gdf).stem)


@main.command("compile")
@click.argument("gdf", type=click.Path(exists=True, path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=Path("out"),
              show_default=True, help="output directory")
def compile_cmd(gdf: Path, out: Path):
    """Compile a GDF into <game>.pddl and <game>.yaml."""
    try:
        game = compile_game(_load_game_file(gdf))
        out.mkdir(parents=True, exist_ok=True)
        domain_path = out / f"{game.model.name}.pddl"
        config_path = out / f"{game.model.name}.yaml"
        domain_path.write_text(print_domain(game.domain))
        config_path.write_text(config_to_text(emit_config(game)))
        click.echo(f"wrote {domain_path} and {config_path}")
    except Vgdl2PddlError as exc:
        _fail(exc)


@main.command("gen-problem")
@click.argument("gdf", type=click.Path(exists=True, path_type=Path))
@click.argument("ldf", type=click.Path(exists=True, path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=Path("out"),
              show_default=True)
def gen_problem_cmd(gdf: Path, ldf: Path, out: Path):
    """Translate a level file into a PDDL problem."""
    try:
        game = compile_game(_load_game_file(gdf))
        grid = parse_ldf(Path(ldf).read_text(), game.model)
        problem, _ = generate_problem(grid, game)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{Path(ldf).stem}.pddl"
        path.write_text(print_problem(problem))
        click.echo(f"wrote {path}")
    except Vgdl2PddlError as exc:
        _fail(exc)


@main.command("plan")
@click.option("--domain", "domain_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--mode", type=click.Choice(sorted(MODE_NAMES)), default="gbfs",
              show_default=True)
@click.option("--time", "time_limit", type=SECONDS, default=60.0,
              show_default=True, help="seconds")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cmd", default=None,
              help="external planner command template ({domain} {problem} {plan})")
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="write the plan here instead of stdout")
def plan_cmd(domain_path, problem_path, mode, time_limit, seed, cmd, out):
    """Find a plan for a domain/problem pair."""
    try:
        if cmd is not None:
            result = external_solve(domain_path, problem_path, cmd, time_limit)
        else:
            task = ground(read_domain(domain_path.read_text()),
                          read_problem(problem_path.read_text()))
            result = solve(task, SearchConfig(mode=MODE_NAMES[mode],
                                              time_limit=time_limit,
                                              seed=seed))
        if result.status is not Status.SOLVED:
            _fail(Vgdl2PddlError(f"planner finished with {result.status.value} "
                                 f"after {result.stats.wall_time:.2f}s"))
        text = format_plan(result.steps)
        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
            click.echo(f"wrote {out} ({len(result.plan)} steps)")
        else:
            click.echo(text, nl=False)
    except Vgdl2PddlError as exc:
        _fail(exc)


@main.command("play")
@click.option("--gdf", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--ldf", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--planner", type=click.Choice(sorted(MODE_NAMES)),
              default="gbfs", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=2000,
              show_default=True)
@click.option("--time", "time_limit", type=SECONDS, default=60.0,
              show_default=True)
@click.option("--trace", type=click.Path(path_type=Path), default=None)
@click.option("--render", type=click.Choice(["ascii"]), default=None)
def play_cmd(gdf, ldf, planner, seed, budget, time_limit, trace, render):
    """Run the plan-monitor-replan agent on one level."""
    try:
        game = compile_game(_load_game_file(gdf))
        grid = parse_ldf(Path(ldf).read_text(), game.model)
        if trace is not None:
            trace.parent.mkdir(parents=True, exist_ok=True)
        on_step = None
        if render == "ascii":
            state = engine_mod.load(game.model, grid, seed=seed)
            click.echo(f"turn 0\n{engine_mod.render_ascii(state)}")

            def on_step(current):
                click.echo(f"turn {current.turn}\n"
                           f"{engine_mod.render_ascii(current)}")
        cfg = SearchConfig(mode=MODE_NAMES[planner], time_limit=time_limit,
                           seed=seed)
        result = agent_mod.run_episode(game, grid, cfg, seed=seed,
                                       budget=budget, trace=trace,
                                       on_step=on_step)
        click.echo(f"outcome={result.outcome.value} turns={result.turns} "
                   f"replans={result.replans} "
                   f"plans={result.plan_lengths}")
    except Vgdl2PddlError as exc:
        _fail(exc)


@main.command("bench")
@click.option("--suite", type=click.Path(exists=True, path_type=Path),
              default=None, help="games directory (default: shipped games)")
@click.option("--planners", "planners_path",
              type=click.Path(exists=True, path_type=Path), default=None,
              help="planner config YAML (default: built-in gbfs + blind bfs)")
@click.option("--games", "game_names", default=None,
              help="comma-separated subset of games")
@click.option("--time", "time_limit", type=SECONDS, default=900.0,
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="result directory [default: bench-out]")
def bench_cmd(suite, planners_path, game_names, time_limit, jobs, out):
    """Run the games x levels x planners benchmark."""
    try:
        project = ProjectConfig()
        suite = suite or project.games_dir
        planners_path = planners_path or project.planners
        out = out or (project.out_dir / "bench" if project.out_dir
                      else Path("bench-out"))
        planners = bench_mod.load_planners(planners_path)
        games = game_names.split(",") if game_names else None
        bench_mod.run_suite(suite_dir=suite, planners=planners, games=games,
                            time_limit=time_limit, jobs=jobs, out_dir=out)
        click.echo((Path(out) / "report.txt").read_text(), nl=False)
    except Vgdl2PddlError as exc:
        _fail(exc)


@main.command("validate-kb")
@click.option("--kb", "kb_dir", type=click.Path(exists=True, path_type=Path),
              default=None, help="template directory (default: shipped)")
def validate_kb_cmd(kb_dir):
    """Run every template's micro-domain unit test."""
    try:
        kb_dir = kb_dir or ProjectConfig().kb_dir
        kb = KnowledgeBase(kb_dir)
        results = validate_kb(kb)
        failures = 0
        for r in sorted(results, key=lambda r: (r.template_id, r.case)):
            line = f"{r.status.upper():8s} {r.template_id}"
            if r.case and r.case != r.template_id:
                line += f" [{r.case}]"
            if r.message:
                line += f"  ({r.message})"
            click.echo(line)
            if r.status == "fail":
                failures += 1
        if any(r.status == "vacuous" for r in results):
            click.echo("note: vacuous entries have no behaviour to check",
                       err=True)
        if failures:
            _fail(Vgdl2PddlError(f"{failures} template check(s) failed"))
    except Vgdl2PddlError as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
