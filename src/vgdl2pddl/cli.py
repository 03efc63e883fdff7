"""Command-line entry point: compile, gen-problem, plan, play, bench,
validate-kb.

Exit codes: 0 on success, 1 on a domain error (bad game description, failed
validation, malformed planners file or command template; a lost episode is
still 0), 2 on usage errors, among them a path of the wrong kind (a file
where a directory is expected, or the reverse) and an output path under a
file.  VGDL2PDDL_CONFIG may point at a YAML file with default paths
(games_dir, kb_dir, planners, out_dir); explicit flags win.  A config file
that is not YAML or not a mapping, or a configured path of the wrong kind,
is a domain error.
"""
from __future__ import annotations

import os
from pathlib import Path

import click
import yaml

from . import agent as agent_mod
from . import bench as bench_mod
from . import engine as engine_mod
from .compiler import compile_game
from .errors import Vgdl2PddlError
from .games import available_games, games_dir
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


class _OutputPath(click.Path):
    """A path a command writes, creating its missing directories: the
    nearest ancestor that exists must be a directory."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        ancestor = next((p for p in path.parents if p.exists()), None)
        if ancestor is not None and not ancestor.is_dir():
            self.fail(f"{str(path)!r} is under the file {str(ancestor)!r}.",
                      param, ctx)
        return path


# the four kinds of path a command takes; a path of the wrong kind is a
# usage error, raised before the command runs
INPUT_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
INPUT_DIR = click.Path(exists=True, file_okay=False, path_type=Path)
OUTPUT_FILE = _OutputPath(dir_okay=False, path_type=Path)
OUTPUT_DIR = _OutputPath(file_okay=False, path_type=Path)


class ProjectConfig:
    """Optional default paths from the file VGDL2PDDL_CONFIG points at.

    Unconfigured entries stay None and each command falls back to its own
    default (shipped games, shipped templates, local output directories).
    A file that is not YAML, or whose top level is not a mapping, is a
    domain error.
    """

    def __init__(self):
        self.games_dir = None
        self.kb_dir = None
        self.planners = None
        self.out_dir = None
        path = os.environ.get("VGDL2PDDL_CONFIG")
        if path:
            path = _configured(INPUT_FILE, path, "VGDL2PDDL_CONFIG")
            try:
                data = yaml.safe_load(path.read_text())
            except yaml.YAMLError as exc:
                raise Vgdl2PddlError(f"VGDL2PDDL_CONFIG: {path}: {exc}") from None
            if data is None:
                data = {}  # an empty file
            if not isinstance(data, dict):
                raise Vgdl2PddlError(
                    f"VGDL2PDDL_CONFIG: {path}: expected a mapping of default "
                    f"paths, got a {type(data).__name__}")
            for key, kind in (("games_dir", INPUT_DIR), ("kb_dir", INPUT_DIR),
                              ("planners", INPUT_FILE),
                              ("out_dir", OUTPUT_DIR)):
                if key in data:
                    setattr(self, key, _configured(kind, data[key],
                                                   f"config {key}"))


def _configured(kind: click.Path, value, name: str) -> Path:
    """`value` as a path of `kind`; a domain error naming `name` if it is
    not one."""
    try:
        return kind.convert(str(value), None, None)
    except click.BadParameter as exc:
        raise Vgdl2PddlError(f"{name}: {exc.message}") from None


class _Toolchain(click.Group):
    """The command group, and the one exit for a domain error: a command
    that raises one prints `error: <message>` and exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Vgdl2PddlError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Toolchain)
def main():
    """VGDL-to-PDDL compiler toolchain."""


def _load_game_file(gdf: Path):
    return parse_gdf(gdf.read_text(), name=gdf.stem)


@main.command("compile")
@click.argument("gdf", type=INPUT_FILE)
@click.option("--out", type=OUTPUT_DIR, default=Path("out"),
              show_default=True, help="output directory")
def compile_cmd(gdf: Path, out: Path):
    """Compile a GDF into <game>.pddl and <game>.yaml."""
    game = compile_game(_load_game_file(gdf))
    out.mkdir(parents=True, exist_ok=True)
    domain_path = out / f"{game.model.name}.pddl"
    config_path = out / f"{game.model.name}.yaml"
    domain_path.write_text(print_domain(game.domain))
    config_path.write_text(config_to_text(emit_config(game)))
    click.echo(f"wrote {domain_path} and {config_path}")


@main.command("gen-problem")
@click.argument("gdf", type=INPUT_FILE)
@click.argument("ldf", type=INPUT_FILE)
@click.option("--out", type=OUTPUT_DIR, default=Path("out"),
              show_default=True)
def gen_problem_cmd(gdf: Path, ldf: Path, out: Path):
    """Translate a level file into a PDDL problem."""
    game = compile_game(_load_game_file(gdf))
    grid = parse_ldf(ldf.read_text(), game.model)
    problem, _ = generate_problem(grid, game)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{ldf.stem}.pddl"
    path.write_text(print_problem(problem))
    click.echo(f"wrote {path}")


@main.command("plan")
@click.option("--domain", "domain_path", required=True, type=INPUT_FILE)
@click.option("--problem", "problem_path", required=True, type=INPUT_FILE)
@click.option("--mode", type=click.Choice(sorted(MODE_NAMES)), default="gbfs",
              show_default=True)
@click.option("--time", "time_limit", type=SECONDS, default=60.0,
              show_default=True, help="seconds")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cmd", default=None,
              help="external planner command template ({domain} {problem} {plan})")
@click.option("--out", type=OUTPUT_FILE, default=None,
              help="write the plan here instead of stdout")
def plan_cmd(domain_path, problem_path, mode, time_limit, seed, cmd, out):
    """Find a plan for a domain/problem pair."""
    if cmd is not None:
        result = external_solve(domain_path, problem_path, cmd, time_limit)
    else:
        task = ground(read_domain(domain_path.read_text()),
                      read_problem(problem_path.read_text()))
        result = solve(task, SearchConfig(mode=MODE_NAMES[mode],
                                          time_limit=time_limit,
                                          seed=seed))
    if result.status is not Status.SOLVED:
        raise Vgdl2PddlError(f"planner finished with {result.status.value} "
                             f"after {result.stats.wall_time:.2f}s")
    text = format_plan(result.steps)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        click.echo(f"wrote {out} ({len(result.plan)} steps)")
    else:
        click.echo(text, nl=False)


@main.command("play")
@click.option("--gdf", required=True, type=INPUT_FILE)
@click.option("--ldf", required=True, type=INPUT_FILE)
@click.option("--planner", type=click.Choice(sorted(MODE_NAMES)),
              default="gbfs", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=2000,
              show_default=True)
@click.option("--time", "time_limit", type=SECONDS, default=60.0,
              show_default=True)
@click.option("--trace", type=OUTPUT_FILE, default=None)
@click.option("--render", type=click.Choice(["ascii"]), default=None)
def play_cmd(gdf, ldf, planner, seed, budget, time_limit, trace, render):
    """Run the plan-monitor-replan agent on one level."""
    game = compile_game(_load_game_file(gdf))
    grid = parse_ldf(ldf.read_text(), game.model)
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


@main.command("bench")
@click.option("--suite", type=INPUT_DIR, default=None,
              help="games directory (default: shipped games)")
@click.option("--planners", "planners_path", type=INPUT_FILE, default=None,
              help="planner config YAML (default: built-in gbfs + blind bfs)")
@click.option("--games", "game_names", default=None,
              help="comma-separated subset of games")
@click.option("--time", "time_limit", type=SECONDS, default=900.0,
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--out", type=OUTPUT_DIR, default=None,
              help="result directory [default: bench-out]")
def bench_cmd(suite, planners_path, game_names, time_limit, jobs, out):
    """Run the games x levels x planners benchmark."""
    project = ProjectConfig()
    suite = suite or project.games_dir or games_dir()
    planners_path = planners_path or project.planners
    out = out or (project.out_dir / "bench" if project.out_dir
                  else Path("bench-out"))
    games = None
    if game_names is not None:
        games = game_names.split(",")
        known = available_games(suite)
        for name in games:
            if name not in known:
                raise click.BadParameter(
                    f"no game {name!r} in {suite}",
                    param_hint="'--games'")
    planners = bench_mod.load_planners(planners_path)
    bench_mod.run_suite(suite_dir=suite, planners=planners, games=games,
                        time_limit=time_limit, jobs=jobs, out_dir=out)
    click.echo((out / "report.txt").read_text(), nl=False)


@main.command("validate-kb")
@click.option("--kb", "kb_dir", type=INPUT_DIR, default=None,
              help="template directory (default: shipped)")
def validate_kb_cmd(kb_dir):
    """Run every template's micro-domain unit test."""
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
        raise Vgdl2PddlError(f"{failures} template check(s) failed")


if __name__ == "__main__":
    main()
