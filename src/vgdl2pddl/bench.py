"""IPC-2018-style benchmark harness over games x levels x planners.

Metrics per planner and game:
  * coverage     -- number of levels solved;
  * satisficing  -- sum over levels of C*/C, the best known plan length over
                    the found length (0 when unsolved); the per-level
                    reference C* is the cheapest plan any planner found, and
                    is flagged "optimal" when a BlindBFS run produced it;
  * agile        -- sum over levels of the logarithmic time score:
                    1 for T <= 1s, 1 - log(T)/log(900) up to the 900s cap, 0
                    beyond.

Write-ups sometimes print the satisficing ratio inverted (C/C*); the IPC
convention C*/C is implemented here so per-level scores stay within [0, 1].

Times wrap grounding + search (compilation is excluded).  A suite runs one
job per (game, level): it parses the level and generates and grounds its
problem once, then runs every planner whose row is missing on the result,
as a portfolio runs every search on one translated task (Fast Downward
Stone Soup).  Each built-in planner's row is charged the level's grounding
time plus its own search time.  The domain's grounding program is built
before the grounding clock starts, with compilation; external planners
read PDDL files instead, and a level that only they run is not grounded.
Results persist as one CSV row per (planner, game, level); rerunning with a
partial results file skips finished rows and recomputes identical
aggregates.
"""
from __future__ import annotations

import csv
import math
import os
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Optional

import yaml

from .compiler import CompiledGame, compile_game
from .engine import load
from .errors import PlannerConfigError
from .games import available_games, level_paths, load_game
from .ground import GroundedTask, domain_program, ground
from .kb import KnowledgeBase
from .pddl import Domain, print_domain, print_problem
from .planner import (Mode, SearchConfig, Status, check_command,
                      external_solve, solve)
from .problems import generate_problem
from .vgdl import SPRITE_TYPE_BY_NAME, LevelGrid, parse_ldf

TIME_CAP = 900.0


# -- metrics -------------------------------------------------------------------------

def score_coverage(solved_flags) -> int:
    return sum(1 for s in solved_flags if s)


def score_satisficing(length: Optional[int], reference: Optional[int]) -> float:
    """C*/C for a solved level; 0 when unsolved."""
    if length is None or reference is None or length <= 0:
        return 0.0
    return reference / length


def score_agile(seconds: Optional[float]) -> float:
    if seconds is None:
        return 0.0
    if seconds <= 1.0:
        return 1.0
    if seconds > TIME_CAP:
        return 0.0
    return 1.0 - math.log(seconds) / math.log(TIME_CAP)


@dataclass(frozen=True)
class DomainStats:
    types: int
    supertypes: int
    predicates: int
    actions: int


def domain_stats(domain: Domain) -> DomainStats:
    """Element counts; supertypes are the declared VGDL-class type names."""
    class_names = {n.lower() for n in SPRITE_TYPE_BY_NAME}
    supertypes = sum(1 for n, _ in domain.types if n.lower() in class_names)
    return DomainStats(
        types=len(domain.types) - supertypes,
        supertypes=supertypes,
        predicates=len(domain.predicates),
        actions=len(domain.actions),
    )


# -- planner configuration ------------------------------------------------------------

@dataclass(frozen=True)
class PlannerSpec:
    name: str
    mode: Optional[Mode] = None  # builtin
    cmd: Optional[str] = None    # external command template

    @property
    def is_blind(self) -> bool:
        return self.mode is Mode.BLIND_BFS


BUILTIN_PLANNERS = (
    PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),
    PlannerSpec("blind-bfs", mode=Mode.BLIND_BFS),
)


def load_planners(path: Optional[Path]) -> tuple[PlannerSpec, ...]:
    """The built-in planners, or those the YAML file at `path` lists; a
    malformed file raises a PlannerConfigError naming it and the entry."""
    if path is None:
        return BUILTIN_PLANNERS
    try:
        data = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise PlannerConfigError(f"{path}: {exc}") from None
    entries = data.get("planners") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise PlannerConfigError(f"{path}: no 'planners' list")
    specs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise PlannerConfigError(
                f"{path}: planner entry {index} has no name")
        where = f"{path}: planner {entry['name']!r}"
        if ("mode" in entry) == ("cmd" in entry):
            raise PlannerConfigError(
                f"{where} needs exactly one of mode and cmd")
        try:
            if "cmd" in entry:
                check_command(entry["cmd"])
                spec = PlannerSpec(entry["name"], cmd=entry["cmd"])
            else:
                spec = PlannerSpec(entry["name"], mode=Mode(entry["mode"]))
        except PlannerConfigError as exc:
            raise PlannerConfigError(f"{where}: {exc}") from None
        except ValueError:
            raise PlannerConfigError(
                f"{where}: unknown mode {entry['mode']!r}; modes are "
                + ", ".join(m.value for m in Mode)) from None
        specs.append(spec)
    return tuple(specs)


# -- result store --------------------------------------------------------------------

@dataclass(frozen=True)
class RunRow:
    planner: str
    game: str
    level: int
    solved: bool
    plan_length: Optional[int]
    seconds: Optional[float]
    blind: bool = False  # produced by a BlindBFS-mode planner

    def key(self):
        return (self.planner, self.game, self.level)


RESULT_FIELDS = ("planner", "game", "level", "solved", "plan_length",
                 "seconds", "blind")


def read_results(path: Path) -> list[RunRow]:
    rows = []
    if not path.exists():
        return rows
    with path.open() as fh:
        for rec in csv.DictReader(fh):
            rows.append(RunRow(
                planner=rec["planner"],
                game=rec["game"],
                level=int(rec["level"]),
                solved=rec["solved"] == "True",
                plan_length=int(rec["plan_length"]) if rec["plan_length"] else None,
                seconds=float(rec["seconds"]) if rec["seconds"] else None,
                blind=rec.get("blind") == "True",
            ))
    return rows


def append_result(path: Path, row: RunRow) -> None:
    new_file = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(RESULT_FIELDS)
        writer.writerow([row.planner, row.game, row.level, row.solved,
                         row.plan_length if row.plan_length is not None else "",
                         f"{row.seconds:.4f}" if row.seconds is not None else "",
                         row.blind])
        fh.flush()


# -- score board ---------------------------------------------------------------------

@dataclass
class ScoreBoard:
    rows: list[RunRow]

    def planners(self) -> list[str]:
        return sorted({r.planner for r in self.rows})

    def games(self) -> list[str]:
        return sorted({r.game for r in self.rows})

    def reference(self, game: str, level: int
                  ) -> tuple[Optional[int], str]:
        """Best known length for a level and how it was obtained."""
        lengths = [r.plan_length for r in self.rows
                   if r.game == game and r.level == level and r.solved]
        if not lengths:
            return None, "none"
        best = min(lengths)
        verified = any(r.blind and r.solved and r.plan_length == best
                       for r in self.rows
                       if r.game == game and r.level == level)
        return best, "optimal" if verified else "best-found"

    def coverage(self, planner: str, game: str) -> int:
        return score_coverage(r.solved for r in self.rows
                              if r.planner == planner and r.game == game)

    def satisficing(self, planner: str, game: str) -> float:
        total = 0.0
        for r in self.rows:
            if r.planner != planner or r.game != game or not r.solved:
                continue
            ref, _ = self.reference(game, r.level)
            total += score_satisficing(r.plan_length, ref)
        return total

    def agile(self, planner: str, game: str) -> float:
        return sum(score_agile(r.seconds) for r in self.rows
                   if r.planner == planner and r.game == game and r.solved)


# -- harness -------------------------------------------------------------------------

@dataclass
class SuiteReport:
    board: ScoreBoard
    stats: dict[str, DomainStats]
    reductions: dict[str, float]  # game -> static object reduction (%)


class _Level:
    """One level of a suite job: its problem, generated once, and the task
    that every built-in planner searches, grounded once, by the first that
    asks (`task`). The domain's grounding program is built before the
    grounding clock starts, as compilation is. External planners read the
    problem from PDDL files, written once (`pddl_files`)."""

    def __init__(self, game: CompiledGame, level_path: Path, index: int,
                 work_dir: Path):
        self.game = game
        self.index = index
        self.work_dir = work_dir
        grid = parse_ldf(level_path.read_text(), game.model)
        self.problem, _ = generate_problem(grid, game)
        self._task: Optional[tuple[GroundedTask, float]] = None
        self._files: Optional[tuple[Path, Path]] = None

    def task(self) -> tuple[GroundedTask, float]:
        """The grounded task and the seconds grounding it took."""
        if self._task is None:
            domain_program(self.game.domain)
            started = time.perf_counter()
            task = ground(self.game.domain, self.problem)
            self._task = task, time.perf_counter() - started
        return self._task

    def pddl_files(self) -> tuple[Path, Path]:
        """The domain and problem files, written on first use."""
        if self._files is None:
            name = self.game.model.name
            domain_file = self.work_dir / f"{name}.pddl"
            problem_file = self.work_dir / f"{name}_{self.index}.pddl"
            domain_file.write_text(print_domain(self.game.domain))
            problem_file.write_text(print_problem(self.problem))
            self._files = domain_file, problem_file
        return self._files


def _run_one(spec: PlannerSpec, level: _Level, time_limit: float) -> RunRow:
    """One planner on one level. A built-in planner's time is the level's
    grounding time plus its own search time."""
    name = level.game.model.name
    if spec.cmd is not None:
        try:
            result = external_solve(*level.pddl_files(), spec.cmd,
                                    time_limit=time_limit)
        except Exception:
            return RunRow(spec.name, name, level.index, False, None, None)
        solved = result.status is Status.SOLVED
        return RunRow(spec.name, name, level.index, solved,
                      len(result.plan) if solved else None,
                      result.stats.wall_time if solved else None)
    task, grounding = level.task()
    started = time.perf_counter()
    result = solve(task, SearchConfig(mode=spec.mode, time_limit=time_limit))
    elapsed = grounding + time.perf_counter() - started
    solved = result.status is Status.SOLVED
    return RunRow(spec.name, name, level.index, solved,
                  len(result.plan) if solved else None,
                  elapsed if solved else None, blind=spec.is_blind)


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception that a suite job raised in a
    worker process, where it was left behind; set as that exception's
    cause."""


def _run_level(specs: tuple[PlannerSpec, ...], game: CompiledGame,
               level_path: Path, level_index: int, time_limit: float,
               work_dir: Path
               ) -> tuple[list[RunRow], Optional[Exception], Optional[str]]:
    """A suite job: every planner of `specs` on one level, in order, on one
    generated problem and one grounded task. Returns the rows finished and
    the exception that stopped the job, if one did, with its traceback as
    text, so that the caller saves those rows before it raises."""
    rows: list[RunRow] = []
    try:
        level = _Level(game, level_path, level_index, work_dir)
        for spec in specs:
            rows.append(_run_one(spec, level, time_limit))
    except Exception as error:
        return rows, error, traceback.format_exc()
    return rows, None, None


def static_reduction(game: CompiledGame, grid: LevelGrid) -> float:
    """Object-count saving of the is-<T> encoding vs an all-objects one."""
    placed = load(game.model, grid).live()
    if not placed:
        return 0.0
    static = sum(1 for i in placed if i.sprite in game.static_sprites)
    return 100.0 * static / len(placed)


def run_suite(suite_dir: Optional[Path] = None,
              planners: tuple[PlannerSpec, ...] = BUILTIN_PLANNERS,
              games: Optional[list[str]] = None,
              time_limit: float = TIME_CAP,
              jobs: int = 1,
              out_dir: Path = Path("bench-out")) -> SuiteReport:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    rows = read_results(results_path)
    done = {r.key() for r in rows}

    games = games or available_games(suite_dir)
    # every game compiles on one load of the template directory
    kb = KnowledgeBase()
    compiled: dict[str, CompiledGame] = {
        name: compile_game(load_game(name, suite_dir), kb) for name in games}

    work_dir = out_dir / "pddl"
    work_dir.mkdir(exist_ok=True)
    jobs_list = []
    for name in games:
        for level_index, level_path in enumerate(level_paths(name, suite_dir)):
            pending = tuple(spec for spec in planners
                            if (spec.name, name, level_index) not in done)
            if pending:
                jobs_list.append((pending, compiled[name], level_path,
                                  level_index, time_limit, work_dir))

    # a worker per level left to run, at most one per core; a single worker
    # is the serial loop, and a finished suite opens no pool at all
    workers = min(jobs, len(jobs_list), os.cpu_count() or 1)
    with ExitStack() as stack:
        if workers > 1:
            # CPU-bound Python jobs run in spawned worker processes; the
            # pool's modules load only here, so a serial run does not pay
            # their import
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")))
            results = pool.map(_run_level, *zip(*jobs_list))
        else:
            results = starmap(_run_level, jobs_list)
        # each row is saved as its job returns, and a failing job hands back
        # the rows it finished first, so a rerun resumes after all of them
        for finished, error, trace in results:
            for row in finished:
                append_result(results_path, row)
                rows.append(row)
            if error is not None:
                if error.__traceback__ is None:  # sent back from a worker
                    raise error from WorkerTraceback(trace)
                raise error

    board = ScoreBoard(rows)
    stats = {name: domain_stats(compiled[name].domain) for name in games}
    reductions = {}
    for name in games:
        paths = level_paths(name, suite_dir)
        if paths:
            grid = parse_ldf(paths[0].read_text(), compiled[name].model)
            reductions[name] = static_reduction(compiled[name], grid)
    report = SuiteReport(board, stats, reductions)
    (out_dir / "summary.csv").write_text(summary_csv(report))
    (out_dir / "report.txt").write_text(format_report(report))
    return report


def summary_csv(report: SuiteReport) -> str:
    lines = ["planner,game,coverage,satisficing,agile"]
    board = report.board
    for planner in board.planners():
        for game in board.games():
            lines.append(
                f"{planner},{game},{board.coverage(planner, game)},"
                f"{board.satisficing(planner, game):.2f},"
                f"{board.agile(planner, game):.2f}")
    return "\n".join(lines) + "\n"


def format_report(report: SuiteReport) -> str:
    board = report.board
    games = board.games()
    planners = board.planners()
    out = []

    def table(title, cell):
        out.append(title)
        header = f"{'planner':<14}" + "".join(f"{g:>14}" for g in games) \
            + f"{'SUM':>10}"
        out.append(header)
        for p in planners:
            cells = [cell(p, g) for g in games]
            total = sum(cells)
            row = f"{p:<14}" + "".join(f"{c:>14.2f}" for c in cells) \
                + f"{total:>10.2f}"
            out.append(row)
        out.append("")

    table("Coverage", lambda p, g: float(board.coverage(p, g)))
    table("Satisficing", board.satisficing)
    table("Agile", board.agile)

    out.append("Reference plans")
    for g in games:
        levels = sorted({r.level for r in board.rows if r.game == g})
        for lvl in levels:
            ref, source = board.reference(g, lvl)
            out.append(f"  {g} level {lvl}: C*="
                       f"{ref if ref is not None else '-'} ({source})")
    out.append("")

    out.append("Domain statistics (types/supertypes/predicates/actions)")
    for g, s in sorted(report.stats.items()):
        out.append(f"  {g}: {s.types}/{s.supertypes}/{s.predicates}/{s.actions}")
    out.append("")

    out.append("Static-object encoding: instance reduction vs all-objects")
    for g, pct in sorted(report.reductions.items()):
        out.append(f"  {g}: {pct:.1f}% of cells are static facts, not objects")
    out.append("")
    return "\n".join(out)
