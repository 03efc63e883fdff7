"""The three benchmark workloads: set-up, one timed pass, correctness checks.

A workload's `setup` parses and compiles the games and builds its inputs; a
pass is the unit of timed work that the runner repeats for the requested
number of seconds.  Every pass takes a host speed reading before its first
operation and after each one, and reports each operation's time scaled to
the reference speed (`host.py`); `raw_wall` keeps the unscaled total.  The
first pass of a run is checked in full against references that come from
the BFS oracle and the engine, never from the compiler under test; every
later pass must reproduce the first pass's outputs exactly (`signature`).
"""
from __future__ import annotations

import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import host
import inputs

# blind-BFS (optimal) plan lengths of the shipped levels, (game, level) ->
# length, frozen from the BFS oracle
OPTIMAL_LENGTHS = {
    ("aliens", 0): 65, ("aliens", 1): 88,
    ("digger", 0): 60, ("digger", 1): 66,
    ("keymaze", 0): 38, ("keymaze", 1): 14,
    ("rain", 0): 71, ("rain", 1): 86,
    ("sokoban", 0): 15, ("sokoban", 1): 22,
    ("zenpuzzle", 0): 58, ("zenpuzzle", 1): 24,
}
LADDER_TIME_LIMIT = 120.0
EPISODE_TIME_LIMIT = 60.0
EPISODE_BUDGET = 200


@dataclass
class PassResult:
    op_walls: list[float]       # scaled seconds per operation, fixed order
    plan_times: list[float]     # scaled seconds per planning problem
    plan_len_sum: int           # over solved problems
    attempted: int              # operations: jobs, levels or episodes
    failures: list[str]         # one message per failed operation or check
    signature: tuple            # outputs that must repeat on every pass
    raw_wall: float = 0.0       # unscaled seconds of timed work
    readings: list[float] = field(default_factory=list)  # host, ms
    turn_times: list[float] = field(default_factory=list)  # scaled seconds
    wins: int = 0
    replans: int = 0
    replan_episodes: int = 0
    bench_overhead: float | None = None   # scaled run_suite time outside jobs
    span_range: tuple[int, int] = (0, 0)  # spans of a traced pass

    @property
    def wall(self) -> float:
        return sum(self.op_walls) + (self.bench_overhead or 0.0)

    @property
    def factor(self) -> float:
        return statistics.median(host.factors(self.readings))


def _domain_counts(prog, games) -> dict[str, int]:
    """Exact output counts of the compiled domains, outside any timing."""
    return {
        "compiler.domain_actions": sum(len(g.domain.actions) for g in games),
        "compiler.domain_bytes": sum(len(prog.pddl.print_domain(g.domain))
                                     for g in games),
    }


class Shipped:
    """`bench.run_suite` over every shipped level and both built-in planners,
    serially, exactly as `vgdl2pddl bench` runs by default."""

    name = "shipped"
    min_turns = 0

    def setup(self, prog, seed: int) -> None:
        self.files = inputs.shipped_files(prog.games.games_dir())
        names = prog.games.available_games()
        self.games = [prog.compiler.compile_game(prog.games.load_game(n))
                      for n in names]
        self.planners = prog.bench.BUILTIN_PLANNERS
        self.jobs = len(self.planners) * sum(
            len(prog.games.level_paths(n)) for n in names)

    def digest(self) -> str:
        return inputs.inputs_hash(self.files)

    def domain_counts(self, prog) -> dict[str, int]:
        return _domain_counts(prog, self.games)

    def run_pass(self, prog, scratch: Path, check: bool) -> PassResult:
        # run_suite resumes from an existing results.csv, so every pass gets
        # a fresh, empty directory and must report every job as run
        out = Path(tempfile.mkdtemp(prefix="shipped-", dir=scratch))
        readings = [host.reading()]
        reading_time = 0.0
        generate = prog.bench.generate_problem

        def read_then_generate(*args, **kwargs):
            # each job generates its problem just before its clock starts
            nonlocal reading_time
            started = time.perf_counter()
            readings.append(host.reading())
            reading_time += time.perf_counter() - started
            return generate(*args, **kwargs)

        prog.bench.generate_problem = read_then_generate
        try:
            started = time.perf_counter()
            prog.bench.run_suite(planners=self.planners, jobs=1, out_dir=out)
            wall = time.perf_counter() - started - reading_time
            rows = prog.bench.read_results(out / "results.csv")
        except Exception:
            return PassResult([], [], 0, self.jobs,
                              ["shipped: run_suite raised\n"
                               + traceback.format_exc()], ())
        finally:
            prog.bench.generate_problem = generate
            shutil.rmtree(out, ignore_errors=True)
        readings.append(host.reading())
        failures = []
        if len(rows) != self.jobs:
            failures.append(f"shipped: {len(rows)} of {self.jobs} jobs ran")
        for r in rows:
            level = f"{r.game} lvl{r.level}"
            if not r.solved:
                failures.append(f"shipped: {r.planner} did not solve {level}")
            elif r.blind and r.plan_length != OPTIMAL_LENGTHS[(r.game, r.level)]:
                failures.append(
                    f"shipped: {r.planner} plan length {r.plan_length} on "
                    f"{level}, optimal is {OPTIMAL_LENGTHS[(r.game, r.level)]}")
        seconds = [r.seconds for r in rows if r.seconds is not None]
        scale = host.factors(readings)
        if len(scale) == len(seconds) + 1:
            job_scale = scale[1:]   # scale[0] covers compiling the games
        else:  # the jobs ran where the reading hook does not reach
            job_scale = [statistics.median(scale)] * len(seconds)
        scaled = [t * f for t, f in zip(seconds, job_scale)]
        return PassResult(
            op_walls=scaled, plan_times=scaled,
            plan_len_sum=sum(r.plan_length for r in rows if r.solved),
            attempted=self.jobs, failures=failures,
            signature=tuple(sorted((r.key(), r.solved, r.plan_length)
                                   for r in rows)),
            raw_wall=wall, readings=readings,
            bench_overhead=(wall - sum(seconds)) * statistics.median(scale))


class SokobanLadder:
    """Seeded open-floor Sokoban levels of growing size, each solved with
    GBFS through generate_problem -> ground -> solve."""

    name = "sokoban-ladder"
    min_turns = 0

    def setup(self, prog, seed: int) -> None:
        self.game = prog.compiler.compile_game(prog.games.load_game("sokoban"))
        self.levels = [(label, text, prog.vgdl.parse_ldf(text, self.game.model))
                       for label, text in inputs.ladder_levels(seed)]
        self.cfg = prog.planner.SearchConfig(
            mode=prog.planner.Mode.GBFS_HADD, time_limit=LADDER_TIME_LIMIT)

    def digest(self) -> str:
        return inputs.inputs_hash((label, text)
                                  for label, text, _ in self.levels)

    def domain_counts(self, prog) -> dict[str, int]:
        return _domain_counts(prog, [self.game])

    def _check(self, prog, label, grid, task, plan) -> list[str]:
        ok, index = prog.planner.validate(task, plan)
        if not ok:
            return [f"sokoban-ladder: plan for {label} fails validation "
                    f"at step {index}"]
        state = prog.engine.load(self.game.model, grid, seed=0)
        for action in plan:
            if prog.agent.is_avatar_action(action):
                prog.engine.step(state, prog.agent.engine_action(action.name))
        if state.status is not prog.engine.GameStatus.WIN:
            return [f"sokoban-ladder: replaying the plan for {label} through "
                    f"the engine ends {state.status.name}, not WIN"]
        return []

    def run_pass(self, prog, scratch: Path, check: bool) -> PassResult:
        times, failures, signature = [], [], []
        readings = [host.reading()]
        plan_len_sum = 0
        for label, _, grid in self.levels:
            try:
                started = time.perf_counter()
                problem, _ = prog.problems.generate_problem(grid, self.game)
                task = prog.ground.ground(self.game.domain, problem)
                result = prog.planner.solve(task, self.cfg)
                times.append(time.perf_counter() - started)
                readings.append(host.reading())
            except Exception:
                failures.append(f"sokoban-ladder: {label} raised\n"
                                + traceback.format_exc())
                continue
            if result.status is not prog.planner.Status.SOLVED:
                failures.append(f"sokoban-ladder: {label} ended "
                                f"{result.status.name}")
                continue
            plan_len_sum += len(result.plan)
            signature.append((label, tuple(a.ident for a in result.plan)))
            if check:
                failures += self._check(prog, label, grid, task, result.plan)
        scaled = [t * f for t, f in zip(times, host.factors(readings))]
        return PassResult(scaled, scaled, plan_len_sum, len(self.levels),
                          failures, tuple(signature), raw_wall=sum(times),
                          readings=readings)


class Episodes:
    """`agent.run_episode` (GBFS) on every shipped deterministic level, and
    on both aliens levels over fixed engine seeds."""

    name = "episodes"
    min_turns = 200  # keeps at least 10 turn samples beyond the 95th percentile

    def setup(self, prog, seed: int) -> None:
        games = {n: prog.compiler.compile_game(prog.games.load_game(n))
                 for n in prog.games.available_games()}
        self.games = list(games.values())
        self.episodes = []  # (label, game, grid, engine seed, deterministic)
        for name in inputs.DETERMINISTIC_GAMES:
            for level in (0, 1):
                grid = prog.games.load_level(name, level, games[name].model)
                self.episodes.append((f"{name} lvl{level}", games[name], grid,
                                      0, True))
        aliens = games[inputs.STOCHASTIC_GAME]
        for level in (0, 1):
            grid = prog.games.load_level(inputs.STOCHASTIC_GAME, level,
                                         aliens.model)
            for s in inputs.ALIENS_ENGINE_SEEDS:
                self.episodes.append((f"aliens lvl{level} seed {s}", aliens,
                                      grid, s, False))
        self.cfg = prog.planner.SearchConfig(
            mode=prog.planner.Mode.GBFS_HADD, time_limit=EPISODE_TIME_LIMIT)

    def digest(self) -> str:
        return inputs.inputs_hash((label, grid.cells, seed)
                                  for label, _, grid, seed, _ in self.episodes)

    def domain_counts(self, prog) -> dict[str, int]:
        return _domain_counts(prog, self.games)

    def run_pass(self, prog, scratch: Path, check: bool) -> PassResult:
        res = PassResult([], [], 0, len(self.episodes), [], ())
        res.readings.append(host.reading())
        played = []  # (wall, plan seconds, turn seconds) per episode, raw
        signature = []
        win = prog.agent.Outcome.WIN
        for label, game, grid, seed, deterministic in self.episodes:
            stamps = [time.perf_counter()]
            try:
                result = prog.agent.run_episode(
                    game, grid, self.cfg, seed=seed, budget=EPISODE_BUDGET,
                    on_step=lambda _state: stamps.append(time.perf_counter()))
                wall = time.perf_counter() - stamps[0]
                res.readings.append(host.reading())
            except Exception:
                res.failures.append(f"episodes: {label} raised\n"
                                    + traceback.format_exc())
                continue
            played.append((wall, result.wall_times,
                           [b - a for a, b in zip(stamps, stamps[1:])]))
            res.plan_len_sum += sum(result.plan_lengths)
            res.wins += result.outcome is win
            res.replans += result.replans
            res.replan_episodes += result.replans > 0
            signature.append((label, result.outcome.name, result.turns,
                              result.replans, tuple(result.plan_lengths)))
            if result.outcome is prog.agent.Outcome.PLANNER_FAILED:
                res.failures.append(f"episodes: {label} ended PlannerFailed")
            elif deterministic and result.outcome is not win:
                res.failures.append(f"episodes: deterministic {label} ended "
                                    f"{result.outcome.name}, not WIN")
        for (wall, plans, turns), f in zip(played, host.factors(res.readings)):
            res.op_walls.append(wall * f)
            res.plan_times += [t * f for t in plans]
            res.turn_times += [t * f for t in turns]
        res.raw_wall = sum(wall for wall, _, _ in played)
        res.signature = tuple(signature)
        return res


WORKLOADS = {w.name: w for w in (Shipped, SokobanLadder, Episodes)}
