"""Plan, act, monitor, replan.

The episode loop generates a problem from the current simulator state, plans,
and sends the plan's avatar-phase actions to the simulator one at a time.
Before each is sent, the monitor translates the live state into init facts
(same schema as problem generation) and re-checks the pending action's
preconditions against them; any violated literal discards the plan and a
fresh problem is generated from the current state.  Because the new problem's
init is exactly the state that falsified the action, the planner cannot open
the new plan with the same move.

The goal is the plan's last step, `ground.GOAL`, checked by the same monitor
over the observed problem.  A plan that runs out with the game still going
(e.g. a stray rock intercepted a bullet without ever touching an avatar
precondition) logs the goal literals the observed state falsifies as its
violation, and the loop replans.

A level played under many engine seeds opens every episode on the same
turn-0 state, so `run_episode` keeps, per `Domain` object, the task of the
start problem it grounded last (`_STARTS`, found by identity and emptied
when the domain dies, as `ground.domain_program` keeps its programs). An
episode whose first problem equals that start searches the kept task instead
of grounding it again. Only the first plan consults it: a replan's state is
not a level start, so it neither reuses nor replaces the entry. One entry
per domain keeps the memory bounded, and a level played after another on
the same game grounds its own start. Every plan is still searched.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from . import engine
from .compiler import CompiledGame
from .engine import AvatarAction, GameStatus, GameState
from .ground import (GOAL, GroundAction, GroundedTask, ground,
                     precondition_clauses)
from .pddl import Atom, Domain, Problem
from .planner import SearchConfig, Status, solve
from .problems import ConfigFile, emit_config, generate_problem
from .vgdl import LevelGrid


class Outcome(Enum):
    WIN = "Win"
    LOSE = "Lose"
    PLANNER_FAILED = "PlannerFailed"
    TURN_BUDGET_EXHAUSTED = "TurnBudgetExhausted"


@dataclass(frozen=True)
class Violation:
    turn: int
    action: tuple[str, tuple[str, ...]]
    literals: tuple[str, ...]
    state_fingerprint: tuple


@dataclass
class EpisodeResult:
    outcome: Outcome
    turns: int
    replans: int
    plan_lengths: list[int] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    issued: list[tuple[tuple, tuple[str, tuple[str, ...]]]] = \
        field(default_factory=list)


AVATAR_PREFIX = "AVATAR_ACTION"

_ENGINE_ACTION = {
    **{f"AVATAR_ACTION_MOVE_{d}": move
       for move, d in engine.MOVE_ACTIONS.items()},
    "AVATAR_ACTION_NIL": AvatarAction.NIL,
}


def engine_action(name: str) -> AvatarAction:
    if name in _ENGINE_ACTION:
        return _ENGINE_ACTION[name]
    if name.startswith("AVATAR_ACTION_USE"):
        return AvatarAction.USE
    raise KeyError(name)


def is_avatar_action(action: GroundAction) -> bool:
    return action.name.startswith(AVATAR_PREFIX)


# -- monitoring ----------------------------------------------------------------------

def violated_literals(clauses, facts: frozenset[Atom]) -> tuple[str, ...]:
    """The clauses of a CNF that `facts` falsify, rendered in order: a unit
    clause as its literal, a longer one as an (or ...)."""
    violated: list[str] = []
    for clause in clauses:
        if any((atom in facts) == positive for atom, positive in clause):
            continue
        rendered = [str(a) if pos else f"(not {a})" for a, pos in clause]
        violated.append(rendered[0] if len(rendered) == 1
                        else f"(or {' '.join(rendered)})")
    return tuple(violated)


def monitor(state: GameState, step: tuple[str, tuple[str, ...]],
            game: CompiledGame, config: ConfigFile, binding: dict[int, str],
            pool=None) -> tuple[str, ...]:
    """Empty tuple means OK; otherwise the violated literal subset.

    The pending plan step, an avatar action's `(name, args)` or `(GOAL, ())`,
    is grounded from its schema over the regenerated problem by
    `precondition_clauses`, the way `ground` grounds it: quantified checks
    must range over objects that did not exist when the plan was grounded
    (the rock that just dropped into the target cell), the goal is the
    observed problem's own (a sprite killed since planning is no object of
    it), and the running plan's ammunition identities are pinned via `pool`.
    """
    problem, _ = generate_problem(state, game, config, binding=binding,
                                  pool=pool)
    clauses = precondition_clauses(game.domain, problem, *step)
    if clauses is None:
        return ("(false)",)
    return violated_literals(clauses, frozenset(problem.init))


# -- episode loop --------------------------------------------------------------------

# id(domain) -> (start problem, its task), the last episode start grounded
_STARTS: dict[int, tuple[Problem, GroundedTask]] = {}


def _start_task(domain: Domain, problem: Problem) -> GroundedTask:
    """The task of an episode's first problem: the kept one if `problem`
    equals the last start grounded on `domain`, else a fresh ground that
    replaces it."""
    kept = _STARTS.get(id(domain))
    if kept is not None and kept[0] == problem:
        return kept[1]
    task = ground(domain, problem)
    if kept is None:
        weakref.finalize(domain, _STARTS.pop, id(domain), None)
    _STARTS[id(domain)] = (problem, task)
    return task


def run_episode(game: CompiledGame, grid: LevelGrid,
                planner_cfg: Optional[SearchConfig] = None, seed: int = 0,
                budget: int = 2000,
                trace: Optional[Path] = None,
                on_step=None) -> EpisodeResult:
    """Play one level to Win/Lose/budget; `on_step(state)` is called after
    every executed turn (rendering hook).

    The first plan's task comes from `_start_task`: an episode that starts
    where the last one started on the same `game.domain` (the same level
    under another engine seed) searches the task grounded then, since the
    problems are equal. Only that one start is kept per domain: a replan's
    state is the episode's own, so replans ground their own problem and
    leave the entry alone, and one entry bounds the memory to a task per
    game."""
    planner_cfg = planner_cfg or SearchConfig()
    config = emit_config(game)
    state = engine.load(game.model, grid, seed=seed)
    result = EpisodeResult(Outcome.TURN_BUDGET_EXHAUSTED, turns=0, replans=0)
    trace_lines: list[str] = []

    def finish(outcome: Outcome) -> EpisodeResult:
        result.outcome = outcome
        result.turns = state.turn
        if trace is not None:
            Path(trace).write_text("".join(trace_lines))
        return result

    while True:
        turn_at_plan = state.turn
        problem, binding = generate_problem(state, game, config)
        # only the episode's first problem can be a start seen before
        task = (_start_task(game.domain, problem) if not result.wall_times
                else ground(game.domain, problem))
        plan_result = solve(task, planner_cfg)
        result.wall_times.append(plan_result.stats.wall_time)
        if plan_result.status is not Status.SOLVED:
            return finish(Outcome.PLANNER_FAILED)
        result.plan_lengths.append(len(plan_result.plan))
        # the running plan's ammunition identities; USE consumes them
        ammo = [a.args[0] for a in problem.init if a.predicate == "in-reserve"]
        consumed: set[str] = set()

        # interaction and bookkeeping actions stay internal; the goal is
        # checked once the avatar actions have run out, and a plan that gets
        # there with the game still on is replanned like a violated action
        steps = [a.ident for a in plan_result.plan if is_avatar_action(a)]
        for name, args in (*steps, (GOAL, ())):
            if state.turn >= budget:
                return finish(Outcome.TURN_BUDGET_EXHAUSTED)
            violated = monitor(state, (name, args), game, config, binding,
                               pool=(ammo, consumed))
            if violated or name == GOAL:
                result.violations.append(Violation(
                    state.turn, (name, args), violated, state.fingerprint()))
                result.replans += 1
                break
            result.issued.append((state.fingerprint(), (name, args)))
            if name.startswith("AVATAR_ACTION_USE"):
                consumed.add(args[1])
            events = engine.step(state, engine_action(name))
            for event in events:
                trace_lines.append(
                    f"{state.turn - 1}:{event.marker}:{event.name}"
                    f"({','.join(event.args)})\n")
            if on_step is not None:
                on_step(state)
            if state.status is not GameStatus.ONGOING:
                return finish(Outcome.WIN if state.status is GameStatus.WIN
                              else Outcome.LOSE)
        if state.turn == turn_at_plan:
            # the plan moved nothing, so a replan from this same state would
            # find it again: a modelling gap, not a game loss
            return finish(Outcome.PLANNER_FAILED)
