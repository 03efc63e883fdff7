"""Forward-search planning over grounded tasks, plus an external adapter.

Modes:
  * BlindBFS    -- breadth-first search; returns a shortest plan (the
                   optimality oracle for the rest of the suite);
  * GBFS_hadd   -- greedy best-first on the additive delete-relaxation
                   heuristic (satisficing workhorse);
  * AStar_hadd  -- f = g + h_add (inadmissible h, satisficing);
  * GoalCount   -- greedy on the number of unsatisfied goal literals.

Search is deterministic given (task, seed): actions are tried in grounding
order and heap ties break on insertion-order XOR seed.  Compiled tasks gate
almost every action behind a phase fact (turn-avatar, turn-interactions,
turn-<T>-move, ...), so successor generation buckets actions by gate and only
scans the buckets active in the current state.
"""
from __future__ import annotations

import heapq
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import PlanParseError, SpawnError, ValidationFailedError
from . import pddl
from .ground import GroundAction, GroundedTask, applicable, goal_satisfied, ground, simplify

INF = float("inf")
# a currently-false negative goal literal is heavily discouraged but not
# pruned; keeps greedy search complete while h==0 still characterizes goals
NEG_GOAL_PENALTY = 10 ** 6


class Mode(Enum):
    BLIND_BFS = "BlindBFS"
    GBFS_HADD = "GBFS_hadd"
    ASTAR_HADD = "AStar_hadd"
    GOAL_COUNT = "GoalCount"


class Status(Enum):
    SOLVED = "Solved"
    UNSOLVABLE = "Unsolvable"
    TIMEOUT = "Timeout"
    OUT_OF_MEMORY = "OutOfMemory"


@dataclass(frozen=True)
class SearchConfig:
    mode: Mode = Mode.GBFS_HADD
    time_limit: float = 60.0
    memory_limit: int = 2 * 10 ** 9  # approximate bytes for visited states
    seed: int = 0

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SearchStats:
    expanded: int = 0
    generated: int = 0
    wall_time: float = 0.0


@dataclass
class PlanResult:
    status: Status
    plan: Optional[tuple[GroundAction, ...]] = None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def steps(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(a.name, a.args) for a in self.plan or ()]


# -- successor generation -----------------------------------------------------------

class _Successors:
    """Bucket actions by their phase-gate fact for cheap expansion."""

    def __init__(self, task: GroundedTask):
        gate_ids: dict[int, int] = {}
        for atom, i in task.fact_id.items():
            name = atom.predicate
            if (name.startswith("turn-") or name == "turn-avatar"
                    or name.startswith("finished-turn-")) and not atom.args:
                gate_ids[i] = i
        self.buckets: dict[int, list[GroundAction]] = {}
        self.always: list[GroundAction] = []
        for action in task.actions:
            gate = None
            for i in gate_ids:
                if action.pos_pre >> i & 1:
                    gate = i
                    break
            if gate is None:
                self.always.append(action)
            else:
                self.buckets.setdefault(gate, []).append(action)
        self.gate_list = sorted(self.buckets)

    def applicable(self, state: int):
        for gate in self.gate_list:
            if state >> gate & 1:
                for action in self.buckets[gate]:
                    if applicable(state, action):
                        yield action
        for action in self.always:
            if applicable(state, action):
                yield action


# -- additive heuristic -------------------------------------------------------------

class _HAdd:
    """Dijkstra-style additive heuristic over the delete relaxation.

    Clause requirements (disjunctive preconditions) cost the cheapest member
    literal; negative literals cost zero.  Negative goal literals cost zero
    when currently true and NEG_GOAL_PENALTY otherwise.
    """

    def __init__(self, task: GroundedTask):
        self.task = task
        n = len(task.facts)
        # requirements per action: positive fact ids, then all-positive clauses
        self.action_pos: list[list[int]] = []
        self.action_clauses: list[list[list[int]]] = []
        self.watchers: dict[int, list[tuple[int, int]]] = {}
        for ai, a in enumerate(task.actions):
            pos = [i for i in range(n) if a.pos_pre >> i & 1]
            clauses = []
            for pos_mask, neg_mask in a.clauses:
                if neg_mask:
                    continue  # optimistically satisfiable for free
                clauses.append([i for i in range(n) if pos_mask >> i & 1])
            self.action_pos.append(pos)
            self.action_clauses.append(clauses)
            for f in pos:
                self.watchers.setdefault(f, []).append((ai, -1))
            for ci, clause in enumerate(clauses):
                for f in clause:
                    self.watchers.setdefault(f, []).append((ai, ci))
        self.adds: list[list[int]] = [
            [i for i in range(n) if a.add >> i & 1] for a in task.actions]
        self.goal_pos = [i for i in range(n) if task.goal_pos >> i & 1]
        self.goal_neg = [i for i in range(n) if task.goal_neg >> i & 1]

    def value(self, state: int) -> float:
        task = self.task
        n = len(task.facts)
        cost = [INF] * n
        heap = []
        for i in range(n):
            if state >> i & 1:
                cost[i] = 0
                heap.append((0, i))
        heapq.heapify(heap)
        remaining = []
        acc = []
        clause_done: list[list[bool]] = []
        for ai in range(len(task.actions)):
            remaining.append(len(self.action_pos[ai])
                             + len(self.action_clauses[ai]))
            acc.append(0.0)
            clause_done.append([False] * len(self.action_clauses[ai]))
        # actions with no positive requirements fire immediately
        for ai, rem in enumerate(remaining):
            if rem == 0:
                for f in self.adds[ai]:
                    if cost[f] > 1:
                        cost[f] = 1
                        heapq.heappush(heap, (1, f))
        seen = [False] * n
        while heap:
            c, f = heapq.heappop(heap)
            if seen[f] or c > cost[f]:
                continue
            seen[f] = True
            for ai, ci in self.watchers.get(f, ()):
                if ci >= 0:
                    if clause_done[ai][ci]:
                        continue
                    clause_done[ai][ci] = True
                acc[ai] += c
                remaining[ai] -= 1
                if remaining[ai] == 0:
                    new_cost = acc[ai] + 1
                    for g in self.adds[ai]:
                        if new_cost < cost[g]:
                            cost[g] = new_cost
                            heapq.heappush(heap, (new_cost, g))
        total = 0.0
        for f in self.goal_pos:
            if cost[f] == INF:
                return INF
            total += cost[f]
        for f in self.goal_neg:
            if state >> f & 1:
                total += NEG_GOAL_PENALTY
        return total


def _goal_count(task: GroundedTask, state: int) -> float:
    miss = 0
    g = task.goal_pos & ~state
    miss += bin(g).count("1")
    miss += bin(task.goal_neg & state).count("1")
    return float(miss)


# -- search -------------------------------------------------------------------------

def solve(task: GroundedTask, cfg: SearchConfig = SearchConfig()) -> PlanResult:
    start = time.perf_counter()
    stats = SearchStats()
    search_task = simplify(task)
    if search_task.unsolvable_goal:
        stats.wall_time = time.perf_counter() - start
        return PlanResult(Status.UNSOLVABLE, None, stats)
    if goal_satisfied(search_task, search_task.init):
        stats.wall_time = time.perf_counter() - start
        return PlanResult(Status.SOLVED, (), stats)

    successors = _Successors(search_task)
    max_states = max(1000, cfg.memory_limit // 64)

    if cfg.mode is Mode.BLIND_BFS:
        result = _bfs(search_task, successors, cfg, stats, start, max_states)
    else:
        result = _best_first(search_task, successors, cfg, stats, start,
                             max_states)
    stats.wall_time = time.perf_counter() - start
    return result


def _extract(parents, state) -> tuple[GroundAction, ...]:
    plan = []
    while True:
        prev = parents[state]
        if prev is None:
            break
        state, action = prev
        plan.append(action)
    plan.reverse()
    return tuple(plan)


def _bfs(task, successors, cfg, stats, start, max_states) -> PlanResult:
    parents = {task.init: None}
    queue = deque([task.init])
    deadline = start + cfg.time_limit
    while queue:
        if stats.expanded % 512 == 0 and time.perf_counter() > deadline:
            return PlanResult(Status.TIMEOUT, None, stats)
        state = queue.popleft()
        stats.expanded += 1
        for action in successors.applicable(state):
            succ = (state & ~action.delete) | action.add
            if succ in parents:
                continue
            parents[succ] = (state, action)
            stats.generated += 1
            if goal_satisfied(task, succ):
                return PlanResult(Status.SOLVED, _extract(parents, succ), stats)
            if len(parents) > max_states:
                return PlanResult(Status.OUT_OF_MEMORY, None, stats)
            queue.append(succ)
    return PlanResult(Status.UNSOLVABLE, None, stats)


def _best_first(task, successors, cfg, stats, start, max_states) -> PlanResult:
    if cfg.mode is Mode.GOAL_COUNT:
        h = lambda s: _goal_count(task, s)  # noqa: E731
    else:
        h = _HAdd(task).value
    astar = cfg.mode is Mode.ASTAR_HADD
    deadline = start + cfg.time_limit
    g_cost = {task.init: 0}
    parents = {task.init: None}
    counter = 0
    h0 = h(task.init)
    open_heap = [(h0, h0, counter ^ cfg.seed, task.init)]
    closed: set[int] = set()
    while open_heap:
        if stats.expanded % 256 == 0 and time.perf_counter() > deadline:
            return PlanResult(Status.TIMEOUT, None, stats)
        _, _, _, state = heapq.heappop(open_heap)
        if state in closed:
            continue
        closed.add(state)
        stats.expanded += 1
        if goal_satisfied(task, state):
            return PlanResult(Status.SOLVED, _extract(parents, state), stats)
        g = g_cost[state]
        for action in successors.applicable(state):
            succ = (state & ~action.delete) | action.add
            if succ in closed:
                continue
            new_g = g + 1
            old = g_cost.get(succ)
            if old is not None and old <= new_g:
                continue
            g_cost[succ] = new_g
            parents[succ] = (state, action)
            stats.generated += 1
            if len(g_cost) > max_states:
                return PlanResult(Status.OUT_OF_MEMORY, None, stats)
            hs = h(succ)
            if hs >= INF:
                continue
            counter += 1
            f = (new_g + hs) if astar else hs
            heapq.heappush(open_heap, (f, hs, counter ^ cfg.seed, succ))
    return PlanResult(Status.UNSOLVABLE, None, stats)


# -- validation ---------------------------------------------------------------------

def validate(task: GroundedTask, plan) -> tuple[bool, Optional[int]]:
    """Sequential applicability check; returns (valid, first failure index).

    Accepts GroundActions or (name, args) pairs; an unknown action name fails
    at its index.  The final state must satisfy the goal, otherwise the
    failure index is len(plan).
    """
    state = task.init
    for i, step in enumerate(plan):
        if isinstance(step, GroundAction):
            action = task.action(step.name, step.args)
        else:
            name, args = step
            action = task.action(name, tuple(args))
        if action is None or not applicable(state, action):
            return False, i
        state = (state & ~action.delete) | action.add
    if goal_satisfied(task, state):
        return True, None
    return False, len(plan)


# -- external planner adapter --------------------------------------------------------

def external_solve(domain_file: str | Path, problem_file: str | Path,
                   cmd_template: str, time_limit: float = 900.0
                   ) -> PlanResult:
    """Run an external planner via a command template.

    The template's {domain}, {problem} and {plan} placeholders are
    substituted; the child is killed at the wall-clock limit.  The produced
    plan file is parsed with the IPC convention and validated before the
    result is reported Solved.
    """
    domain_file = Path(domain_file)
    problem_file = Path(problem_file)
    start = time.perf_counter()
    stats = SearchStats()
    with tempfile.TemporaryDirectory(prefix="vgdl2pddl-ext-") as tmp:
        plan_path = Path(tmp) / "plan.txt"
        cmd = cmd_template.format(domain=str(domain_file),
                                  problem=str(problem_file),
                                  plan=str(plan_path))
        try:
            proc = subprocess.run(cmd, shell=True, capture_output=True,
                                  timeout=time_limit)
        except subprocess.TimeoutExpired:
            stats.wall_time = time.perf_counter() - start
            return PlanResult(Status.TIMEOUT, None, stats)
        except OSError as exc:
            raise SpawnError(f"failed to spawn {cmd!r}: {exc}") from exc
        stats.wall_time = time.perf_counter() - start
        if not plan_path.exists():
            raise PlanParseError(
                f"planner produced no plan file (exit {proc.returncode}): "
                f"{proc.stderr.decode(errors='replace')[:500]}")
        try:
            steps = pddl.parse_plan(plan_path.read_text())
        except Exception as exc:
            raise PlanParseError(f"bad plan file: {exc}") from exc
    task = ground(pddl.read_domain(domain_file.read_text()),
                  pddl.read_problem(problem_file.read_text()))
    ok, index = validate(task, steps)
    if not ok:
        raise ValidationFailedError(
            f"external plan rejected at step {index}")
    plan = tuple(task.action(name, args) for name, args in steps)
    return PlanResult(Status.SOLVED, plan, stats)
