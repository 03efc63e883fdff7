"""Planner tests: optimality oracle, validation, external adapter stubs."""
import dataclasses
import hashlib
import heapq
import importlib
import operator
import random
import time
from collections import Counter, deque
from functools import reduce
from pathlib import Path

import pytest

from vgdl2pddl.compiler import compile_game
from vgdl2pddl.errors import PlanParseError, ValidationFailedError
from vgdl2pddl.games import available_games, games_dir, load_game, load_level
from vgdl2pddl.ground import (
    GroundAction,
    GroundedTask,
    apply,
    applicable,
    goal_satisfied,
    ground,
)
from vgdl2pddl.pddl import (Atom, format_plan, parse_plan, print_domain,
                            print_problem, read_domain, read_problem)
from vgdl2pddl import planner
from vgdl2pddl.planner import (
    INF,
    NEG_GOAL_PENALTY,
    Mode,
    SearchConfig,
    Status,
    _HAdd,
    external_solve,
    simplify,
    solve,
    validate,
)
from vgdl2pddl.problems import generate_problem
from vgdl2pddl.vgdl import parse_gdf, parse_ldf

# Hand-checked push-box-into-hole trace on the golden 5x5 level, written
# out turn by turn with the interaction and bookkeeping actions.
SOKOBAN_TRACE = [
    ("AVATAR_ACTION_MOVE_UP", ("avatar", "n2", "n3", "n2")),
    ("BOX_AVATAR_BOUNCEFORWARD_UP", ("box_2_2", "avatar", "n2", "n2", "n1")),
    ("END-TURN-INTERACTIONS", ()),
    ("END-TURN-SPRITES", ()),
    ("AVATAR_ACTION_MOVE_RIGHT", ("avatar", "n2", "n2", "n3")),
    ("END-TURN-INTERACTIONS", ()),
    ("END-TURN-SPRITES", ()),
    ("AVATAR_ACTION_MOVE_UP", ("avatar", "n3", "n2", "n1")),
    ("END-TURN-INTERACTIONS", ()),
    ("END-TURN-SPRITES", ()),
    ("AVATAR_ACTION_MOVE_LEFT", ("avatar", "n3", "n1", "n2")),
    ("BOX_AVATAR_BOUNCEFORWARD_LEFT", ("box_2_2", "avatar", "n2", "n1", "n1")),
    ("BOX_HOLE_KILLSPRITE", ("box_2_2", "hole_1_1", "n1", "n1")),
    ("END-TURN-INTERACTIONS", ()),
    ("END-TURN-SPRITES", ()),
]


def sokoban_task():
    game = compile_game(load_game("sokoban"))
    grid = load_level("sokoban", 0, game.model)
    problem, _ = generate_problem(grid, game)
    return ground(game.domain, problem)


def exhaustive_optimum(task):
    """Independent optimality oracle: full reachability BFS, no early exit."""
    dist = {task.init: 0}
    queue = deque([task.init])
    best = None
    while queue:
        state = queue.popleft()
        d = dist[state]
        if goal_satisfied(task, state):
            if best is None or d < best:
                best = d
            continue
        for action in task.actions:
            if applicable(state, action):
                succ = apply(state, action)
                if succ not in dist:
                    dist[succ] = d + 1
                    queue.append(succ)
    return best


def random_sokoban_level(rng):
    w, h = rng.choice([(5, 5), (6, 5), (6, 6)])
    cells = [["w"] * w for _ in range(h)]
    interior = [(x, y) for x in range(1, w - 1) for y in range(1, h - 1)]
    for x, y in interior:
        cells[y][x] = " "
    rng.shuffle(interior)
    spots = iter(interior)
    for char in "Abh":
        x, y = next(spots)
        cells[y][x] = char
    for x, y in spots:
        if rng.random() < 0.05:
            cells[y][x] = "w"
    return "\n".join("".join(row) for row in cells)


class TestSolve:
    def test_sokoban_table_task(self):
        task = sokoban_task()
        result = solve(task, SearchConfig(mode=Mode.GBFS_HADD))
        assert result.status is Status.SOLVED
        avatar_steps = [a for a in result.plan
                        if a.name.startswith("AVATAR_ACTION")]
        assert avatar_steps
        ok, _ = validate(task, result.plan)
        assert ok  # the goal (forall box dead) holds at the end

    def test_evaluated_counts_heuristic_calls(self):
        task = sokoban_task()
        bfs = solve(task, SearchConfig(mode=Mode.BLIND_BFS)).stats
        assert bfs.evaluated == 0
        goal_count = solve(task, SearchConfig(mode=Mode.GOAL_COUNT)).stats
        assert goal_count.evaluated == goal_count.generated + 1

    def test_satisfied_goal_gives_empty_plan(self):
        game = compile_game(load_game("sokoban"))
        # no boxes at all: the forall-dead goal holds immediately
        grid = parse_ldf("wwww\nwA w\nwwww", game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS))
        assert result.status is Status.SOLVED
        assert result.plan == ()

    def test_unsolvable_walled_goal(self):
        game = compile_game(load_game("sokoban"))
        # box against the right wall: it can never be pushed off that column,
        # so the hole at (1, 1) is unreachable
        grid = parse_ldf("wwwww\nwh  w\nw  bw\nw A w\nwwwww", game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS, time_limit=30))
        assert result.status is Status.UNSOLVABLE

    def test_reproducible(self):
        task = sokoban_task()
        cfg = SearchConfig(mode=Mode.GBFS_HADD, seed=7)
        first = solve(task, cfg)
        second = solve(task, cfg)
        assert first.steps == second.steps

    def test_timeout_status(self):
        game = compile_game(load_game("zenpuzzle"))
        grid = load_level("zenpuzzle", 0, game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS,
                                          time_limit=0.05))
        assert result.status in (Status.TIMEOUT, Status.SOLVED)

    # a clock one second later on every read: the search reads it at the
    # start and every `interval` expansions, so it stops after two
    # intervals; BFS reads it every 512 expansions, best-first search
    # every 256
    @pytest.mark.parametrize("name,index,mode,interval", [
        pytest.param("zenpuzzle", 0, Mode.BLIND_BFS, 512, id="bfs"),
        pytest.param("digger", 1, Mode.GOAL_COUNT, 256, id="best-first"),
    ])
    def test_limits_report_the_search_so_far(self, name, index, mode,
                                             interval, monkeypatch):
        task = level_task(name, index)
        clock = iter(range(10 ** 6)).__next__
        monkeypatch.setattr(planner, "time",
                            type("Clock", (), {"perf_counter": clock}))
        timeout = solve(task, SearchConfig(mode=mode, time_limit=2.5))
        monkeypatch.undo()
        assert timeout.status is Status.TIMEOUT
        assert timeout.stats.expanded == 2 * interval
        assert timeout.stats.generated > 0
        oom = solve(task, SearchConfig(mode=mode, memory_limit=1))
        assert oom.status is Status.OUT_OF_MEMORY
        assert oom.stats.expanded > 0 and oom.stats.generated == 1000

    def test_bfs_plan_takes_the_first_action_in_successor_order(self):
        # a0 and a1 lead from the initial state to one child; a1's gate f0
        # comes before a0's gate f1, so the generator yields a1 first
        facts = tuple(Atom(f"f{i}") for i in range(4))
        actions = tuple(GroundAction(f"a{k}", (), pos, 0, (), add, 0)
                        for k, (pos, add) in enumerate(
                            [(F[1], F[2]), (F[0], F[2]), (F[2], F[3])]))
        task = GroundedTask(facts, actions, F[0] | F[1], F[3], 0,
                            frozenset(), False)
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS))
        assert [a.name for a in result.plan] == ["a1", "a2"]

    def test_out_of_memory_status(self):
        game = compile_game(load_game("zenpuzzle"))
        grid = load_level("zenpuzzle", 0, game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS,
                                          memory_limit=1))
        assert result.status is Status.OUT_OF_MEMORY


class TestOptimalityOracle:
    def test_blind_bfs_minimal_and_heuristics_no_shorter(self):
        rng = random.Random(2024)
        game = compile_game(load_game("sokoban"))
        solvable = 0
        attempts = 0
        while solvable < 20 and attempts < 200:
            attempts += 1
            text = random_sokoban_level(rng)
            try:
                grid = parse_ldf(text, game.model)
                problem, _ = generate_problem(grid, game)
            except Exception:
                continue
            task = ground(game.domain, problem)
            optimum = exhaustive_optimum(task)
            bfs = solve(task, SearchConfig(mode=Mode.BLIND_BFS, time_limit=20))
            if optimum is None:
                assert bfs.status is Status.UNSOLVABLE
                continue
            solvable += 1
            assert bfs.status is Status.SOLVED
            assert len(bfs.plan) == optimum
            for mode in (Mode.GBFS_HADD, Mode.ASTAR_HADD, Mode.GOAL_COUNT):
                res = solve(task, SearchConfig(mode=mode, time_limit=20))
                assert res.status is Status.SOLVED
                assert len(res.plan) >= optimum
                ok, _ = validate(task, res.plan)
                assert ok
        assert solvable >= 20


class TestHAdd:
    def test_zero_exactly_on_goal_states(self):
        task = sokoban_task()
        h = _HAdd(task).value
        assert h(task.init) > 0
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS))
        state = task.init
        for action in result.plan:
            assert h(state) > 0 or goal_satisfied(task, state)
            state = apply(state, action)
        assert goal_satisfied(task, state)
        assert h(state) == 0


# The h_add implementation before the early stop and the flat tables, kept
# verbatim as the oracle: the planner's _HAdd must return the same number on
# every state.
class _ReferenceHAdd:
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


def level_task(name, index):
    game = compile_game(load_game(name))
    problem, _ = generate_problem(load_level(name, index, game.model), game)
    return ground(game.domain, problem)


def gbfs_states(task, monkeypatch):
    """(search task, every state GBFS evaluates) for one GBFS run."""
    seen = {}

    class Recording(_HAdd):
        def __init__(self, search_task):
            super().__init__(search_task)
            seen["task"] = search_task
            seen["states"] = []

        def value(self, state):
            seen["states"].append(state)
            return super().value(state)

    with monkeypatch.context() as m:
        m.setattr(planner, "_HAdd", Recording)
        result = solve(task, SearchConfig(mode=Mode.GBFS_HADD))
    assert result.status is Status.SOLVED
    assert len(seen["states"]) == result.stats.evaluated
    return seen["task"], seen["states"]


def assert_same_hadd(task, states):
    new, ref = _HAdd(task).value, _ReferenceHAdd(task).value
    for state in states:
        assert new(state) == ref(state)


# An open 10x10 Sokoban: one box three cells from its hole.
OPEN_SOKOBAN = """\
wwwwwwwwww
w        w
w        w
w  b  h  w
w   A    w
w        w
w        w
w        w
w        w
wwwwwwwwww
"""

F = [1 << i for i in range(8)]


def hadd_task(n, actions, goal):
    """A task over argument-free facts f0..f{n-1} whose ``actions`` are
    (positive precondition, clauses, add) masks."""
    facts = tuple(Atom(f"f{i}") for i in range(n))
    return GroundedTask(
        facts, tuple(GroundAction(f"a{k}", (), pos, 0, clauses, add, 0)
                     for k, (pos, clauses, add) in enumerate(actions)),
        0, goal, 0, frozenset(), False)


def every_state(task):
    return range(1 << len(task.facts))


class TestHAddOracle:
    @pytest.mark.parametrize("name,index", [
        ("sokoban", 1),
        ("rain", 1),  # a negative goal literal: (not (dead avatar))
        ("aliens", 0),  # all-positive and mixed-sign clauses
    ])
    def test_equals_reference_on_gbfs_states(self, name, index, monkeypatch):
        task, states = gbfs_states(level_task(name, index), monkeypatch)
        assert_same_hadd(task, states)

    def test_task_variants(self, monkeypatch):
        task, states = gbfs_states(level_task("sokoban", 1), monkeypatch)
        at_facts = sum(1 << i for atom, i in task.fact_id.items()
                       if atom.predicate == "at")
        # negative goal literals on facts the search makes true and false
        neg_goal = dataclasses.replace(task, goal_neg=at_facts)
        assert task.goal_pos and neg_goal.goal_neg
        assert_same_hadd(neg_goal, states)
        # no positive goal fact: h is the negative-goal penalty alone
        no_pos = dataclasses.replace(neg_goal, goal_pos=0)
        assert_same_hadd(no_pos, states)
        assert _HAdd(no_pos).value(task.init) == (
            (at_facts & task.init).bit_count() * NEG_GOAL_PENALTY)
        # an action with no requirement adds its facts at cost 1
        nil = next(i for i, a in enumerate(task.actions)
                   if a.name == "AVATAR_ACTION_NIL")
        actions = list(task.actions)
        actions[nil] = dataclasses.replace(actions[nil], pos_pre=0,
                                           clauses=())
        free = dataclasses.replace(task, actions=tuple(actions))
        assert_same_hadd(free, states)
        # an unreachable goal fact makes h infinite
        unreachable = dataclasses.replace(
            task, actions=tuple(a for a in task.actions
                                if a.name != "BOX_HOLE_KILLSPRITE"))
        assert _HAdd(unreachable).value(task.init) == INF
        assert_same_hadd(unreachable, states)

    def test_open_sokoban_gbfs_states(self, monkeypatch):
        game = compile_game(load_game("sokoban"))
        problem, _ = generate_problem(parse_ldf(OPEN_SOKOBAN, game.model),
                                      game)
        task, states = gbfs_states(ground(game.domain, problem), monkeypatch)
        assert len(states) > 100
        assert_same_hadd(task, states)

    def test_identical_requirements_share_one_relaxed_action(self):
        # a0 and a1 both require f0 alone
        task = hadd_task(3, [(F[0], (), F[1]), (F[0], (), F[2])],
                         goal=F[1] | F[2])
        assert len(_HAdd(task).reqs) == 1
        assert _HAdd(task).value(F[0]) == 2
        assert_same_hadd(task, every_state(task))

    def test_add_dominated_by_a_sub_multiset(self):
        # a1 adds f2 from {f0, f1}; a0 adds it from {f0} alone, for less
        task = hadd_task(4, [(F[0], (), F[2]), (F[0] | F[1], (), F[2] | F[3])],
                         goal=F[2] | F[3])
        h = _HAdd(task)
        assert sorted(map(len, h.adds)) == [1, 1]  # a1 keeps f3 alone
        assert h.value(F[0] | F[1]) == 1 + 1
        assert h.value(F[0]) == INF
        assert_same_hadd(task, every_state(task))

    def test_clause_shared_by_two_actions(self):
        clause = ((F[0] | F[1], 0),)
        task = hadd_task(5, [(0, clause, F[2]), (F[3], clause, F[4])],
                         goal=F[2] | F[4])
        assert _HAdd(task).nodes == 5 + 1
        assert _HAdd(task).value(F[3]) == INF
        assert _HAdd(task).value(F[1] | F[3]) == 2
        assert_same_hadd(task, every_state(task))

    def test_clause_with_a_member_in_the_state(self):
        # the clause costs its member in the state (0), not the other (1)
        task = hadd_task(4, [(0, ((F[0] | F[1], 0),), F[2]),
                             (F[3], (), F[1])],
                         goal=F[2])
        assert _HAdd(task).value(F[0]) == 1
        assert _HAdd(task).value(F[3]) == 2
        assert_same_hadd(task, every_state(task))

    def test_action_whose_only_requirement_is_a_clause(self):
        task = hadd_task(3, [(0, ((F[0] | F[1], 0),), F[2])], goal=F[2])
        assert _HAdd(task).value(F[1]) == 1
        assert _HAdd(task).value(0) == INF
        assert_same_hadd(task, every_state(task))

    def test_repeated_and_empty_clauses(self):
        # a repeated clause is paid twice; an empty clause never holds
        twice = ((F[0] | F[1], 0), (F[0] | F[1], 0))
        task = hadd_task(4, [(F[3], (), F[0]), (0, twice, F[2]),
                             (0, ((0, 0),), F[2])],
                         goal=F[2])
        assert _HAdd(task).value(F[3]) == 1 + 2 * 1
        assert_same_hadd(task, every_state(task))

    def test_adds_the_goal_cannot_need(self):
        # a1 adds only f3, which nothing reads; a2 re-adds its own requirement
        task = hadd_task(4, [(F[0], (), F[1]), (F[0], (), F[3]),
                             (F[1], (), F[1] | F[2])],
                         goal=F[2])
        assert len(_HAdd(task).reqs) == 2
        assert _HAdd(task).value(F[0]) == 2
        assert_same_hadd(task, every_state(task))

    def test_random_tasks(self):
        rng = random.Random(17)
        for _ in range(200):
            task = random_task(rng)
            assert_same_hadd(task, every_state(task))


class TestHAddMemo:
    def test_states_equal_on_the_key_share_one_entry(self, monkeypatch):
        # f3 is neither read nor a goal literal, so it is outside the key
        task = hadd_task(4, [(F[0], (), F[1]), (F[1], (), F[2])], goal=F[2])
        h = _HAdd(task)
        assert not h.key_mask & F[3]
        runs = []
        dijkstra = h._dijkstra
        monkeypatch.setattr(h, "_dijkstra",
                            lambda key: runs.append(key) or dijkstra(key))
        assert h.value(F[0]) == h.value(F[0] | F[3]) == 2
        assert runs == [F[0]] and len(h._memo) == 1

    def test_negative_goal_facts_are_in_the_key(self, monkeypatch):
        # rain lvl1: (dead avatar) is a negative goal fact no action needs,
        # so a key without the negative goal would give both states one h
        task, states = gbfs_states(level_task("rain", 1), monkeypatch)
        dead = 1 << task.fact_id[Atom("dead", ("avatar",))]
        h, ref = _HAdd(task), _ReferenceHAdd(task)
        assert task.goal_neg & dead and not h.needed & dead
        alive = states[len(states) // 2] & ~dead
        values = [h.value(alive), h.value(alive | dead)]
        assert values == [ref.value(alive), ref.value(alive | dead)]
        assert values[1] == values[0] + NEG_GOAL_PENALTY


# (sha256 of repr(plan.steps), expanded, generated).  The GBFS and A* entries
# were frozen before h_add gained its early stop: the exact heuristic must not
# move the search.  The BlindBFS entries were frozen before successor
# generation was indexed: the index must not move the oracle's search.  The
# digger and keymaze entries that differ from those were re-pinned when each
# END-TURN-INTERACTIONS guard became "no binding of the interaction applies":
# the turn now closes on an exit below the resource limit, so the searches
# see more states (the BlindBFS plans are unchanged).  The rain GBFS entries
# were re-pinned when best-first search began to expand only the actions of a
# strong stubborn set: rain's drops move in any order within a turn, and the
# set keeps one drop's move at a time (lvl1: 3409 -> 289 expansions; the plans
# keep their lengths, 71 and 86).  No other best-first entry moved: on every
# other level each stubborn set holds every applicable action.  The counts,
# not the digests, were re-pinned when `solve` began to search `simplify`'s
# projection onto the facts the task reads: states that differ only in an
# unread fact (the avatar's `oriented-*`, digger's `dead` dirt and gems) are
# one state now (BlindBFS aliens lvl1: 160646 -> 126792 expansions; Sokoban
# reads every fact and did not move).  The aliens counts, not the digests,
# were re-pinned when search began to use untouched ammunition lowest-first
# (`planner._Symmetry`): the bullets are interchangeable, so firing any one
# of the untouched ones is one choice (BlindBFS lvl1: 126792 -> 24381
# expansions).  No other level has interchangeable objects.
SEARCH_PINS = {
    ("GBFS_hadd", "aliens", 0): (
        "74e8f348be9b44d8228500295767b2883242f86193a5aab96a28e5f374dd6d11",
        89, 114),
    ("GBFS_hadd", "aliens", 1): (
        "8393976e130fd8ba2cf3b0ae836706459d24f6aa022f42324366e508c11bb854",
        184, 237),
    ("GBFS_hadd", "digger", 0): (
        "2b27f80573814ee7efe6f451cc28b83ff99b86dbd6144aafb9dae4a0026b996a",
        79, 104),
    ("GBFS_hadd", "digger", 1): (
        "ec591f69a29a361a5c297f730669a72cd282610748f005311c5a6de5fee8c341",
        235, 267),
    ("GBFS_hadd", "keymaze", 0): (
        "8ebf2022f34bcbfb079e984d44fb39110e85ebff55c3ec0009d733c88e15c057",
        45, 48),
    ("GBFS_hadd", "keymaze", 1): (
        "5a5512becfafffd9b94b055521a131a2f7b4d95401f49c323d086f1301a5d8a4",
        15, 18),
    ("GBFS_hadd", "rain", 0): (
        "15d175a2d3da1636f8d8e3135159ff2a90fcadd9addb0c560822ff900589a6d0",
        177, 205),
    ("GBFS_hadd", "rain", 1): (
        "42b4ad9d6a74fd12d31fb4a97f9031a7cc4382205c903df8ae89387ab8302b23",
        265, 287),
    ("GBFS_hadd", "sokoban", 0): (
        "fc4692ce9e871164ac766dfd94fc53ad01d4e72dcce6649d14fbb14d9060c08d",
        30, 38),
    ("GBFS_hadd", "sokoban", 1): (
        "5e60138e53b86bc87c5c14d7ad34b576bc12ec9faeec2ca20e70c8aba6cd1881",
        89, 117),
    ("GBFS_hadd", "zenpuzzle", 0): (
        "ad0c2ca705da5bbc74f3484b7206f19734653b9934fe89f06046164633ae3f85",
        122, 167),
    ("GBFS_hadd", "zenpuzzle", 1): (
        "9678d5a1b8119a98a80b4fc9931804eb8a1b809490df68c4717311c72f6df23a",
        25, 31),
    ("AStar_hadd", "sokoban", 0): (
        "fc4692ce9e871164ac766dfd94fc53ad01d4e72dcce6649d14fbb14d9060c08d",
        30, 38),
    ("AStar_hadd", "sokoban", 1): (
        "b23c94279c5b5835d63ad8ad2104db51568c8fe87c335f102acf247353bc5a3b",
        108, 153),
    ("BlindBFS", "aliens", 0): (
        "74e8f348be9b44d8228500295767b2883242f86193a5aab96a28e5f374dd6d11",
        3405, 3429),
    ("BlindBFS", "aliens", 1): (
        "d381a364e8af07194ff5baa8f81dc3af0c640196282877cf07245b2bb65685dd",
        24381, 24595),
    ("BlindBFS", "digger", 0): (
        "d7e0d86dd37da3352907ba56ec615b9782427e9c891c1775a0f661c34481032a",
        3500, 3685),
    ("BlindBFS", "digger", 1): (
        "88263522abd50faf76ec8e8e529affa945f78c59732212f8a55e565680c33016",
        11366, 12056),
    ("BlindBFS", "keymaze", 0): (
        "f92f73fdd0d85ab63caee6e4794246b3642345eb91d18f3bdc5c8b111001afa4",
        85, 87),
    ("BlindBFS", "keymaze", 1): (
        "5a5512becfafffd9b94b055521a131a2f7b4d95401f49c323d086f1301a5d8a4",
        32, 35),
    ("BlindBFS", "rain", 0): (
        "fa5079152be46be9ca0cd4cfb8293e6553a28781df20b03d8a3dcf6fff0910e9",
        5491, 5536),
    ("BlindBFS", "rain", 1): (
        "bf6f585a2431c2a4f4d512ac41feb8aa26e3ed157d85f020a2729ee23cc3f428",
        14373, 14406),
    ("BlindBFS", "sokoban", 0): (
        "fc4692ce9e871164ac766dfd94fc53ad01d4e72dcce6649d14fbb14d9060c08d",
        140, 162),
    ("BlindBFS", "sokoban", 1): (
        "b23c94279c5b5835d63ad8ad2104db51568c8fe87c335f102acf247353bc5a3b",
        1318, 1563),
    ("BlindBFS", "zenpuzzle", 0): (
        "af37161c53ee0a7988d70a8cab7576fbedf20071b7a373367670b648d95b6301",
        38487, 39669),
    ("BlindBFS", "zenpuzzle", 1): (
        "9678d5a1b8119a98a80b4fc9931804eb8a1b809490df68c4717311c72f6df23a",
        156, 171),
}


class TestSearchStability:
    def test_every_shipped_level_is_pinned(self):
        levels = {(name, i) for name in available_games() for i in (0, 1)}
        for pinned_mode in ("GBFS_hadd", "BlindBFS"):
            assert levels == {(name, i) for mode, name, i in SEARCH_PINS
                              if mode == pinned_mode}

    @pytest.mark.parametrize("mode,name,index", sorted(SEARCH_PINS))
    def test_plan_and_counts_unchanged(self, mode, name, index):
        result = solve(level_task(name, index),
                       SearchConfig(mode=Mode(mode), time_limit=120))
        digest = hashlib.sha256(repr(result.steps).encode()).hexdigest()
        stats = result.stats
        assert (digest, stats.expanded, stats.generated) == \
            SEARCH_PINS[(mode, name, index)]
        if mode == "BlindBFS":
            assert stats.evaluated == 0
        else:
            assert stats.evaluated == stats.generated + 1


# (mode, game, level) -> (sha256 of the plan steps' repr, expanded,
# generated) for A* and GoalCount, which rebuild their plans from the same
# parent map as GBFS. On zenpuzzle lvl0 A* finds five states again at a
# lower g and re-parents them. The counts were re-pinned, the digests kept,
# when search moved to `simplify`'s projection and when it began to use
# interchangeable objects lowest-first (see SEARCH_PINS).
BEST_FIRST_PINS = {
    ("AStar_hadd", "aliens", 1): (
        "8393976e130fd8ba2cf3b0ae836706459d24f6aa022f42324366e508c11bb854",
        311, 371),
    ("AStar_hadd", "digger", 1): (
        "bca7130d454b3bd7f37eb28aefb23dd7b358a53b58fc45836ec367568891e767",
        1147, 1318),
    ("AStar_hadd", "zenpuzzle", 0): (
        "45531d74828c4184466f8d4d8d5f850cbc1e3660ba763016b554176f9e8da410",
        185, 250),
    ("GoalCount", "aliens", 1): (
        "ab1eeb6fba019fc732799b99285f913faa03f27f0a3d27b8c320c71fa34d1c6a",
        3904, 4171),
    ("GoalCount", "digger", 1): (
        "88263522abd50faf76ec8e8e529affa945f78c59732212f8a55e565680c33016",
        8716, 9347),
    ("GoalCount", "zenpuzzle", 0): (
        "bfa57e676b2c7bdce782ca6f2b8c9a3de47b6f16f90079856f44359717f762e4",
        80, 105),
}


class TestBestFirstPlans:
    @pytest.mark.parametrize("mode,name,index", sorted(BEST_FIRST_PINS))
    def test_plan_and_counts_unchanged(self, mode, name, index):
        task = level_task(name, index)
        result = solve(task, SearchConfig(mode=Mode(mode), time_limit=120))
        assert validate(task, result.plan) == (True, None)
        digest = hashlib.sha256(repr(result.steps).encode()).hexdigest()
        stats = result.stats
        assert (digest, stats.expanded, stats.generated) == \
            BEST_FIRST_PINS[(mode, name, index)]
        assert stats.evaluated == stats.generated + 1

    def test_astar_plan_follows_the_latest_parents(self, monkeypatch):
        """A* re-parents a state it finds again at a lower g, so its plan is
        as long as the g it popped the goal at (f - h of that heap entry)."""
        popped = []

        def recording_heappop(heap):
            popped.append(heapq.heappop(heap))
            return popped[-1]

        monkeypatch.setattr(planner, "heappop", recording_heappop)
        rng = random.Random(17)
        solved = 0
        for _ in range(3000):
            task = random_task(rng)
            popped.clear()
            result = solve(task, SearchConfig(mode=Mode.ASTAR_HADD))
            if result.status is Status.SOLVED and popped:
                solved += 1
                f, h = popped[-1][:2]
                assert len(result.plan) == f - h
                assert validate(task, result.plan) == (True, None)
        assert solved >= 500


def make_successors(task):
    return planner._Successors(task, planner._read_table(task))


def make_stubborn(task):
    return planner._StubbornSets(task, planner._read_table(task))


def expanded_states(task, mode, monkeypatch):
    """(search task, every state the search asks successors of before it
    rebuilds the plan, the generator it built, the result) for one search
    in `mode`."""
    seen = {}

    class Recording(planner._Successors):
        def __init__(self, search_task, reads):
            super().__init__(search_task, reads)
            seen.update(task=search_task, states=[], successors=self)

        def applicable(self, state):
            seen["states"].append(state)
            return super().applicable(state)

    with monkeypatch.context() as m:
        m.setattr(planner, "_Successors", Recording)
        result = solve(task, SearchConfig(mode=mode, time_limit=120))
    assert result.status is Status.SOLVED
    # best-first search tests the goal on the state it pops, so the last
    # state it expands is never asked for successors; rebuilding the plan
    # then asks once more per step
    expanded = result.stats.expanded - (mode is not Mode.BLIND_BFS)
    assert len(seen["states"]) == expanded + len(result.plan)
    return seen["task"], seen["states"][:expanded], seen["successors"], result


def bfs_states(task, monkeypatch):
    """(search task, every state blind BFS expands) for one BFS run."""
    return expanded_states(task, Mode.BLIND_BFS, monkeypatch)[:2]


def assert_same_successors(task, states):
    """The successor generator yields exactly the applicable actions, in
    grounding order.  Grounding order is the generator's order whenever the
    actions applicable in one state come in gate-bucket order, as they do in
    a compiled task, where one phase is active at a time."""
    successors = make_successors(task)
    yielded = 0
    for state in states:
        got = [task.actions[i] for i in successors.applicable(state)]
        assert got == [a for a in task.actions if applicable(state, a)]
        yielded += len(got)
    return yielded


class TestSuccessors:
    @pytest.mark.parametrize("name,index", [
        ("sokoban", 0), ("sokoban", 1), ("keymaze", 0), ("keymaze", 1),
        ("digger", 0), ("digger", 1), ("rain", 0), ("aliens", 0),
        ("zenpuzzle", 0), ("zenpuzzle", 1),
    ])
    def test_equals_applicable_scan_on_bfs_states(self, name, index,
                                                  monkeypatch):
        task, states = bfs_states(level_task(name, index), monkeypatch)
        assert assert_same_successors(task, states) > 0

    def test_task_variants(self, monkeypatch):
        task, states = bfs_states(level_task("sokoban", 1), monkeypatch)
        gate = {atom.predicate: 1 << i for atom, i in task.fact_id.items()
                if not atom.args}
        names = [a.name for a in task.actions]

        def variant(i, **changes):
            actions = list(task.actions)
            actions[i] = dataclasses.replace(actions[i], **changes)
            return actions

        def yields(actions, action):
            varied = dataclasses.replace(task, actions=tuple(actions))
            assert assert_same_successors(varied, states) > 0
            return any(applicable(s, action) for s in states)

        # an action whose only positive precondition is its gate, between
        # actions of its bucket that do have other positive preconditions
        push = names.index("BOX_AVATAR_BOUNCEFORWARD_DOWN")
        actions = variant(push, pos_pre=gate["turn-interactions"])
        assert yields(actions, actions[push])
        # an action with no positive precondition at all; the always-scanned
        # group comes last, so it is last in grounding order too
        nil = names.index("AVATAR_ACTION_NIL")
        actions = variant(nil, pos_pre=0)
        actions.append(actions.pop(nil))
        assert yields(actions, actions[-1])
        # an action with two gate facts, like END-TURN-SPRITES: the first
        # interaction gains the gate that holds while interactions run
        first = names.index("BOX_AVATAR_BOUNCEFORWARD_UP")
        assert not any(a.pos_pre & gate["turn-interactions"]
                       for a in task.actions[:first])
        actions = variant(first, pos_pre=task.actions[first].pos_pre
                          | gate["finished-turn-avatar"])
        assert (actions[first].pos_pre & sum(gate.values())).bit_count() == 2
        assert yields(actions, actions[first])


def group_reads(task):
    """gate bit -> every fact the actions of that gate's group read, for
    the groups `_Successors` documents: an action's gate is the lowest
    argument-free fact among its positive preconditions, 0 if there is
    none."""
    gates = sum(1 << i for atom, i in task.fact_id.items() if not atom.args)
    reads = {}
    for a in task.actions:
        bit = a.pos_pre & gates & -(a.pos_pre & gates)
        mask = a.pos_pre | a.neg_pre
        for pos_mask, neg_mask in a.clauses:
            mask |= pos_mask | neg_mask
        reads[bit] = reads.get(bit, 0) | mask
    return reads


def projection(reads, state):
    """`state` on the group gates and on what its active groups read."""
    mask = sum(reads)
    for bit, read in reads.items():
        if not bit or state & bit:
            mask |= read
    return state & mask


class TestSuccessorMemo:
    def scan(self, task, state):
        return [i for i, a in enumerate(task.actions) if applicable(state, a)]

    def test_equal_projections_share_one_entry(self, monkeypatch):
        task, states, _, _ = expanded_states(
            level_task("sokoban", 1), Mode.BLIND_BFS, monkeypatch)
        reads = group_reads(task)
        by_projection = {}
        for state in states:
            by_projection.setdefault(projection(reads, state), []).append(state)
        pairs = [group[:2] for group in by_projection.values()
                 if len(group) > 1]
        assert pairs
        successors = make_successors(task)
        for first, second in pairs:
            assert first != second
            got = successors.applicable(first)
            assert successors.applicable(second) is got
            assert list(got) == self.scan(task, first) == self.scan(task, second)

    def test_states_with_different_gates_never_share_an_entry(self,
                                                              monkeypatch):
        task, states, _, _ = expanded_states(
            level_task("sokoban", 1), Mode.BLIND_BFS, monkeypatch)
        gate_mask = sum(group_reads(task))
        by_gates = {}
        for state in states:
            by_gates.setdefault(state & gate_mask, []).append(state)
        assert len(by_gates) > 1
        together = make_successors(task)
        apart = 0
        for group in by_gates.values():
            alone = make_successors(task)
            for state in group:
                assert list(together.applicable(state)) == \
                    list(alone.applicable(state)) == self.scan(task, state)
            apart += len(alone._memo)
        assert len(together._memo) == apart

    def test_task_variants_reading_an_unshared_fact(self, monkeypatch):
        task, states, _, _ = expanded_states(
            level_task("sokoban", 1), Mode.BLIND_BFS, monkeypatch)
        reads = group_reads(task)
        # an avatar move, and a fact that none of the avatar group's
        # actions reads but that differs between the states it applies in
        gates = sum(reads)
        move = next(i for i, a in enumerate(task.actions)
                    if a.name.startswith("AVATAR_ACTION_MOVE")
                    and sum(applicable(s, a) for s in states) > 1)
        action = task.actions[move]
        bit = action.pos_pre & gates & -(action.pos_pre & gates)
        where = [s for s in states if applicable(s, action)]
        varies = (reduce(operator.or_, where) & ~reduce(operator.and_, where)
                  & ~reads[bit])
        assert varies
        fact = varies & -varies
        for changes in ({"neg_pre": action.neg_pre | fact},
                        {"clauses": action.clauses + ((fact, 0),)},
                        {"clauses": action.clauses + ((0, fact),)}):
            actions = list(task.actions)
            actions[move] = dataclasses.replace(action, **changes)
            varied = dataclasses.replace(task, actions=tuple(actions))
            # the variant applies in some of the states the original does
            # and not in others
            assert len({applicable(s, actions[move]) for s in where}) == 2
            assert assert_same_successors(varied, states) > 0

    @pytest.mark.parametrize("name,index", [("rain", 1), ("aliens", 1)])
    def test_equals_applicable_scan_on_gbfs_states(self, name, index,
                                                   monkeypatch):
        task, states, _, _ = expanded_states(
            level_task(name, index), Mode.GBFS_HADD, monkeypatch)
        assert any(a.clauses for a in task.actions)
        assert assert_same_successors(task, states) > 0

    @pytest.mark.parametrize("mode", [Mode.BLIND_BFS, Mode.GBFS_HADD])
    def test_at_most_one_entry_per_expanded_state(self, mode, monkeypatch):
        _, states, successors, result = expanded_states(
            level_task("aliens", 0), mode, monkeypatch)
        assert 0 < len(successors._memo) <= result.stats.expanded
        assert len(successors._memo) < len(set(states))


def known_facts(successors, state):
    """`state` on the group gates and on the key facts of its active
    groups, the facts that decide its candidates."""
    mask = successors.gate_mask
    for bit, _, key_mask, _ in successors.groups:
        if not bit or state & bit:
            mask |= key_mask
    return state & mask


class TestKeyFactEntries:
    def scan(self, task, state):
        return [i for i, a in enumerate(task.actions) if applicable(state, a)]

    def test_equal_known_facts_and_reads_share_one_answer(self, monkeypatch):
        """States that agree on their known facts and on what the entry's
        remaining tests read share one remembered answer, though they
        differ in other facts their phase reads."""
        task, states, _, _ = expanded_states(
            level_task("zenpuzzle", 0), Mode.BLIND_BFS, monkeypatch)
        reads = group_reads(task)
        filled = make_successors(task)
        for state in states:
            filled.applicable(state)
        # entry key -> first-lookup key -> a state with both
        by_key = {}
        for state in states:
            entry = filled._entries[known_facts(filled, state)]
            if entry is not None:
                by_key.setdefault(state & entry[1], {}).setdefault(
                    projection(reads, state), state)
        triples = [list(group.values())[:3] for group in by_key.values()
                   if len(group) >= 3]
        assert triples
        tested = []
        passing = planner._passing

        def counted(tests, state):
            tested.append(state)
            return passing(tests, state)

        monkeypatch.setattr(planner, "_passing", counted)
        for first, second, third in triples:
            successors = make_successors(task)
            # the first miss on these known facts scans, the second builds
            # their entry and tests what it left open
            got = successors.applicable(first)
            assert successors.applicable(second) is got
            assert tested[-2:] == [first, second]
            assert successors.applicable(third) is got
            assert tested[-1] == second
            assert list(got) == self.scan(task, first) == self.scan(task, third)

    def test_guard_clauses_are_scanned_a_few_dozen_times(self, monkeypatch):
        """zenpuzzle lvl0's END-TURN-INTERACTIONS reads every interaction's
        facts, so its blind BFS misses the first lookup 15,927 times; its
        known facts take 30 values."""
        counts = Counter()

        class Counting(planner._Successors):
            def _scan(self, state):
                counts["scans"] += 1
                return super()._scan(state)

            def _evaluate(self, state, known):
                counts["entries"] += 1
                return super()._evaluate(state, known)

        monkeypatch.setattr(planner, "_Successors", Counting)
        _, _, successors, result = expanded_states(
            level_task("zenpuzzle", 0), Mode.BLIND_BFS, monkeypatch)
        assert len(result.plan) == 58
        assert len(successors._memo) > 15_000
        assert counts["scans"] == len(successors._entries) <= 40
        assert counts["entries"] <= counts["scans"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name, monkeypatch):
    """A module of the benchmark (`inputs`, `workloads`), for its inputs and
    frozen references."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def interfere(a, b):
    """Reference interference test, pair by pair: one action deletes a fact
    the other reads positively, adds a fact the other reads negatively, or
    adds a fact the other deletes."""
    def reads(x):
        pos, neg = x.pos_pre, x.neg_pre
        for pos_mask, neg_mask in x.clauses:
            pos, neg = pos | pos_mask, neg | neg_mask
        return pos, neg
    (a_pos, a_neg), (b_pos, b_neg) = reads(a), reads(b)
    return bool(a.delete & (b_pos | b.add) or b.delete & (a_pos | a.add)
                or a.add & b_neg or b.add & a_neg)


class ReferenceStubborn:
    """The strong stubborn sets `planner._StubbornSets` documents, built
    from the definition: achievers and interference found by scanning every
    action with `interfere`, the closure a plain worklist over indices."""

    def __init__(self, task):
        self.task = task
        self.gates = sum(1 << i for atom, i in task.fact_id.items()
                         if not atom.args)
        self._achievers = {}
        self._interferes = {}

    def achievers(self, fact, positive):
        if (fact, positive) not in self._achievers:
            self._achievers[fact, positive] = {
                j for j, b in enumerate(self.task.actions)
                if (b.add if positive else b.delete) >> fact & 1}
        return self._achievers[fact, positive]

    def choose(self, state, missing, present, clauses):
        """Achievers of the first unmet gate literal, else of the first
        unmet literal or false clause with the fewest achievers."""
        unmet = ([(f, True) for f in planner._bits(missing)]
                 + [(f, False) for f in planner._bits(present)])
        for f, positive in sorted(unmet):
            if self.gates >> f & 1:
                return self.achievers(f, positive)
        options = [self.achievers(f, positive) for f, positive in unmet]
        for pos_mask, neg_mask in clauses:
            if not state & pos_mask and not neg_mask & ~state:
                options.append(set().union(
                    *(self.achievers(f, True)
                      for f in planner._bits(pos_mask)),
                    *(self.achievers(f, False)
                      for f in planner._bits(neg_mask))))
        return min(options, key=len) if options else set()

    def interferes(self, i):
        if i not in self._interferes:
            a = self.task.actions[i]
            self._interferes[i] = {j for j, b in enumerate(self.task.actions)
                                   if interfere(a, b)}
        return self._interferes[i]

    def kept(self, state, answer):
        """What `keep` must return for the action indices `answer`: the
        whole answer when every two of its actions interfere or the set
        holds all of them, else the answer's actions in the set."""
        task = self.task
        stubborn = set(self.choose(state, task.goal_pos & ~state,
                                   task.goal_neg & state, ()))
        queue = list(stubborn)
        while queue:
            i = queue.pop()
            a = task.actions[i]
            if applicable(state, a):
                new = self.interferes(i)
            else:
                new = self.choose(state, a.pos_pre & ~state,
                                  a.neg_pre & state, a.clauses)
            queue += new - stubborn
            stubborn |= new
        actions = [task.actions[i] for i in answer]
        if set(answer) <= stubborn or all(
                interfere(a, b) for k, b in enumerate(actions)
                for a in actions[:k]):
            return answer
        return tuple(i for i in answer if i in stubborn)


def gbfs_kept(task, monkeypatch):
    """(search task, [(state, applicable, kept)] for every state GBFS
    expands, as action indices, the result) for one GBFS run."""
    seen = []
    made = {}

    class Recording(planner._StubbornSets):
        def __init__(self, search_task, reads):
            super().__init__(search_task, reads)
            made["task"] = search_task

        def keep(self, state, answer):
            kept = super().keep(state, answer)
            seen.append((state, answer, kept))
            return kept

    with monkeypatch.context() as m:
        m.setattr(planner, "_StubbornSets", Recording)
        result = solve(task, SearchConfig(mode=Mode.GBFS_HADD, time_limit=120))
    assert result.status is Status.SOLVED
    return made["task"], seen, result


def stubborn_bfs(task):
    """(plan length or None, expansions, actions pruned) of breadth-first
    search that expands only the actions the stubborn sets keep."""
    successors = make_successors(task)
    stubborn = make_stubborn(task)
    depth = {task.init: 0}
    queue = deque([task.init])
    expanded = pruned = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        answer = successors.applicable(state)
        kept = stubborn.keep(state, answer)
        pruned += len(answer) - len(kept)
        for i in kept:
            succ = apply(state, task.actions[i])
            if succ in depth:
                continue
            depth[succ] = depth[state] + 1
            if goal_satisfied(task, succ):
                return depth[succ], expanded, pruned
            queue.append(succ)
    return None, expanded, pruned


def interleaving_task():
    """A task whose only plan the "expand only the first of pairwise
    independent movers" shortcut loses.  A and B both apply at the start and
    are independent: A deletes `intact`, B adds `enabled`, and neither reads
    what the other touches.  C reaches the goal and needs both `enabled` and
    `intact`, so the only plan is B, C; A first strands the search."""
    facts = tuple(Atom(p, ("x",)) for p in
                  ("done-a", "done-b", "enabled", "goal", "intact"))
    bit = {atom.predicate: 1 << i for i, atom in enumerate(facts)}
    a = GroundAction("A", (), 0, bit["done-a"], (), bit["done-a"],
                     bit["intact"])
    b = GroundAction("B", (), 0, bit["done-b"], (),
                     bit["done-b"] | bit["enabled"], 0)
    c = GroundAction("C", (), bit["enabled"] | bit["intact"], 0, (),
                     bit["goal"], 0)
    return GroundedTask(facts, (a, b, c), bit["intact"], bit["goal"], 0,
                        frozenset(), False)


def random_task(rng):
    """A small random task: ten sparse actions over eight facts, two of them
    argument-free (gates to `_Successors` and to the stubborn sets' choice
    rule), with negative preconditions, clauses and negative goal literals."""
    facts = tuple(Atom(f"f{i}", () if i < 2 else ("x",)) for i in range(8))

    def mask(p):
        return sum(1 << i for i in range(len(facts)) if rng.random() < p)

    actions = []
    for k in range(10):
        pos = mask(0.15)
        clauses = tuple(c for c in [(mask(0.2), mask(0.15))]
                        if any(c) and rng.random() < 0.4)
        actions.append(GroundAction(f"a{k}", (), pos, mask(0.1) & ~pos,
                                    clauses, mask(0.15), mask(0.1)))
    goal_pos = mask(0.3)
    return GroundedTask(facts, tuple(actions), mask(0.4), goal_pos,
                        mask(0.1) & ~goal_pos, frozenset(), False)


class TestStubbornSets:
    def test_pruned_counts_dropped_actions(self):
        for index in (0, 1):
            stats = solve(level_task("rain", index)).stats
            assert stats.pruned > 0
            bfs = solve(level_task("rain", index),
                        SearchConfig(mode=Mode.BLIND_BFS)).stats
            assert bfs.pruned == 0
        assert solve(level_task("sokoban", 1)).stats.pruned == 0

    def test_nothing_pruned_on_the_ladder(self, monkeypatch):
        inputs = perfbench_module("inputs", monkeypatch)
        game = compile_game(load_game("sokoban"))
        for _, text in inputs.ladder_levels(1):
            problem, _ = generate_problem(parse_ldf(text, game.model), game)
            result = solve(ground(game.domain, problem))
            assert result.status is Status.SOLVED
            assert result.stats.pruned == 0

    @pytest.mark.parametrize("name,index", [
        ("rain", 0), ("rain", 1), ("aliens", 0), ("aliens", 1),
        ("digger", 1), ("sokoban", 1),
    ])
    def test_kept_actions_on_gbfs_states(self, name, index, monkeypatch):
        task, seen, result = gbfs_kept(level_task(name, index), monkeypatch)
        reference = ReferenceStubborn(task)
        kept_at = {}
        strict = 0
        for state, answer, kept in seen:
            # an ordered sublist of the applicable actions
            rest = iter(answer)
            assert all(i in rest for i in kept)
            actions = [task.actions[i] for i in answer]
            if all(interfere(a, b) for i, b in enumerate(actions)
                   for a in actions[:i]):
                assert kept == answer
            assert kept == reference.kept(state, answer)
            strict += len(kept) < len(answer)
            kept_at[state] = kept
        assert (strict > 0) == (name == "rain")
        # every state of the plan was expanded and kept its plan action
        state = task.init
        for action in result.plan:
            action = task.action(*action.ident)
            assert task.actions.index(action) in kept_at[state]
            state = apply(state, action)
        assert goal_satisfied(task, state)

    def test_equal_answers_share_one_entry(self, monkeypatch):
        """The stubborn sets remember an answer by value: a copy of an
        answer GBFS asked about keeps the same actions and adds no entry."""
        task, seen, _ = gbfs_kept(level_task("rain", 1), monkeypatch)
        stubborn = make_stubborn(task)
        for state, answer, kept in seen:
            copy = tuple(list(answer))
            assert copy == answer and (copy is not answer or not answer)
            assert stubborn.keep(state, copy) == kept
        distinct = {answer for _, answer, _ in seen}
        assert len(stubborn._answers) == len(distinct) < len(seen)

    def test_interference_tables_match_pairwise_test(self, monkeypatch):
        task, seen, _ = gbfs_kept(level_task("rain", 1), monkeypatch)
        stubborn = make_stubborn(task)
        stubborn._build()
        movers = {i for _, answer, _ in seen for i in answer}
        assert len(movers) > 10
        for i in movers:
            a = task.actions[i]
            assert stubborn._interference(i) == sum(
                1 << j for j, b in enumerate(task.actions) if interfere(a, b))

    @pytest.mark.parametrize("name,index", [
        ("rain", 0), ("rain", 1), ("sokoban", 0), ("sokoban", 1),
        ("keymaze", 0), ("keymaze", 1), ("zenpuzzle", 1),
    ])
    def test_bfs_through_the_filter_stays_optimal(self, name, index,
                                                  monkeypatch):
        workloads = perfbench_module("workloads", monkeypatch)
        length, expanded, _ = stubborn_bfs(simplify(level_task(name, index)))
        assert length == workloads.OPTIMAL_LENGTHS[(name, index)]
        if (name, index) == ("rain", 1):
            # plain blind BFS on the same task expands 14,373 states
            # (SEARCH_PINS)
            assert expanded * 5 <= SEARCH_PINS[("BlindBFS", "rain", 1)][1]

    def test_random_tasks_keep_their_optimum(self):
        rng = random.Random(15)
        solvable = pruned = 0
        for _ in range(2000):
            task = random_task(rng)
            if goal_satisfied(task, task.init):
                continue
            optimum = exhaustive_optimum(task)
            length, _, bfs_pruned = stubborn_bfs(task)
            assert length == optimum
            result = solve(task, SearchConfig(mode=Mode.GBFS_HADD))
            if optimum is None:
                assert result.status is Status.UNSOLVABLE
                continue
            solvable += 1
            assert result.status is Status.SOLVED
            assert validate(task, result.plan) == (True, None)
            pruned += bfs_pruned > 0
        assert solvable >= 400 and pruned >= 150

    def test_random_tasks_keep_the_reference_sets(self):
        rng = random.Random(16)
        strict = 0
        for _ in range(300):
            task = random_task(rng)
            successors = make_successors(task)
            stubborn = make_stubborn(task)
            reference = ReferenceStubborn(task)
            seen, queue = {task.init}, deque([task.init])
            while queue:
                state = queue.popleft()
                if goal_satisfied(task, state):
                    continue
                answer = successors.applicable(state)
                kept = stubborn.keep(state, answer)
                assert kept == reference.kept(state, answer)
                strict += len(kept) < len(answer)
                for i in answer:
                    succ = apply(state, task.actions[i])
                    if succ not in seen:
                        seen.add(succ)
                        queue.append(succ)
        assert strict >= 100

    def test_a_disabling_mover_stays_in_the_set(self):
        """B deletes what A needs, so A must come first; D is independent
        of both, so the closure runs and drops D alone."""
        facts = tuple(Atom(p, ("x",)) for p in
                      ("goal-b", "goal-a", "ready", "done-d"))
        bit = {atom.predicate: 1 << i for i, atom in enumerate(facts)}
        a = GroundAction("A", (), bit["ready"], 0, (), bit["goal-a"], 0)
        b = GroundAction("B", (), 0, 0, (), bit["goal-b"], bit["ready"])
        d = GroundAction("D", (), 0, bit["done-d"], (), bit["done-d"], 0)
        task = GroundedTask(facts, (a, b, d), bit["ready"],
                            bit["goal-a"] | bit["goal-b"], 0, frozenset(),
                            False)
        assert interfere(a, b)
        assert not interfere(a, d) and not interfere(b, d)
        assert make_stubborn(task).keep(task.init, (0, 1, 2)) == (0, 1)
        result = solve(task, SearchConfig(mode=Mode.GBFS_HADD))
        assert result.status is Status.SOLVED and result.plan == (a, b)
        assert stubborn_bfs(task)[0] == 2

    def test_shortcut_loses_a_plan_the_stubborn_sets_keep(self):
        task = interleaving_task()
        a, b, c = task.actions
        assert [x for x in task.actions if applicable(task.init, x)] == [a, b]
        assert not interfere(a, b) and interfere(a, c)

        def shortcut_bfs():
            successors = make_successors(task)
            seen, queue = {task.init}, deque([task.init])
            while queue:
                state = queue.popleft()
                answer = [task.actions[i]
                          for i in successors.applicable(state)]
                if not any(interfere(x, y) for i, y in enumerate(answer)
                           for x in answer[:i]):
                    answer = answer[:1]
                for action in answer:
                    succ = apply(state, action)
                    if goal_satisfied(task, succ):
                        return True
                    if succ not in seen:
                        seen.add(succ)
                        queue.append(succ)
            return False

        assert not shortcut_bfs()
        result = solve(task, SearchConfig(mode=Mode.GBFS_HADD))
        assert result.status is Status.SOLVED
        assert result.plan == (b, c)
        assert result.stats.pruned == 1
        assert stubborn_bfs(task) == (2, 2, 1)


def read_facts(task):
    """Every fact a precondition, a clause or a goal literal mentions."""
    mask = task.goal_pos | task.goal_neg
    for a in task.actions:
        mask |= a.pos_pre | a.neg_pre
        for pos_mask, neg_mask in a.clauses:
            mask |= pos_mask | neg_mask
    return mask


def written_facts(task):
    """Every fact init sets or an action adds or deletes."""
    mask = task.init
    for a in task.actions:
        mask |= a.add | a.delete
    return mask


ORIENTED = [f"(oriented-{d} avatar)" for d in ("down", "left", "right", "up")]


class TestSimplify:
    @pytest.mark.parametrize("name,index,dropped", [
        ("aliens", 0, 3), ("aliens", 1, 3), ("digger", 0, 11),
        ("digger", 1, ["(dead dirt_2_2)", "(dead dirt_2_3)", "(dead dirt_2_4)",
                       "(dead dirt_3_2)", "(dead dirt_3_4)", "(dead dirt_4_2)",
                       "(dead dirt_4_3)", "(dead dirt_4_4)", "(dead gem_1_3)",
                       "(dead gem_5_3)"] + ORIENTED),
        ("keymaze", 0, 5), ("keymaze", 1, 5), ("rain", 0, 4), ("rain", 1, 4),
        ("zenpuzzle", 0, ORIENTED), ("zenpuzzle", 1, 4),
    ])
    def test_drops_exactly_the_unread_facts(self, name, index, dropped):
        task = level_task(name, index)
        search = simplify(task)
        gone = sorted(map(str, task.state_atoms(
            written_facts(task) & ~written_facts(search))))
        assert (len(gone) if isinstance(dropped, int) else gone) == dropped
        read = read_facts(task)
        assert search.facts == task.facts and search.fact_id == task.fact_id
        assert search.init == task.init & read
        assert (search.goal_pos, search.goal_neg, search.unsolvable_goal) == \
            (task.goal_pos, task.goal_neg, task.unsolvable_goal)
        assert len(search.actions) == len(task.actions)
        for a, b in zip(task.actions, search.actions):
            assert (b.ident, b.pos_pre, b.neg_pre, b.clauses) == \
                (a.ident, a.pos_pre, a.neg_pre, a.clauses)
            assert (b.add, b.delete) == (a.add & read, a.delete & read)
            # an action that writes no dropped fact is kept as is
            assert (b is a) == (not (a.add | a.delete) & ~read)

    def test_returns_the_task_itself_when_every_fact_is_read(self,
                                                             monkeypatch):
        tasks = [level_task("sokoban", 0), level_task("sokoban", 1)]
        inputs = perfbench_module("inputs", monkeypatch)
        game = compile_game(load_game("sokoban"))
        _, text = inputs.ladder_levels(1)[0]
        problem, _ = generate_problem(parse_ldf(text, game.model), game)
        tasks.append(ground(game.domain, problem))
        for task in tasks:
            assert simplify(task) is task

    @pytest.mark.parametrize("mode", list(Mode))
    def test_plans_hold_the_tasks_own_actions(self, mode):
        task = level_task("zenpuzzle", 1)
        search = simplify(task)
        result = solve(task, SearchConfig(mode=mode))
        assert result.status is Status.SOLVED and result.plan
        assert all(a is task.action(*a.ident) for a in result.plan)
        # the plan's avatar moves turn the avatar, which nothing reads
        assert any(search.action(*a.ident) != a for a in result.plan)
        assert validate(task, result.plan) == (True, None)

    @pytest.mark.parametrize("name", available_games())
    def test_random_walks_agree_on_the_read_facts(self, name):
        """The projection is a bisimulation: along seeded random walks on
        the full task, the projected state has the same applicable actions,
        h_add and goal test, and each step's successors agree on what is
        read."""
        rng = random.Random(22)
        for index in (0, 1):
            task = level_task(name, index)
            search = simplify(task)
            read = read_facts(task)
            h, search_h = _HAdd(task).value, _HAdd(search).value
            state = task.init
            for _ in range(300):
                projected = state & read
                steps = [a for a in task.actions if applicable(state, a)]
                search_steps = [b for b in search.actions
                                if applicable(projected, b)]
                assert [a.ident for a in steps] == \
                    [b.ident for b in search_steps]
                assert goal_satisfied(task, state) == \
                    goal_satisfied(search, projected)
                assert h(state) == search_h(projected)
                if not steps or goal_satisfied(task, state):
                    state = task.init
                    continue
                k = rng.randrange(len(steps))
                state = apply(state, steps[k])
                assert state & read == apply(projected, search_steps[k])

    def test_random_tasks_agree_on_every_state(self):
        """Random tasks read facts through goal literals and clauses alone
        too; every state of each agrees with its projection."""
        rng = random.Random(22)
        projected = 0
        for _ in range(1000):
            task = random_task(rng)
            search = simplify(task)
            if search is task:
                assert not written_facts(task) & ~read_facts(task)
                continue
            projected += 1
            read = read_facts(task)
            assert search.init == task.init & read
            for state in every_state(task):
                steps = [a for a in task.actions if applicable(state, a)]
                search_steps = [b for b in search.actions
                                if applicable(state & read, b)]
                assert [a.ident for a in steps] == \
                    [b.ident for b in search_steps]
                assert goal_satisfied(task, state) == \
                    goal_satisfied(search, state & read)
                for a, b in zip(steps, search_steps):
                    assert apply(state, a) & read == apply(state & read, b)
        assert projected >= 50


def symmetry_classes(task):
    """The classes of interchangeable objects search uses on `task`."""
    return [list(c) for c in simplify(task).interchangeable] or None


POOL_DOMAIN = """\
(define (domain pool)
  (:requirements :strips :typing :negative-preconditions)
  (:types spare - ball ball)
  {constants}
  (:predicates (in-reserve ?b - ball) (used ?b - ball) (jammed ?b - ball)
               (linked ?a ?b - ball) (done))
  (:action USE
    :parameters (?b - ball)
    :precondition (and (in-reserve ?b) (not (jammed ?b)) {use})
    :effect (and (used ?b) (not (in-reserve ?b))))
  (:action FINISH
    :parameters (?b - ball)
    :precondition (and (used ?b) (not (done)) {finish})
    :effect (done))
  (:action SPARE
    :parameters (?s - spare)
    :precondition (in-reserve ?s)
    :effect (done)))
"""

POOL_PROBLEM = """\
(define (problem pool-1) (:domain pool)
  (:objects {objects})
  (:init {init})
  (:goal {goal}))
"""

# one way each to tell `p` and `q` apart, by keyword of `pool_task`
POOL_ASYMMETRIES = [
    {"goal": "(and (done) (not (used q)))"},  # the goal names q
    {"init": "(in-reserve p) (in-reserve q) (jammed p)"},  # a static fact
    {"constants": "(:constants p - ball)", "objects": "q - ball",
     "use": "(not (used p))"},  # a schema names p as a domain constant
    {"finish": "(used q)"},  # a schema names q, undeclared as a constant
    {"objects": "p - ball q - spare"},  # q has a subtype, which SPARE takes
    {"init": "(in-reserve p) (in-reserve q) (linked p q)"},  # one fact, both
    {"init": "(used p) (in-reserve q)"},  # a dynamic init fact
]


def pool_task(objects="p q - ball", init="(in-reserve p) (in-reserve q)",
              goal="(done)", constants="", use="", finish=""):
    """Two balls `p` and `q` in reserve, grounded: USE moves one out of
    reserve and FINISH needs one used.  Unchanged, `p` and `q` are
    interchangeable; each of `POOL_ASYMMETRIES` tells them apart."""
    domain = read_domain(POOL_DOMAIN.format(constants=constants, use=use,
                                            finish=finish))
    problem = read_problem(POOL_PROBLEM.format(objects=objects, init=init,
                                               goal=goal))
    return ground(domain, problem)


def random_aliens_level(rng):
    """A small aliens level: the avatar on the bottom row, and two aliens
    and at times a rock at least two rows above it."""
    w, h = rng.choice([(4, 3), (5, 3), (4, 4), (5, 4)])
    rows = [[" "] * w for _ in range(h)]
    rows[h - 1][rng.randrange(w)] = "p"
    cells = [(x, y) for x in range(w) for y in range(h - 2)]
    for (x, y), char in zip(rng.sample(cells, 3), "aar"):
        if char == "a" or rng.random() < 0.3:
            rows[y][x] = char
    return "\n".join("".join(row) for row in rows)


class TestSymmetry:
    @pytest.mark.parametrize("name", available_games())
    def test_only_the_aliens_ammunition_is_interchangeable(self, name):
        for index in (0, 1):
            classes = symmetry_classes(level_task(name, index))
            if name == "aliens":
                assert classes == [[f"bullet_ammo_{k}"
                                    for k in range(1, 3 + index)]]
            else:
                assert classes is None

    def test_no_ladder_rung_has_interchangeable_objects(self, monkeypatch):
        inputs = perfbench_module("inputs", monkeypatch)
        game = compile_game(load_game("sokoban"))
        for _, text in inputs.ladder_levels(1):
            problem, _ = generate_problem(parse_ldf(text, game.model), game)
            assert symmetry_classes(ground(game.domain, problem)) is None

    def test_pool_objects_are_interchangeable(self):
        task = pool_task()
        assert symmetry_classes(task) == [["p", "q"]]
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS))
        assert result.steps == [("USE", ("p",)), ("FINISH", ("p",))]
        assert result.stats.pruned == 1

    @pytest.mark.parametrize("asymmetry", POOL_ASYMMETRIES)
    def test_asymmetric_objects_are_not_grouped(self, asymmetry):
        task = pool_task(**asymmetry)
        assert symmetry_classes(task) is None
        result = solve(task, SearchConfig(mode=Mode.BLIND_BFS))
        assert len(result.plan) == exhaustive_optimum(task)

    def test_members_keep_the_problem_order(self):
        """Ten aliens, ten rounds, in object order: `bullet_ammo_10` comes
        last, where a text sort puts it second."""
        game = compile_game(load_game("aliens"))
        grid = parse_ldf("a" * 10 + "\n" + " " * 10 + "\n" + " " * 10
                         + "\n" + " " * 4 + "p" + " " * 5, game.model)
        task = ground(game.domain, generate_problem(grid, game)[0])
        assert symmetry_classes(task) == [[f"bullet_ammo_{k}"
                                           for k in range(1, 11)]]

    def test_random_aliens_levels_keep_their_optimum(self):
        game = compile_game(load_game("aliens"))
        rng = random.Random(23)
        pruned = 0
        for _ in range(12):
            text = random_aliens_level(rng)
            problem, _ = generate_problem(parse_ldf(text, game.model), game)
            task = ground(game.domain, problem)
            assert symmetry_classes(task)
            for mode in Mode:
                result = solve(task, SearchConfig(mode=mode))
                assert result.status is Status.SOLVED, text
                assert validate(task, result.plan) == (True, None)
                if mode is Mode.BLIND_BFS:
                    assert len(result.plan) == exhaustive_optimum(task), text
                    pruned += result.stats.pruned > 0
        assert pruned == 12


# sokoban with its box type written in capitals: objects are named `Box_2_2`,
# while a plan file read back by `parse_plan` has its arguments lower-cased
CAPITAL_BOX_GDF = (games_dir() / "sokoban" / "sokoban.txt").read_text() \
    .replace("box", "Box")


def capital_box_problem():
    game = compile_game(parse_gdf(CAPITAL_BOX_GDF, name="sokoban"))
    grid = parse_ldf("wwwww\nwh  w\nw b w\nw A w\nwwwww", game.model)
    problem, _ = generate_problem(grid, game)
    assert ("Box_2_2", "Box") in problem.objects
    return game, problem


class TestValidate:
    def test_hand_checked_trace(self):
        task = sokoban_task()
        ok, index = validate(task, SOKOBAN_TRACE)
        assert ok, f"trace rejected at {index}"

    def test_empty_plan_on_satisfied_goal(self):
        game = compile_game(load_game("sokoban"))
        grid = parse_ldf("wwww\nwA w\nwwww", game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        ok, index = validate(task, [])
        assert ok and index is None

    def test_plan_steps_match_arguments_case_insensitively(self):
        game, problem = capital_box_problem()
        task = ground(game.domain, problem)
        plan = solve(task, SearchConfig(mode=Mode.GBFS_HADD)).plan
        steps = parse_plan(format_plan((a.name, a.args) for a in plan))
        assert any(args != a.args for (_, args), a in zip(steps, plan))
        assert [task.action(name, args) for name, args in steps] == list(plan)
        assert validate(task, steps) == (True, None)

    def test_incomplete_plan_fails_at_end(self):
        task = sokoban_task()
        ok, index = validate(task, SOKOBAN_TRACE[:4])
        assert not ok and index == 4

    @pytest.mark.parametrize("drop", range(len(SOKOBAN_TRACE)))
    def test_mutation_reports_first_failure(self, drop):
        task = sokoban_task()
        mutated = SOKOBAN_TRACE[:drop] + SOKOBAN_TRACE[drop + 1:]
        ok, index = validate(task, mutated)
        # replay independently: the verdict and failure index must match a
        # step-by-step application
        state = task.init
        replay_index = None
        for i, (name, args) in enumerate(mutated):
            action = task.action(name, args)
            if action is None or not applicable(state, action):
                replay_index = i
                break
            state = apply(state, action)
        if replay_index is None and goal_satisfied(task, state):
            # dropping trailing bookkeeping can leave a still-valid plan
            assert ok and index is None
        else:
            expected = replay_index if replay_index is not None else len(mutated)
            assert not ok and index == expected


class TestExternalAdapter:
    def test_plan_with_capitalised_objects_accepted(self, tmp_path):
        game, problem = capital_box_problem()
        plan = solve(ground(game.domain, problem),
                     SearchConfig(mode=Mode.GBFS_HADD)).plan
        domain_file = tmp_path / "domain.pddl"
        problem_file = tmp_path / "problem.pddl"
        domain_file.write_text(print_domain(game.domain))
        problem_file.write_text(print_problem(problem))
        canned = tmp_path / "canned.txt"
        canned.write_text(format_plan((a.name, a.args) for a in plan))
        result = external_solve(domain_file, problem_file,
                                f"cp {canned} {{plan}}", time_limit=30)
        assert result.status is Status.SOLVED
        assert result.plan == plan

    @pytest.fixture()
    def artifacts(self, tmp_path):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        problem, _ = generate_problem(grid, game)
        domain_file = tmp_path / "domain.pddl"
        problem_file = tmp_path / "problem.pddl"
        domain_file.write_text(print_domain(game.domain))
        problem_file.write_text(print_problem(problem))
        return domain_file, problem_file

    def test_echo_stub_round_trips(self, artifacts, tmp_path):
        domain_file, problem_file = artifacts
        canned = tmp_path / "canned.txt"
        canned.write_text(format_plan(SOKOBAN_TRACE))
        result = external_solve(domain_file, problem_file,
                                f"cp {canned} {{plan}}", time_limit=30)
        assert result.status is Status.SOLVED
        assert [(a.name, a.args) for a in result.plan] == SOKOBAN_TRACE

    def test_sleeping_stub_times_out(self, artifacts):
        domain_file, problem_file = artifacts
        result = external_solve(domain_file, problem_file,
                                "sleep 30", time_limit=0.5)
        assert result.status is Status.TIMEOUT
        assert result.stats.wall_time < 5

    def test_timeout_kills_every_process_the_planner_started(
            self, artifacts, tmp_path):
        # the shell forks the inner sh (it has a command after it), so
        # killing the shell alone would leave the inner one to touch
        domain_file, problem_file = artifacts
        marker = tmp_path / "marker"
        result = external_solve(
            domain_file, problem_file,
            f"sh -c 'sleep 0.5; touch {marker}'; true", time_limit=0.2)
        assert result.status is Status.TIMEOUT
        time.sleep(1.0)
        assert not marker.exists()

    def test_corrupted_plan_never_solved(self, artifacts, tmp_path):
        domain_file, problem_file = artifacts
        bad = tmp_path / "bad.txt"
        bad.write_text(format_plan(SOKOBAN_TRACE[1:]))
        with pytest.raises(ValidationFailedError):
            external_solve(domain_file, problem_file,
                           f"cp {bad} {{plan}}", time_limit=30)

    def test_missing_plan_file(self, artifacts):
        domain_file, problem_file = artifacts
        with pytest.raises(PlanParseError):
            external_solve(domain_file, problem_file, "true", time_limit=30)
