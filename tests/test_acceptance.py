"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance and runtime budget is pinned here.
"""
import math
import random
import time
from collections import deque

import pytest

from test_planner import exhaustive_optimum, random_sokoban_level
from vgdl2pddl import engine as E
from vgdl2pddl.agent import Outcome, engine_action, is_avatar_action, run_episode
from vgdl2pddl.bench import (
    domain_stats,
    format_report,
    score_agile,
    score_coverage,
    score_satisficing,
    static_reduction,
    SuiteReport,
    ScoreBoard,
    RunRow,
)
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.games import load_game, load_level
from vgdl2pddl.ground import apply, applicable, ground
from vgdl2pddl.pddl import Atom, print_domain, print_problem
from vgdl2pddl.planner import (Mode, SearchConfig, Status, _read_table,
                               _Successors, solve)
from vgdl2pddl.problems import config_to_text, emit_config, generate_problem
from vgdl2pddl.vgdl import parse_gdf, parse_ldf

GBFS = SearchConfig(mode=Mode.GBFS_HADD, time_limit=120)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


# -- criterion 1: golden compilation -------------------------------------------------

def test_c1_golden_compilation():
    started = time.perf_counter()
    game = compile_game(load_game("sokoban"))
    config = emit_config(game)
    grid = load_level("sokoban", 0, game.model)
    problem, _ = generate_problem(grid, game)

    entries = dict(config.correspondence)
    assert entries == {
        "avatar": ("(at ?x ?y ?avatar)",),
        "hole": ("(at ?x ?y ?hole)",),
        "box": ("(at ?x ?y ?box)",),
        "wall": ("(is-wall ?x ?y)",),
    }
    init = {str(a) for a in problem.init}
    assert "(at n2 n2 box_2_2)" in init
    assert "(at n2 n3 avatar)" in init
    assert "(at n1 n1 hole_1_1)" in init
    assert sum(1 for a in problem.init if a.predicate == "is-wall") == 16

    # byte stability across a full second run
    game2 = compile_game(load_game("sokoban"))
    problem2, _ = generate_problem(load_level("sokoban", 0, game2.model), game2)
    assert print_domain(game.domain) == print_domain(game2.domain)
    assert config_to_text(config) == config_to_text(emit_config(game2))
    assert print_problem(problem) == print_problem(problem2)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("criterion 1",
           f"golden artifacts reproduced byte-stably in {elapsed:.2f}s")


# -- criterion 2: domain statistics ---------------------------------------------------

def test_c2_domain_statistics():
    s = domain_stats(compile_game(load_game("sokoban")).domain)
    assert (s.types, s.supertypes, s.predicates, s.actions) == (4, 3, 13, 12)
    z = domain_stats(compile_game(load_game("zenpuzzle")).domain)
    assert (z.types, z.supertypes, z.predicates, z.actions) == (5, 2, 15, 8)
    report("criterion 2",
           "sokoban 4/3/13/12 and zenpuzzle 5/2/15/8, tolerance 0")


# -- criterion 3: turn-structure property ---------------------------------------------

TOY_ONE_MOVER = """\
SpriteSet
    avatar > MovingAvatar
    blob > Missile orientation=RIGHT
    pit > Immovable
    wall > Immovable
LevelMapping
    A > avatar
    m > blob
    p > pit
    w > wall
InteractionSet
    avatar wall > stepBack
    blob pit > killSprite
TerminationSet
    SpriteCounter stype=blob limit=0 win=True
"""

TOY_TWO_MOVERS = TOY_ONE_MOVER.replace(
    "    blob > Missile orientation=RIGHT\n",
    "    blob > Missile orientation=RIGHT\n"
    "    drip > Missile orientation=DOWN\n").replace(
    "    m > blob\n", "    m > blob\n    d > drip\n").replace(
    "    blob pit > killSprite\n",
    "    blob pit > killSprite\n    drip pit > killSprite\n")


def _categorize(name: str) -> str:
    if name.startswith("AVATAR_ACTION"):
        return "avatar"
    if name == "END-TURN-INTERACTIONS":
        return "eti"
    if name == "END-TURN-SPRITES":
        return "ets"
    if name.startswith("STOP_") or "_MOVE_" in name or "_EXIT_" in name:
        return "sprite"
    return "interaction"


def _phase_fact_ids(task):
    ids = {}
    for atom, i in task.fact_id.items():
        if atom.predicate == "turn-avatar":
            ids["avatar"] = i
        elif atom.predicate == "turn-interactions":
            ids["interactions"] = i
        elif atom.predicate.startswith("turn-") and atom.predicate.endswith("-move"):
            ids[atom.predicate] = i
    return ids


def _exhaust_and_check(task):
    """Exhaustive reachability; assert the phase DFA on every transition."""
    ids = _phase_fact_ids(task)
    mover_ids = {k: v for k, v in ids.items() if k.endswith("-move")}
    rank = {"avatar": 0, "interactions": 1}
    for j, key in enumerate(sorted(mover_ids)):
        rank[key] = 2 + j
    seen = {task.init}
    queue = deque([task.init])
    states = 0
    while queue:
        state = queue.popleft()
        states += 1
        open_phases = [k for k, i in ids.items() if state >> i & 1]
        assert len(open_phases) <= 1, f"overlapping phases {open_phases}"
        for action in task.actions:
            if not applicable(state, action):
                continue
            category = _categorize(action.name)
            if category == "avatar":
                assert open_phases == ["avatar"]
            elif category in ("interaction", "eti"):
                assert open_phases == ["interactions"]
            elif category == "sprite":
                assert len(open_phases) == 1 \
                    and open_phases[0].endswith("-move")
            else:  # ets: every phase closed, a fresh turn begins
                assert open_phases == []
            succ = apply(state, action)
            # exactly one avatar action per turn: only the avatar action
            # closes the avatar phase and only END-TURN-SPRITES reopens it
            before = state >> ids["avatar"] & 1
            after = succ >> ids["avatar"] & 1
            if category == "avatar":
                assert before == 1 and after == 0
            elif category == "ets":
                assert after == 1
            else:
                assert before == after
            # phases never run backwards within a turn
            succ_phases = [k for k, i in ids.items() if succ >> i & 1]
            if category != "ets" and open_phases and succ_phases:
                assert rank[succ_phases[0]] >= rank[open_phases[0]]
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return states


def test_c3_turn_structure_exhaustive():
    started = time.perf_counter()
    model = parse_gdf(TOY_ONE_MOVER, name="toy")
    game = compile_game(model)
    grid = parse_ldf("m p\nA  \nw w", model)
    problem, _ = generate_problem(grid, game)
    states_one = _exhaust_and_check(ground(game.domain, problem))

    model2 = parse_gdf(TOY_TWO_MOVERS, name="toy2")
    game2 = compile_game(model2)
    grid2 = parse_ldf("mdp\nA  \nw w", model2)
    problem2, _ = generate_problem(grid2, game2)
    task2 = ground(game2.domain, problem2)
    states_two = _exhaust_and_check(task2)
    # both STOP actions must precede END-TURN-SPRITES in every plan: the
    # closers are the only achievers of the finished flags it requires
    ets = next(a for a in task2.actions if a.name == "END-TURN-SPRITES")
    for mover in ("blob", "drip"):
        flag = next(i for atom, i in task2.fact_id.items()
                    if atom.predicate == f"finished-turn-{mover}-move")
        assert ets.pos_pre >> flag & 1
        achievers = {a.name for a in task2.actions if a.add >> flag & 1}
        assert achievers == {f"STOP_{mover.upper()}_MOVE"}

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report("criterion 3",
           f"phase order holds over {states_one}+{states_two} reachable "
           f"states in {elapsed:.1f}s")


# -- criterion 4: bisimulation --------------------------------------------------------

def _project(task, state_mask):
    """Planning state -> the fact families problem generation emits, with
    everything about dead objects stripped."""
    atoms = task.state_atoms(state_mask) | task.static_facts
    dead = {a.args[0] for a in atoms if a.predicate == "dead"}
    return {a for a in atoms
            if a.predicate != "dead" and not any(arg in dead for arg in a.args)}


def test_c4_bisimulation():
    started = time.perf_counter()
    checked_boundaries = 0
    for name in ("sokoban", "zenpuzzle", "keymaze", "digger", "rain"):
        game = compile_game(load_game(name))
        for level in (0, 1):
            grid = load_level(name, level, game.model)
            sim = E.load(game.model, grid)
            problem, binding = generate_problem(sim, game)
            task = ground(game.domain, problem)
            result = solve(task, GBFS)
            assert result.status is Status.SOLVED, (name, level)
            plan_state = task.init
            for action in result.plan:
                plan_state = apply(plan_state, action)
                if is_avatar_action(action):
                    E.step(sim, engine_action(action.name))
                if action.name == "END-TURN-SPRITES":
                    regenerated, _ = generate_problem(sim, game,
                                                      binding=binding)
                    assert _project(task, plan_state) == set(regenerated.init), \
                        (name, level, sim.turn)
                    checked_boundaries += 1
            assert sim.status is E.GameStatus.WIN, (name, level)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    report("criterion 4",
           f"10 episodes win with state equality at {checked_boundaries} "
           f"turn boundaries in {elapsed:.1f}s")


def _turn_ends(successors, state, gate):
    """Every state with the `gate` fact (turn-avatar) that the model's phase
    actions reach from `state`, just after an avatar action."""
    ends, seen, stack = set(), {state}, [state]
    while stack:
        s = stack.pop()
        if s & gate:
            ends.add(s)
            continue
        for i in successors.applicable(s):
            nxt = apply(s, successors.actions[i])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return ends


@pytest.mark.parametrize("name", ["sokoban", "zenpuzzle", "keymaze",
                                  "digger", "rain"])
def test_c4_random_walks(name):
    """Off the plan path: seeded walks of random avatar actions the model
    allows. After each turn some model completion of the turn projects to
    the engine's regenerated state, or the avatar died in both. The one
    allowed dead end is the documented failed push: the model cannot close
    the turn, and the engine put the avatar back (the walk re-grounds)."""
    started = time.perf_counter()
    game = compile_game(load_game(name))
    config = emit_config(game)

    def grounded(problem):
        task = ground(game.domain, problem)
        return task, _Successors(task, _read_table(task)), \
            1 << task.fact_id[Atom("turn-avatar")]

    checks = failed_pushes = 0
    for level in (0, 1):
        grid = load_level(name, level, game.model)
        start, start_binding = generate_problem(grid, game, config)
        level_task = grounded(start)  # every walk of the level starts here
        for seed in range(24):
            rng = random.Random(seed)
            sim = E.load(game.model, grid)
            binding = start_binding
            task, successors, gate = level_task
            state = task.init
            for _ in range(60):
                if sim.status is not E.GameStatus.ONGOING:
                    break
                moves = [a for a in map(task.actions.__getitem__,
                                        successors.applicable(state))
                         if is_avatar_action(a)]
                assert moves, (name, level, seed, sim.turn)
                action = rng.choice(moves)
                ends = _turn_ends(successors, apply(state, action), gate)
                avatar = sim.avatar()
                before = (avatar.x, avatar.y)
                E.step(sim, engine_action(action.name))
                where = (name, level, seed, sim.turn, str(action))
                checks += 1
                avatar = sim.avatar()
                if avatar is None:
                    assert any(Atom("dead", ("avatar",))
                               in task.state_atoms(s) for s in ends), where
                    break
                observed, binding = generate_problem(sim, game, config,
                                                     binding)
                init = set(observed.init)
                match = [s for s in ends if _project(task, s) == init]
                if match:
                    state = match[0]
                    continue
                # a failed push: only sokoban pushes (bounceForward)
                assert name == "sokoban" and not ends, where
                assert (avatar.x, avatar.y) == before, where
                failed_pushes += 1
                task, successors, gate = grounded(observed)
                state = task.init
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report("criterion 4",
           f"{name}: {checks} random turns match the engine, "
           f"{failed_pushes} failed pushes ({elapsed:.1f}s)")


# -- criterion 5: optimality oracle ---------------------------------------------------

def test_c5_optimality_oracle():
    started = time.perf_counter()
    rng = random.Random(99)
    game = compile_game(load_game("sokoban"))
    solvable = 0
    attempts = 0
    while solvable < 20 and attempts < 300:
        attempts += 1
        try:
            grid = parse_ldf(random_sokoban_level(rng), game.model)
            problem, _ = generate_problem(grid, game)
        except Exception:
            continue
        task = ground(game.domain, problem)
        optimum = exhaustive_optimum(task)
        bfs = solve(task, SearchConfig(mode=Mode.BLIND_BFS, time_limit=30))
        if optimum is None:
            assert bfs.status is Status.UNSOLVABLE
            continue
        solvable += 1
        assert bfs.status is Status.SOLVED and len(bfs.plan) == optimum
        for mode in (Mode.GBFS_HADD, Mode.ASTAR_HADD):
            res = solve(task, SearchConfig(mode=mode, time_limit=30))
            assert res.status is Status.SOLVED
            assert len(res.plan) >= optimum
    assert solvable >= 20
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report("criterion 5",
           f"BlindBFS optimal on {solvable} random tasks; heuristic plans "
           f"never shorter ({elapsed:.1f}s)")


# -- criterion 6: replanning ----------------------------------------------------------

def test_c6_replanning():
    started = time.perf_counter()
    game = compile_game(load_game("aliens"))
    grid = load_level("aliens", 0, game.model)
    episodes_with_replans = 0
    for seed in range(10):
        result = run_episode(game, grid, GBFS, seed=seed, budget=200)
        assert result.outcome in (Outcome.WIN, Outcome.LOSE,
                                  Outcome.TURN_BUDGET_EXHAUSTED), seed
        assert len(result.violations) == result.replans, seed
        issued = set(result.issued)
        for violation in result.violations:
            assert violation.literals, seed  # the violation was logged
            assert (violation.state_fingerprint, violation.action) \
                not in issued, seed
        if result.replans >= 1:
            episodes_with_replans += 1
    assert episodes_with_replans >= 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report("criterion 6",
           f"{episodes_with_replans}/10 seeded episodes replanned, every "
           f"replan logged a violation ({elapsed:.1f}s)")


# -- criterion 7: metrics -------------------------------------------------------------

def test_c7_metrics():
    started = time.perf_counter()
    assert score_agile(1.0) == 1.0
    assert score_agile(900.0) == 0.0
    assert score_agile(30.0) == pytest.approx(
        1.0 - math.log(30.0) / math.log(900.0))
    assert score_satisficing(10, 10) == 1.0
    assert score_satisficing(20, 10) == 0.5
    stub = [True, True, False]
    assert score_coverage(stub) == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("criterion 7", "agile/satisficing/coverage formulas verified")


# -- criterion 8: static-object optimization -------------------------------------------

def test_c8_static_object_optimization():
    game = compile_game(load_game("sokoban"))
    grid = load_level("sokoban", 0, game.model)
    problem, _ = generate_problem(grid, game)
    non_num = [(n, t) for n, t in problem.objects if t != "num"]
    assert len(non_num) == 3
    assert {t for _, t in non_num} == {"avatar", "box", "hole"}
    assert not any(t == "wall" for _, t in problem.objects)
    assert sum(1 for a in problem.init if a.predicate == "is-wall") == 16
    # the reduction is reported, never asserted against a fixed figure
    reduction = static_reduction(game, grid)
    assert reduction == pytest.approx(100 * 16 / 19)
    board = ScoreBoard([RunRow("x", "sokoban", 0, True, 10, 1.0)])
    text = format_report(SuiteReport(board, {"sokoban": domain_stats(game.domain)},
                                     {"sokoban": reduction}))
    assert "84.2% of cells are static facts" in text
    report("criterion 8",
           f"3 objects + 16 is-wall facts; reduction {reduction:.1f}% reported")
