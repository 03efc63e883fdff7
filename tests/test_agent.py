"""Episode-loop tests: deterministic runs, monitoring, seeded replanning."""
import gc
import hashlib
import random

import pytest

from vgdl2pddl import agent
from vgdl2pddl import ground as ground_module
from vgdl2pddl.agent import (
    Outcome,
    is_avatar_action,
    monitor,
    run_episode,
    violated_literals,
)
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.engine import load
from vgdl2pddl.games import load_game, load_level
from vgdl2pddl.ground import (GOAL, apply, applicable, goal_satisfied, ground,
                              precondition_clauses)
from vgdl2pddl.planner import Mode, PlanResult, SearchConfig, Status, solve
from vgdl2pddl.problems import emit_config, generate_problem
from vgdl2pddl.vgdl import parse_ldf

CFG = SearchConfig(mode=Mode.GBFS_HADD, time_limit=60)


class TestDeterministicEpisodes:
    @pytest.mark.parametrize("name", ["sokoban", "zenpuzzle", "keymaze"])
    def test_win_without_replanning(self, name):
        game = compile_game(load_game(name))
        grid = load_level(name, 0, game.model)
        result = run_episode(game, grid, CFG, seed=0)
        assert result.outcome is Outcome.WIN
        assert result.replans == 0
        assert len(result.plan_lengths) == result.replans + 1

    def test_engine_turns_equal_plan_end_turn_count(self):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        plan = solve(task, CFG).plan
        ets = sum(1 for a in plan if a.name == "END-TURN-SPRITES")
        result = run_episode(game, grid, CFG, seed=0)
        assert result.outcome is Outcome.WIN
        assert result.turns == ets

    def test_unreachable_goal_is_planner_failed(self):
        game = compile_game(load_game("sokoban"))
        grid = parse_ldf("wwwww\nwh  w\nw  bw\nw A w\nwwwww", game.model)
        result = run_episode(game, grid, CFG)
        assert result.outcome is Outcome.PLANNER_FAILED
        assert result.replans == 0
        assert result.plan_lengths == []

    def test_budget_exhaustion(self):
        game = compile_game(load_game("zenpuzzle"))
        grid = load_level("zenpuzzle", 0, game.model)
        result = run_episode(game, grid, CFG, budget=3)
        assert result.outcome is Outcome.TURN_BUDGET_EXHAUSTED
        assert result.turns <= 3

    def test_failed_replan_reports_turns(self, monkeypatch):
        """A replan that finds no plan still reports the turns played."""
        calls = []

        def cut_short_then_time_out(task, cfg):
            calls.append(task)
            if len(calls) > 1:
                return PlanResult(Status.TIMEOUT)
            # keep the plan up to its first avatar action: it runs out after
            # one turn with the goal unmet, and the loop replans
            plan = solve(task, cfg).plan
            first = next(i for i, a in enumerate(plan) if is_avatar_action(a))
            return PlanResult(Status.SOLVED, plan[:first + 1])

        monkeypatch.setattr(agent, "solve", cut_short_then_time_out)
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        result = run_episode(game, grid, CFG, seed=0)
        assert len(calls) == 2
        assert [v.action for v in result.violations] == [("(goal)", ())]
        assert result.outcome is Outcome.PLANNER_FAILED
        assert result.turns > 0

    def test_trace_written(self, tmp_path):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        trace = tmp_path / "trace.log"
        run_episode(game, grid, CFG, trace=trace)
        lines = trace.read_text().splitlines()
        assert lines
        # turn:phase:ACTION(args)
        assert all(line.split(":")[1] in "+-#" for line in lines)
        assert any(":+:AVATAR_ACTION" in line for line in lines)


HUNTER_GDF = """\
SpriteSet
    hunter > ShootAvatar stype=bolt
    bolt > Missile
    slime > Immovable
LevelMapping
    A > hunter
    s > slime
InteractionSet
    slime bolt > killSprite
TerminationSet
    SpriteCounter stype=slime limit=0 win=True
"""


class TestShootAvatarEpisode:
    def test_hunter_shoots_both_slimes(self):
        """ShootAvatar end to end: directional USE spawns a re-orientable
        projectile from the pool, it flies, kills, and exits at the edge."""
        from vgdl2pddl.vgdl import parse_gdf

        model = parse_gdf(HUNTER_GDF, name="hunter")
        game = compile_game(model)
        assert game.projectile == "bolt"
        names = {a.name for a in game.domain.actions}
        assert {"AVATAR_ACTION_USE_UP", "AVATAR_ACTION_USE_DOWN",
                "AVATAR_ACTION_USE_LEFT", "AVATAR_ACTION_USE_RIGHT"} <= names
        grid = parse_ldf("  s  \n     \ns A  \n     \n     ", model)
        assert grid.height == 5  # the all-space bottom rows are content
        result = run_episode(game, grid, CFG)
        assert result.outcome is Outcome.WIN
        assert result.replans == 0

    def test_pool_is_the_reserve_not_projectiles_in_flight(self, monkeypatch):
        """A projectile sprite named like the pool (x_ammo) with one shot
        in flight: the running plan's pool is the plan problem's reserve,
        so no monitor problem lists the live shot twice or reserves it."""
        from vgdl2pddl.vgdl import parse_gdf

        model = parse_gdf(HUNTER_GDF.replace("bolt", "x_ammo").replace(
            "x_ammo > Missile", "x_ammo > Missile orientation=UP").replace(
            "    s > slime\n", "    s > slime\n    b > x_ammo\n"), name="hunter")
        game = compile_game(model)
        grid = parse_ldf("  s  \n     \ns A  \n     \n   b ", model)
        problems = []

        def recording(*args, **kwargs):
            out = generate_problem(*args, **kwargs)
            problems.append(out[0])
            return out

        monkeypatch.setattr(agent, "generate_problem", recording)
        run_episode(game, grid, CFG, seed=0)
        assert any(("x_ammo_3_4", "x_ammo") in p.objects for p in problems[1:])
        for problem in problems:
            names = [n for n, _ in problem.objects]
            assert len(names) == len(set(names))
            placed = {a.args[-1] for a in problem.init if a.predicate == "at"}
            reserved = {a.args[0] for a in problem.init
                        if a.predicate == "in-reserve"}
            assert not placed & reserved


class TestMonitor:
    def test_untouched_state_is_ok(self):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        config = emit_config(game)
        state = load(game.model, grid)
        problem, binding = generate_problem(state, game, config)
        task = ground(game.domain, problem)
        plan = solve(task, CFG).plan
        first = next(a for a in plan if is_avatar_action(a))
        assert monitor(state, first.ident, game, config, binding) == ()

    def test_rock_in_target_cell_flags_occupancy(self):
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        config = emit_config(game)
        state = load(game.model, grid, seed=1)
        problem, binding = generate_problem(state, game, config)
        task = ground(game.domain, problem)
        avatar = state.avatar()
        move = task.action("AVATAR_ACTION_MOVE_LEFT",
                           ("avatar", f"n{avatar.x}", f"n{avatar.y}",
                            f"n{avatar.x - 1}"))
        assert move is not None
        assert monitor(state, move.ident, game, config, binding) == ()
        # a rock drops into the target cell
        state.spawn("rock", avatar.x - 1, avatar.y, "DOWN")
        violated = monitor(state, move.ident, game, config, binding)
        assert violated
        assert any("rock" in lit for lit in violated)

    def test_fact_flip_fuzzing_flags_exactly_the_flips(self):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        config = emit_config(game)
        state = load(game.model, grid)
        problem, binding = generate_problem(state, game, config)
        task = ground(game.domain, problem)
        plan = solve(task, CFG).plan
        action = next(a for a in plan if is_avatar_action(a))
        cnf = precondition_clauses(game.domain, problem, action.name, action.args)
        base = frozenset(problem.init)
        assert violated_literals(cnf, base) == ()
        literals = [(atom, bool(action.pos_pre >> task.fact_id[atom] & 1))
                    for atom in sorted(task.state_atoms(
                        action.pos_pre | action.neg_pre), key=str)]
        assert literals
        rng = random.Random(5)
        for _ in range(50):
            facts = set(base)
            flipped = []
            for atom, positive in literals:
                if rng.random() < 0.4:
                    if atom in facts:
                        facts.remove(atom)
                    else:
                        facts.add(atom)
                    flipped.append((atom, positive))
            violated = violated_literals(cnf, frozenset(facts))
            expected = {str(a) if pos else f"(not {a})" for a, pos in flipped}
            assert set(violated) == expected

    def test_check_expands_no_effects(self, monkeypatch):
        game = compile_game(load_game("aliens"))
        problem, _ = generate_problem(load_level("aliens", 1, game.model), game)
        task = ground(game.domain, problem)
        moves = [a for a in task.actions if is_avatar_action(a)]
        expected = [precondition_clauses(game.domain, problem, a.name, a.args)
                    for a in moves]

        def refuse(*args):
            raise AssertionError("the monitor expanded an effect")

        monkeypatch.setattr(ground_module, "_collect_effects", refuse)
        assert [precondition_clauses(game.domain, problem, a.name, a.args)
                for a in moves] == expected

    @pytest.mark.parametrize("name,level", [("sokoban", 0), ("aliens", 1)])
    def test_monitor_agrees_with_the_planner(self, name, level):
        """Along the GBFS plan, the monitor's check of every avatar action
        holds exactly where the grounded action is applicable, and its check
        of the goal step exactly where the grounded goal is satisfied."""
        game = compile_game(load_game(name))
        problem, _ = generate_problem(load_level(name, level, game.model), game)
        task = ground(game.domain, problem)
        checks = [(a, precondition_clauses(game.domain, problem, a.name, a.args))
                  for a in task.actions if is_avatar_action(a)]
        assert checks and all(cnf is not None for _, cnf in checks)
        goal = precondition_clauses(game.domain, problem, GOAL, ())
        assert goal
        state = task.init
        for step in [None, *solve(task, CFG).plan]:
            if step is not None:
                state = apply(state, step)
            facts = task.state_atoms(state)
            for action, cnf in checks:
                assert applicable(state, action) == \
                    (violated_literals(cnf, facts) == ()), action
            assert goal_satisfied(task, state) == \
                (violated_literals(goal, facts) == ())
        assert goal_satisfied(task, state)


class TestMonitorAgreesOnObservedProblems:
    """On each problem the monitor observes during an episode, its verdict
    (`precondition_clauses`, then `violated_literals` on the observed init)
    on every action of `ground(problem)` is the planner's `applicable` in
    init, and its verdict on the goal step is `goal_satisfied`."""

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", ["aliens", "sokoban", "digger", "rain"])
    def test_every_action_of_each_observed_problem(self, monkeypatch, name,
                                                   level):
        observed = []
        generate = agent.generate_problem

        def record(state, game, config=None, binding=None, pool=None):
            problem, used = generate(state, game, config, binding=binding,
                                     pool=pool)
            if binding is not None:  # a monitor call
                observed.append(problem)
            return problem, used

        monkeypatch.setattr(agent, "generate_problem", record)
        game = compile_game(load_game(name))
        run_episode(game, load_level(name, level, game.model), CFG, seed=0,
                    budget=40)
        assert observed
        for problem in observed[:40]:
            task = ground(game.domain, problem)
            facts = frozenset(problem.init)

            def verdict(step, args):
                cnf = precondition_clauses(game.domain, problem, step, args)
                return cnf is not None and violated_literals(cnf, facts) == ()

            assert task.actions
            for action in task.actions:
                assert verdict(action.name, action.args) == \
                    applicable(task.init, action), action
            assert verdict(GOAL, ()) == goal_satisfied(task, task.init)


class TestPlanEnd:
    def test_goal_violation_names_only_live_sprites(self, monkeypatch):
        """A plan that runs out is judged by the goal of the observed
        problem: a sprite the engine killed since planning is no object of
        it, so no logged goal literal names it (aliens lvl0, seed 3: two
        aliens were left to kill at planning, one is left at the plan's
        end)."""
        objects_at = {}  # turn -> object names of the latest problem
        generate = agent.generate_problem

        def record(state, *args, **kwargs):
            problem, binding = generate(state, *args, **kwargs)
            objects_at[state.turn] = {name for name, _ in problem.objects}
            return problem, binding

        monkeypatch.setattr(agent, "generate_problem", record)
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        result = run_episode(game, grid, CFG, seed=3, budget=200)
        ends = [v for v in result.violations if v.action == (GOAL, ())]
        assert ends
        for v in ends:
            assert v.literals
            for literal in v.literals:
                assert literal.startswith("(dead "), literal
                name = literal.removeprefix("(dead ").removesuffix(")")
                assert name in objects_at[v.turn], literal


class TestMonitorNames:
    def test_new_instance_takes_a_dead_instances_name(self, monkeypatch):
        # aliens lvl0, engine seed 5: the rock planned as rock_6_4 is gone by
        # turn 10, and the new rock on (6,4) takes its name, as in a fresh
        # problem (it was rock_6_4_2 while the dead rock's name stayed taken)
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        rocks = {}
        original = agent.generate_problem

        def recording(state, game, config=None, binding=None, pool=None):
            problem, used = original(state, game, config, binding=binding,
                                     pool=pool)
            if binding is not None and state.turn == 10:
                fresh, _ = original(state, game, config)
                rocks["monitor"], rocks["fresh"] = (
                    [n for n, t in p.objects if t == "rock"]
                    for p in (problem, fresh))
            return problem, used

        monkeypatch.setattr(agent, "generate_problem", recording)
        run_episode(game, grid, CFG, seed=5, budget=200)
        assert rocks["monitor"] == rocks["fresh"] == ["rock_6_4"]


# sha256 of repr of the (turn, action, literals) of every logged violation,
# per seed, of aliens level 0 under seeds 0-9: two monitor violations
# (seed 5) and two plans that ran out with the goal of the observed problem
# unmet (seeds 3 and 5)
ALIENS_VIOLATIONS_SHA256 = \
    "0c73b926e159e3107d088b01a59e460528a1f6ea3cf2612f2e15da7c067a421b"


class TestStochasticEpisodes:
    def test_ten_seeded_episodes(self):
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        total_replans = 0
        logged = []
        for seed in range(10):
            result = run_episode(game, grid, CFG, seed=seed, budget=200)
            assert result.outcome in (Outcome.WIN, Outcome.LOSE,
                                      Outcome.TURN_BUDGET_EXHAUSTED)
            # every replan is preceded by a logged violation
            assert len(result.violations) == result.replans
            # a violated action is never re-issued from the identical state
            issued = set(result.issued)
            for v in result.violations:
                assert (v.state_fingerprint, v.action) not in issued
            total_replans += result.replans
            logged.append([(v.turn, v.action, v.literals)
                           for v in result.violations])
        assert total_replans >= 1
        digest = hashlib.sha256(repr(logged).encode()).hexdigest()
        assert digest == ALIENS_VIOLATIONS_SHA256

    def test_seeded_episode_reproducible(self):
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        a = run_episode(game, grid, CFG, seed=4, budget=100)
        b = run_episode(game, grid, CFG, seed=4, budget=100)
        assert (a.outcome, a.turns, a.replans, a.plan_lengths) == \
            (b.outcome, b.turns, b.replans, b.plan_lengths)


class TestStartMemo:
    """`run_episode` grounds a level's start once for every episode that
    begins there on the same compiled game; replans ground their own."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        original = agent.ground

        def recording(domain, problem):
            task = original(domain, problem)
            calls.append((problem, task))
            return task

        monkeypatch.setattr(agent, "ground", recording)
        return calls

    def test_ten_seeds_ground_the_start_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        results = [run_episode(game, grid, CFG, seed=seed, budget=200)
                   for seed in range(10)]
        replans = sum(r.replans for r in results)
        assert replans >= 1
        assert sum(len(r.wall_times) for r in results) == 10 + replans
        assert len(calls) == 1 + replans
        # a replan neither reuses nor replaces the start
        start = calls[0][0]
        assert all(problem != start for problem, _ in calls[1:])
        assert agent._STARTS[id(game.domain)] == calls[0]

    def test_each_seed_plays_as_on_a_fresh_game(self):
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        for seed in range(10):
            shared = run_episode(game, grid, CFG, seed=seed, budget=200)
            fresh_game = compile_game(load_game("aliens"))
            alone = run_episode(fresh_game,
                                load_level("aliens", 0, fresh_game.model),
                                CFG, seed=seed, budget=200)
            for name in ("outcome", "turns", "replans", "plan_lengths",
                         "violations", "issued"):
                assert getattr(shared, name) == getattr(alone, name), \
                    (seed, name)

    def test_another_level_grounds_its_own_start(self, monkeypatch):
        game = compile_game(load_game("aliens"))
        for seed in range(2):
            run_episode(game, load_level("aliens", 0, game.model), CFG,
                        seed=seed, budget=200)
        calls = self.counting(monkeypatch)
        run_episode(game, load_level("aliens", 1, game.model), CFG, seed=0,
                    budget=1)
        assert len(calls) == 1
        problem, task = calls[0]
        fresh = compile_game(load_game("aliens"))
        fresh_problem, _ = generate_problem(
            load_level("aliens", 1, fresh.model), fresh)
        assert problem == fresh_problem
        assert task == ground(fresh.domain, fresh_problem)
        assert agent._STARTS[id(game.domain)] == (problem, task)

    def test_the_start_dies_with_its_domain(self):
        game = compile_game(load_game("aliens"))
        run_episode(game, load_level("aliens", 0, game.model), CFG, budget=1)
        key = id(game.domain)
        assert key in agent._STARTS
        del game
        gc.collect()
        assert key not in agent._STARTS
