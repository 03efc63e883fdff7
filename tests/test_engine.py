"""Simulator tests: loading, phase semantics, round trips, determinism."""
import pytest

from test_vgdl import ALIENS_GDF
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.engine import (
    AvatarAction,
    GameStatus,
    load,
    render_ascii,
    step,
    to_ldf,
)
from vgdl2pddl.errors import (
    CellConflictError,
    DanglingReferenceError,
    IllegalActionError,
)
from vgdl2pddl.games import load_game, load_level
from vgdl2pddl.pddl import print_problem
from vgdl2pddl.problems import generate_problem
from vgdl2pddl.vgdl import parse_gdf, parse_ldf, print_ldf


def make(gdf_name, text):
    model = load_game(gdf_name)
    return model, load(model, parse_ldf(text, model))


class TestLoad:
    def test_instance_counts_match_characters(self):
        model = load_game("sokoban")
        grid = load_level("sokoban", 0, model)
        state = load(model, grid)
        chars = "".join(grid.cells)
        for char, sprite in [("A", "avatar"), ("b", "box"), ("h", "hole"),
                             ("w", "wall")]:
            assert state.count(sprite) == chars.count(char)
        assert state.count("avatar") == 1
        assert state.count("box") == 1
        assert state.count("hole") == 1
        assert state.count("wall") == 16
        assert state.turn == 0
        assert state.status is GameStatus.ONGOING

    def test_lone_avatar(self):
        model = load_game("sokoban")
        state = load(model, parse_ldf("A", model))
        assert len(state.live()) == 1

    def test_multi_sprite_mapping_instantiates_all(self):
        text = """\
SpriteSet
    avatar > MovingAvatar
    floor > Immovable
    gemx > Resource
LevelMapping
    A > avatar
    g > gemx floor
InteractionSet
    gemx avatar > collectResource
TerminationSet
    SpriteCounter stype=gemx limit=0 win=True
"""
        model = parse_gdf(text, name="multi")
        state = load(model, parse_ldf("Ag", model))
        assert state.count("gemx") == 1
        assert state.count("floor") == 1


class TestStep:
    def test_push_box_into_hole_wins(self):
        model, state = make("sokoban", "wwwww\nw A w\nw b w\nw h w\nwwwww")
        events = step(state, AvatarAction.DOWN)
        fired = [e.name for e in events if e.marker == "-"]
        assert fired == ["BOX_AVATAR_BOUNCEFORWARD_DOWN", "BOX_HOLE_KILLSPRITE"]
        assert state.count("box") == 0
        assert state.status is GameStatus.WIN

    def test_nil_only_advances_turn(self):
        model, state = make("sokoban", "wwwww\nwh  w\nw b w\nw A w\nwwwww")
        before = state.fingerprint()
        step(state, AvatarAction.NIL)
        after = state.fingerprint()
        assert state.turn == 1
        assert before[0] == after[0]  # placements unchanged
        assert before[1] == after[1]  # resources unchanged

    def test_rock_above_player_kills(self):
        model = parse_gdf(ALIENS_GDF, name="aliens")
        state = load(model, parse_ldf("r\np", model))
        step(state, AvatarAction.NIL)
        assert state.status is GameStatus.LOSE
        assert state.count("player") == 0

    def test_blocked_move_is_stepback(self):
        model, state = make("sokoban", "wwwww\nwA  w\nw   w\nw  bw\nwwwww")
        avatar = state.avatar()
        step(state, AvatarAction.UP)  # wall above
        assert (avatar.x, avatar.y) == (1, 1)
        assert avatar.orientation == "UP"

    def test_flak_avatar_rejects_vertical(self):
        model = parse_gdf(ALIENS_GDF, name="aliens")
        state = load(model, parse_ldf("a\n \np", model))
        with pytest.raises(IllegalActionError):
            step(state, AvatarAction.UP)

    def test_undeclared_bomber_projectile_fails_on_shoot(self):
        # the verbatim example leaves the bomber's stype symbolic; the error
        # surfaces only when the bomber actually fires
        model = parse_gdf(ALIENS_GDF, name="aliens")
        state = load(model, parse_ldf("a\n \n \np", model), seed=1)
        with pytest.raises(DanglingReferenceError):
            for _ in range(20):
                step(state, AvatarAction.NIL)

    def test_no_steps_after_game_over(self):
        model, state = make("sokoban", "wwwww\nw A w\nw b w\nw h w\nwwwww")
        step(state, AvatarAction.DOWN)
        with pytest.raises(IllegalActionError):
            step(state, AvatarAction.NIL)

    def test_use_spawns_projectile_that_flies(self):
        # hold the bomber's fire so the shot sequence is deterministic
        peaceful = ALIENS_GDF.replace(
            "alien    >  Bomber       stype=bomb",
            "alien    >  Bomber       stype=rock prob=0")
        model = parse_gdf(peaceful, name="aliens")
        state = load(model, parse_ldf("a\n \n \np", model))
        step(state, AvatarAction.USE)
        # spawned one cell above the player, then moved up in its own phase
        bullets = state.live_of("bullet")
        assert len(bullets) == 1
        assert (bullets[0].x, bullets[0].y) == (0, 1)
        step(state, AvatarAction.NIL)
        # bullet reached the alien row; the kill fires next interaction phase
        step(state, AvatarAction.NIL)
        assert state.count("alien") == 0
        assert state.status is GameStatus.WIN

    def test_missile_exits_grid_and_dies(self):
        # avatar keeps out of the drop's column while it falls off the grid
        model, state = make("rain", "o  \n   \nA  ")
        step(state, AvatarAction.RIGHT)
        assert state.count("drop") == 1
        step(state, AvatarAction.NIL)
        events = step(state, AvatarAction.NIL)
        assert any(e.name == "DROP_EXIT_DOWN" for e in events)
        assert state.count("drop") == 0

    def test_timeout_win_after_limit_turns(self):
        model, state = make("rain", "   \n   \n A ")
        for _ in range(7):
            step(state, AvatarAction.NIL)
            assert state.status is GameStatus.ONGOING
        step(state, AvatarAction.NIL)
        assert state.turn == 8
        assert state.status is GameStatus.WIN

    def test_collect_and_threshold_exit(self):
        model, state = make("keymaze", "wwwww\nwAkew\nwwwww")
        step(state, AvatarAction.RIGHT)
        assert state.resources["key"] == 1
        assert state.count("key") == 0
        step(state, AvatarAction.RIGHT)
        assert state.count("exit") == 0
        assert state.status is GameStatus.WIN

    def test_exit_needs_resource(self):
        model, state = make("keymaze", "wwwww\nwA ew\nw k w".replace("k", " ") + "\nwwwww")
        step(state, AvatarAction.RIGHT)
        step(state, AvatarAction.RIGHT)  # on the exit without a key
        assert state.count("exit") == 1
        assert state.status is GameStatus.ONGOING


class TestDeterminismAndConservation:
    def test_fixed_seed_identical_trajectories(self):
        model = load_game("aliens")
        grid = load_level("aliens", 0, model)
        runs = []
        for _ in range(2):
            state = load(model, grid, seed=11)
            fps = []
            for _ in range(12):
                if state.status is not GameStatus.ONGOING:
                    break
                step(state, AvatarAction.LEFT)
                fps.append(state.fingerprint())
            runs.append(fps)
        assert runs[0] == runs[1]

    def test_different_seed_diverges_eventually(self):
        model = load_game("aliens")
        grid = load_level("aliens", 0, model)
        fps = []
        for seed in (1, 2):
            state = load(model, grid, seed=seed)
            trace = []
            for _ in range(12):
                if state.status is not GameStatus.ONGOING:
                    break
                step(state, AvatarAction.NIL)
                trace.append(state.fingerprint())
            fps.append(trace)
        assert fps[0] != fps[1]

    def test_bomber_shoots_rocks(self):
        model = load_game("aliens")
        grid = load_level("aliens", 0, model)
        state = load(model, grid, seed=3)
        spawned = 0
        for _ in range(10):
            if state.status is not GameStatus.ONGOING:
                break
            events = step(state, AvatarAction.NIL)
            spawned += sum(1 for e in events if e.name == "ALIEN_SHOOT")
        assert spawned >= 1

    def test_conservation(self):
        model = load_game("aliens")
        grid = load_level("aliens", 0, model)
        state = load(model, grid, seed=5)
        known = {i.uid for i in state.live()}
        for k in range(10):
            if state.status is not GameStatus.ONGOING:
                break
            events = step(state, AvatarAction.USE if k % 3 == 0
                          else AvatarAction.LEFT)
            current = {i.uid for i in state.live()}
            added = current - known
            removed = known - current
            shots = sum(1 for e in events if e.name == "ALIEN_SHOOT"
                        or e.name.startswith("AVATAR_ACTION_USE"))
            kills = sum(1 for e in events if e.marker == "-"
                        and "KILL" in e.name)
            exits = sum(1 for e in events if "_EXIT_" in e.name)
            assert len(added) <= shots
            assert len(removed) <= 2 * kills + exits
            known = current


class TestLdfRoundTrip:
    @pytest.mark.parametrize("name", ["sokoban", "zenpuzzle", "keymaze",
                                      "digger", "rain", "aliens"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_to_ldf_inverts_load(self, name, index):
        model = load_game(name)
        grid = load_level(name, index, model)
        state = load(model, grid)
        assert to_ldf(state) == grid
        assert print_ldf(to_ldf(state)) == print_ldf(grid)

    def test_tiny_grid(self):
        model = load_game("sokoban")
        grid = parse_ldf("A", model)
        assert to_ldf(load(model, grid)) == grid

    def test_render_marks_overlap(self):
        model, state = make("sokoban", "wwwww\nw Abw\nw h w\nwwwww")
        step(state, AvatarAction.RIGHT)  # avatar onto box; push blocked by wall
        assert "?" not in render_ascii(state)

    def test_uncovered_cell(self):
        # no level-mapping character stands for an avatar on a box
        model, state = make("sokoban", "Ab")
        state.spawn("box", 0, 0, None)
        assert render_ascii(state) == "?b"
        with pytest.raises(CellConflictError,
                           match=r"\['avatar', 'box'\] at \(0, 0\)"):
            to_ldf(state)


class TestStateProblems:
    def test_turn_zero_state_equals_grid_problem(self):
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        from_grid, _ = generate_problem(grid, game)
        state = load(game.model, grid)
        from_state, _ = generate_problem(state, game)
        assert print_problem(from_grid) == print_problem(from_state)

    def test_push_changes_exactly_moved_facts(self):
        game = compile_game(load_game("sokoban"))
        grid = parse_ldf("wwwww\nw A w\nw b w\nw   w\nwwwww", game.model)
        state = load(game.model, grid)
        before, binding = generate_problem(state, game)
        step(state, AvatarAction.DOWN)
        after, _ = generate_problem(state, game, binding=binding)
        gone = set(before.init) - set(after.init)
        new = set(after.init) - set(before.init)
        assert {str(a) for a in gone} == {"(at n2 n2 box_2_2)",
                                          "(at n2 n1 avatar)"}
        assert {str(a) for a in new} == {"(at n2 n3 box_2_2)",
                                         "(at n2 n2 avatar)"}

    def test_dead_objects_dropped(self):
        game = compile_game(load_game("sokoban"))
        grid = parse_ldf("wwwww\nw A w\nw b w\nw h w\nwwwww", game.model)
        state = load(game.model, grid)
        step(state, AvatarAction.DOWN)
        problem, _ = generate_problem(state, game)
        assert not any("box" in a.args[-1] for a in problem.init
                       if a.predicate == "at")
        assert not any(t == "box" for _, t in problem.objects)
