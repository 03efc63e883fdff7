"""Configuration-file and problem-generation tests against the golden
Sokoban correspondence example."""
import hashlib
import warnings

import pytest
import yaml

from vgdl2pddl import engine as E
from vgdl2pddl.agent import Outcome, engine_action, is_avatar_action, run_episode
from vgdl2pddl.bench import static_reduction
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.engine import load
from vgdl2pddl.errors import GdfError, MultipleAvatarsError, NoAvatarError
from vgdl2pddl.games import available_games, level_paths, load_game, load_level
from vgdl2pddl.ground import ground
from vgdl2pddl.kb import KnowledgeBase
from vgdl2pddl.pddl import Atom, format_formula, print_problem, read_problem
from vgdl2pddl.planner import Mode, SearchConfig, Status, solve
from vgdl2pddl.problems import (
    config_from_text,
    config_to_text,
    emit_config,
    generate_problem,
)
from vgdl2pddl.vgdl import parse_gdf, parse_ldf

from test_vgdl import ALIENS_GDF


@pytest.fixture(scope="module")
def sokoban():
    return compile_game(load_game("sokoban"))


@pytest.fixture(scope="module")
def sokoban_problem(sokoban):
    grid = load_level("sokoban", 0, sokoban.model)
    problem, _ = generate_problem(grid, sokoban)
    return problem


class TestConfig:
    def test_sokoban_correspondence(self, sokoban):
        config = emit_config(sokoban)
        entries = dict(config.correspondence)
        assert set(entries) == {"avatar", "hole", "box", "wall"}
        assert entries["avatar"] == ("(at ?x ?y ?avatar)",)
        assert entries["hole"] == ("(at ?x ?y ?hole)",)
        assert entries["box"] == ("(at ?x ?y ?box)",)
        assert entries["wall"] == ("(is-wall ?x ?y)",)
        variables = dict(config.variables_types)
        assert variables == {"?avatar": "avatar", "?hole": "hole",
                             "?box": "box", "?x": "num", "?y": "num"}
        assert config.goals[0].priority == 1
        assert config.goals[0].goal_predicate == "(forall (?o - box) (dead ?o))"

    def test_yaml_compatible_and_round_trips(self, sokoban):
        config = emit_config(sokoban)
        text = config_to_text(config)
        data = yaml.safe_load(text)
        assert "gameElementsCorrespondence" in data
        assert data["variablesTypes"]["?box"] == "box"
        assert config_from_text(text) == config

    def test_no_statics_no_is_entries(self):
        game = compile_game(parse_gdf(ALIENS_GDF, name="aliens"))
        config = emit_config(game)
        schemata = [s for _, ss in config.correspondence for s in ss]
        assert not any(s.startswith("(is-") for s in schemata)
        assert dict(config.correspondence).keys() == {
            "player", "alien", "bullet", "rock"}

    def test_non_atom_schema_rejected(self, sokoban):
        text = config_to_text(emit_config(sokoban)).replace(
            "(is-wall ?x ?y)", "(not (is-wall ?x ?y))")
        grid = load_level("sokoban", 0, sokoban.model)
        with pytest.raises(GdfError, match="not an atom"):
            generate_problem(grid, sokoban, config_from_text(text))


class TestSokobanProblem:
    def test_table_facts(self, sokoban_problem):
        init = set(sokoban_problem.init)
        assert Atom("at", ("n2", "n2", "box_2_2")) in init
        assert Atom("at", ("n2", "n3", "avatar")) in init
        assert Atom("at", ("n1", "n1", "hole_1_1")) in init
        walls = [a for a in init if a.predicate == "is-wall"]
        assert len(walls) == 16
        assert Atom("is-wall", ("n0", "n0")) in init

    def test_objects(self, sokoban_problem):
        objects = list(sokoban_problem.objects)
        assert objects[0] == ("avatar", "avatar")
        assert ("box_2_2", "box") in objects
        assert ("hole_1_1", "hole") in objects
        nums = [n for n, t in objects if t == "num"]
        assert nums == ["n0", "n1", "n2", "n3", "n4"]
        # three non-num objects, no wall objects (criterion 8)
        non_num = [n for n, t in objects if t != "num"]
        assert len(non_num) == 3

    def test_names_and_goal(self, sokoban_problem):
        assert sokoban_problem.name == "SokobanProblem"
        assert sokoban_problem.domain == "SokobanDomain"
        # the configured objective plus the turn-boundary closure conjunct
        assert format_formula(sokoban_problem.goal) == \
            "(and (forall (?o - box) (dead ?o)) (turn-avatar))"

    def test_chain_and_phase_facts(self, sokoban_problem):
        init = set(sokoban_problem.init)
        assert Atom("turn-avatar") in init
        for i in range(4):
            assert Atom("next", (f"n{i}", f"n{i + 1}")) in init
        assert Atom("next", ("n4", "n5")) not in init
        assert Atom("oriented-down", ("avatar",)) in init

    def test_fact_count_matches_instances(self, sokoban_problem):
        at_facts = [a for a in sokoban_problem.init if a.predicate == "at"]
        assert len(at_facts) == 3  # avatar, box, hole
        is_facts = [a for a in sokoban_problem.init
                    if a.predicate.startswith("is-")]
        assert len(is_facts) == 16

    def test_byte_deterministic(self, sokoban):
        grid = load_level("sokoban", 0, sokoban.model)
        a, _ = generate_problem(grid, sokoban)
        b, _ = generate_problem(grid, sokoban)
        assert print_problem(a) == print_problem(b)
        assert read_problem(print_problem(a)) == a


class TestValidationErrors:
    def test_no_avatar(self, sokoban):
        grid = parse_ldf("wwwww\nw b w\nwwwww", sokoban.model)
        with pytest.raises(NoAvatarError):
            generate_problem(grid, sokoban)

    def test_two_avatars(self, sokoban):
        grid = parse_ldf("wwwww\nwA Aw\nwwwww", sokoban.model)
        with pytest.raises(MultipleAvatarsError):
            generate_problem(grid, sokoban)

    def test_abstract_sprite_in_level(self):
        # `missile` has children, so a level may not place it directly
        gdf = ALIENS_GDF.replace(
            "r  <  rock", "r  <  rock\n                m  <  missile")
        game = compile_game(parse_gdf(gdf, name="aliens"))
        grid = parse_ldf("a  \n m \n p ", game.model)
        with pytest.raises(GdfError, match="level instantiates abstract sprite"):
            generate_problem(grid, game)
        with pytest.raises(GdfError, match="level instantiates abstract sprite"):
            load(game.model, grid)


class TestSpecialFacts:
    def test_keymaze_geq_facts(self):
        game = compile_game(load_game("keymaze"))
        grid = load_level("keymaze", 0, game.model)
        problem, _ = generate_problem(grid, game)
        init = set(problem.init)
        count = max(grid.width, grid.height)
        assert Atom("got-resource-key", ("n0",)) in init
        for i in range(1, count):
            assert Atom("geq-key-1", (f"n{i}",)) in init
        assert Atom("geq-key-1", ("n0",)) not in init

    def test_rain_turn_counter_and_edges(self):
        game = compile_game(load_game("rain"))
        grid = load_level("rain", 0, game.model)
        problem, _ = generate_problem(grid, game)
        init = set(problem.init)
        assert Atom("turn", ("n0",)) in init
        assert Atom("edge-down", (f"n{grid.height - 1}",)) in init
        # drops are oriented down
        drops = [a for a in init if a.predicate == "oriented-down"
                 and a.args[0].startswith("drop")]
        assert drops

    def test_aliens_pool(self):
        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        problem, _ = generate_problem(grid, game)
        init = set(problem.init)
        reserve = [a for a in init if a.predicate == "in-reserve"]
        aliens = [n for n, t in problem.objects if t == "alien"]
        assert len(reserve) == len(aliens) == 2
        # reserve bullets carry the declared orientation but no position
        assert Atom("oriented-up", ("bullet_ammo_1",)) in init
        assert not any(a.predicate == "at" and a.args[2] == "bullet_ammo_1"
                       for a in init)
        assert Atom("edge-up", ("n0",)) in init
        assert Atom("edge-down", (f"n{grid.height - 1}",)) in init

    def test_phantom_chain_warning(self):
        # a wide rain level would stretch the chain past the height
        game = compile_game(load_game("rain"))
        grid = parse_ldf("w  o      w\nw         w\nw  A      w",
                         game.model)
        with pytest.warns(UserWarning):
            generate_problem(grid, game)

    def test_chain_check_follows_avatar_directions(self, tmp_path):
        # a level wider than tall: the chain outruns the height only, which
        # matters once the FlakAvatar template's header lets it move up
        level = "a   a    \n         \n    p    "
        model = parse_gdf(ALIENS_GDF, name="aliens")
        game = compile_game(model)
        assert game.avatar_directions == ("LEFT", "RIGHT")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_problem(parse_ldf(level, model), game)
        for path in KnowledgeBase().directory.glob("*.tmpl"):
            (tmp_path / path.name).write_text(path.read_text().replace(
                "directions: LEFT RIGHT", "directions: UP DOWN LEFT RIGHT"))
        game = compile_game(model, KnowledgeBase(tmp_path))
        assert game.avatar_directions == ("UP", "DOWN", "LEFT", "RIGHT")
        with pytest.warns(UserWarning, match="exceeds a grid dimension"):
            generate_problem(parse_ldf(level, model), game)


# nine keys on the only path from the avatar to the exit, more than the
# grid is wide
NINE_KEYS = "wwwwwww\nwAkkkkw\nwwwwwkw\nwekkkkw\nwwwwwww"


class TestResourceChain:
    """The num chain reaches every resource count a level can produce."""

    @pytest.fixture(scope="class")
    def keymaze(self):
        game = compile_game(load_game("keymaze"))
        return game, parse_ldf(NINE_KEYS, game.model)

    def test_chain_counts_every_key(self, keymaze):
        game, grid = keymaze
        problem, _ = generate_problem(grid, game)
        assert Atom("next", ("n8", "n9")) in set(problem.init)

    @pytest.mark.parametrize("mode", [Mode.BLIND_BFS, Mode.GBFS_HADD])
    def test_plan_collects_nine_keys_and_wins(self, keymaze, mode):
        game, grid = keymaze
        problem, _ = generate_problem(grid, game)
        result = solve(ground(game.domain, problem), SearchConfig(mode=mode))
        assert result.status is Status.SOLVED
        sim = load(game.model, grid)
        for action in result.plan:
            if is_avatar_action(action):
                E.step(sim, engine_action(action.name))
        assert sim.status is E.GameStatus.WIN
        assert sim.resources["key"] == 9

    def test_episode_wins(self, keymaze):
        game, grid = keymaze
        assert run_episode(game, grid).outcome is Outcome.WIN


# (game, level) -> (sha256 of the printed problem generated from the level
# file, bench.static_reduction of the level)
PROBLEM_PINS = {
    ("aliens", 0): ("985637da589358b0a5a2467d350065144f124f371804406f8e4193bf47067447", 0.0),
    ("aliens", 1): ("9a2d220795efbf0f50e0094e7deec20b4e8965beabf3d4b229b8a4c78013ee86", 0.0),
    ("digger", 0): ("618d453a53ed96e1b2ddaa9e0e315f7660be05c9438f82c8b31f664f38d7c99a", 70.58823529411765),
    ("digger", 1): ("ec05fa98841e90fc51e39a7d227a39e9a88d78a4d3c5b745e171d5d567d1735b", 64.86486486486487),
    ("keymaze", 0): ("ca4f183ba885b49d1e657df16428cedd4b06b2d402428dfbc161a4176a67aee5", 91.17647058823529),
    ("keymaze", 1): ("7953e02753f74f6255187a5513ce45c4fae80853a5af4496879a32a93eb92f9a", 88.46153846153847),
    ("rain", 0): ("a983fc033097fee062fb95087c0c9fd9ca55132e4268f44e008022310a9dbcbf", 75.0),
    ("rain", 1): ("6af56ee6afda60bd709c6fcb9922040621620bf32c46762c128dfff5ac209608", 69.23076923076923),
    ("sokoban", 0): ("243aa2eb38d7ffc4dd1661463a1a883f4cdd1e7af036fbd1e5a6e7e8ef39251e", 84.21052631578948),
    ("sokoban", 1): ("9cfca17ef23bbb25bb81874ba7fe52d08d38cb1cdba4787139b242d9d1a97543", 82.75862068965517),
    ("zenpuzzle", 0): ("f6dc12182106e010422e382691618a03aec11079fe57d6c9fe26b6f70b573a2c", 61.111111111111114),
    ("zenpuzzle", 1): ("0041993c99e115818b009dddb77c54da4db741caec5277f4f894f0eb361723f3", 72.0),
}


class TestPrintProblemStability:
    def test_every_shipped_level_is_pinned(self):
        assert {(name, index) for name in available_games()
                for index in range(len(level_paths(name)))} == set(PROBLEM_PINS)

    @pytest.mark.parametrize("name,index", sorted(PROBLEM_PINS))
    def test_print_problem_unchanged(self, name, index):
        game = compile_game(load_game(name))
        grid = load_level(name, index, game.model)
        problem, _ = generate_problem(grid, game)
        digest, reduction = PROBLEM_PINS[(name, index)]
        text = print_problem(problem)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert static_reduction(game, grid) == reduction
