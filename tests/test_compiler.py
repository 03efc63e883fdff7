"""Domain-assembly tests: element counts, type hierarchy, goal deduction."""
import hashlib

import pytest

from test_acceptance import TOY_ONE_MOVER, TOY_TWO_MOVERS
from test_agent import HUNTER_GDF
from test_vgdl import ALIENS_GDF, SOKOBAN_GDF
from vgdl2pddl.compiler import (
    compile_game,
    deduce_goal,
    static_sprites,
)
from vgdl2pddl.errors import UnsupportedGoalError
from vgdl2pddl.games import available_games, load_game
from vgdl2pddl.pddl import (And, Atom, Forall, Not, Or, format_formula,
                            print_domain, read_domain)
from vgdl2pddl.vgdl import (
    SPRITE_TYPE_BY_NAME,
    TerminationDef,
    TerminationKind,
    parse_gdf,
)


def element_counts(domain):
    """(types, supertypes, predicates, actions) with supertypes = the
    declared type names that are VGDL classes."""
    class_names = {n.lower() for n in SPRITE_TYPE_BY_NAME}
    supertypes = [n for n, _ in domain.types if n.lower() in class_names]
    types = [n for n, _ in domain.types if n.lower() not in class_names]
    return (len(types), len(supertypes),
            len(domain.predicates), len(domain.actions))


class TestElementCounts:
    def test_sokoban_counts(self):
        domain = compile_game(load_game("sokoban")).domain
        assert element_counts(domain) == (4, 3, 13, 12)

    def test_zenpuzzle_counts(self):
        domain = compile_game(load_game("zenpuzzle")).domain
        assert element_counts(domain) == (5, 2, 15, 8)


class TestTypes:
    def test_fig1_hierarchy(self):
        domain = compile_game(parse_gdf(ALIENS_GDF, name="aliens")).domain
        types = dict(domain.types)
        assert types["bullet"] == "missile"
        assert types["rock"] == "missile"
        # the sprite named like its class collapses onto the root Object
        assert types["missile"] == "Object"
        assert types["player"] == "FlakAvatar"
        assert types["alien"] == "Bomber"
        assert types["num"] is None

    def test_statics_have_no_type(self):
        model = load_game("sokoban")
        assert static_sprites(model) == ("wall",)
        domain = compile_game(model).domain
        assert "wall" not in dict(domain.types)
        assert any(p.name == "is-wall" for p in domain.predicates)

    def test_zen_statics(self):
        model = load_game("zenpuzzle")
        assert set(static_sprites(model)) == {"floor", "body", "wall"}

    def test_termination_reference_blocks_staticness(self):
        # exit is Immovable but a SpriteCounter counts it, so it is an object
        model = load_game("keymaze")
        assert static_sprites(model) == ("wall",)
        assert "exit" in dict(compile_game(model).domain.types)


class TestActions:
    def test_one_action_per_plain_interaction(self):
        domain = compile_game(load_game("sokoban")).domain
        names = [a.name for a in domain.actions]
        assert names.count("BOX_HOLE_KILLSPRITE") == 1
        # bounceForward is directional: four suffixed variants
        bounce = [n for n in names if n.startswith("BOX_AVATAR_BOUNCEFORWARD")]
        assert sorted(bounce) == [
            "BOX_AVATAR_BOUNCEFORWARD_DOWN", "BOX_AVATAR_BOUNCEFORWARD_LEFT",
            "BOX_AVATAR_BOUNCEFORWARD_RIGHT", "BOX_AVATAR_BOUNCEFORWARD_UP"]
        # stepBack compiles to move preconditions, not actions
        assert not any("STEPBACK" in n for n in names)

    def test_stepback_becomes_wall_guard(self):
        domain = compile_game(load_game("sokoban")).domain
        move = next(a for a in domain.actions
                    if a.name == "AVATAR_ACTION_MOVE_DOWN")
        assert "(not (is-wall ?x ?new_y))" in format_formula(move.precondition)
        bounce = next(a for a in domain.actions
                      if a.name == "BOX_AVATAR_BOUNCEFORWARD_LEFT")
        assert "(not (is-wall ?new_x ?y))" in format_formula(bounce.precondition)

    def test_object_blocker_is_quantified(self):
        domain = compile_game(load_game("digger")).domain
        move = next(a for a in domain.actions if a.name == "BOULDER_MOVE_DOWN")
        pre = format_formula(move.precondition)
        # boulders are stopped by walls (static) and dirt (object type)
        assert "(not (is-wall ?x ?new_y))" in pre
        assert "(forall (?blk - dirt) (not (at ?x ?new_y ?blk)))" in pre

    def test_move_stop_exists_only_with_blockers(self):
        digger = compile_game(load_game("digger")).domain
        assert any(a.name == "BOULDER_MOVE_STOP" for a in digger.actions)
        aliens = compile_game(parse_gdf(ALIENS_GDF, name="aliens")).domain
        assert not any("MOVE_STOP" in a.name for a in aliens.actions)

    def test_pooled_stop_accepts_reserve(self):
        domain = compile_game(parse_gdf(ALIENS_GDF, name="aliens")).domain
        stop = next(a for a in domain.actions if a.name == "STOP_BULLET_MOVE")
        assert "(in-reserve ?o)" in format_formula(stop.precondition)
        rock_stop = next(a for a in domain.actions
                         if a.name == "STOP_ROCK_MOVE")
        assert "(in-reserve ?o)" not in format_formula(rock_stop.precondition)

    def test_flak_avatar_actions(self):
        domain = compile_game(parse_gdf(ALIENS_GDF, name="aliens")).domain
        names = {a.name for a in domain.actions}
        assert "AVATAR_ACTION_MOVE_LEFT" in names
        assert "AVATAR_ACTION_MOVE_RIGHT" in names
        assert "AVATAR_ACTION_USE" in names
        assert "AVATAR_ACTION_NIL" in names
        # no vertical movement for a flak avatar
        assert "AVATAR_ACTION_MOVE_UP" not in names
        assert "AVATAR_ACTION_MOVE_DOWN" not in names


class TestTurnStructure:
    def test_degenerate_game_has_no_sprite_phase(self):
        model = load_game("sokoban")  # no self-movers
        actions = compile_game(model).domain.actions
        names = {a.name for a in actions
                 if a.name.startswith(("END-TURN-", "STOP_"))}
        assert names == {"END-TURN-INTERACTIONS", "END-TURN-SPRITES"}
        eti = next(a for a in actions if a.name == "END-TURN-INTERACTIONS")
        assert "turn-" not in "".join(
            format_formula(p) for p in eti.effect.parts
            if "move" in format_formula(p))

    def test_two_mover_chain(self):
        model = parse_gdf(ALIENS_GDF, name="aliens")
        actions = compile_game(model).domain.actions
        eti = next(a for a in actions if a.name == "END-TURN-INTERACTIONS")
        assert "(turn-bullet-move)" in format_formula(eti.effect)
        stop_bullet = next(a for a in actions if a.name == "STOP_BULLET_MOVE")
        assert "(turn-rock-move)" in format_formula(stop_bullet.effect)
        stop_rock = next(a for a in actions if a.name == "STOP_ROCK_MOVE")
        assert "(turn-" not in format_formula(stop_rock.effect).replace(
            "(not (turn-rock-move))", "")
        ets = next(a for a in actions if a.name == "END-TURN-SPRITES")
        pre = format_formula(ets.precondition)
        assert "(finished-turn-bullet-move)" in pre
        assert "(finished-turn-rock-move)" in pre

    def test_timeout_advances_counter(self):
        model = load_game("rain")
        domain = compile_game(model).domain
        ets = next(a for a in domain.actions if a.name == "END-TURN-SPRITES")
        assert ("?t", "num") in ets.params
        eff = format_formula(ets.effect)
        assert "(not (turn ?t))" in eff and "(turn ?t_next)" in eff
        # non-timeout games carry no counter at all
        sokoban = compile_game(load_game("sokoban")).domain
        assert not any(p.name == "turn" for p in sokoban.predicates)


class TestGoalDeduction:
    def test_sokoban_goal(self):
        goal = deduce_goal(load_game("sokoban").terminations)
        assert format_formula(goal) == "(forall (?o - box) (dead ?o))"

    def test_timeout_goal(self):
        terms = (TerminationDef(TerminationKind.TIMEOUT, 50, True),)
        goal = deduce_goal(terms)
        assert format_formula(goal) == "(and (turn n50) (not (dead avatar)))"

    def test_exit_goal_ignores_lose_conditions(self):
        goal = deduce_goal(load_game("digger").terminations)
        assert format_formula(goal) == "(forall (?o - exit) (dead ?o))"

    def test_positive_limit_unsupported(self):
        terms = (TerminationDef(TerminationKind.SPRITE_COUNTER, 3, True, "box"),)
        with pytest.raises(UnsupportedGoalError):
            deduce_goal(terms)


class TestSelfConsistency:
    @pytest.mark.parametrize("name", ["sokoban", "zenpuzzle", "keymaze",
                                      "digger", "rain", "aliens"])
    def test_emitted_domain_reparses(self, name):
        domain = compile_game(load_game(name)).domain
        printed = print_domain(domain)
        assert read_domain(printed) == domain
        assert print_domain(read_domain(printed)) == printed

    def test_compilation_deterministic(self):
        model = parse_gdf(SOKOBAN_GDF, name="sokoban")
        first = print_domain(compile_game(model).domain)
        second = print_domain(compile_game(
            parse_gdf(SOKOBAN_GDF, name="sokoban")).domain)
        assert first == second


# sha256 of print_domain output, frozen from the four-copies-per-direction
# templates; the direction-expanding KB must reproduce them byte for byte.
# aliens, digger, keymaze and rain were re-pinned when the compiler began to
# derive each END-TURN-INTERACTIONS guard from its interaction's template.
DOMAIN_SHA256 = {
    "aliens": "23c82ef8cd707d3af29039764a182048fc6ae798467199518da44e3615e7c19a",
    "digger": "7b309130075818a3847be7995160b62534cb06b399a883876d667d222f525037",
    "keymaze": "4dde78783a77a5fb2702c2d5fec7a3aacdc4bff2c7d79dcbec6720f2be04ff34",
    "rain": "6862d8aab7077d9596b2c3c4053cd42324f60c80bb3a0d974cedb7091b5cc8b4",
    "sokoban": "c5dcc321299dd3ad84a655b028e749720ce04d11d2e4cd4ad49492297db1e19f",
    "zenpuzzle": "aeb3039dbf6ce4a4fec23cff11d59df806a212163258d05d4cc6213006c7fe0c",
    "toy_right": "95b4fe818f63c6c1926226cb2bb7aae645638ea891002faa3a4e1a66bc151571",
    "toy_left": "732c6a815ea404f37c610904184886407996943addc36d7aed41152d8378c02e",
    "toy_up": "3edcd334fafd6be21e08ef58fd6d5adc9cb4f350c4475cdace17d8c775c1c7b1",
    "toy2": "3ffd46e1a8d730c2127c8c93cf254e54fe44e3c8fdc93cf8f24fb07d0f2765be",
    "hunter": "e5175815131ec1399ae84066e7c4a6338f067b9c87fad4ed5096715e70aadf91",
    "hunter_walled": "2af4a3cf6aed8c6a04dc8a7d1842bf1ad8fba6054330e52db14c133951a4913b",
}

# bolts stopped by walls: the four-direction projectile's BOLT_MOVE_STOP_<D>
HUNTER_WALLED_GDF = HUNTER_GDF.replace(
    "    slime > Immovable\n", "    slime > Immovable\n    wall > Immovable\n"
).replace("    s > slime\n", "    s > slime\n    w > wall\n").replace(
    "    slime bolt > killSprite\n",
    "    slime bolt > killSprite\n    bolt wall > stepBack\n")


def _stability_model(name):
    if name in available_games():
        return load_game(name)
    if name.startswith("toy_"):
        gdf = TOY_ONE_MOVER.replace("orientation=RIGHT",
                                    f"orientation={name[4:].upper()}")
        return parse_gdf(gdf, name="toy")
    gdf = {"toy2": TOY_TWO_MOVERS, "hunter": HUNTER_GDF,
           "hunter_walled": HUNTER_WALLED_GDF}[name]
    return parse_gdf(gdf, name=name.split("_")[0])


class TestPrintDomainStability:
    def test_every_shipped_game_is_pinned(self):
        assert set(available_games()) <= set(DOMAIN_SHA256)

    @pytest.mark.parametrize("name", sorted(DOMAIN_SHA256))
    def test_print_domain_unchanged(self, name):
        text = print_domain(compile_game(_stability_model(name)).domain)
        assert hashlib.sha256(text.encode()).hexdigest() == DOMAIN_SHA256[name]

    def test_walled_hunter_emits_directional_stay(self):
        domain = compile_game(_stability_model("hunter_walled")).domain
        names = {a.name for a in domain.actions}
        assert {f"BOLT_MOVE_STOP_{d}"
                for d in ("UP", "DOWN", "LEFT", "RIGHT")} <= names
        assert "BOLT_MOVE_STOP" not in names


# a missile whose own name contains a fragment of the template's action
# names (_EXIT_, _MOVE_STOP, a STOP_ prefix, _BOUNCEFORWARD_) must compile
# like any other
WALLED_TOY_TWO_MOVERS = TOY_TWO_MOVERS.replace(
    "    avatar wall > stepBack\n",
    "    avatar wall > stepBack\n    blob wall > stepBack\n")
MISSILE_NAMES = ["fire_exit", "stop_blob", "a_move_stop", "lava_bounceforward"]


class TestMissileNames:
    @pytest.mark.parametrize("name", MISSILE_NAMES)
    def test_domain_matches_blob_up_to_renaming(self, name):
        expected = print_domain(compile_game(
            parse_gdf(WALLED_TOY_TWO_MOVERS, name="toy")).domain)
        expected = expected.replace("blob", name).replace(
            "BLOB", name.upper())
        got = print_domain(compile_game(
            parse_gdf(WALLED_TOY_TWO_MOVERS.replace("blob", name),
                      name="toy")).domain)
        assert got == expected

    @pytest.mark.parametrize("name", MISSILE_NAMES)
    def test_move_keeps_wall_guard(self, name):
        domain = compile_game(
            parse_gdf(WALLED_TOY_TWO_MOVERS.replace("blob", name),
                      name="toy")).domain
        actions = {a.name: a for a in domain.actions}
        t = name.upper()
        move = format_formula(actions[f"{t}_MOVE_RIGHT"].precondition)
        assert "(not (is-wall ?new_x ?y))" in move
        stay = format_formula(actions[f"{t}_MOVE_STOP"].precondition)
        assert "(is-wall ?new_x ?y)" in stay.replace(
            "(not (is-wall ?new_x ?y))", "")
        # only the phase-closing action hands the turn to the next mover
        assert "(turn-drip-move)" in format_formula(
            actions[f"STOP_{t}_MOVE"].effect)
        for suffix in ("MOVE_RIGHT", "MOVE_STOP", "EXIT_RIGHT"):
            assert "turn-drip-move" not in format_formula(
                actions[f"{t}_{suffix}"].effect)


# an avatar that dies on a sprite named like an interaction kind: the kill
# action's name contains _BOUNCEFORWARD_, but it pushes nothing
BOUNCEFORWARD_NAMED_TOY = TOY_ONE_MOVER.replace(
    "    pit > Immovable\n", "    lava_bounceforward > Immovable\n").replace(
    "    p > pit\n", "    l > lava_bounceforward\n").replace(
    "    blob pit > killSprite\n",
    "    blob lava_bounceforward > killSprite\n"
    "    avatar lava_bounceforward > killSprite\n")


def _free_variables(f, bound):
    """The variables of `f` that neither `bound` nor an enclosing forall
    binds."""
    if isinstance(f, Atom):
        return {a for a in f.args if a.startswith("?") and a not in bound}
    if isinstance(f, Not):
        return _free_variables(f.body, bound)
    if isinstance(f, (And, Or)):
        return set().union(*(_free_variables(p, bound) for p in f.parts))
    assert isinstance(f, Forall), f
    return _free_variables(f.body, bound | {v for v, _ in f.variables})


def _variable_model(name):
    if name in available_games():
        return load_game(name)
    if name == "bounceforward_named":
        return parse_gdf(BOUNCEFORWARD_NAMED_TOY, name="toy")
    return parse_gdf(WALLED_TOY_TWO_MOVERS.replace("blob", name), name="toy")


class TestActionVariables:
    @pytest.mark.parametrize(
        "name", [*available_games(), "bounceforward_named", *MISSILE_NAMES])
    def test_every_variable_is_a_parameter_or_quantified(self, name):
        for action in compile_game(_variable_model(name)).domain.actions:
            params = {v for v, _ in action.params}
            free = (_free_variables(action.precondition, params)
                    | _free_variables(action.effect, params))
            assert not free, f"{action.name}: free {sorted(free)}"
