"""Knowledge-base template tests: lookup, instantiation, micro checks."""
import re

import pytest
from click.testing import CliRunner

from vgdl2pddl.cli import main
from vgdl2pddl.errors import (
    TemplateFormatError,
    UnboundPlaceholderError,
    UnknownTemplateError,
)
from vgdl2pddl.kb import (DIRECTION_TABLE, KIND_AVATAR, KnowledgeBase,
                          validate_kb)
from vgdl2pddl.pddl import And, Atom, Not, format_formula


# sprite_missile's holes for a missile that nothing blocks, that is not the
# avatar's projectile and that closes the last sprite phase
MISSILE_HOLES = {"FREE": "", "BLOCKED": "(or)", "POOL": "", "NEXT_PHASE": ""}


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase()


class TestLookup:
    def test_missile_template_contents(self, kb):
        ts = kb.lookup("sprite", "Missile")
        text = ts.text()
        assert "<T>_MOVE_<D>" in text
        assert "<T>_MOVE_STOP<SUFFIX>" in text
        assert "(<T>-moved ?o - <T>)" in text
        assert "(turn-<T>-move)" in text
        assert "(finished-turn-<T>-move)" in text

    def test_collectresource_counter_update(self, kb):
        ts = kb.lookup("interaction", "collectResource")
        text = "\n".join(ts.actions)
        assert "<S1>_<S2>_COLLECTRESOURCE" in text
        assert "got-resource-<S1>" in text

    def test_immovable_has_no_behaviour(self, kb):
        ts = kb.lookup("sprite", "Immovable")
        assert ts.actions == ()
        assert ts.predicates == ()

    def test_unknown_template(self, kb):
        with pytest.raises(UnknownTemplateError):
            kb.lookup("sprite", "Chaser")


class TestInstantiate:
    def test_table_collectresource_instantiation(self, kb):
        ts = kb.lookup("interaction", "collectResource")
        inst = kb.instantiate(ts, {"S1": "shoes", "S2": "user"})
        action = inst.actions[0]
        assert action.name == "SHOES_USER_COLLECTRESOURCE"
        assert action.params == (("?o1", "shoes"), ("?o2", "user"),
                                 ("?x", "num"), ("?y", "num"),
                                 ("?r", "num"), ("?r_next", "num"))
        pre = action.precondition
        assert isinstance(pre, And) and len(pre.parts) == 6
        assert pre.parts[0] == Atom("turn-interactions")
        assert pre.parts[1] == Not(Atom("=", ("?o1", "?o2")))
        assert Atom("got-resource-shoes", ("?r",)) in pre.parts
        assert Atom("next", ("?r", "?r_next")) in pre.parts
        eff = action.effect
        assert len(eff.parts) == 4
        assert Atom("dead", ("?o1",)) in eff.parts
        assert Atom("got-resource-shoes", ("?r_next",)) in eff.parts

    def test_missing_binding_raises(self, kb):
        ts = kb.lookup("interaction", "collectResource")
        with pytest.raises(UnboundPlaceholderError):
            kb.instantiate(ts, {"S1": "shoes"})

    def test_rock_move_down(self, kb):
        ts = kb.lookup("sprite", "Missile")
        inst = kb.instantiate(ts, {"T": "rock", **MISSILE_HOLES}, ["DOWN"])
        move = next(a for a in inst.actions if a.name == "ROCK_MOVE_DOWN")
        pre_text = format_formula(move.precondition)
        assert "(oriented-down ?o)" in pre_text
        assert "(next ?y ?new_y)" in pre_text
        stop = next(a for a in inst.actions if a.name == "STOP_ROCK_MOVE")
        pre_text = format_formula(stop.precondition)
        assert "(forall (?o - rock) (or (dead ?o) (rock-moved ?o)))" in pre_text
        eff_text = format_formula(stop.effect)
        assert "(forall (?o - rock) (not (rock-moved ?o)))" in eff_text
        assert "(finished-turn-rock-move)" in eff_text

    def test_directions_expand_outermost(self, kb):
        ts = kb.lookup("sprite", "Missile")
        one = kb.instantiate(ts, {"T": "rock", **MISSILE_HOLES}, ["LEFT"])
        assert [a.name for a in one.actions] == [
            "ROCK_MOVE_LEFT", "ROCK_MOVE_STOP", "ROCK_EXIT_LEFT",
            "STOP_ROCK_MOVE"]
        four = kb.instantiate(ts, {"T": "rock", **MISSILE_HOLES})
        assert [a.name for a in four.actions] == [
            f"ROCK_{verb}_{d}" for d in ("UP", "DOWN", "LEFT", "RIGHT")
            for verb in ("MOVE", "MOVE_STOP", "EXIT")] + ["STOP_ROCK_MOVE"]
        assert [p.name for p in four.predicates][-4:] == [
            "edge-up", "edge-down", "edge-left", "edge-right"]

    def test_direction_row_fills_geometry(self, kb):
        inst = kb.instantiate(kb.lookup("avatar", "MovingAvatar"),
                              {"A": "avatar", "FREE": ""}, ["LEFT"])
        move = inst.actions[0]
        assert move.name == "AVATAR_ACTION_MOVE_LEFT"
        assert ("?new_x", "num") in move.params
        assert "(next ?new_x ?x)" in format_formula(move.precondition)
        eff = format_formula(move.effect)
        assert "(at ?new_x ?y ?a)" in eff
        assert "(oriented-left ?a)" in eff
        for other in ("up", "down", "right"):
            assert f"(not (oriented-{other} ?a))" in eff

    def test_directions_header_limits_instantiation(self, kb):
        ts = kb.lookup("avatar", "FlakAvatar")
        assert ts.directions == ("LEFT", "RIGHT")
        moving = kb.lookup("avatar", "MovingAvatar")
        names = [a.name for a in kb.instantiate(
            moving, {"A": "a", "FREE": ""}, ts.directions).actions]
        assert names[:2] == ["AVATAR_ACTION_MOVE_LEFT", "AVATAR_ACTION_MOVE_RIGHT"]
        with pytest.raises(UnboundPlaceholderError):
            kb.instantiate(ts, {"A": "a", "P": "p"}, ["UP"])

    def test_direction_placeholder_outside_block_rejected(self, tmp_path):
        (tmp_path / "bad.tmpl").write_text(
            "id: sprite_bad\nkind: SpriteBehaviour\nplaceholders: T\n---\n"
            "(:predicates (edge-<D> ?n - num))\n")
        with pytest.raises(TemplateFormatError):
            KnowledgeBase(tmp_path)

    def test_init_block_rejected(self, tmp_path):
        """Init facts belong to the problem generator, not to templates."""
        (tmp_path / "bad.tmpl").write_text(
            "id: sprite_bad\nkind: SpriteBehaviour\nplaceholders: T\n---\n"
            "(:predicates (got-resource-<T> ?n - num))\n"
            "(:init (got-resource-<T> n0))\n")
        with pytest.raises(TemplateFormatError):
            KnowledgeBase(tmp_path)

    def test_no_placeholder_tokens_survive(self, kb):
        for ts in kb.templates.values():
            binding = {p: f"xx{p.lower()}" for p in ts.placeholders}
            binding.update({h: "" for h in ts.holes})
            inst = kb.instantiate(ts, binding)
            rendered = " ".join(
                [format_formula(a.precondition) + format_formula(a.effect)
                 + a.name for a in inst.actions]
                + [p.name for p in inst.predicates])
            assert not re.search(r"<[A-Z][A-Z0-9_]*>", rendered), ts.template_id

    def test_avatar_templates_define_disjoint_actions(self, kb):
        """A class template adds to MovingAvatar's moves and NIL; it never
        repeats them."""
        defined_by: dict[str, str] = {}
        for ts in kb.templates.values():
            if ts.kind != KIND_AVATAR:
                continue
            binding = {p: f"xx{p.lower()}" for p in ts.placeholders}
            binding.update({h: "" for h in ts.holes})
            for action in kb.instantiate(ts, binding).actions:
                owner = defined_by.setdefault(action.name, ts.template_id)
                assert owner == ts.template_id, (action.name, owner)

    def test_undeclared_hole_rejected(self, tmp_path):
        (tmp_path / "bad.tmpl").write_text(
            "id: sprite_bad\nkind: SpriteBehaviour\nplaceholders: T\n---\n"
            "(:action <T>_WAIT :parameters (?o - <T>)"
            " :precondition (and (at ?o) <FREE>) :effect (and))\n")
        with pytest.raises(TemplateFormatError):
            KnowledgeBase(tmp_path)

    def test_unbound_hole_raises(self, kb):
        ts = kb.lookup("sprite", "Missile")
        holes = dict(MISSILE_HOLES)
        del holes["POOL"]
        with pytest.raises(UnboundPlaceholderError):
            kb.instantiate(ts, {"T": "rock", **holes}, ["DOWN"])

    def test_hole_text_expands_per_direction(self, kb):
        """A hole is filled before per-direction blocks expand, so its text
        may name the block's direction placeholders."""
        inst = kb.instantiate(kb.lookup("avatar", "MovingAvatar"),
                              {"A": "avatar", "FREE": "(not (is-wall <DEST>))"},
                              ["UP", "DOWN", "LEFT", "RIGHT"])
        free = {a.name: a.precondition.parts[-1] for a in inst.actions[:4]}
        assert free == {
            "AVATAR_ACTION_MOVE_UP": Not(Atom("is-wall", ("?x", "?new_y"))),
            "AVATAR_ACTION_MOVE_DOWN": Not(Atom("is-wall", ("?x", "?new_y"))),
            "AVATAR_ACTION_MOVE_LEFT": Not(Atom("is-wall", ("?new_x", "?y"))),
            "AVATAR_ACTION_MOVE_RIGHT": Not(Atom("is-wall", ("?new_x", "?y"))),
        }

    def test_instantiation_injective_on_bindings(self, kb):
        ts = kb.lookup("interaction", "killSprite")
        names = set()
        for s1, s2 in [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")]:
            inst = kb.instantiate(ts, {"S1": s1, "S2": s2})
            for action in inst.actions:
                assert action.name not in names
                names.add(action.name)


class TestTemplateBody:
    """A template body is PDDL fragments and comments only: stray text, or
    a parenthesis that does not balance, fails the load, naming the file."""

    HEADER = "id: sprite_bad\nkind: SpriteBehaviour\nplaceholders: T\n---\n"
    PREDICATES = "(:predicates (at-<T> ?n - num))\n"

    @pytest.mark.parametrize("body", [
        pytest.param(PREDICATES + "junk\n", id="text-after"),
        pytest.param("junk " + PREDICATES, id="text-before"),
        pytest.param("(:predicates junk (at-<T> ?n - num))\n",
                     id="text-in-predicates"),
        # a ')' that closes nothing, which the '(' after it rebalances
        pytest.param(PREDICATES + ") (\n", id="closes-nothing"),
        pytest.param("(:predicates (at-<T> ?n - num)\n", id="never-closed"),
    ])
    def test_malformed_body_names_the_file(self, tmp_path, body):
        (tmp_path / "bad.tmpl").write_text(self.HEADER + body)
        with pytest.raises(TemplateFormatError, match="bad.tmpl"):
            KnowledgeBase(tmp_path)
        result = CliRunner().invoke(main, ["validate-kb", "--kb", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert "bad.tmpl" in result.output


class TestValidateKb:
    def test_all_checks_pass(self, kb):
        results = validate_kb(kb)
        failures = [r for r in results if r.status == "fail"]
        assert not failures, [(r.template_id, r.message) for r in failures]
        # every template with actions was actually checked
        checked = {r.template_id for r in results if r.status == "pass"}
        for template_id, ts in kb.templates.items():
            if ts.actions:
                assert template_id in checked

    def test_vacuous_templates_reported(self, kb):
        results = validate_kb(kb)
        vacuous = {r.template_id for r in results if r.status == "vacuous"}
        assert "sprite_immovable" in vacuous
        assert "sprite_passive" in vacuous

    def test_mutated_template_fails_its_check_only(self, kb, tmp_path):
        src = kb.directory
        broken_dir = tmp_path / "templates"
        broken_dir.mkdir()
        (broken_dir / "checks").mkdir()
        for p in src.glob("*.tmpl"):
            text = p.read_text()
            if p.name == "interaction_killsprite.tmpl":
                # flip the effect sign: the receiver no longer dies
                text = text.replace("(dead ?o1)", "(not (dead ?o1))", 1)
            (broken_dir / p.name).write_text(text)
        for p in (src / "checks").glob("*.yaml"):
            (broken_dir / "checks" / p.name).write_text(p.read_text())
        broken = KnowledgeBase(broken_dir)
        results = validate_kb(broken)
        by_id = {r.template_id: r.status for r in results}
        assert by_id["interaction_killsprite"] == "fail"
        assert by_id["interaction_killboth"] == "pass"

    def test_corrupt_direction_row_fails_only_down_checks(
            self, kb, monkeypatch):
        # a down step that walks up
        monkeypatch.setitem(DIRECTION_TABLE["down"], "NEXT", "?new_y ?y")
        results = validate_kb(kb)
        failed = {r.case for r in results if r.status == "fail"}
        assert failed == {"avatar_movingavatar", "interaction_bounceforward",
                          "sprite_missile_down"}
        passed = {r.case for r in results if r.status == "pass"}
        assert passed == {r.case for r in results if r.case} - failed
        assert {"sprite_missile_up", "sprite_missile_left",
                "sprite_missile_right", "sprite_missile_omni"} <= passed

    def test_empty_kb_vacuous_with_warning(self, tmp_path):
        empty = tmp_path / "kb"
        empty.mkdir()
        results = validate_kb(KnowledgeBase(empty))
        assert len(results) == 1
        assert results[0].status == "vacuous"
