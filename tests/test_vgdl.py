"""GDF/LDF parser tests, anchored on the Space-Invaders-style example game."""
import string

import pytest
from hypothesis import given, settings, strategies as st

from vgdl2pddl.errors import (
    DanglingReferenceError,
    GdfError,
    IndentError,
    MissingSectionError,
    RaggedGridError,
    UnknownInteractionTypeError,
    UnknownSpriteTypeError,
    UnmappedCharacterError,
)
from vgdl2pddl.games import games_dir
from vgdl2pddl.vgdl import (
    InteractionKind,
    SpriteType,
    TerminationKind,
    parse_gdf,
    parse_ldf,
    print_gdf,
    print_ldf,
)

# Space-Invaders-style game, kept verbatim including the '<' separators.
ALIENS_GDF = """\
            SpriteSet
                player   >  FlakAvatar   stype=bullet
                alien    >  Bomber       stype=bomb
                missile  >  Missile
                    bullet  >  orientation=UP
                    rock    >  orientation=DOWN

            LevelMapping
                p  <  player
                a  <  alien
                b  <  bullet
                r  <  rock

            InteractionSet
                player  rock   <  killIfFromAbove
                bullet  rock   <  killBoth
                alien  bullet  <  killSprite

            TerminationSet
                SpriteCounter  stype=player  limit=0  win=False
                SpriteCounter  stype=alien   limit=0  win=True
"""

SOKOBAN_GDF = """\
SpriteSet
    avatar > MovingAvatar
    hole > Immovable
    box > Passive
    wall > Immovable
LevelMapping
    A > avatar
    h > hole
    b > box
    w > wall
InteractionSet
    avatar wall > stepBack
    box avatar > bounceForward
    box wall > stepBack
    box hole > killSprite
TerminationSet
    SpriteCounter stype=box limit=0 win=True
"""

SOKOBAN_LDF = "wwwww\nwh  w\nw b w\nw A w\nwwwww\n"


class TestParseGdf:
    def test_aliens_sprites(self):
        model = parse_gdf(ALIENS_GDF, name="aliens")
        names = {s.name: s for s in model.sprites}
        assert set(names) == {"player", "alien", "missile", "bullet", "rock"}
        assert names["player"].vgdl_type is SpriteType.FLAK_AVATAR
        assert names["player"].params["stype"] == "bullet"
        assert names["alien"].vgdl_type is SpriteType.BOMBER
        assert names["alien"].params["stype"] == "bomb"
        # children without explicit types inherit Missile from the parent
        assert names["bullet"].vgdl_type is SpriteType.MISSILE
        assert names["bullet"].params["orientation"] == "UP"
        assert names["rock"].vgdl_type is SpriteType.MISSILE
        assert names["rock"].params["orientation"] == "DOWN"
        assert names["bullet"].parent == "missile"
        assert names["missile"].children == ("bullet", "rock")
        assert names["missile"].is_abstract

    def test_aliens_interactions_and_terminations(self):
        model = parse_gdf(ALIENS_GDF)
        assert len(model.interactions) == 3
        first = model.interactions[0]
        assert (first.receiver, first.producer) == ("player", "rock")
        assert first.kind is InteractionKind.KILL_IF_FROM_ABOVE
        assert len(model.terminations) == 2
        win = [t for t in model.terminations if t.win]
        assert len(win) == 1 and win[0].stype == "alien" and win[0].limit == 0
        lose = [t for t in model.terminations if not t.win]
        assert lose[0].kind is TerminationKind.SPRITE_COUNTER

    def test_only_spriteset_is_missing_section(self):
        with pytest.raises(MissingSectionError):
            parse_gdf("SpriteSet\n    avatar > MovingAvatar\n")

    def test_empty_text(self):
        with pytest.raises(MissingSectionError):
            parse_gdf("")

    def test_section_order_irrelevant(self):
        shuffled = SOKOBAN_GDF.split("SpriteSet")
        text = ("TerminationSet\n    SpriteCounter stype=box limit=0 win=True\n"
                + SOKOBAN_GDF.replace(
                    "TerminationSet\n    SpriteCounter stype=box limit=0 win=True\n",
                    ""))
        assert parse_gdf(text).terminations == parse_gdf(SOKOBAN_GDF).terminations
        assert shuffled  # silence lint

    def test_unknown_sprite_type(self):
        bad = SOKOBAN_GDF.replace("MovingAvatar", "SpaceWizard")
        with pytest.raises(UnknownSpriteTypeError):
            parse_gdf(bad)

    def test_unknown_interaction(self):
        bad = SOKOBAN_GDF.replace("bounceForward", "transformTo")
        with pytest.raises(UnknownInteractionTypeError):
            parse_gdf(bad)

    def test_dangling_mapping(self):
        bad = SOKOBAN_GDF.replace("b > box", "b > crate")
        with pytest.raises(DanglingReferenceError):
            parse_gdf(bad)

    def test_dangling_avatar_stype(self):
        bad = ALIENS_GDF.replace("stype=bullet", "stype=laser")
        with pytest.raises(DanglingReferenceError):
            parse_gdf(bad)

    def test_bomber_stype_left_symbolic(self):
        # Bomber stype is not resolved at parse time (the example game leaves
        # bomb undeclared); it is the engine's job to reject it when spawning.
        model = parse_gdf(ALIENS_GDF)
        assert model.sprite("alien").params["stype"] == "bomb"

    def test_duplicate_pair_last_wins(self):
        text = SOKOBAN_GDF.replace(
            "    box hole > killSprite\n",
            "    box hole > killSprite\n    box hole > killSprite\n",
        )
        with pytest.warns(UserWarning):
            model = parse_gdf(text)
        assert len([i for i in model.interactions if i.receiver == "box"
                    and i.kind is InteractionKind.KILL_SPRITE]) == 1

    def test_same_pair_different_kinds_coexist(self):
        text = SOKOBAN_GDF.replace(
            "    box hole > killSprite\n",
            "    box hole > killSprite\n    box hole > stepBack\n",
        )
        model = parse_gdf(text)
        kinds = {i.kind for i in model.interactions
                 if i.receiver == "box" and i.producer == "hole"}
        assert kinds == {InteractionKind.KILL_SPRITE, InteractionKind.STEP_BACK}

    def test_receiver_equals_producer_rejected(self):
        text = SOKOBAN_GDF.replace("box avatar > bounceForward",
                                   "box box > stepBack")
        with pytest.raises(GdfError):
            parse_gdf(text)

    def test_no_avatar(self):
        text = SOKOBAN_GDF.replace("avatar > MovingAvatar", "avatar > Passive")
        with pytest.raises(GdfError):
            parse_gdf(text)

    def test_no_win_termination(self):
        text = SOKOBAN_GDF.replace("win=True", "win=False")
        with pytest.raises(GdfError):
            parse_gdf(text)

    def test_basicgame_wrapper_accepted(self):
        wrapped = "BasicGame\n" + "\n".join(
            "    " + line for line in SOKOBAN_GDF.splitlines()) + "\n"
        model = parse_gdf(wrapped)
        assert model.sprite("box").vgdl_type is SpriteType.PASSIVE

    def test_bad_indentation(self):
        bad = ("SpriteSet\n"
               "    avatar > MovingAvatar\n"
               "      wall > Immovable\n"  # neither sibling nor proper dedent
               "    box > Passive\n"
               "LevelMapping\n    A > avatar\n"
               "InteractionSet\n    avatar wall > stepBack\n"
               "TerminationSet\n    SpriteCounter stype=box limit=0 win=True\n")
        # 'wall' becomes a child of avatar (strictly deeper), then 'box'
        # returns to the sibling level; the inconsistent sibling is the error.
        with pytest.raises((IndentError, GdfError, DanglingReferenceError)):
            parse_gdf(bad)

    def test_killifotherhasmore_requires_params(self):
        text = SOKOBAN_GDF.replace("box hole > killSprite",
                                   "box hole > killIfOtherHasMore")
        with pytest.raises(GdfError):
            parse_gdf(text)

    @pytest.mark.parametrize("limit", ["x", "-1"])
    def test_killifotherhasmore_limit_checked_at_parse(self, limit):
        """A limit that is no nonnegative integer names its line, as a
        termination's does."""
        text = (games_dir() / "digger" / "digger.txt").read_text()
        assert "killIfOtherHasMore resource=gem limit=2" in text
        with pytest.raises(GdfError) as info:
            parse_gdf(text.replace("limit=2", f"limit={limit}"))
        line = next(n for n, row in enumerate(text.splitlines(), 1)
                    if "killIfOtherHasMore" in row)
        assert info.value.line == line

    def test_killifotherhasmore_limit_text_is_canonical(self):
        """The domain's geq-<R>-<L> predicate and the problem's init name
        the limit alike, however the GDF writes it."""
        text = (games_dir() / "digger" / "digger.txt").read_text()
        model = parse_gdf(text.replace("limit=2", "limit=02"))
        kiohm = next(i for i in model.interactions
                     if i.kind is InteractionKind.KILL_IF_OTHER_HAS_MORE)
        assert kiohm.params["limit"] == "2"

    @staticmethod
    def _line_of(text, fragment):
        return next(n for n, row in enumerate(text.splitlines(), 1)
                    if fragment in row)

    @pytest.mark.parametrize("limit", ["x", "-3", "1.5"])
    def test_resource_limit_checked_at_parse(self, limit):
        """A Resource's limit is checked as a termination's is, and the
        error names the sprite's line."""
        text = (games_dir() / "keymaze" / "keymaze.txt").read_text()
        assert "key > Resource\n" in text
        with pytest.raises(GdfError) as info:
            parse_gdf(text.replace("key > Resource",
                                   f"key > Resource limit={limit}"))
        assert info.value.line == self._line_of(text, "key > Resource")

    def test_resource_limit_text_is_canonical(self):
        text = (games_dir() / "keymaze" / "keymaze.txt").read_text()
        model = parse_gdf(text.replace("key > Resource",
                                       "key > Resource limit=03"))
        assert model.sprite("key").params["limit"] == "3"

    @pytest.mark.parametrize("prob", ["x", "7", "-0.5", "nan"])
    def test_bomber_prob_checked_at_parse(self, prob):
        text = (games_dir() / "aliens" / "aliens.txt").read_text()
        assert "prob=0.5" in text
        with pytest.raises(GdfError) as info:
            parse_gdf(text.replace("prob=0.5", f"prob={prob}"))
        assert info.value.line == self._line_of(text, "prob=0.5")
        assert prob in str(info.value)

    @pytest.mark.parametrize("prob", ["0", "1", "0.25"])
    def test_bomber_prob_bounds_are_accepted(self, prob):
        text = (games_dir() / "aliens" / "aliens.txt").read_text()
        model = parse_gdf(text.replace("prob=0.5", f"prob={prob}"))
        assert model.sprite("alien").params["prob"] == prob

    def test_visual_params_retained(self):
        text = SOKOBAN_GDF.replace("box > Passive",
                                   "box > Passive img=newset/block1 color=BROWN")
        model = parse_gdf(text)
        assert model.sprite("box").params["img"] == "newset/block1"


class TestInheritance:
    def test_child_params_superset_of_parent(self):
        text = """\
SpriteSet
    avatar > MovingAvatar
    thing > Missile orientation=DOWN speed=1
        fast > speed=2
        slow >
LevelMapping
    A > avatar
    f > fast
    s > slow
InteractionSet
    avatar fast > stepBack
TerminationSet
    SpriteCounter stype=fast limit=0 win=True
"""
        model = parse_gdf(text)
        parent = model.sprite("thing")
        fast, slow = model.sprite("fast"), model.sprite("slow")
        for child in (fast, slow):
            inherited = set(parent.params) - set(
                k for k in child.params if child.params[k] != parent.params.get(k))
            assert inherited <= set(child.params)
        assert fast.params["speed"] == "2"  # explicit override
        assert fast.params["orientation"] == "DOWN"
        assert slow.params == parent.params


class TestParseLdf:
    def test_sokoban_grid(self):
        model = parse_gdf(SOKOBAN_GDF)
        grid = parse_ldf(SOKOBAN_LDF, model)
        assert (grid.width, grid.height) == (5, 5)
        assert grid.cells[2][2] == "b"
        assert grid.cells[3][2] == "A"
        assert grid.cells[1][1] == "h"
        assert sum(c == "w" for _, _, c in grid.positions()) == 16

    def test_empty_string_is_ragged(self):
        model = parse_gdf(SOKOBAN_GDF)
        with pytest.raises(RaggedGridError):
            parse_ldf("", model)

    def test_ragged_rows(self):
        model = parse_gdf(SOKOBAN_GDF)
        with pytest.raises(RaggedGridError):
            parse_ldf("www\nww\n", model)

    def test_unmapped_character_names_char_and_position(self):
        model = parse_gdf(SOKOBAN_GDF)
        with pytest.raises(UnmappedCharacterError) as exc:
            parse_ldf("ww\nwz\n", model)
        assert "'z'" in str(exc.value)
        assert "(1, 1)" in str(exc.value)

    @given(st.integers(0, 4), st.integers(0, 4),
           st.sampled_from(sorted(set(string.ascii_letters) - set("Ahbw"))))
    @settings(max_examples=30, deadline=None)
    def test_unmapped_fuzz(self, x, y, char):
        model = parse_gdf(SOKOBAN_GDF)
        rows = [list("     ") for _ in range(5)]
        rows[y][x] = char
        text = "\n".join("".join(r) for r in rows)
        with pytest.raises(UnmappedCharacterError) as exc:
            parse_ldf(text, model)
        assert repr(char) in str(exc.value)
        assert f"({x}, {y})" in str(exc.value)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [ALIENS_GDF, SOKOBAN_GDF])
    def test_gdf_print_parse_identity(self, text):
        model = parse_gdf(text, name="g")
        again = parse_gdf(print_gdf(model), name="g")
        assert again == model

    def test_ldf_print_parse_identity(self):
        model = parse_gdf(SOKOBAN_GDF)
        grid = parse_ldf(SOKOBAN_LDF, model)
        assert parse_ldf(print_ldf(grid), model) == grid

    @given(st.lists(st.text(alphabet="w bhA", min_size=4, max_size=4),
                    min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_ldf_round_trip_fuzz(self, rows):
        model = parse_gdf(SOKOBAN_GDF)
        if all(not row.strip() for row in rows):
            # A grid of nothing but spaces is an empty level, not a round trip.
            with pytest.raises(RaggedGridError):
                parse_ldf("\n".join(rows), model)
            return
        grid = parse_ldf("\n".join(rows), model)
        assert parse_ldf(print_ldf(grid), model) == grid


class TestModelQueries:
    def test_descendants(self):
        model = parse_gdf(ALIENS_GDF)
        assert set(model.descendants("missile")) == {"missile", "bullet", "rock"}
        assert model.descendants("rock") == ("rock",)

    def test_avatar(self):
        assert parse_gdf(ALIENS_GDF).avatar().name == "player"
        assert parse_gdf(SOKOBAN_GDF).avatar().name == "avatar"

    def test_concrete_excludes_abstract(self):
        model = parse_gdf(ALIENS_GDF)
        assert "missile" not in {s.name for s in model.concrete_sprites()}
