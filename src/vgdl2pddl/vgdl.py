"""GDF/LDF parsing into a validated, inheritance-resolved game model.

A game description file (GDF) has four sections -- SpriteSet, LevelMapping,
InteractionSet, TerminationSet -- written as an indentation-sensitive tree:

    SpriteSet
        player   >  FlakAvatar   stype=bullet
        missile  >  Missile
            bullet  >  orientation=UP
            rock    >  orientation=DOWN

Sprite children inherit their parent's type and parameters unless overridden.
Both ``>`` and ``<`` are accepted as the name/definition separator (the
literature uses them interchangeably).  A level description file (LDF) is a
plain rectangular character grid; blank and ``.`` cells are empty.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import (
    DanglingReferenceError,
    IndentError,
    MissingSectionError,
    RaggedGridError,
    UnknownInteractionTypeError,
    UnknownSpriteTypeError,
    UnmappedCharacterError,
    GdfError,
)

SECTION_NAMES = ("SpriteSet", "LevelMapping", "InteractionSet", "TerminationSet")

TAB_SIZE = 4


class SpriteType(Enum):
    IMMOVABLE = "Immovable"
    PASSIVE = "Passive"
    RESOURCE = "Resource"
    MISSILE = "Missile"
    BOMBER = "Bomber"
    RANDOM_NPC = "RandomNPC"
    MOVING_AVATAR = "MovingAvatar"
    SHOOT_AVATAR = "ShootAvatar"
    FLAK_AVATAR = "FlakAvatar"


AVATAR_TYPES = frozenset(
    {SpriteType.MOVING_AVATAR, SpriteType.SHOOT_AVATAR, SpriteType.FLAK_AVATAR}
)

SPRITE_TYPE_BY_NAME = {t.value: t for t in SpriteType}


class InteractionKind(Enum):
    KILL_SPRITE = "killSprite"
    KILL_BOTH = "killBoth"
    KILL_IF_FROM_ABOVE = "killIfFromAbove"
    KILL_IF_OTHER_HAS_MORE = "killIfOtherHasMore"
    STEP_BACK = "stepBack"
    BOUNCE_FORWARD = "bounceForward"
    COLLECT_RESOURCE = "collectResource"


INTERACTION_KIND_BY_NAME = {k.value: k for k in InteractionKind}


class TerminationKind(Enum):
    SPRITE_COUNTER = "SpriteCounter"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class SpriteDef:
    """One sprite declaration with inherited parameters materialized."""

    name: str
    vgdl_type: SpriteType
    params: dict[str, str] = field(default_factory=dict)
    parent: Optional[str] = None
    children: tuple[str, ...] = ()

    @property
    def is_abstract(self) -> bool:
        return bool(self.children)

    @property
    def is_avatar(self) -> bool:
        return self.vgdl_type in AVATAR_TYPES


@dataclass(frozen=True)
class InteractionDef:
    """First-listed sprite receives the effects; second causes them."""

    receiver: str
    producer: str
    kind: InteractionKind
    params: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TerminationDef:
    kind: TerminationKind
    limit: int
    win: bool
    stype: Optional[str] = None


@dataclass(frozen=True)
class GameModel:
    """Resolved game: sprite tree, level mapping, interactions, terminations."""

    name: str
    sprites: tuple[SpriteDef, ...]  # declaration order, parents before children
    level_mapping: dict[str, tuple[str, ...]]
    interactions: tuple[InteractionDef, ...]
    terminations: tuple[TerminationDef, ...]

    def sprite(self, name: str) -> SpriteDef:
        for s in self.sprites:
            if s.name == name:
                return s
        raise KeyError(name)

    def has_sprite(self, name: str) -> bool:
        return any(s.name == name for s in self.sprites)

    def descendants(self, name: str) -> tuple[str, ...]:
        """name plus all sprites below it in the tree, declaration order."""
        out = []
        for s in self.sprites:
            cur = s
            while cur is not None:
                if cur.name == name:
                    out.append(s.name)
                    break
                cur = self.sprite(cur.parent) if cur.parent else None
        return tuple(out)

    def concrete_sprites(self) -> tuple[SpriteDef, ...]:
        """Instantiable sprites, i.e. those without children."""
        return tuple(s for s in self.sprites if not s.is_abstract)

    def avatar(self) -> SpriteDef:
        for s in self.sprites:
            if s.is_avatar and not s.is_abstract:
                return s
        raise KeyError("no avatar sprite")


@dataclass(frozen=True)
class LevelGrid:
    """Rectangular grid of cell characters; x is the column, y the row."""

    width: int
    height: int
    cells: tuple[str, ...]  # rows, each of length width

    def positions(self):
        for y in range(self.height):
            for x in range(self.width):
                yield x, y, self.cells[y][x]


# -- indentation tree ---------------------------------------------------------

@dataclass
class _Node:
    text: str
    line: int
    indent: int
    children: list["_Node"] = field(default_factory=list)


def _parse_indent_tree(text: str) -> list[_Node]:
    """Parse indented lines into a forest. Raises IndentError on bad nesting."""
    roots: list[_Node] = []
    # stack of open nodes; indents strictly increase downwards
    stack: list[_Node] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.expandtabs(TAB_SIZE)
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        node = _Node(line.strip(), lineno, indent)
        while stack and stack[-1].indent >= indent:
            stack.pop()
        if not stack:
            roots.append(node)
        else:
            parent = stack[-1]
            if parent.children and parent.children[0].indent != indent:
                # siblings must share the indent of the first child
                raise IndentError(
                    f"inconsistent indentation "
                    f"(expected column {parent.children[0].indent})",
                    line=lineno,
                )
            parent.children.append(node)
        stack.append(node)
    if roots:
        base = roots[0].indent
        for r in roots:
            if r.indent != base:
                raise IndentError("inconsistent top-level indentation", line=r.line)
    return roots


def _split_def(text: str, line: int) -> tuple[str, str]:
    """Split 'lhs > rhs' (or 'lhs < rhs') into the two halves."""
    for sep in (">", "<"):
        if sep in text:
            lhs, rhs = text.split(sep, 1)
            return lhs.strip(), rhs.strip()
    raise GdfError(f"expected '>' in definition: {text!r}", line=line)


def _parse_kv(tokens: list[str], line: int) -> tuple[Optional[str], dict[str, str]]:
    """Parse 'Name key=value ...'; the name token is optional."""
    name = None
    params: dict[str, str] = {}
    for i, tok in enumerate(tokens):
        if "=" in tok:
            key, value = tok.split("=", 1)
            if not key or not value:
                raise GdfError(f"malformed parameter {tok!r}", line=line)
            params[key] = value
        elif i == 0:
            name = tok
        else:
            raise GdfError(f"unexpected token {tok!r}", line=line)
    return name, params


# -- section parsers ----------------------------------------------------------

def _parse_sprites(nodes: list[_Node], parent: Optional[SpriteDef],
                   out: list[SpriteDef]) -> None:
    for node in nodes:
        name, rhs = _split_def(node.text, node.line)
        if not name.isidentifier():
            raise GdfError(f"bad sprite name {name!r}", line=node.line)
        type_name, params = _parse_kv(rhs.split(), node.line)
        if type_name is None:
            if parent is None:
                raise UnknownSpriteTypeError(
                    f"sprite {name!r} has no type and no parent", line=node.line
                )
            vgdl_type = parent.vgdl_type
        else:
            if type_name not in SPRITE_TYPE_BY_NAME:
                raise UnknownSpriteTypeError(
                    f"unsupported sprite type {type_name!r}", line=node.line
                )
            vgdl_type = SPRITE_TYPE_BY_NAME[type_name]
        merged = dict(parent.params) if parent is not None else {}
        merged.update(params)
        if vgdl_type is SpriteType.RESOURCE and "limit" in merged:
            # canonical text: the problem generator sizes the counter by it
            merged["limit"] = str(_parse_limit(merged, "Resource", node.line))
        if vgdl_type is SpriteType.BOMBER and "prob" in merged:
            _check_prob(merged["prob"], node.line)
        sprite = SpriteDef(
            name=name,
            vgdl_type=vgdl_type,
            params=merged,
            parent=parent.name if parent is not None else None,
            children=tuple(),
        )
        if any(s.name == name for s in out):
            raise GdfError(f"duplicate sprite name {name!r}", line=node.line)
        idx = len(out)
        out.append(sprite)
        if node.children:
            _parse_sprites(node.children, sprite, out)
            kids = tuple(s.name for s in out if s.parent == name)
            out[idx] = SpriteDef(name=sprite.name, vgdl_type=sprite.vgdl_type,
                                 params=sprite.params, parent=sprite.parent,
                                 children=kids)


def _parse_mapping(nodes: list[_Node]) -> dict[str, tuple[str, ...]]:
    mapping: dict[str, tuple[str, ...]] = {}
    for node in nodes:
        char, rhs = _split_def(node.text, node.line)
        if len(char) != 1:
            raise GdfError(f"level-mapping key must be one character, got {char!r}",
                           line=node.line)
        names = tuple(rhs.split())
        if not names:
            raise GdfError(f"level-mapping for {char!r} maps to nothing",
                           line=node.line)
        mapping[char] = names
    return mapping


def _parse_interactions(nodes: list[_Node]) -> list[tuple[InteractionDef, int]]:
    out: list[tuple[InteractionDef, int]] = []
    for node in nodes:
        pair, rhs = _split_def(node.text, node.line)
        sprites = pair.split()
        if len(sprites) != 2:
            raise GdfError(f"interaction needs two sprites, got {pair!r}",
                           line=node.line)
        kind_name, params = _parse_kv(rhs.split(), node.line)
        if kind_name is None or kind_name not in INTERACTION_KIND_BY_NAME:
            raise UnknownInteractionTypeError(
                f"unsupported interaction {kind_name!r}", line=node.line
            )
        kind = INTERACTION_KIND_BY_NAME[kind_name]
        receiver, producer = sprites
        if receiver == producer:
            raise GdfError(
                f"interaction receiver and producer must differ ({receiver!r})",
                line=node.line,
            )
        if kind is InteractionKind.KILL_IF_OTHER_HAS_MORE:
            for req in ("resource", "limit"):
                if req not in params:
                    raise GdfError(
                        f"killIfOtherHasMore requires {req}=", line=node.line
                    )
            # canonical text: the domain's geq-<R>-<L> names it, the
            # problem generator prints the int
            params["limit"] = str(
                _parse_limit(params, "killIfOtherHasMore", node.line))
        out.append((InteractionDef(receiver, producer, kind, params), node.line))
    return out


def _parse_limit(params: dict[str, str], owner: str, line: int) -> int:
    """A ``limit=`` parameter (default 0): a nonnegative integer."""
    try:
        limit = int(params.get("limit", "0"))
    except ValueError:
        raise GdfError(f"bad limit {params['limit']!r}", line=line)
    if limit < 0:
        raise GdfError(f"{owner} limit must be nonnegative", line=line)
    return limit


def _check_prob(text: str, line: int) -> None:
    """A Bomber's ``prob=`` parameter: a number in [0, 1]."""
    try:
        prob = float(text)
    except ValueError:
        prob = None
    if prob is None or not 0 <= prob <= 1:
        raise GdfError(f"Bomber prob must be a number in [0, 1], got {text!r}",
                       line=line)


def _parse_terminations(nodes: list[_Node]) -> list[TerminationDef]:
    out = []
    for node in nodes:
        kind_name, params = _parse_kv(node.text.split(), node.line)
        win_str = params.get("win")
        if win_str not in ("True", "False"):
            raise GdfError("termination needs win=True or win=False", line=node.line)
        win = win_str == "True"
        limit = _parse_limit(params, "termination", node.line)
        if kind_name == "SpriteCounter":
            if "stype" not in params:
                raise GdfError("SpriteCounter needs stype=", line=node.line)
            out.append(TerminationDef(TerminationKind.SPRITE_COUNTER,
                                      limit, win, params["stype"]))
        elif kind_name == "Timeout":
            if "stype" in params:
                raise GdfError("Timeout takes no stype", line=node.line)
            out.append(TerminationDef(TerminationKind.TIMEOUT, limit, win, None))
        else:
            raise GdfError(f"unsupported termination {kind_name!r}", line=node.line)
    return out


# -- validation ---------------------------------------------------------------

def _validate(model: GameModel) -> None:
    names = {s.name for s in model.sprites}
    # avatar stypes must resolve now; the compiler needs the projectile type.
    # Bomber stypes are checked lazily (engine/compiler) because the Fig. 1
    # style of GDF leaves them symbolic.
    for s in model.sprites:
        stype = s.params.get("stype")
        if stype and s.is_avatar and stype not in names:
            raise DanglingReferenceError(
                f"sprite {s.name!r}: stype {stype!r} is not declared"
            )
    for char, targets in model.level_mapping.items():
        for t in targets:
            if t not in names:
                raise DanglingReferenceError(
                    f"level-mapping {char!r}: sprite {t!r} is not declared"
                )
    for i in model.interactions:
        for endpoint in (i.receiver, i.producer):
            if endpoint not in names:
                raise DanglingReferenceError(
                    f"interaction references undeclared sprite {endpoint!r}"
                )
        res = i.params.get("resource")
        if res is not None and res not in names:
            raise DanglingReferenceError(
                f"interaction resource {res!r} is not declared"
            )
    for t in model.terminations:
        if t.stype is not None and t.stype not in names:
            raise DanglingReferenceError(
                f"termination stype {t.stype!r} is not declared"
            )
    if not any(s.is_avatar and not s.is_abstract for s in model.sprites):
        raise GdfError("game declares no avatar sprite")
    if not any(t.win for t in model.terminations):
        raise GdfError("game declares no winning termination")


def _check_resources(model: GameModel, interactions) -> None:
    """collectResource's receivers and killIfOtherHasMore's resource= must
    be Resources, whose counters the domain declares; `interactions` are
    (interaction, line) pairs."""
    resources = {s.name for s in model.concrete_sprites()
                 if s.vgdl_type is SpriteType.RESOURCE}
    for inter, line in interactions:
        if inter.kind is InteractionKind.COLLECT_RESOURCE:
            named = [n for n in model.descendants(inter.receiver)
                     if not model.sprite(n).is_abstract]
        elif inter.kind is InteractionKind.KILL_IF_OTHER_HAS_MORE:
            named = [inter.params["resource"]]
        else:
            continue
        for sprite in named:
            if sprite not in resources:
                raise GdfError(f"{inter.kind.value}: {sprite!r} is not a "
                               "Resource", line=line)


def parse_gdf(text: str, name: str = "game") -> GameModel:
    """Parse GDF source into a GameModel. Section order is irrelevant."""
    if not text.strip():
        raise MissingSectionError("empty game description")
    roots = _parse_indent_tree(text)
    # Tolerate a single BasicGame-style wrapper node above the sections.
    if len(roots) == 1 and roots[0].text.split()[0] not in SECTION_NAMES:
        roots = roots[0].children
    sections: dict[str, _Node] = {}
    for node in roots:
        header = node.text.split()[0]
        if header not in SECTION_NAMES:
            raise GdfError(f"unknown section {header!r}", line=node.line)
        if header in sections:
            raise GdfError(f"duplicate section {header!r}", line=node.line)
        sections[header] = node
    for required in SECTION_NAMES:
        if required not in sections:
            raise MissingSectionError(f"missing section {required}")

    sprites: list[SpriteDef] = []
    _parse_sprites(sections["SpriteSet"].children, None, sprites)
    mapping = _parse_mapping(sections["LevelMapping"].children)
    raw_interactions = _parse_interactions(sections["InteractionSet"].children)
    terminations = _parse_terminations(sections["TerminationSet"].children)

    # Same (receiver, producer, kind) declared twice: last wins, with a warning.
    deduped: dict[tuple[str, str, InteractionKind],
                  tuple[InteractionDef, int]] = {}
    for inter, line in raw_interactions:
        key = (inter.receiver, inter.producer, inter.kind)
        if key in deduped:
            import warnings

            warnings.warn(
                f"line {line}: interaction {inter.receiver} {inter.producer} "
                f"{inter.kind.value} declared twice; last declaration wins",
                stacklevel=3,
            )
        deduped[key] = (inter, line)

    model = GameModel(
        name=name,
        sprites=tuple(sprites),
        level_mapping=mapping,
        interactions=tuple(inter for inter, _ in deduped.values()),
        terminations=tuple(terminations),
    )
    _validate(model)
    _check_resources(model, deduped.values())
    return model


def parse_ldf(text: str, model: GameModel) -> LevelGrid:
    """Parse an LDF grid; every non-blank character must be mapped.

    Only zero-length trailing lines (the final newline) are dropped; a row of
    spaces is real content in a rectangular grid.
    """
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or all(not line.strip() for line in lines):
        raise RaggedGridError("empty level")
    width = len(lines[0])
    for i, line in enumerate(lines):
        if len(line) != width:
            raise RaggedGridError(
                f"row {i} has length {len(line)}, expected {width}", line=i + 1
            )
    for y, line in enumerate(lines):
        for x, char in enumerate(line):
            if char in (" ", "."):
                continue
            if char not in model.level_mapping:
                raise UnmappedCharacterError(
                    f"character {char!r} at ({x}, {y}) has no level mapping"
                )
    return LevelGrid(width=width, height=len(lines), cells=tuple(lines))


# -- pretty printers ----------------------------------------------------------

def print_gdf(model: GameModel) -> str:
    """Render a GameModel back to GDF text; parse(print(m)) == m structurally."""
    lines = ["SpriteSet"]

    def emit_sprite(s: SpriteDef, depth: int) -> None:
        params = " ".join(f"{k}={v}" for k, v in sorted(s.params.items()))
        decl = f"{s.name} > {s.vgdl_type.value}"
        if params:
            decl += f" {params}"
        lines.append("    " * depth + decl)
        for child in s.children:
            emit_sprite(model.sprite(child), depth + 1)

    for s in model.sprites:
        if s.parent is None:
            emit_sprite(s, 1)
    lines.append("LevelMapping")
    for char, targets in model.level_mapping.items():
        lines.append(f"    {char} > {' '.join(targets)}")
    lines.append("InteractionSet")
    for i in model.interactions:
        params = " ".join(f"{k}={v}" for k, v in sorted(i.params.items()))
        line = f"    {i.receiver} {i.producer} > {i.kind.value}"
        if params:
            line += f" {params}"
        lines.append(line)
    lines.append("TerminationSet")
    for t in model.terminations:
        parts = [t.kind.value]
        if t.stype is not None:
            parts.append(f"stype={t.stype}")
        parts.append(f"limit={t.limit}")
        parts.append(f"win={t.win}")
        lines.append("    " + " ".join(parts))
    return "\n".join(lines) + "\n"


def print_ldf(grid: LevelGrid) -> str:
    return "\n".join(grid.cells) + "\n"
