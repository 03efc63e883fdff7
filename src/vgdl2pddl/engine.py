"""Turn-synchronous VGDL simulator with the compiled domains' phase order.

Each step runs: (1) the avatar action, (2) interaction resolution to a fixed
point, (3) one update per self-moving instance, type by type in declaration
order, (4) termination checks.  The event list mirrors the plan traces: '+'
marks the avatar action, '-' fired interactions, '#' sprite updates.

Simultaneity is resolved deterministically: the interaction list is scanned
in declaration order and instance pairs in row-major cell order, repeating
until no rule fires.  Stochastic NPCs (bombers, random walkers) draw from
named, seeded random streams, so a fixed seed gives identical trajectories.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import CellConflictError, DanglingReferenceError, IllegalActionError
from .vgdl import (
    GameModel,
    InteractionKind,
    LevelGrid,
    SpriteType,
    TerminationKind,
)

DIR_DELTAS = {"UP": (0, -1), "DOWN": (0, 1), "LEFT": (-1, 0), "RIGHT": (1, 0)}

DEFAULT_AVATAR_ORIENTATION = "DOWN"
DEFAULT_BOMBER_ORIENTATION = "DOWN"
DEFAULT_BOMBER_PROB = 0.5


class AvatarAction(Enum):
    UP = "Up"
    DOWN = "Down"
    LEFT = "Left"
    RIGHT = "Right"
    USE = "Use"
    NIL = "Nil"


MOVE_ACTIONS = {AvatarAction.UP: "UP", AvatarAction.DOWN: "DOWN",
                AvatarAction.LEFT: "LEFT", AvatarAction.RIGHT: "RIGHT"}


class GameStatus(Enum):
    ONGOING = "Ongoing"
    WIN = "Win"
    LOSE = "Lose"


@dataclass
class Instance:
    uid: int
    sprite: str
    x: int
    y: int
    orientation: Optional[str]
    alive: bool = True


@dataclass(frozen=True)
class Event:
    marker: str  # '+' avatar, '-' interaction, '#' sprite update
    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.marker} {self.name}({', '.join(self.args)})"


class GameState:
    """Mutable world state for one episode."""

    def __init__(self, model: GameModel, width: int, height: int, seed: int = 0):
        self.model = model
        self.width = width
        self.height = height
        self.instances: dict[int, Instance] = {}
        self.resources: dict[str, int] = {
            s.name: 0 for s in model.concrete_sprites()
            if s.vgdl_type is SpriteType.RESOURCE}
        self.turn = 0
        self.status = GameStatus.ONGOING
        self.seed = seed
        self._uid = 0
        # built on first use: loading a level for problem generation reads
        # neither
        self._streams: dict[str, random.Random] = {}
        self._blockers: dict[str, frozenset[str]] = {}

    # -- bookkeeping -----------------------------------------------------

    def spawn(self, sprite: str, x: int, y: int,
              orientation: Optional[str]) -> Instance:
        self._uid += 1
        inst = Instance(self._uid, sprite, x, y, orientation)
        self.instances[inst.uid] = inst
        return inst

    def live(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.alive]

    def live_at(self, x: int, y: int) -> list[Instance]:
        return sorted((i for i in self.instances.values()
                       if i.alive and i.x == x and i.y == y),
                      key=lambda i: i.uid)

    def live_of(self, sprite: str) -> list[Instance]:
        names = set(self.model.descendants(sprite))
        return sorted((i for i in self.instances.values()
                       if i.alive and i.sprite in names),
                      key=lambda i: (i.y, i.x, i.uid))

    def count(self, sprite: str) -> int:
        return len(self.live_of(sprite))

    def avatar(self) -> Optional[Instance]:
        live = self.live_of(self.model.avatar().name)
        return live[0] if live else None

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def blocked(self, sprite: str, x: int, y: int) -> bool:
        if not self.in_bounds(x, y):
            return True
        blockers = self._blockers.get(sprite)
        if blockers is None:
            blockers = self._blockers[sprite] = _blocker_names(self.model,
                                                               sprite)
        return any(i.sprite in blockers for i in self.live_at(x, y))

    def stream(self, name: str) -> random.Random:
        """The named random stream, seeded with the episode seed."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = random.Random(f"{self.seed}:{name}")
        return rng

    def fingerprint(self) -> tuple:
        placed = tuple(sorted((i.sprite, i.x, i.y, i.orientation)
                              for i in self.live()))
        return (placed, tuple(sorted(self.resources.items())), self.turn,
                self.status.value)


def _blocker_names(model: GameModel, sprite: str) -> frozenset[str]:
    if model.sprite(sprite).is_abstract:
        return frozenset()  # an instance of an abstract stype blocks on nothing
    names: set[str] = set()
    for i in model.interactions:
        if i.kind is InteractionKind.STEP_BACK \
                and sprite in model.descendants(i.receiver):
            names.update(p for p in model.descendants(i.producer)
                         if not model.sprite(p).is_abstract)
    return frozenset(names)


# -- loading ------------------------------------------------------------------------

def load(model: GameModel, grid: LevelGrid, seed: int = 0) -> GameState:
    """A level's turn-0 state: one instance per sprite each cell's character
    maps to, in row-major order.  The only reader of a level's cells; the
    problem generator and `bench.static_reduction` go through it."""
    state = GameState(model, grid.width, grid.height, seed=seed)
    for x, y, char in grid.positions():
        if char in (" ", "."):
            continue
        for name in model.level_mapping[char]:
            sprite = model.sprite(name)
            if sprite.is_abstract:
                raise DanglingReferenceError(
                    f"level instantiates abstract sprite {name!r}")
            orientation = sprite.params.get("orientation")
            if orientation is not None:
                orientation = orientation.upper()
            elif sprite.is_avatar:
                orientation = DEFAULT_AVATAR_ORIENTATION
            elif sprite.vgdl_type is SpriteType.BOMBER:
                orientation = DEFAULT_BOMBER_ORIENTATION
            state.spawn(name, x, y, orientation)
    return state


# -- stepping -----------------------------------------------------------------------

def step(state: GameState, action: AvatarAction) -> list[Event]:
    """Advance one turn; mutates the state and returns the phase events."""
    if state.status is not GameStatus.ONGOING:
        raise IllegalActionError(f"game is over ({state.status.value})")
    events: list[Event] = []
    avatar = state.avatar()
    moved_from: Optional[tuple[int, int]] = None
    if avatar is not None:
        moved_from = _avatar_phase(state, avatar, action, events)
    _interaction_phase(state, events, avatar, moved_from)
    _sprite_phase(state, events)
    _termination_phase(state)
    return events


def _legal_actions(model: GameModel) -> set[AvatarAction]:
    avatar_type = model.avatar().vgdl_type
    if avatar_type is SpriteType.FLAK_AVATAR:
        return {AvatarAction.LEFT, AvatarAction.RIGHT, AvatarAction.USE,
                AvatarAction.NIL}
    if avatar_type is SpriteType.SHOOT_AVATAR:
        return set(AvatarAction)
    return set(AvatarAction) - {AvatarAction.USE}


def _avatar_phase(state: GameState, avatar: Instance, action: AvatarAction,
                  events: list[Event]) -> Optional[tuple[int, int]]:
    if action not in _legal_actions(state.model):
        raise IllegalActionError(
            f"{state.model.avatar().vgdl_type.value} cannot do {action.value}")
    if action is AvatarAction.NIL:
        events.append(Event("+", "AVATAR_ACTION_NIL", (avatar.sprite,)))
        return None
    if action in MOVE_ACTIONS:
        direction = MOVE_ACTIONS[action]
        dx, dy = DIR_DELTAS[direction]
        avatar.orientation = direction
        nx, ny = avatar.x + dx, avatar.y + dy
        if state.blocked(avatar.sprite, nx, ny):
            # stepBack: the move is cancelled, the facing persists
            return None
        events.append(Event("+", f"AVATAR_ACTION_MOVE_{direction}",
                            (avatar.sprite, str(nx), str(ny))))
        before = (avatar.x, avatar.y)
        avatar.x, avatar.y = nx, ny
        return before
    # USE: spawn a projectile in the firing cell
    sprite = state.model.avatar()
    stype = sprite.params.get("stype")
    if stype is None or not state.model.has_sprite(stype):
        raise DanglingReferenceError(
            f"avatar projectile stype {stype!r} is not declared")
    if sprite.vgdl_type is SpriteType.FLAK_AVATAR:
        direction = "UP"
    else:
        direction = avatar.orientation or DEFAULT_AVATAR_ORIENTATION
    dx, dy = DIR_DELTAS[direction]
    nx, ny = avatar.x + dx, avatar.y + dy
    suffix = "" if sprite.vgdl_type is SpriteType.FLAK_AVATAR else f"_{direction}"
    events.append(Event("+", f"AVATAR_ACTION_USE{suffix}",
                        (avatar.sprite, str(nx), str(ny))))
    if state.in_bounds(nx, ny):
        proj = state.model.sprite(stype)
        orientation = proj.params.get("orientation")
        orientation = orientation.upper() if orientation else direction
        state.spawn(stype, nx, ny, orientation)
    return None


_MAX_INTERACTION_PASSES = 100


def _interaction_phase(state: GameState, events: list[Event],
                       avatar: Optional[Instance],
                       avatar_moved_from: Optional[tuple[int, int]]) -> None:
    for _ in range(_MAX_INTERACTION_PASSES):
        fired = False
        for inter in state.model.interactions:
            if inter.kind is InteractionKind.STEP_BACK:
                continue
            for receiver in state.live_of(inter.receiver):
                if not receiver.alive:
                    continue
                producer = _find_producer(state, inter, receiver)
                if producer is None:
                    continue
                if _apply_interaction(state, inter, receiver, producer,
                                      events, avatar, avatar_moved_from):
                    fired = True
        if not fired:
            return
    raise IllegalActionError("interaction resolution did not reach a fixed point")


def _find_producer(state: GameState, inter, receiver: Instance
                   ) -> Optional[Instance]:
    if inter.kind is InteractionKind.KILL_IF_FROM_ABOVE:
        for cand in state.live_of(inter.producer):
            if (cand.uid != receiver.uid and cand.x == receiver.x
                    and cand.y == receiver.y - 1 and cand.orientation == "DOWN"):
                return cand
        return None
    for cand in state.live_at(receiver.x, receiver.y):
        if cand.uid == receiver.uid:
            continue
        if cand.sprite in state.model.descendants(inter.producer):
            return cand
    return None


def _kill(state: GameState, inst: Instance) -> None:
    inst.alive = False


def _apply_interaction(state: GameState, inter, receiver: Instance,
                       producer: Instance, events: list[Event],
                       avatar: Optional[Instance],
                       avatar_moved_from: Optional[tuple[int, int]]) -> bool:
    name = f"{inter.receiver}_{inter.producer}_{inter.kind.value}".upper()
    kind = inter.kind
    if kind is InteractionKind.KILL_SPRITE:
        _kill(state, receiver)
        events.append(Event("-", name, (receiver.sprite, producer.sprite)))
        return True
    if kind is InteractionKind.KILL_BOTH:
        _kill(state, receiver)
        _kill(state, producer)
        events.append(Event("-", name, (receiver.sprite, producer.sprite)))
        return True
    if kind is InteractionKind.KILL_IF_FROM_ABOVE:
        _kill(state, receiver)
        events.append(Event("-", name, (receiver.sprite, producer.sprite)))
        return True
    if kind is InteractionKind.COLLECT_RESOURCE:
        _kill(state, receiver)
        state.resources[receiver.sprite] = \
            state.resources.get(receiver.sprite, 0) + 1
        events.append(Event("-", name, (receiver.sprite, producer.sprite)))
        return True
    if kind is InteractionKind.KILL_IF_OTHER_HAS_MORE:
        resource = inter.params["resource"]
        limit = int(inter.params["limit"])
        if state.resources.get(resource, 0) >= limit:
            _kill(state, receiver)
            events.append(Event("-", name, (receiver.sprite, producer.sprite)))
            return True
        return False
    if kind is InteractionKind.BOUNCE_FORWARD:
        direction = producer.orientation or DEFAULT_AVATAR_ORIENTATION
        dx, dy = DIR_DELTAS[direction]
        nx, ny = receiver.x + dx, receiver.y + dy
        if state.blocked(receiver.sprite, nx, ny):
            # failed push: revert the avatar's own move (undo-style), the
            # planner never enters this state
            if (producer is avatar and avatar_moved_from is not None):
                producer.x, producer.y = avatar_moved_from
                return True
            return False
        receiver.x, receiver.y = nx, ny
        events.append(Event("-", f"{name}_{direction}",
                            (receiver.sprite, producer.sprite)))
        return True
    return False


def _sprite_phase(state: GameState, events: list[Event]) -> None:
    for sprite in state.model.concrete_sprites():
        if sprite.vgdl_type is SpriteType.MISSILE:
            for inst in state.live_of(sprite.name):
                _move_missile(state, inst, events)
        elif sprite.vgdl_type is SpriteType.BOMBER:
            for inst in state.live_of(sprite.name):
                _bomber_shoot(state, inst, events)
        elif sprite.vgdl_type is SpriteType.RANDOM_NPC:
            for inst in state.live_of(sprite.name):
                _npc_walk(state, inst, events)


def _move_missile(state: GameState, inst: Instance, events: list[Event]) -> None:
    direction = inst.orientation or "DOWN"
    dx, dy = DIR_DELTAS[direction]
    nx, ny = inst.x + dx, inst.y + dy
    upper = inst.sprite.upper()
    if not state.in_bounds(nx, ny):
        _kill(state, inst)
        events.append(Event("#", f"{upper}_EXIT_{direction}", (inst.sprite,)))
        return
    if state.blocked(inst.sprite, nx, ny):
        events.append(Event("#", f"{upper}_MOVE_STOP", (inst.sprite,)))
        return
    inst.x, inst.y = nx, ny
    events.append(Event("#", f"{upper}_MOVE_{direction}", (inst.sprite,)))


def _bomber_shoot(state: GameState, inst: Instance, events: list[Event]) -> None:
    sprite = state.model.sprite(inst.sprite)
    prob = float(sprite.params.get("prob", DEFAULT_BOMBER_PROB))
    if state.stream("bomber").random() >= prob:
        return
    stype = sprite.params.get("stype")
    if stype is None or not state.model.has_sprite(stype):
        raise DanglingReferenceError(
            f"bomber {inst.sprite!r} projectile stype {stype!r} is not declared")
    direction = inst.orientation or DEFAULT_BOMBER_ORIENTATION
    dx, dy = DIR_DELTAS[direction]
    nx, ny = inst.x + dx, inst.y + dy
    if not state.in_bounds(nx, ny):
        return
    proj = state.model.sprite(stype)
    orientation = proj.params.get("orientation")
    state.spawn(stype, nx, ny, orientation.upper() if orientation else direction)
    events.append(Event("#", f"{inst.sprite.upper()}_SHOOT", (stype,)))


def _npc_walk(state: GameState, inst: Instance, events: list[Event]) -> None:
    direction = state.stream("npc").choice(("UP", "DOWN", "LEFT", "RIGHT"))
    inst.orientation = direction
    dx, dy = DIR_DELTAS[direction]
    nx, ny = inst.x + dx, inst.y + dy
    if state.blocked(inst.sprite, nx, ny):
        return
    inst.x, inst.y = nx, ny
    events.append(Event("#", f"{inst.sprite.upper()}_MOVE_{direction}",
                        (inst.sprite,)))


def _termination_phase(state: GameState) -> None:
    new_turn = state.turn + 1
    for t in state.model.terminations:
        if t.kind is TerminationKind.SPRITE_COUNTER:
            if state.count(t.stype) <= t.limit:
                state.status = GameStatus.WIN if t.win else GameStatus.LOSE
                break
        elif t.kind is TerminationKind.TIMEOUT:
            if new_turn >= t.limit:
                state.status = GameStatus.WIN if t.win else GameStatus.LOSE
                break
    state.turn = new_turn


# -- LDF projection -----------------------------------------------------------------

def _project(state: GameState, uncovered: Optional[str]) -> list[str]:
    """Project the live instances onto character rows.  A cell whose sprites
    no level-mapping character covers becomes `uncovered`, or raises
    CellConflictError when that is None."""
    by_cell: dict[tuple[int, int], list[str]] = {}
    for inst in state.live():
        by_cell.setdefault((inst.x, inst.y), []).append(inst.sprite)
    rows = []
    for y in range(state.height):
        row = []
        for x in range(state.width):
            sprites = sorted(by_cell.get((x, y), []))
            char = _char_for(state.model, sprites) if sprites else " "
            if char is None:
                if uncovered is None:
                    raise CellConflictError(f"no level-mapping character "
                                            f"covers {sprites} at ({x}, {y})")
                char = uncovered
            row.append(char)
        rows.append("".join(row))
    return rows


def _char_for(model: GameModel, sprites: list[str]) -> Optional[str]:
    for char, targets in model.level_mapping.items():
        if sorted(targets) == sprites:
            return char
    return None


def to_ldf(state: GameState) -> LevelGrid:
    """Project the live instances back onto a character grid."""
    return LevelGrid(state.width, state.height, tuple(_project(state, None)))


def render_ascii(state: GameState) -> str:
    """Grid snapshot for --render ascii; overlapping cells show '?'."""
    return "\n".join(_project(state, "?"))
