"""Configuration-file emission and PDDL problem generation.

The configuration file records, per game element, which predicates an
instance contributes to a problem (gameElementsCorrespondence), the PDDL type
of each schema variable (variablesTypes) and the goal list.  `emit_config`
derives it from the compiled game; `config_to_text` writes it out (the CLI
saves it next to the PDDL) in a YAML-compatible indentation format that
`config_from_text` reads back:

    gameElementsCorrespondence:
      avatar:
      - (at ?x ?y ?avatar)
      wall:
      - (is-wall ?x ?y)
    variablesTypes:
      ?avatar: avatar
      ?x: num
      ?y: num
    goals:
    - goalPredicate: (forall (?o - box) (dead ?o))
      priority: 1

Problem generation translates a live simulator state (replanning path); a
level grid is first loaded as its turn-0 state with ``engine.load``, so one
loader decides which sprites a level places where, facing which way.  Object
naming is <sprite>_<x>_<y> from the cell at generation time; the single
avatar instance is always named ``avatar``.
Orientation, resource-counter, turn-counter, order (next), threshold (geq-*)
and edge facts are owned by the generator, not the correspondence table.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

import yaml

from .compiler import CompiledGame, blockers_for
from .engine import GameState, Instance, load
from .errors import GdfError, MultipleAvatarsError, NoAvatarError
from .pddl import (
    Atom,
    Formula,
    Problem,
    conj,
    format_formula,
    parse_fragment_formula,
)
from .vgdl import InteractionKind, LevelGrid, SpriteType

ORIENTATION_PRED = {"UP": "oriented-up", "DOWN": "oriented-down",
                    "LEFT": "oriented-left", "RIGHT": "oriented-right"}


@dataclass(frozen=True)
class ConfigGoal:
    goal_predicate: str
    priority: int = 1


@dataclass(frozen=True)
class ConfigFile:
    """The goal and the correspondence schemata are parsed on first use and
    kept: the monitor generates a problem from one configuration on every
    executed turn."""

    correspondence: tuple[tuple[str, tuple[str, ...]], ...]
    variables_types: tuple[tuple[str, str], ...]
    goals: tuple[ConfigGoal, ...]

    @cached_property
    def active_goal(self) -> Formula:
        # only priority-1 goals are planned for; the rest are recorded
        for g in self.goals:
            if g.priority == 1:
                return parse_fragment_formula(g.goal_predicate)
        raise GdfError("configuration lists no priority-1 goal")

    @cached_property
    def schema_atoms(self) -> tuple[tuple[str, tuple[Atom, ...]], ...]:
        """The correspondence with every schema parsed into an atom."""
        parsed = tuple((name, tuple(parse_fragment_formula(schema)
                                    for schema in schemata))
                       for name, schemata in self.correspondence)
        if not all(isinstance(f, Atom) for _, atoms in parsed for f in atoms):
            raise GdfError("a correspondence schema is not an atom")
        return parsed


# -- configuration emission ---------------------------------------------------------

def emit_config(game: CompiledGame) -> ConfigFile:
    entries: list[tuple[str, tuple[str, ...]]] = []
    variables: list[tuple[str, str]] = []
    for sprite in game.model.concrete_sprites():
        name = sprite.name
        if name in game.static_sprites:
            entries.append((name, (f"(is-{name} ?x ?y)",)))
        else:
            entries.append((name, (f"(at ?x ?y ?{name})",)))
            variables.append((f"?{name}", name))
    variables.append(("?x", "num"))
    variables.append(("?y", "num"))
    goal = ConfigGoal(format_formula(game.goal), priority=1)
    return ConfigFile(tuple(entries), tuple(variables), (goal,))


def config_to_text(config: ConfigFile) -> str:
    lines = ["gameElementsCorrespondence:"]
    for name, schemata in config.correspondence:
        lines.append(f"  {name}:")
        for schema in schemata:
            lines.append(f"  - {schema}")
    lines.append("variablesTypes:")
    for var, typ in config.variables_types:
        lines.append(f"  {var}: {typ}")
    lines.append("goals:")
    for goal in config.goals:
        lines.append(f"- goalPredicate: {goal.goal_predicate}")
        lines.append(f"  priority: {goal.priority}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ConfigFile:
    data = yaml.safe_load(text)
    correspondence = tuple(
        (name, tuple(schemata))
        for name, schemata in data["gameElementsCorrespondence"].items())
    variables = tuple(data["variablesTypes"].items())
    goals = tuple(ConfigGoal(g["goalPredicate"], int(g.get("priority", 1)))
                  for g in data["goals"])
    return ConfigFile(correspondence, variables, goals)


# -- problem generation ---------------------------------------------------------------

def num_count(game: CompiledGame, state: GameState) -> int:
    """Length of the n0 < n1 < ... chain: every coordinate, counter value
    and threshold the problem can reach, including a resource counter that
    collects every live instance on top of what is already held."""
    needed = [state.width, state.height]
    needed.extend(limit + 1 for _, limit in game.kiohm_limits)
    if game.timeout_limit is not None:
        needed.append(game.timeout_limit + 1)
    for name in game.resources:
        limit = game.model.sprite(name).params.get("limit")
        if limit is not None:
            needed.append(int(limit) + 1)
        needed.append(state.resources.get(name, 0) + state.count(name) + 1)
    return max(needed)


def generate_problem(source: Union[LevelGrid, GameState], game: CompiledGame,
                     config: Optional[ConfigFile] = None,
                     binding: Optional[dict[int, str]] = None,
                     pool: Optional[tuple[Iterable[str], Iterable[str]]] = None,
                     ) -> tuple[Problem, dict[int, str]]:
    """Translate a live game state, or a level grid, into a PDDL problem.

    A grid is loaded with ``engine.load`` and translated as that turn-0
    state.  Returns the problem and the instance-uid -> object-name binding
    used; for a grid, the uids are those of the loaded state.  Passing a
    previous binding keeps object names stable across replanning problems
    for the monitor's benefit.

    `pool` pins the projectile reserve to (names, consumed) from an earlier
    problem: the monitor must see the ammunition identities the running plan
    refers to, not a fresh recount.
    """
    config = config or emit_config(game)
    state = load(game.model, source) if isinstance(source, LevelGrid) \
        else source
    instances = state.live()
    width, height = state.width, state.height

    count = num_count(game, state)
    # A chain longer than the grid along a direction the avatar moves in lets
    # it plan into cells beyond the grid unless walls fence it (self-movers
    # carry edge guards).
    risky = any(count > (width if d in ("LEFT", "RIGHT") else height)
                for d in game.avatar_directions)
    if risky and not _fenced(game, instances, width, height):
        warnings.warn(
            f"num chain length {count} exceeds a grid dimension "
            f"({width}x{height}); fence the level with walls or the avatar "
            f"may plan into cells outside the grid", stacklevel=2)

    avatars = [i for i in instances if i.sprite == game.avatar.name]
    if not avatars:
        raise NoAvatarError("level contains no avatar instance")
    if len(avatars) > 1:
        raise MultipleAvatarsError(
            f"level contains {len(avatars)} avatar instances")

    binding = dict(binding) if binding else {}
    # a new instance may take the name of one that has died since
    used = {binding[i.uid] for i in instances if i.uid in binding}
    statics = set(game.static_sprites)
    names: list[tuple[str, Instance]] = []
    for inst in instances:
        if inst.sprite in statics:
            continue  # statics become is-<T> facts, never objects
        name = binding.get(inst.uid)
        if name is None:
            if inst.sprite == game.avatar.name:
                name = "avatar"
            else:
                name = f"{inst.sprite}_{inst.x}_{inst.y}"
                k = 2
                while name in used:
                    name = f"{inst.sprite}_{inst.x}_{inst.y}_{k}"
                    k += 1
            used.add(name)
            binding[inst.uid] = name
        names.append((name, inst))

    # objects: avatar, instances (alphabetical), ammo pool, nums
    objects: list[tuple[str, str]] = [("avatar", game.avatar.name)]
    non_avatar = sorted((n, i) for n, i in names if i.sprite != game.avatar.name)
    objects.extend((n, i.sprite) for n, i in non_avatar)
    ammo_names: list[str] = []
    consumed_ammo: set[str] = set()
    if game.projectile is not None:
        if pool is not None:
            ammo_names = list(pool[0])
            consumed_ammo = set(pool[1])
        else:
            size = _pool_size(game, instances)
            ammo_names = [f"{game.projectile}_ammo_{k}"
                          for k in range(1, size + 1)]
        objects.extend((n, game.projectile) for n in ammo_names)
    nums = [f"n{i}" for i in range(count)]
    objects.extend((n, "num") for n in nums)

    # init facts -----------------------------------------------------------
    init: list[Atom] = []
    by_sprite: dict[str, list[tuple[str, Instance]]] = {}
    for n, i in names:
        by_sprite.setdefault(i.sprite, []).append((n, i))
    for inst in instances:
        if inst.sprite in statics:
            by_sprite.setdefault(inst.sprite, []).append(("", inst))
    for sprite_name, formulas in config.schema_atoms:
        for obj_name, inst in by_sprite.get(sprite_name, []):
            for formula in formulas:
                args = tuple(
                    f"n{inst.x}" if a == "?x" else
                    f"n{inst.y}" if a == "?y" else
                    obj_name if a.startswith("?") else a
                    for a in formula.args)
                init.append(Atom(formula.predicate, args))
    for obj_name, inst in names:
        if inst.orientation and _wants_orientation(game, inst.sprite):
            init.append(Atom(ORIENTATION_PRED[inst.orientation], (obj_name,)))
    for ammo in ammo_names:
        if ammo in consumed_ammo:
            continue
        init.append(Atom("in-reserve", (ammo,)))
        orientation = game.model.sprite(game.projectile).params.get("orientation")
        if orientation:
            init.append(Atom(ORIENTATION_PRED[orientation.upper()], (ammo,)))
    for resource in game.resources:
        init.append(Atom(f"got-resource-{resource}",
                         (f"n{state.resources.get(resource, 0)}",)))
    if game.timeout_limit is not None:
        init.append(Atom("turn", (f"n{state.turn}",)))
    init.append(Atom("turn-avatar"))
    for i in range(count - 1):
        init.append(Atom("next", (f"n{i}", f"n{i + 1}")))
    for resource, limit in game.kiohm_limits:
        for i in range(limit, count):
            init.append(Atom(f"geq-{resource}-{limit}", (f"n{i}",)))
    edge = {"UP": 0, "DOWN": height - 1, "LEFT": 0, "RIGHT": width - 1}
    for direction in game.edge_directions:
        init.append(Atom(f"edge-{direction.lower()}",
                         (f"n{edge[direction]}",)))

    # plans must close their final turn (traces end on END-TURN-SPRITES), so
    # the objective only counts once the avatar phase reopens
    goal = conj(config.active_goal, Atom("turn-avatar"))
    name = game.model.name.capitalize()
    problem = Problem(
        name=f"{name}Problem",
        domain=f"{name}Domain",
        objects=tuple(objects),
        init=tuple(init),
        goal=goal,
    )
    return problem, binding


def _wants_orientation(game: CompiledGame, sprite: str) -> bool:
    s = game.model.sprite(sprite)
    return s.is_avatar or s.vgdl_type is SpriteType.MISSILE


def _fenced(game: CompiledGame, instances: list[Instance],
            width: int, height: int) -> bool:
    """True when avatar-blocking sprites occupy every border cell."""
    blockers = blockers_for(game.model, game.avatar.name, game.static_sprites)
    blocking_names = set(blockers.statics)
    for type_name in blockers.object_types:
        blocking_names.update(game.model.descendants(type_name))
    occupied = {(i.x, i.y) for i in instances if i.sprite in blocking_names}
    for x in range(width):
        if (x, 0) not in occupied or (x, height - 1) not in occupied:
            return False
    for y in range(height):
        if (0, y) not in occupied or (width - 1, y) not in occupied:
            return False
    return True


def _pool_size(game: CompiledGame, instances: list[Instance]) -> int:
    """Reserve as many projectiles as there are live targets they can kill."""
    targets = 0
    for inter in game.model.interactions:
        if inter.kind not in (InteractionKind.KILL_SPRITE,
                              InteractionKind.KILL_BOTH):
            continue
        if game.projectile not in game.model.descendants(inter.producer):
            continue
        receivers = set(game.model.descendants(inter.receiver))
        targets += sum(1 for i in instances if i.sprite in receivers)
    return targets
