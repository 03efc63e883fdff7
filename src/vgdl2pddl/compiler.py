"""Assemble a full PDDL 1.2 domain from a game model and the template base.

The compiled domain has the fixed turn skeleton: the avatar acts, collisions
resolve until END-TURN-INTERACTIONS certifies none is left, each self-moving
sprite type updates in its own sub-phase closed by STOP_<T>_MOVE, and
END-TURN-SPRITES re-opens the avatar phase (advancing the turn counter in
timeout games).

Templates hold every action whole, the turn core's included; the compiler
computes the text of their holes from the game, drops an element action whose
precondition holds the empty disjunction (or), and builds or edits no action
itself.  Compilation decisions that fall outside templates:
  * an Immovable sprite becomes a static (is-<T> ?x ?y) predicate instead of
    an object type when nothing ever affects it: it is never an interaction
    receiver, produces only stepBack, and no termination counts it;
  * stepBack interactions emit no action at all; they fill the <FREE> hole
    (destination not blocked) of every template that moves the receiver, and
    a self-mover's <BLOCKED> hole, which guards <T>_MOVE_STOP (stay in place)
    so the STOP closer's all-moved check stays satisfiable; a mover nothing
    blocks gets (or) there, so it has no stay; at the grid edge it exits and
    dies, mirroring the simulator;
  * each STOP_<T>_MOVE's <NEXT_PHASE> hole opens the next mover's phase,
    END-TURN-INTERACTIONS's <FIRST_PHASE> the first one's, and
    END-TURN-SPRITES's <MOVERS_DONE> and <RESET> close them all;
  * END-TURN-INTERACTIONS's <GUARDS> hold each interaction action's guard
    "no binding applies", derived from its template; bounceForward's guard
    instead bans any overlap, so a failed push is a dead end (the simulator
    reverts it); <TICK_PARAMS>, <TICK> and <TICK_EFFECT> hold the tick;
  * avatar projectiles are pooled: problems carry reserve objects that a USE
    action places on the grid, and the projectile's <POOL> hole counts them
    as moved;
  * an avatar class template holds only what the class adds to MovingAvatar
    (a ShootAvatar's or FlakAvatar's USE): the avatar's actions are
    MovingAvatar's moves, the class's own actions, then MovingAvatar's NIL;
  * directional templates are written once per construct; the compiler picks
    the directions the KB instantiates them for: a missile's orientation, all
    four for a ShootAvatar projectile (each USE re-orients it), the avatar
    class template's ``directions:`` header for MovingAvatar's moves, and the
    template's own header otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DuplicateActionNameError, GdfError, UnsupportedGoalError
from .kb import DIRECTIONS, KnowledgeBase, TemplateSet
from .pddl import (
    Action,
    And,
    Atom,
    Domain,
    Forall,
    Formula,
    Not,
    Or,
    Predicate,
    conj,
    format_formula,
)
from .vgdl import (
    GameModel,
    InteractionKind,
    SpriteDef,
    SpriteType,
    TerminationDef,
    TerminationKind,
)

REQUIREMENTS = (":strips", ":typing", ":negative-preconditions", ":equality",
                ":universal-preconditions", ":conditional-effects")

_NEVER = Or(())  # a precondition conjunct that no state satisfies


@dataclass(frozen=True)
class Blockers:
    """Producers of stepBack interactions against one moving sprite."""

    statics: tuple[str, ...]
    object_types: tuple[str, ...]

    def free(self) -> str:
        """The <FREE> hole: no blocker holds the destination <DEST>."""
        return " ".join(
            [f"(not (is-{name} <DEST>))" for name in self.statics]
            + [f"(forall (?blk - {t}) (not (at <DEST> ?blk)))"
               for t in self.object_types])

    def blocked(self) -> str:
        """The <BLOCKED> hole: a blocker holds <DEST>; (or) when none can."""
        options = ([f"(is-{name} <DEST>)" for name in self.statics]
                   + [f"(not (forall (?blk - {t}) (not (at <DEST> ?blk))))"
                      for t in self.object_types])
        if len(options) == 1:
            return options[0]
        return f"({' '.join(['or', *options])})"


@dataclass(frozen=True)
class CompiledGame:
    model: GameModel
    domain: Domain
    goal: Formula
    avatar: SpriteDef
    avatar_directions: tuple[str, ...]  # the directions the avatar moves in
    static_sprites: tuple[str, ...]
    projectile: Optional[str]
    resources: tuple[str, ...]
    timeout_limit: Optional[int]
    kiohm_limits: tuple[tuple[str, int], ...]
    edge_directions: tuple[str, ...]


# -- sprite classification ---------------------------------------------------------

def static_sprites(model: GameModel) -> tuple[str, ...]:
    """Immovables nothing ever affects; compiled as is-<T> predicates."""
    referenced: set[str] = set()
    for t in model.terminations:
        if t.stype is not None:
            referenced.update(model.descendants(t.stype))
    out = []
    for s in model.concrete_sprites():
        if s.vgdl_type is not SpriteType.IMMOVABLE:
            continue
        if s.name in referenced:
            continue
        affected = False
        for i in model.interactions:
            if s.name in model.descendants(i.receiver):
                affected = True
            if (s.name in model.descendants(i.producer)
                    and i.kind is not InteractionKind.STEP_BACK):
                affected = True
        if not affected:
            out.append(s.name)
    return tuple(out)


def blockers_for(model: GameModel, sprite: str,
                 statics: tuple[str, ...]) -> Blockers:
    static_list: list[str] = []
    object_list: list[str] = []
    for i in model.interactions:
        if i.kind is not InteractionKind.STEP_BACK:
            continue
        if sprite not in model.descendants(i.receiver):
            continue
        producers = [p for p in model.descendants(i.producer)
                     if not model.sprite(p).is_abstract]
        if all(p in statics for p in producers):
            for p in producers:
                if p not in static_list:
                    static_list.append(p)
        else:
            if i.producer not in object_list:
                object_list.append(i.producer)
    return Blockers(tuple(static_list), tuple(object_list))


def projectile_of(model: GameModel) -> Optional[str]:
    avatar = model.avatar()
    if avatar.vgdl_type in (SpriteType.FLAK_AVATAR, SpriteType.SHOOT_AVATAR):
        stype = avatar.params.get("stype")
        if stype is None or not model.has_sprite(stype):
            raise GdfError(
                f"avatar {avatar.name!r} needs a declared projectile stype")
        return stype
    return None


# -- goal deduction -----------------------------------------------------------------

def deduce_goal(terminations: tuple[TerminationDef, ...]) -> Formula:
    for t in terminations:
        if not t.win:
            continue
        if t.kind is TerminationKind.SPRITE_COUNTER:
            if t.limit != 0:
                raise UnsupportedGoalError(
                    f"win SpriteCounter with limit={t.limit} has no goal encoding")
            return Forall((("?o", t.stype),), Atom("dead", ("?o",)))
        if t.kind is TerminationKind.TIMEOUT:
            return And((Atom("turn", (f"n{t.limit}",)),
                        Not(Atom("dead", ("avatar",)))))
    raise UnsupportedGoalError("no winning termination")


# -- interaction guards -------------------------------------------------------------

def _never_applies(action: Action) -> Forall:
    """No binding of `action` applies.  Its argument-free atoms are left out:
    they are the phase flags END-TURN-INTERACTIONS asserts itself."""
    return Forall(action.params, Or(tuple(
        c.body if isinstance(c, Not) else Not(c)
        for c in conj(action.precondition).parts
        if not (isinstance(c, Atom) and not c.args))))


# -- main assembly ------------------------------------------------------------------

def compile_game(model: GameModel,
                 kb: Optional[KnowledgeBase] = None) -> CompiledGame:
    kb = kb or KnowledgeBase()
    avatar = model.avatar()
    statics = static_sprites(model)
    movers = tuple(s.name for s in model.concrete_sprites()
                   if s.vgdl_type is SpriteType.MISSILE)
    projectile = projectile_of(model)
    resources = tuple(s.name for s in model.concrete_sprites()
                      if s.vgdl_type is SpriteType.RESOURCE)
    timeout = next((t for t in model.terminations
                    if t.kind is TerminationKind.TIMEOUT), None)

    # --- types -------------------------------------------------------------
    type_decls: list[tuple[str, Optional[str]]] = []
    declared: set[str] = set()
    sprite_types = [s for s in model.sprites if s.name not in statics]

    def class_parent(s: SpriteDef) -> str:
        if s.vgdl_type.value.lower() == s.name.lower():
            return "Object"
        return s.vgdl_type.value

    for s in sprite_types:
        if s.parent is not None and s.parent not in statics:
            continue  # parent handles the class supertype
        parent = class_parent(s)
        if parent != "Object" and parent not in declared:
            type_decls.append((parent, "Object"))
            declared.add(parent)
    for s in sprite_types:
        parent = (s.parent if s.parent is not None and s.parent not in statics
                  else class_parent(s))
        type_decls.append((s.name, parent))
        declared.add(s.name)
    type_decls.append(("num", None))

    # --- template instantiations -------------------------------------------
    predicates: list[Predicate] = []  # every element's, in instantiation order

    def element(ts: TemplateSet, binding: dict[str, str],
                directions: Optional[tuple[str, ...]] = None) -> list[Action]:
        inst = kb.instantiate(ts, binding, directions)
        predicates.extend(inst.predicates)
        return [a for a in inst.actions
                if _NEVER not in conj(a.precondition).parts]

    def free(sprite: str) -> str:
        return blockers_for(model, sprite, statics).free()

    avatar_binding = {"A": avatar.name, "FREE": free(avatar.name)}
    if projectile is not None:
        avatar_binding["P"] = projectile
    moving_template = kb.lookup("avatar", SpriteType.MOVING_AVATAR.value)
    class_template = kb.lookup("avatar", avatar.vgdl_type.value)
    *moves, nil = element(moving_template, avatar_binding,
                          class_template.directions)
    own = (element(class_template, avatar_binding)
           if class_template is not moving_template else [])
    avatar_actions = [*moves, *own, nil]

    # interactions, in declaration order
    interaction_actions: list[Action] = []
    guards: list[str] = []
    kiohm_limits: list[tuple[str, int]] = []
    for inter in model.interactions:
        if inter.kind is InteractionKind.STEP_BACK:
            continue
        binding = {"S1": inter.receiver, "S2": inter.producer,
                   "FREE": free(inter.receiver)}
        if inter.kind is InteractionKind.KILL_IF_OTHER_HAS_MORE:
            binding["R"] = inter.params["resource"]
            binding["L"] = inter.params["limit"]
            kiohm_limits.append((inter.params["resource"],
                                 int(inter.params["limit"])))
        actions = element(kb.lookup("interaction", inter.kind.value), binding)
        if inter.kind is InteractionKind.BOUNCE_FORWARD:
            # a failed push leaves the receiver on the pusher: no overlap may
            # close the turn, so the model dead-ends where the engine reverts
            guards.append(
                f"(forall (?o1 - {inter.receiver} ?o2 - {inter.producer} ?x ?y"
                " - num) (or (= ?o1 ?o2) (not (at ?x ?y ?o1))"
                " (not (at ?x ?y ?o2))))")
        else:
            guards.extend(format_formula(_never_applies(a)) for a in actions)
        interaction_actions.extend(actions)

    # sprite behaviour: resources, statics, self-movers (declaration order);
    # each mover's phase closer opens the next mover's
    sprite_phase_actions: list[Action] = []
    edge_dirs: list[str] = []
    for s in model.concrete_sprites():
        if s.name in statics:
            element(kb.lookup("sprite", "static"), {"T": s.name})
            continue
        if s.vgdl_type is SpriteType.RESOURCE:
            element(kb.lookup("sprite", "Resource"), {"T": s.name})
            continue
        if s.vgdl_type is not SpriteType.MISSILE:
            continue
        if (projectile is not None and s.name == projectile
                and avatar.vgdl_type is SpriteType.SHOOT_AVATAR):
            directions = DIRECTIONS  # re-oriented by each USE
        else:
            orientation = s.params.get("orientation")
            if orientation is None or orientation.upper() not in DIRECTIONS:
                raise GdfError(
                    f"missile {s.name!r} needs an orientation parameter")
            directions = (orientation.upper(),)
        for d in directions:
            if d not in edge_dirs:
                edge_dirs.append(d)
        blockers = blockers_for(model, s.name, statics)
        after = movers[movers.index(s.name) + 1:]
        sprite_phase_actions.extend(element(
            kb.lookup("sprite", "Missile"),
            {"T": s.name, "FREE": blockers.free(),
             "BLOCKED": blockers.blocked(),
             "POOL": "(in-reserve ?o)" if s.name == projectile else "",
             "NEXT_PHASE": f"(turn-{after[0]}-move)" if after else ""},
            directions))

    # --- turn core ----------------------------------------------------------
    # instantiated last, from what the elements gave: the guards and the
    # movers' phases; a timeout game's END-TURN-SPRITES also ticks
    if timeout is not None:
        element(kb.lookup("turn", "counter"), {})
    tick = {"TICK_PARAMS": "?t ?t_next - num",
            "TICK": "(turn ?t) (next ?t ?t_next)",
            "TICK_EFFECT": "(not (turn ?t)) (turn ?t_next)"}
    core = kb.instantiate(kb.lookup("turn", "core"), {
        "GUARDS": " ".join(guards),
        "FIRST_PHASE": " ".join(f"(turn-{m}-move)" for m in movers[:1]),
        "MOVERS_DONE": " ".join(f"(finished-turn-{m}-move)" for m in movers),
        "RESET": " ".join(f"(not (finished-turn-{m}-move))" for m in movers)
        + f" (forall (?a - {avatar.name}) (not (avatar-moved ?a)))",
        **(tick if timeout is not None else dict.fromkeys(tick, ""))})
    eti, ets = core.actions
    # the core's predicates first, each name declared once
    predicate_decls: dict[str, Predicate] = {}
    for p in (*core.predicates, *predicates):
        predicate_decls.setdefault(p.name, p)

    all_actions = (avatar_actions + interaction_actions + [eti]
                   + sprite_phase_actions + [ets])
    names = [a.name for a in all_actions]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DuplicateActionNameError(f"duplicate action names {sorted(dupes)}")

    domain = Domain(
        name=f"{model.name.capitalize()}Domain",
        requirements=REQUIREMENTS,
        types=tuple(type_decls),
        predicates=tuple(predicate_decls.values()),
        actions=tuple(all_actions),
    )
    goal = deduce_goal(model.terminations)
    return CompiledGame(
        model=model,
        domain=domain,
        goal=goal,
        avatar=avatar,
        avatar_directions=class_template.directions,
        static_sprites=statics,
        projectile=projectile,
        resources=resources,
        timeout_limit=timeout.limit if timeout is not None else None,
        kiohm_limits=tuple(kiohm_limits),
        edge_directions=tuple(edge_dirs),
    )
