"""Grounding of a typed PDDL pair into a propositional STRIPS task.

States are integer bit masks over an indexed set of dynamic ground atoms.
Grounded preconditions are a set of signed literals plus a (usually empty)
list of CNF clauses; clauses arise from universally quantified formulas such
as the STOP_<T>_MOVE closer, (forall (?o - b) (or (dead ?o) (b-moved ?o))),
and from the no-interaction-applies guards on END-TURN-INTERACTIONS.

Facts over static predicates (never added or deleted by any action, e.g.
is-wall, next) are evaluated at grounding time: actions with a statically
false precondition are dropped, literals that are statically true disappear.

Grounding runs in two stages, as Fast Downward's translator compiles a
domain into one Datalog program before it reads any facts (Helmert 2009).
The domain's program (`_Program`) is built on the first call for a `Domain`
object, or ahead of one by `domain_program`, and kept for that object's
life. It holds what the domain alone decides: the type walk, the signature
checks over schema parameters, each precondition conjunct's clause
templates (or its forall's join plan), the needs, the effect positions and
add/delete overlaps, and the level plan of every `_Join`. It holds nothing
of a problem. A call binds it to one problem (`_Context`): the universe and
the static facts, the joins over them, quantified effects, and the
fixpoint.

`_Schema` is the one path from a formula to ground clauses: the program's
templates of a precondition, each quantified single clause expanded only
over the instances that its join (`_Forall`) leaves open, filled in per
binding. The goal is grounded as the precondition of a parameterless
schema, the plan step `GOAL`, and `precondition_clauses` grounds one plan
step, the goal included, for the execution monitor; neither expands
effects, which only `ground`'s `_ActionSchema`s do.

Grounding is one semi-naive join over the static facts and the reached
atoms: relaxed reachability evaluated as Datalog, as Fast Downward's
translator does (Helmert 2009), firing each rule only on newly reached
atoms (Bancilhon & Ramakrishnan 1986). A binding is found once, when its
last top-level positive dynamic atom is reached (`_Worklist`), and checked
for only what reachability reads: static falsity, its all-positive
clauses, each one more need, and its adds. The kept actions, the least
fixpoint of that rule, are evaluated into masks once it ends, schema by
schema, each schema's in the order of its plain enumeration over the
static facts.

A guard forall, one with a negated dynamic atom over its own variables
(every END-TURN-INTERACTIONS guard), is never a need and never statically
false, and its instances whose atom never becomes true always hold. It is
joined on the reachable atoms that the caller building the schema passes,
never on atoms computed on demand: `ground` expands it once the fixpoint
ends, on the final reached atoms, and the monitor on the observed state's.

The fact table is the reached atoms alone, init and adds, sorted by text.
An atom outside it is never true, so the masks never name one: a negative
precondition or delete on it is dropped, a positive clause literal on it is
dropped from its clause, and a clause with a negative literal on it always
holds and is dropped. Every binding that the static facts allow is still
checked for adding and deleting the same atom, reachable or not.
"""
from __future__ import annotations

import copy
import itertools
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import NotApplicableError, TypeMismatchError, UnsupportedConstructError
from .pddl import (Action, And, Atom, Domain, Forall, Formula, Not, Or, Problem,
                   ROOT_TYPE, atoms_in, effect_literals)

Literal = tuple[Atom, bool]  # (atom, is_positive)

GOAL = "(goal)"  # the plan step that is the goal, checked after the last action


@dataclass(frozen=True)
class GroundAction:
    """A grounded action as bit masks over `GroundedTask.facts`: the unit
    precondition literals split into `pos_pre` and `neg_pre`, each longer
    CNF clause as a (positive mask, negative mask) pair, and the effects.
    The masks are the only form of the precondition; render its atoms with
    `task.state_atoms(mask)`. They never name an atom that cannot become
    true, so a clause may have been trimmed to fewer literals, even one."""
    name: str
    args: tuple[str, ...]
    pos_pre: int
    neg_pre: int
    clauses: tuple[tuple[int, int], ...]  # (positive mask, negative mask)
    add: int
    delete: int

    @property
    def ident(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, self.args)

    def __str__(self) -> str:
        if self.args:
            return f"({self.name} {' '.join(self.args)})"
        return f"({self.name})"


@dataclass
class GroundedTask:
    """A grounded task over `facts`, the atoms that can become true (init
    and the adds of the relaxed-reachable actions) sorted by text; bit `i`
    of a state is `facts[i]`. `fact_id` and the action index are derived
    from `facts` and `actions`. A negative goal literal on an atom outside
    `facts` always holds and is left out of `goal_neg`.

    `interchangeable` holds the classes of objects that `ground` found on
    the lifted problem (`_interchangeable`), members in object order:
    swapping two members maps the task onto itself. A hand-built task has
    none. Search trusts it: a task `dataclasses.replace` edits, other than
    by `simplify`, must pass `interchangeable=()`."""
    facts: tuple[Atom, ...]
    actions: tuple[GroundAction, ...]
    init: int
    goal_pos: int
    goal_neg: int
    static_facts: frozenset[Atom]
    unsolvable_goal: bool  # a positive goal atom can never become true
    interchangeable: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        self.fact_id = {f: i for i, f in enumerate(self.facts)}

    @cached_property
    def _index(self) -> dict[tuple[str, tuple[str, ...]], GroundAction]:
        return {_step_key(a.name, a.args): a for a in self.actions}

    def action(self, name: str, args: tuple[str, ...]) -> Optional[GroundAction]:
        """The action a plan step names, matched case-insensitively."""
        return self._index.get(_step_key(name, args))

    def state_atoms(self, state: int) -> frozenset[Atom]:
        atoms = []
        while state:
            low = state & -state
            atoms.append(self.facts[low.bit_length() - 1])
            state ^= low
        return frozenset(atoms)


def _step_key(name: str, args: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    return name.upper(), tuple(a.lower() for a in args)


# -- formula normalization -------------------------------------------------------

def _substitute(f: Formula, binding: dict[str, str]) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(binding.get(a, a) for a in f.args))
    if isinstance(f, Not):
        return Not(_substitute(f.body, binding))
    if isinstance(f, And):
        return And(tuple(_substitute(p, binding) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_substitute(p, binding) for p in f.parts))
    if isinstance(f, Forall):
        inner = {k: v for k, v in binding.items()
                 if k not in {v0 for v0, _ in f.variables}}
        return Forall(f.variables, _substitute(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")


def _expand_foralls(f: Formula, universe: dict[str, list[str]]) -> Formula:
    """Replace every forall with the conjunction over the typed universe."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_expand_foralls(f.body, universe))
    if isinstance(f, And):
        return And(tuple(_expand_foralls(p, universe) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_expand_foralls(p, universe) for p in f.parts))
    if isinstance(f, Forall):
        domains = []
        for var, typ in f.variables:
            objs = universe.get(typ, [])
            domains.append([(var, o) for o in objs])
        parts = []
        for combo in itertools.product(*domains):
            binding = dict(combo)
            parts.append(_expand_foralls(_substitute(f.body, binding), universe))
        return And(tuple(parts))
    raise TypeError(f"not a formula: {f!r}")


def _nnf(f: Formula, negate: bool):
    """Negation normal form; equality atoms are atoms like any other."""
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _nnf(f.body, not negate)
    if isinstance(f, And):
        parts = tuple(_nnf(p, negate) for p in f.parts)
        return Or(parts) if negate else And(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, negate) for p in f.parts)
        return And(parts) if negate else Or(parts)
    raise TypeError(f"unexpected formula in NNF: {f!r}")


_CNF_LIMIT = 256


def _cnf(f: Formula) -> list[list[Literal]]:
    """CNF of an NNF formula. Distribution is bounded; the compiler only
    produces tiny disjunctions so the limit is a safety net."""
    if isinstance(f, Atom):
        return [[(f, True)]]
    if isinstance(f, Not):
        assert isinstance(f.body, Atom)
        return [[(f.body, False)]]
    if isinstance(f, And):
        out: list[list[Literal]] = []
        for p in f.parts:
            out.extend(_cnf(p))
        return out
    if isinstance(f, Or):
        if not f.parts:
            return [[]]  # empty disjunction: false
        result = _cnf(f.parts[0])
        for p in f.parts[1:]:
            rhs = _cnf(p)
            if len(result) * len(rhs) > _CNF_LIMIT:
                raise UnsupportedConstructError(
                    "disjunctive precondition too large to normalize")
            result = [a + b for a in result for b in rhs]
        return result
    raise TypeError(f"unexpected formula in CNF: {f!r}")


# -- the grounding program of a domain ---------------------------------------------

def _collect_effects(f: Formula, universe: dict[str, list[str]],
                     adds: set[Atom], dels: set[Atom]) -> None:
    for atom, positive in effect_literals(_expand_foralls(f, universe)):
        (adds if positive else dels).add(atom)


def _check_type(pred: str, arg: str, actual: Optional[str], declared: str,
                supertypes: dict[str, tuple[str, ...]]) -> None:
    """Raise unless `arg`, of type `actual`, may stand where `declared` is
    needed; an argument of no known type (None) is not checked."""
    if actual is not None and declared not in supertypes.get(actual, (actual,)):
        raise TypeMismatchError(f"{pred}: {arg} has type {actual}, needs {declared}")


def _split_conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_split_conjuncts(p))
        return out
    return [f]


def _has_forall(f: Formula) -> bool:
    if isinstance(f, Not):
        return _has_forall(f.body)
    if isinstance(f, (And, Or)):
        return any(map(_has_forall, f.parts))
    return isinstance(f, Forall)


def _clause_literals(f: Forall) -> Optional[list[tuple[Atom, bool]]]:
    """The literals of a forall whose body is one clause, else None."""
    out = []
    for lit in f.body.parts if isinstance(f.body, Or) else (f.body,):
        atom = lit.body if isinstance(lit, Not) else lit
        if not isinstance(atom, Atom):
            return None
        out.append((atom, lit is atom))
    return out


def _decided(atom: Atom, names) -> bool:
    """Every argument of `atom` is one of `names` or a constant."""
    return all(a in names or not a.startswith("?") for a in atom.args)


class _AtomTable(dict):
    """Ground atoms interned by (predicate, args): the literals and effects
    of a task's actions share one `Atom` per atom."""

    def __missing__(self, key: tuple[str, tuple[str, ...]]) -> Atom:
        atom = self[key] = tuple.__new__(Atom, key)  # skips Atom's __new__
        return atom

_PROGRAMS: dict[int, _Program] = {}


def domain_program(domain: Domain) -> _Program:
    """The grounding program of `domain`, built on first use and kept while
    that object lives. It is found by identity, as hashing a frozen `Domain`
    walks its whole tree, and kept beside the domain, not in it, so the
    domain still pickles. A domain that fails its type walk keeps none, so
    every call raises."""
    program = _PROGRAMS.get(id(domain))
    if program is None:
        program = _PROGRAMS[id(domain)] = _Program(domain)
        weakref.finalize(domain, _PROGRAMS.pop, id(domain), None)
    return program


class _Program:
    """What grounding derives from a domain alone, once per `Domain`
    object (`domain_program`), holding nothing of a problem: `supertypes`
    (each declared type's parent chain, a cycle rejected), an
    `_ActionProgram` per schema, their `triggers` by need predicate, and
    `named`, the constants and every other name a schema uses, which
    `_interchangeable` leaves out. A domain error found in a schema is kept
    in place and raised, as a copy, by every call that gets that far."""

    def __init__(self, domain: Domain):
        parents = dict(domain.types)
        for name, parent in domain.types:
            if parent is not None and parent not in parents and parent != ROOT_TYPE:
                raise TypeMismatchError(f"type {name!r} has undeclared parent {parent!r}")
        self.supertypes: dict[str, tuple[str, ...]] = {}
        for typ in dict.fromkeys((*parents, ROOT_TYPE)):
            chain: list[str] = []
            cur: Optional[str] = typ
            while cur is not None:
                if cur in chain:
                    raise TypeMismatchError(f"type cycle at {cur!r}")
                chain.append(cur)
                cur = None if cur == ROOT_TYPE else parents.get(cur)
            self.supertypes[typ] = tuple(chain)
        self.constants = domain.constants
        self.static_preds = domain.static_predicates
        self.predicates = {p.name: tuple(t for _, t in p.params)
                           for p in reversed(domain.predicates)}
        self.schemas = tuple(_ActionProgram(a, self) for a in domain.actions)
        self.triggers: dict[str, list[tuple[int, _Join]]] = {}
        for k, schema in enumerate(self.schemas):
            for pred, join in schema.triggers:
                self.triggers.setdefault(pred, []).append((k, join))
        self.named = frozenset(
            a for s in domain.actions for f in (s.precondition, s.effect)
            for atom in atoms_in(f) for a in atom.args if a[:1] != "?"
        ).union(obj for obj, _ in domain.constants)

    def signature(self, atom: Atom) -> Iterable[tuple[str, str]]:
        """Each argument of `atom` with the type its predicate declares there;
        raises on an undeclared predicate or a wrong arity."""
        if atom.predicate == "=":
            return ()
        declared = self.predicates.get(atom.predicate)
        if declared is None:
            raise TypeMismatchError(f"undeclared predicate {atom.predicate!r}")
        if len(declared) != len(atom.args):
            raise TypeMismatchError(
                f"{atom.predicate} expects {len(declared)} args, got {len(atom.args)}")
        return zip(atom.args, declared)

    def step(self, name: str, problem: Problem) -> _Precondition:
        """The precondition of plan step `name`; the step `GOAL` is the goal
        of `problem`, a parameterless schema compiled for the call."""
        if name == GOAL:
            return _Precondition((), problem.goal, self.static_preds)
        return next(s for s in self.schemas if s.name == name)


class _Context:
    """What one problem decides, on its domain's program: the typed
    `universe` (a type no object has, declared or not, lists none),
    `types_of`, init split into the static table, the static sets (empty
    for a static predicate without rows) and the dynamic init, and the
    task's `atoms`. For the joins, `_options` indexes the static table by
    argument position, and `typed` and `position` give a type's objects as
    a set and by universe order. It computes no reachable atoms: a join on
    them is given them.
    """

    def __init__(self, program: _Program, problem: Problem):
        self.program = program
        supertypes = self.supertypes = program.supertypes
        objects = program.constants + tuple(problem.objects)
        universe = self.universe = defaultdict(list, {t: [] for t in supertypes})
        for obj, typ in objects:
            if typ not in supertypes:
                raise TypeMismatchError(f"object {obj!r} has undeclared type {typ!r}")
            for t in supertypes[typ]:
                universe[t].append(obj)
        self.types_of = dict(objects)

        self.static_table: dict[str, list[tuple[str, ...]]] = {}
        self.static_sets: dict[str, set[tuple[str, ...]]] = {
            pred: set() for pred in program.static_preds}
        self.init_dynamic: set[Atom] = set()
        for atom in problem.init:
            rows = self.static_sets.get(atom.predicate)
            if rows is None:
                self.init_dynamic.add(atom)
            else:
                self.static_table.setdefault(atom.predicate, []).append(atom.args)
                rows.add(atom.args)
        self.atoms = _AtomTable()
        self._index: dict[tuple[str, int, str],
                          dict[tuple[str, ...], tuple[int, dict[str, int]]]] = {}
        self._typed: dict[str, frozenset[str]] = {}
        self._positions: dict[str, dict[str, int]] = {}

    def check(self, atoms: Iterable[Atom]) -> None:
        """Raise on an atom over an undeclared predicate, with the wrong
        arity, or with an object of the wrong type (a `?` variable is not
        checked)."""
        for atom in atoms:
            for arg, declared in self.program.signature(atom):
                if arg[:1] != "?":
                    _check_type(atom.predicate, arg, self.types_of.get(arg),
                                declared, self.supertypes)

    def typed(self, typ: str) -> frozenset[str]:
        """The objects of type `typ`, as a set."""
        objs = self._typed.get(typ)
        if objs is None:
            objs = self._typed[typ] = frozenset(self.universe[typ])
        return objs

    def position(self, typ: str) -> dict[str, int]:
        """Each object of type `typ` -> its place in the universe."""
        ranks = self._positions.get(typ)
        if ranks is None:
            ranks = self._positions[typ] = {
                o: i for i, o in enumerate(self.universe[typ])}
        return ranks

    def _options(self, pred: str, pos: int, typ: str, others: tuple[str, ...]
                 ) -> tuple[int, dict[str, int]]:
        """Values at `pos` of the `pred` rows whose other arguments are
        `others`: (how many rows match, each distinct value of type `typ`
        -> its place among them, in table order). Indexed once per (pred,
        pos, typ)."""
        index = self._index.get((pred, pos, typ))
        if index is None:
            matches: dict[tuple[str, ...], list[str]] = {}
            for row in self.static_table.get(pred, ()):
                matches.setdefault(row[:pos] + row[pos + 1:], []).append(row[pos])
            allowed = self.typed(typ)
            index = self._index[pred, pos, typ] = {
                key: (len(values), {o: i for i, o in enumerate(
                    [o for o in dict.fromkeys(values) if o in allowed])})
                for key, values in matches.items()}
        return index.get(others, (0, {}))


class _Reached:
    """Reached dynamic atoms, and indexes of them: an index on some argument
    positions of a predicate maps the values at those positions to the args
    of every reached atom that has them. An index is built on first use and
    kept up to date by `add`."""

    def __init__(self, keys: Iterable[Atom] = ()):
        self.keys: set[Atom] = set(keys)
        self._indexes: dict[str, list[tuple[tuple[int, ...], dict]]] = {}

    def add(self, key: Atom) -> bool:
        """Reach `key`; False if it was reached already."""
        if key in self.keys:
            return False
        self.keys.add(key)
        pred, args = key
        for positions, index in self._indexes.get(pred, ()):
            index.setdefault(tuple([args[p] for p in positions]), []).append(args)
        return True

    def index(self, pred: str, positions: tuple[int, ...]
              ) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
        indexes = self._indexes.setdefault(pred, [])
        for known, index in indexes:
            if known == positions:
                return index
        index = {}
        for p, args in self.keys:
            if p == pred:
                index.setdefault(tuple([args[i] for i in positions]), []).append(args)
        indexes.append((positions, index))
        return index


@lru_cache(maxsize=4096)
def _getter(idx: tuple[int, ...]) -> Callable[[Sequence[str]], tuple[str, ...]]:
    """Map `ext` to the tuple of its items at `idx` (itemgetter returns a
    bare item for one index and fails for none); shared between joins."""
    if len(idx) == 1:
        i = idx[0]
        return lambda ext: (ext[i],)
    return itemgetter(*idx) if idx else lambda ext: ()


_ROW, _VAR = "row", "var"  # the kinds of a join level


class _Join:
    """The level plan of a backtracking join over the slots of an `ext`
    list (`width` variable slots, then `consts`), made once per domain and
    run on a problem as a `_BoundJoin`.

    `types` maps the variable slots to bind to their types, in binding
    order; every other slot is known when the join runs. Each `static`
    atom must be in the static table, each `dynamic` atom reached, and the
    two slots of each of `neqs` must differ; every constraint is checked at
    the level that binds its last slot. A dynamic atom with open slots binds
    them all at once from an index of the reached atoms, the atom with the
    most known arguments first. A variable left over takes its candidates
    from the static atom whose only open slot it is (the one with fewest
    rows), else from its type; without dynamic atoms that is the plain
    enumeration in binding order, which `rank` replays.

    With `first`, level 0 unifies that dynamic atom with one atom given to
    `run` instead (a trigger), and a binding for which one of `skips` gives
    that same atom is left out.
    """

    def __init__(self, width: int, consts, types: dict[int, str], static=(),
                 dynamic=(), neqs=(), first=None, skips=()):
        self.width = width
        self.ext = (None,) * width + tuple(consts)
        level: dict[int, int] = {}  # variable slot -> the level that binds it

        def known(s: int) -> bool:
            return s not in types or s in level

        def unify(idx, positions, at: int):
            """Bind the open slots at `positions` of `idx`; check the rest."""
            binds, eqs = [], []
            for k in positions:
                if known(idx[k]):
                    eqs.append((k, idx[k]))
                else:
                    binds.append((k, idx[k], types[idx[k]]))
                    level[idx[k]] = at
            return tuple(binds), tuple(eqs)

        dynamic = list(dynamic)
        steps: list[tuple] = []
        if first is not None:
            steps.append((_ROW, None, None, *unify(first[1], range(len(first[1])), 0)))
        while len(level) < len(types):
            at = len(steps)
            open_atoms = [a for a in dynamic if not all(map(known, a[1]))]
            if open_atoms:
                pred, idx = max(open_atoms, key=lambda a: sum(map(known, a[1])))
                dynamic.remove((pred, idx))
                positions = tuple(k for k, s in enumerate(idx) if known(s))
                steps.append((_ROW, (pred, positions),
                              _getter(tuple([idx[k] for k in positions])), *unify(
                                  idx, [k for k in range(len(idx))
                                        if k not in positions], at)))
                continue
            slot = next(s for s in types if s not in level)
            options = []
            for pred, idx in static:
                open_at = [k for k, s in enumerate(idx) if not known(s)]
                if len(open_at) == 1 and idx[open_at[0]] == slot:
                    k = open_at[0]
                    options.append((pred, k, _getter(idx[:k] + idx[k + 1:])))
            level[slot] = at
            steps.append((_VAR, slot, types[slot], tuple(options)))
        # the types a trigger's atom must have, by argument position
        self.first_types = tuple((k, typ) for k, _, typ in steps[0][3]
                                 ) if first is not None else ()

        # every constraint is checked at the level that binds its last slot
        checks = [([], [], [], []) for _ in range(len(steps) + 1)]

        def after(slots) -> tuple:
            return checks[1 + max((level.get(s, -1) for s in slots), default=-1)]

        for pred, idx in static:
            after(idx)[0].append((pred, _getter(idx)))
        for pred, idx in dynamic:
            after(idx)[1].append((pred, _getter(idx)))
        for pair in neqs:
            after(pair)[2].append(tuple(pair))
        for idx in skips:
            after(idx)[3].append(_getter(idx))
        checks = [tuple(map(tuple, c)) if any(c) else None for c in checks]
        self.pre = checks[0]
        self.steps = tuple((*step, c) for step, c in zip(steps, checks[1:]))


class _BoundJoin:
    """A `_Join` on one problem: its levels read the type sets and static
    sets of `cx` and the indexes of `reached`, looked up here once."""

    def __init__(self, join: _Join, cx: _Context,
                 reached: Optional[_Reached] = None):
        self.cx = cx
        self.width = join.width
        self.ext = join.ext
        self.keys = reached.keys if reached is not None else None
        sets = cx.static_sets

        def bound(checks):
            if checks is None:
                return None
            static, dynamic, neqs, skips = checks
            return tuple((sets[p], get) for p, get in static), dynamic, neqs, skips

        self.pre = bound(join.pre)
        steps = []
        for step in join.steps:
            if step[0] is _ROW:
                _, at, key, binds, eqs, checks = step
                step = (_ROW, None if at is None else reached.index(*at), key,
                        tuple((k, s, cx.typed(t)) for k, s, t in binds), eqs,
                        bound(checks))
            else:
                step = (*step[:4], bound(step[4]))
            steps.append(step)
        self.steps = tuple(steps)

    def run(self, first: Optional[tuple[str, ...]] = None
            ) -> list[tuple[str, ...]]:
        """The bindings, as tuples of the first `width` slots (a slot that
        is neither bound nor known reads None)."""
        out: list[tuple[str, ...]] = []
        ext = list(self.ext)
        if self._holds(self.pre, ext, first):
            self._search(0, ext, first, out)
        return out

    def rank(self, args: tuple[str, ...]) -> tuple[int, ...]:
        """Where each value of `args` stands among its level's candidates:
        sorting by rank gives the order of `run` on a join without dynamic
        atoms."""
        ext = [*args, *self.ext[self.width:]]
        out = []
        for _, slot, typ, options, _ in self.steps:
            out.append(self._candidates(typ, options, ext)[ext[slot]])
        return tuple(out)

    def _candidates(self, typ: str, options, ext: list) -> dict[str, int]:
        """The values of the static option with fewest rows, else those of
        the whole type, each -> its place among them."""
        best: Optional[dict[str, int]] = None
        best_rows = 0
        for pred, pos, get in options:
            rows, values = self.cx._options(pred, pos, typ, get(ext))
            if best is None or rows < best_rows:
                best, best_rows = values, rows
        return self.cx.position(typ) if best is None else best

    def _holds(self, checks, ext: list, first) -> bool:
        if checks is None:
            return True
        static, dynamic, neqs, skips = checks
        for i, j in neqs:
            if ext[i] == ext[j]:
                return False
        for table, get in static:
            if get(ext) not in table:
                return False
        for pred, get in dynamic:
            if (pred, get(ext)) not in self.keys:
                return False
        for get in skips:
            if get(ext) == first:
                return False
        return True

    def _search(self, level: int, ext: list, first, out: list) -> None:
        if level == len(self.steps):
            out.append(tuple(ext[:self.width]))
            return
        step = self.steps[level]
        if step[0] is _ROW:
            _, index, key, binds, eqs, checks = step
            for row in (first,) if index is None else index.get(key(ext), ()):
                for k, s, allowed in binds:
                    value = row[k]
                    if value not in allowed:
                        break
                    ext[s] = value
                else:
                    if all(row[k] == ext[s] for k, s in eqs) and (
                            checks is None or self._holds(checks, ext, first)):
                        self._search(level + 1, ext, first, out)
        else:
            _, slot, typ, options, checks = step
            for value in self._candidates(typ, options, ext):
                ext[slot] = value
                if checks is None or self._holds(checks, ext, first):
                    self._search(level + 1, ext, first, out)


class _Forall:
    """A forall whose body is one clause, planned once per domain and
    grounded on a problem by `clauses`.

    A literal is decided when each of its arguments is a variable of the
    forall or a constant. Decided negated static atoms and decided positive
    equalities are joinable, and so are a `guard`'s decided negated dynamic
    atoms, joined on the atoms the caller passes. The forall is joined on
    its joinable literals and its variables' types, so only instances that
    no joinable literal satisfies are expanded: each negated static atom
    holds, each negated dynamic atom is reached and each equality fails.
    With nothing joinable that is the plain product. A guard (a decided
    negated dynamic atom, as in every END-TURN-INTERACTIONS guard) has no
    all-positive or statically false instance, and an instance whose atom
    never becomes true always holds. The clauses keep `itertools.product`
    order and leave the joined literals out; a negated equality over the
    forall's variables is folded, and every other literal is kept for the
    caller (one that mentions a schema parameter is only decided per
    binding).
    """

    def __init__(self, f: Forall, literals: list[Literal], static_preds):
        self.names = [v for v, _ in f.variables]
        self.types = [typ for _, typ in f.variables]
        joined: list[tuple[list, Atom]] = []  # (the constraints it joins, atom)
        static, dynamic, neqs = [], [], []
        self.kept: list[tuple[Atom, bool, bool]] = []  # atom, positive, decided
        for atom, positive in literals:
            decided = _decided(atom, self.names)
            if decided and not positive and atom.predicate in static_preds:
                joined.append((static, atom))
            elif decided and positive and atom.predicate == "=":
                joined.append((neqs, atom))
            else:
                if decided and not positive and atom.predicate != "=":
                    joined.append((dynamic, atom))
                self.kept.append((atom, positive, decided))
        slot = {v: i for i, v in enumerate(self.names)}
        consts: list[str] = []
        for constraints, atom in joined:
            for a in atom.args:
                if a not in slot:
                    slot[a] = len(slot)
                    consts.append(a)
            idx = tuple(slot[a] for a in atom.args)
            constraints.append(idx if constraints is neqs else (atom.predicate, idx))
        self.guard = bool(dynamic)
        self.join = _Join(len(self.names), consts, dict(enumerate(self.types)),
                          static, dynamic, neqs)

    def clauses(self, cx: _Context, reached: Optional[_Reached] = None
                ) -> list[list[Literal]]:
        """The CNF of the forall over the objects and static facts of `cx`,
        a guard's dynamic atoms joined on `reached`. A variable whose type
        has no object leaves no instance, so no join is bound."""
        if not all(map(cx.universe.__getitem__, self.types)):
            return []
        rows = _BoundJoin(self.join, cx, reached).run()
        ranks = [cx.position(typ) for typ in self.types]
        rows.sort(key=lambda row: tuple(map(dict.__getitem__, ranks, row)))
        clauses = []
        for row in rows:
            binding = dict(zip(self.names, row))
            clause: list[Literal] = []
            for atom, positive, decided in self.kept:
                args = tuple([binding.get(a, a) for a in atom.args])
                if decided and atom.predicate == "=":  # a negated equality
                    if args[0] != args[1]:
                        break  # the instance holds
                else:
                    clause.append((cx.atoms[atom.predicate, args], positive))
            else:
                clauses.append(clause)
        return clauses


_EQUALITY = object()  # the kind of an equality literal in a template


class _Slots:
    """The `ext` layout of a schema, a binding's values followed by the
    constants its atoms mention, and clause templates over it: each
    template atom is a predicate and a getter of its arguments from `ext`.
    A template literal's kind is None for a dynamic atom, True for a static
    one and `_EQUALITY` for an equality."""

    def _index(self, atom: Atom) -> tuple[str, tuple[int, ...]]:
        """The predicate of `atom` and the `ext` positions of its arguments."""
        slot = self._slot
        for a in atom.args:
            if a not in slot:
                slot[a] = len(slot)
                self._consts.append(a)
        return atom.predicate, tuple(slot[a] for a in atom.args)

    def _template(self, clause: list[Literal]) -> tuple:
        out = []
        for atom, positive in clause:
            pred, idx = self._index(atom)
            kind = (_EQUALITY if pred == "=" else
                    True if pred in self.static_preds else None)
            out.append((pred, _getter(idx), positive, kind))
        return tuple(out)


class _Precondition(_Slots):
    """A schema precondition compiled once per domain, one conjunct at a
    time (the CNF of a conjunction is its conjuncts' CNFs in order), into
    `parts`: a conjunct without a forall as its clause templates, a forall
    whose body is one clause as a `_Forall`, and any other conjunct as
    itself, expanded over each problem's objects. A domain error (a
    disjunction too large to normalize) ends `parts`: each call raises it
    once it has grounded the parts before it."""

    def __init__(self, params: tuple[tuple[str, str], ...],
                 precondition: Formula, static_preds: frozenset[str]):
        self.static_preds = static_preds
        self.params = tuple(v for v, _ in params)
        self._slot = {v: i for i, v in enumerate(self.params)}
        self._consts: list[str] = []
        self.conjuncts = _split_conjuncts(precondition)
        self.parts: list = []
        try:
            for conjunct in self.conjuncts:
                literals = (_clause_literals(conjunct)
                            if isinstance(conjunct, Forall) else None)
                if literals is not None:
                    self.parts.append(_Forall(conjunct, literals, static_preds))
                elif _has_forall(conjunct):
                    self.parts.append(conjunct)
                else:
                    self.parts.append(tuple(map(self._template,
                                                _cnf(_nnf(conjunct, False)))))
        except UnsupportedConstructError as e:
            self.parts.append(copy.copy(e))


def _overlap_joins(adds, dels, n: int, consts, types: dict[int, str],
                   static, neqs) -> list[tuple[_Join, tuple[int, ...]]]:
    """Per add and delete that coincide under some equalities of their
    `ext` positions, the join of the bindings that the static facts allow
    and that meet them, and each parameter's slot in its rows. Each
    equality is substituted, keeping the constant or the earlier parameter;
    two distinct constants never coincide."""
    out = []
    for p, ia in adds:
        for q, idl in dels:
            if p != q or len(ia) != len(idl):
                continue
            rep = list(range(n + len(consts)))

            def find(s: int) -> int:
                while rep[s] != s:
                    s = rep[s]
                return s

            for i, j in zip(ia, idl):
                a, b = sorted((find(i), find(j)))
                if a == b:
                    continue
                if a >= n:
                    break  # two distinct constants never coincide
                if b >= n:
                    rep[a] = b
                else:
                    rep[b] = a
            else:
                out.append((_Join(
                    n, consts, {s: t for s, t in types.items() if find(s) == s},
                    [(p, tuple(map(find, idx))) for p, idx in static], (),
                    [tuple(map(find, pair)) for pair in neqs]),
                    tuple(map(find, range(n)))))
    return out


class _ActionProgram(_Precondition):
    """What `ground` reads of an action schema, compiled once per domain:
    `checks`, the signature checks a problem decides (a name that is no
    variable), up to `error`, the first one the domain fails; a `_Join`
    trigger per need (top-level positive dynamic atom), `order`, the plain
    enumeration over the static facts, and `joined`, the conjuncts that
    these joins decide; `adds`/`dels` and `overlaps`
    of the effects without a forall, the other effects (`foralls`) being
    expanded per problem, and `effect_error`, an unsupported effect."""

    def __init__(self, schema: Action, program: _Program):
        super().__init__(schema.params, schema.precondition, program.static_preds)
        self.name = schema.name
        params = dict(schema.params)
        self.checks: list[tuple[str, str, str]] = []
        self.error: Optional[TypeMismatchError] = None
        try:
            for atom in itertools.chain(atoms_in(schema.precondition),
                                        atoms_in(schema.effect)):
                for arg, declared in program.signature(atom):
                    if arg in params:
                        _check_type(atom.predicate, arg, params[arg], declared,
                                    program.supertypes)
                    elif not arg.startswith("?"):
                        self.checks.append((atom.predicate, arg, declared))
        except TypeMismatchError as e:
            self.error = copy.copy(e)

        names = set(self.params)
        needs: list[tuple[str, tuple[int, ...]]] = []
        self.static: list[tuple[str, tuple[int, ...]]] = []
        self.neqs: list[tuple[int, ...]] = []
        self.joined: set[int] = set()
        for i, c in enumerate(self.conjuncts):
            atom = c.body if isinstance(c, Not) else c
            if not isinstance(atom, Atom) or c is atom and atom.predicate == "=":
                continue
            if c is atom and atom.predicate not in self.static_preds:
                if self._index(atom) not in needs:
                    needs.append(self._index(atom))
            elif not _decided(atom, names):
                continue  # a variable that is not a parameter: never checked
            elif c is atom:
                self.static.append(self._index(atom))
            elif atom.predicate == "=":
                self.neqs.append(self._index(atom)[1])
            else:
                continue  # a negated atom, decided per binding
            self.joined.add(i)

        adds: dict[tuple, None] = {}
        dels: dict[tuple, None] = {}
        self.foralls: list[Formula] = []
        self.effect_error: Optional[UnsupportedConstructError] = None
        try:
            for c in _split_conjuncts(schema.effect):
                if _has_forall(c):
                    self.foralls.append(c)
                    continue
                for atom, positive in effect_literals(c):
                    (adds if positive else dels)[self._index(atom)] = None
        except UnsupportedConstructError as e:
            self.effect_error = copy.copy(e)
        self.adds, self.dels = tuple(adds), tuple(dels)
        n = len(self.params)
        self.types = {i: typ for i, (_, typ) in enumerate(schema.params)}
        self.consts = tuple(self._consts)
        self.overlaps = _overlap_joins(self.adds, self.dels, n, self.consts,
                                       self.types, self.static, self.neqs)
        self.triggers = tuple(
            (pred, _Join(n, self.consts, self.types, self.static,
                         needs[:i] + needs[i + 1:], self.neqs, first=(pred, idx),
                         skips=[other for q, other in needs[:i]
                                if q == pred and len(other) == len(idx)]))
            for i, (pred, idx) in enumerate(needs))
        self.order = _Join(n, self.consts, self.types, self.static, (), self.neqs)


# -- grounding a problem on the program ----------------------------------------------

class _Schema(_Slots):
    """A compiled precondition on one problem, as clause templates: the only
    code that grounds a formula into clauses. The goal (the precondition of
    a parameterless schema) and the monitor's check build this alone;
    `_ActionSchema` adds what `ground` reads of an action.

    `clauses` is the precondition CNF as clause templates in conjunct order:
    the program's, each `_Forall` joined on the problem and any other
    quantified conjunct expanded over its objects. A guard forall is joined
    on `reached`, the atoms the caller says can be true where the clauses
    are checked (`ground` passes the relaxed-reachable atoms, the monitor
    the problem's dynamic init), and left out when `reached` is None.
    `clauses_for` fills the templates in for one binding: it substitutes
    their arguments and decides their static and equality literals, and
    `action` decides them the same way straight into bit masks.
    Equalities are folded after the CNF, so a conjunct with an equality
    under a conjunction under a disjunction may keep a clause that the
    conjunct's other clauses imply.
    """

    name, adds, dels = GOAL, (), ()  # the goal's; an action has its own

    def __init__(self, pre: _Precondition, cx: _Context,
                 reached: Optional[_Reached]):
        self.cx = cx
        self.static_preds = pre.static_preds
        self.params = pre.params
        self._slot = dict(pre._slot)
        self._consts = list(pre._consts)
        self._parts: list = []  # per conjunct, its templates or a guard
        for part in pre.parts:
            if isinstance(part, Exception):
                raise copy.copy(part)
            if isinstance(part, _Forall):
                if not part.guard:
                    part = tuple(map(self._template, part.clauses(cx)))
            elif not isinstance(part, tuple):  # a conjunct with a forall
                part = tuple(map(self._template, _cnf(_nnf(
                    _expand_foralls(part, cx.universe), False))))
            self._parts.append(part)
        self.clauses = self._templates(reached)

    def _templates(self, reached: Optional[_Reached]) -> tuple:
        """The clause templates in conjunct order, each guard joined on
        `reached` (left out without it)."""
        clauses = []
        for part in self._parts:
            if not isinstance(part, _Forall):
                clauses.extend(part)
            elif reached is not None:
                clauses.extend(map(self._template, part.clauses(self.cx, reached)))
        self.consts = tuple(self._consts)
        return tuple(clauses)

    def clauses_for(self, args: tuple[str, ...]
                    ) -> Optional[list[list[Literal]]]:
        """The precondition bound to `args` as CNF clauses over dynamic
        atoms, or None when it is statically false."""
        atoms = self.cx.atoms
        return self._fill(self.clauses, args,
                          lambda pred, values, positive:
                          (atoms[pred, values], positive))

    def _fill(self, templates, args: tuple[str, ...], literal: Callable
              ) -> Optional[list[list]]:
        """`templates` bound to `args`: each one its static and equality
        literals leave open as the list of `literal(pred, values, positive)`
        of its dynamic literals, or None when one is statically false."""
        ext = args + self.consts
        static = self.cx.static_sets
        clauses = []
        for template in templates:
            kept = []
            for pred, get, positive, kind in template:
                values = get(ext)
                if kind is None:
                    kept.append(literal(pred, values, positive))
                elif (values[0] == values[1] if kind is _EQUALITY
                      else values in static[pred]) == positive:
                    break  # statically satisfied
            else:
                if not kept:
                    return None
                clauses.append(kept)
        return clauses

    def action(self, args: tuple[str, ...], bits: dict[Atom, int]
               ) -> GroundAction:
        """The step bound to `args` as a `GroundAction` over `bits`, each
        reachable atom's bit: `clauses_for(args)` split into units and longer
        clauses, trimmed to `bits` as the module docstring says, and the
        effects. The caller knows the step is not statically false."""
        ext = args + self.consts
        static = self.cx.static_sets
        pos = neg = 0
        clauses = []
        for template in self.clauses:
            p = n = size = 0
            for pred, get, positive, kind in template:
                values = get(ext)
                if kind is None:
                    bit = bits.get((pred, values), 0)
                    if positive:
                        p |= bit
                    elif bit:
                        n |= bit
                    else:
                        break  # the clause always holds
                    size += 1
                elif (values[0] == values[1] if kind is _EQUALITY
                      else values in static[pred]) == positive:
                    break  # statically satisfied
            else:
                if size > 1:
                    clauses.append((p, n))
                else:  # a unit, or a static clause that holds
                    pos |= p
                    neg |= n
        add = delete = 0
        for p, get in self.adds:  # every add of a kept action is reachable
            add |= bits[p, get(ext)]
        for p, get in self.dels:
            delete |= bits.get((p, get(ext)), 0)
        return GroundAction(self.name, args, pos, neg, tuple(clauses), add,
                            delete)


class _ActionSchema(_Schema):
    """An `_ActionProgram` on one problem, its signature checks run: the
    precondition templates, guards left out until the fixpoint ends, and
    `adds`/`dels` and `overlaps`, the program's and those of the effect's
    foralls expanded over the objects. The fixpoint reads a binding through
    `needs` alone, and `action` evaluates a kept one into masks."""

    def __init__(self, program: _ActionProgram, cx: _Context):
        for pred, arg, declared in program.checks:
            _check_type(pred, arg, cx.types_of.get(arg), declared, cx.supertypes)
        if program.error is not None:
            raise copy.copy(program.error)
        super().__init__(program, cx, None)
        self.program = program
        self.name = program.name
        self.tests = tuple(t for i, part in enumerate(self._parts)
                           if i not in program.joined and type(part) is tuple
                           for t in part if all(kind is not None or positive
                                                for _, _, positive, kind in t))
        adds: set[Atom] = set()
        dels: set[Atom] = set()
        for c in program.foralls:
            _collect_effects(c, cx.universe, adds, dels)
        if program.effect_error is not None:
            raise copy.copy(program.effect_error)
        adds = tuple(dict.fromkeys((*program.adds, *map(self._index, adds))))
        dels = tuple(dict.fromkeys((*program.dels, *map(self._index, dels))))
        self.consts = tuple(self._consts)
        self.overlaps = program.overlaps if not program.foralls else _overlap_joins(
            adds, dels, len(self.params), self.consts, program.types,
            program.static, program.neqs)
        self.adds = tuple((p, _getter(idx)) for p, idx in adds)
        self.dels = tuple((p, _getter(idx)) for p, idx in dels)

    @cached_property
    def order(self) -> _BoundJoin:
        """The plain enumeration of the schema's bindings over the static
        facts: `run` lists them, `rank` places one."""
        return _BoundJoin(self.program.order, self.cx)

    def check_overlaps(self) -> None:
        """Raise if a binding the static facts allow adds and deletes one
        atom, reachable or not. Only the bindings that meet an overlap's
        equalities are enumerated."""
        for join, rep in self.overlaps:
            for row in _BoundJoin(join, self.cx).run():
                ext = row + self.consts
                args = tuple([ext[s] for s in rep])
                if all(args[s] in self.cx.typed(t)
                       for s, t in self.program.types.items()
                       ) and self.needs(args) is not None:
                    ext = args + self.consts
                    both = ({Atom(p, get(ext)) for p, get in self.adds}
                            & {Atom(p, get(ext)) for p, get in self.dels})
                    raise TypeMismatchError(f"action {self.name} adds and "
                                            f"deletes {sorted(map(str, both))}")

    def needs(self, args: tuple[str, ...]) -> Optional[list[list[tuple]]]:
        """The atoms of each all-positive clause of the precondition bound
        to `args`, or None when it is statically false: all the fixpoint
        reads of it. Only `tests` can be either, the clauses with no negated
        dynamic atom but those of the conjuncts every join decides."""
        return self._fill(self.tests, args, lambda pred, values, _: (pred, values))


class _Worklist:
    """Semi-naive relaxed reachability: the least fixpoint of the actions
    and atoms of a task.

    A schema's needs are its top-level positive dynamic atoms, and each need
    is a trigger: when an atom is reached it is unified with every need of
    its predicate, and the rest of the binding is joined on the static
    facts, the inequalities and the atoms reached so far (`_Join`). So a
    binding is found once, when the last of its needs is reached (by the
    earliest need that gives that atom). A schema without needs enumerates
    its static bindings once. A found binding is checked, not built
    (`_ActionSchema.needs`): it is dropped if statically false, and each
    all-positive clause is one more need, met by any one of its atoms; the
    binding waits here on those (as a one-item list per need, emptied when
    met). Once every need is met the binding is kept and its add effects
    are reached, which fires triggers and meets waiting needs in turn. The
    dynamic init is reached atom by atom the same way. The triggers are the
    program's, each bound to the problem when an atom first fires it.
    `actions` evaluates each kept binding into masks once the fixpoint ends.
    """

    def __init__(self, cx: _Context):
        self.cx = cx
        self.reached = _Reached()
        self.waiting: dict[tuple, list[list]] = {}
        self.schemas: list[_ActionSchema] = []
        self.kept: list[list[tuple[str, ...]]] = []  # per schema, kept args
        self._stack: list[list] = []  # [unmet needs, schema, args, checked]
        self._dispatch: dict[tuple, list[tuple[int, _BoundJoin]]] = {}
        self._bound: dict[_Join, _BoundJoin] = {}
        for k, program in enumerate(cx.program.schemas):
            compiled = _ActionSchema(program, cx)
            compiled.check_overlaps()
            self.schemas.append(compiled)
            self.kept.append([])
            if not program.triggers:
                self._stack.extend([0, k, args, False]
                                   for args in compiled.order.run())
        for atom in cx.init_dynamic:
            self._reach(atom)
        self._run()

    def _reach(self, key: Atom) -> None:
        if not self.reached.add(key):
            return
        for cell in self.waiting.pop(key, ()):
            if cell:  # not met yet through another of its atoms
                waiter = cell.pop()
                waiter[0] -= 1
                if not waiter[0]:
                    self._stack.append(waiter)
        for k, join in self._fired(key):
            self._stack.extend([0, k, args, False] for args in join.run(key[1]))

    def _fired(self, key: Atom) -> list[tuple[int, _BoundJoin]]:
        """The triggers an atom of these argument types can fire."""
        sig = (key[0], tuple(map(self.cx.types_of.get, key[1])))
        fired = self._dispatch.get(sig)
        if fired is None:
            supertypes = self.cx.supertypes
            fired = self._dispatch[sig] = [
                (k, self._bind(join))
                for k, join in self.cx.program.triggers.get(key[0], ())
                if all(typ in supertypes.get(sig[1][pos], ())
                       for pos, typ in join.first_types)]
        return fired

    def _bind(self, join: _Join) -> _BoundJoin:
        bound = self._bound.get(join)
        if bound is None:
            bound = self._bound[join] = _BoundJoin(join, self.cx, self.reached)
        return bound

    def _wait(self, entry: list, needs) -> bool:
        """Queue `entry` on each of `needs` not met yet; False if none."""
        for need in needs:
            if self.reached.keys.isdisjoint(need):
                entry[0] += 1
                cell = [entry]
                for key in need:
                    self.waiting.setdefault(key, []).append(cell)
        return entry[0] > 0

    def _run(self) -> None:
        stack = self._stack
        while stack:
            entry = stack.pop()
            _, k, args, checked = entry
            schema = self.schemas[k]
            if not checked:
                entry[3] = True
                needs = schema.needs(args)
                if needs is None or self._wait(entry, needs):
                    continue  # statically false, or waiting
            self.kept[k].append(args)
            ext = args + schema.consts
            for pred, get in schema.adds:
                self._reach(self.cx.atoms[pred, get(ext)])

    def actions(self, bits: dict[Atom, int]) -> list[GroundAction]:
        """The kept actions as masks over `bits`, schema by schema, each
        schema's in the order of its plain enumeration (`order.rank`), guard
        foralls joined on the final reached atoms."""
        out = []
        for schema, kept in zip(self.schemas, self.kept):
            if kept:
                kept.sort(key=schema.order.rank)
                schema.clauses = schema._templates(self.reached)
                out.extend([schema.action(args, bits) for args in kept])
        return out


def precondition_clauses(domain: Domain, problem: Problem, name: str,
                         args: tuple[str, ...]
                         ) -> Optional[list[list[Literal]]]:
    """The precondition of plan step `name` bound to `args` (`(GOAL, ())`
    for the goal), grounded over the objects and static facts of `problem`
    as `ground` grounds it: CNF clauses over dynamic atoms, or None if it
    is statically false. The step's templates come from the domain's
    program; only the problem's context is built, and the effects are never
    expanded. The step is checked in the problem's own state, so a guard
    forall is joined on its dynamic init."""
    program = domain_program(domain)
    cx = _Context(program, problem)
    return _Schema(program.step(name, problem), cx,
                   _Reached(cx.init_dynamic)).clauses_for(args)


def ground(domain: Domain, problem: Problem) -> GroundedTask:
    """Ground the relaxed-reachable actions of `problem` over its reachable
    atoms. The domain's program, compiled on its first call, is bound to
    the problem (`_Context`); the fixpoint (`_Worklist`) finds each binding
    and checks it for what reachability reads, and each kept action is
    evaluated into masks once, after the fixpoint (see the module
    docstring). An init or goal atom over an undeclared predicate, with the
    wrong arity or with an object of the wrong type raises
    `TypeMismatchError`."""
    program = domain_program(domain)
    cx = _Context(program, problem)
    cx.check(problem.init)

    worklist = _Worklist(cx)
    facts = tuple(sorted(worklist.reached.keys, key=str))
    bits = {f: 1 << i for i, f in enumerate(facts)}

    cx.check(atoms_in(problem.goal))
    schema = _Schema(program.step(GOAL, problem), cx, worklist.reached)
    goal = schema.clauses_for(())
    step = schema.action((), bits) if goal is not None else None
    if step and step.clauses:
        raise UnsupportedConstructError("goal must be a conjunction of literals")
    units = [clause[0] for clause in goal or () if len(clause) == 1]

    return GroundedTask(
        facts=facts,
        actions=tuple(worklist.actions(bits)),
        init=sum(map(bits.__getitem__, cx.init_dynamic)),
        goal_pos=step.pos_pre if step else 0,
        goal_neg=step.neg_pre if step else 0,
        static_facts=frozenset(problem.init).difference(cx.init_dynamic),
        # statically false, or a positive goal atom is never true
        unsolvable_goal=goal is None or any(
            positive and a not in bits for a, positive in units),
        interchangeable=_interchangeable(program.named, problem, units),
    )


def _interchangeable(named: frozenset[str], problem: Problem,
                     goal: list[Literal]) -> tuple[tuple[str, ...], ...]:
    """The classes of interchangeable objects of `problem`, each in the
    problem's object order (Pochter, Zohar & Rosenschein, AAAI 2011;
    Sievers et al., ICAPS 2019). The candidates are the objects that init
    or a grounded goal unit, one of `goal`, names, less `named`, those the domain names:
    its constants and any other name an action schema's precondition or
    effect uses. They are grouped by declared type and by signature: those atoms
    with the object blanked wherever it occurs. Two objects of one
    signature are named together by no such atom, so swapping them fixes
    init, static facts included, and the goal. The domain names neither and
    both have one type, so the swap fixes the lifted problem, and with it
    every grounding: the fact table, and the actions, each onto the one of
    the same name with the swapped arguments."""
    signature: dict[str, set] = {}
    for atom, tag in itertools.chain(((a, None) for a in problem.init), goal):
        args = atom.args
        for x in args:
            signature.setdefault(x, set()).add(
                (tag, atom.predicate,
                 tuple(["?" if y == x else y for y in args])))
    groups: dict[tuple[str, frozenset], list[str]] = {}
    for obj, typ in dict(problem.objects).items():
        if obj in signature and obj not in named:
            groups.setdefault((typ, frozenset(signature[obj])), []).append(obj)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


# -- STRIPS semantics -------------------------------------------------------------

def applicable(state: int, action: GroundAction) -> bool:
    if state & action.pos_pre != action.pos_pre:
        return False
    if state & action.neg_pre:
        return False
    for pos_mask, neg_mask in action.clauses:
        if state & pos_mask:
            continue
        if neg_mask & ~state:
            continue
        return False
    return True


def apply(state: int, action: GroundAction) -> int:
    if not applicable(state, action):
        raise NotApplicableError(f"{action} is not applicable")
    return (state & ~action.delete) | action.add


def goal_satisfied(task: GroundedTask, state: int) -> bool:
    if task.unsolvable_goal:
        return False
    return (state & task.goal_pos == task.goal_pos
            and not state & task.goal_neg)
