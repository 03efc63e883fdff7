"""Grounding of a typed PDDL pair into a propositional STRIPS task.

States are integer bit masks over an indexed set of dynamic ground atoms.
Grounded preconditions are a set of signed literals plus a (usually empty)
list of CNF clauses; clauses arise from universally quantified formulas such
as the STOP_<T>_MOVE closer, (forall (?o - b) (or (dead ?o) (b-moved ?o))),
and from the no-interaction-applies guards on END-TURN-INTERACTIONS.

Facts over static predicates (never added or deleted by any action, e.g.
is-wall, next) are evaluated at grounding time: actions with a statically
false precondition are dropped, literals that are statically true disappear.

`_Schema` is the one path from a formula to ground clauses. It normalizes a
schema precondition once per task, conjunct by conjunct, into clause
templates that a binding fills in; a quantified single clause is expanded
only over the instances the static facts leave open
(`_SchemaGrounder.forall_clauses`, the one grounding context of a call).
The goal is grounded as the precondition of a parameterless schema, the
plan step `GOAL`, and `precondition_clauses` grounds one plan step, the goal
included, for the execution monitor; neither expands effects, which only
`ground`'s `_ActionSchema`s do.

One relaxed-reachability pass picks both the actions and the atoms of the
task (the technique of Fast Downward's translator, Helmert 2009). A
binding's first needs are its top-level positive dynamic atoms; once they
are in init or added by a kept action it is built, and each all-positive
clause of the built action becomes one more need, met by any one of its
atoms. Once every need is met the action is kept and its add effects are
reached, which meets the needs of other bindings in turn. The kept actions
are the least fixpoint of that rule, in enumeration order.

The fact table is the reached atoms alone, init and adds, sorted by text.
An atom outside it is never true, so the masks never name one: a negative
precondition or delete on it is dropped, a positive clause literal on it is
dropped from its clause, and a clause with a negative literal on it always
holds and is dropped. Every binding that survives the static filter is
still checked for adding and deleting the same atom, reachable or not.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional

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
    `facts` always holds and is left out of `goal_neg`."""
    facts: tuple[Atom, ...]
    actions: tuple[GroundAction, ...]
    init: int
    goal_pos: int
    goal_neg: int
    static_facts: frozenset[Atom]
    unsolvable_goal: bool  # a positive goal atom can never become true

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


# -- effects ---------------------------------------------------------------------

def _collect_effects(f: Formula, universe: dict[str, list[str]],
                     adds: set[Atom], dels: set[Atom]) -> None:
    for atom, positive, _ in effect_literals(_expand_foralls(f, universe), {}):
        (adds if positive else dels).add(atom)


# -- schema grounding --------------------------------------------------------------

def _check_signature(domain: Domain, atom: Atom, types_of: dict[str, str],
                     supertypes: dict[str, tuple[str, ...]]) -> None:
    if atom.predicate == "=":
        return
    try:
        pred = domain.predicate(atom.predicate)
    except KeyError:
        raise TypeMismatchError(f"undeclared predicate {atom.predicate!r}")
    if len(pred.params) != len(atom.args):
        raise TypeMismatchError(
            f"{atom.predicate} expects {len(pred.params)} args, got {len(atom.args)}")
    for arg, (_, declared) in zip(atom.args, pred.params):
        actual = types_of.get(arg)
        if actual is None:
            continue  # unbound variable or unknown constant checked elsewhere
        if declared not in supertypes.get(actual, (actual,)):
            raise TypeMismatchError(
                f"{atom.predicate}: {arg} has type {actual}, needs {declared}")


def _split_conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_split_conjuncts(p))
        return out
    return [f]


class _AtomTable(dict):
    """Ground atoms interned by (predicate, args)."""

    def __missing__(self, key: tuple[str, tuple[str, ...]]) -> Atom:
        atom = self[key] = Atom(*key)
        return atom


class _SchemaGrounder:
    """One task's grounding context, built once per call, and backtracking
    enumeration of bindings over its static facts, for action schemas and
    for the instances of statically joined foralls. Each declared type's
    parent chain is walked once, a cycle rejected, into `supertypes`; the
    `universe`, `types_of`, the split of init and `atoms` build on it.

    Static positive atoms both filter candidates (when one argument is left
    unbound, the static fact table supplies its candidates) and reject
    partial bindings early.
    """

    def __init__(self, domain: Domain, problem: Problem):
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
        self.universe: dict[str, list[str]] = {t: [] for t in self.supertypes}
        self.types_of: dict[str, str] = {}
        for obj, typ in tuple(domain.constants) + tuple(problem.objects):
            if typ not in self.supertypes:
                raise TypeMismatchError(f"object {obj!r} has undeclared type {typ!r}")
            self.types_of[obj] = typ
            for t in self.supertypes[typ]:
                self.universe[t].append(obj)

        self.static_preds = domain.static_predicates
        self.added_args = domain.added_args
        self.static_table: dict[str, list[tuple[str, ...]]] = {}
        self.init_dynamic: set[Atom] = set()
        for atom in problem.init:
            if atom.predicate in self.static_preds:
                self.static_table.setdefault(atom.predicate, []).append(atom.args)
            else:
                self.init_dynamic.add(atom)
        self.static_sets = {p: set(rows) for p, rows in self.static_table.items()}
        self.atoms = _AtomTable()
        self._index: dict[tuple[str, int, str],
                          dict[tuple[str, ...], tuple[int, list[str]]]] = {}

    def bindings(self, params: tuple[tuple[str, str], ...],
                 conjuncts: list[Formula]) -> list[tuple[str, ...]]:
        """Bindings of `params` that satisfy the static atoms and the
        inequalities among `conjuncts`, as value tuples in parameter order.

        Parameters are bound in order. Each constraint is checked once, when
        its last parameter is bound (never, if it mentions a variable that
        is not a parameter). A static atom whose only open argument is the
        parameter being bound supplies that parameter's candidates.
        """
        static_atoms: list[Atom] = []
        neq: list[tuple[str, str]] = []
        for c in conjuncts:
            if isinstance(c, Atom) and c.predicate in self.static_preds:
                static_atoms.append(c)
            elif (isinstance(c, Not) and isinstance(c.body, Atom)
                  and c.body.predicate == "="):
                neq.append((c.body.args[0], c.body.args[1]))

        order = [v for v, _ in params]
        types = dict(params)
        depth = {v: i for i, v in enumerate(order)}

        def bound_at(args: tuple[str, ...]) -> Optional[int]:
            level = 0
            for a in args:
                if a in depth:
                    level = max(level, depth[a])
                elif a.startswith("?"):
                    return None
            return level

        # without parameters the one empty binding is never checked
        neq_at: list[list[tuple[str, str]]] = [[] for _ in order]
        for pair in neq:
            level = bound_at(pair)
            if level is not None and order:
                neq_at[level].append(pair)
        static_at: list[list[Atom]] = [[] for _ in order]
        options_at: list[list[tuple[str, int, tuple[str, ...]]]] = [[] for _ in order]
        for atom in static_atoms:
            level = bound_at(atom.args)
            if level is not None and order:
                static_at[level].append(atom)
            for i, var in enumerate(order):
                open_args = [a for a in atom.args if a.startswith("?")
                             and depth.get(a, i) >= i]
                if open_args == [var]:
                    pos = atom.args.index(var)
                    options_at[i].append((atom.predicate, pos,
                                          atom.args[:pos] + atom.args[pos + 1:]))

        binding: dict[str, str] = {}
        out: list[tuple[str, ...]] = []

        def consistent(i: int) -> bool:
            for a, b in neq_at[i]:
                if binding.get(a, a) == binding.get(b, b):
                    return False
            for atom in static_at[i]:
                args = tuple([binding.get(a, a) for a in atom.args])
                if args not in self.static_sets.get(atom.predicate, ()):
                    return False
            return True

        def candidates(i: int) -> list[str]:
            typ = types[order[i]]
            best: Optional[list[str]] = None
            best_rows = 0
            for pred, pos, others in options_at[i]:
                rows, opts = self._options(
                    pred, pos, typ, tuple([binding.get(a, a) for a in others]))
                if best is None or rows < best_rows:
                    best, best_rows = opts, rows
            return self.universe.get(typ, []) if best is None else best

        def search(i: int):
            if i == len(order):
                out.append(tuple(map(binding.__getitem__, order)))
                return
            var = order[i]
            for value in candidates(i):
                binding[var] = value
                if consistent(i):
                    search(i + 1)
                del binding[var]

        search(0)
        return out

    def _options(self, pred: str, pos: int, typ: str, others: tuple[str, ...]
                 ) -> tuple[int, list[str]]:
        """Values at `pos` of the `pred` rows whose other arguments are
        `others`: (how many rows match, the distinct values of type `typ` in
        table order). Indexed once per (pred, pos, typ)."""
        index = self._index.get((pred, pos, typ))
        if index is None:
            matches: dict[tuple[str, ...], list[str]] = {}
            for row in self.static_table.get(pred, ()):
                matches.setdefault(row[:pos] + row[pos + 1:], []).append(row[pos])
            allowed = set(self.universe.get(typ, []))
            index = self._index[pred, pos, typ] = {
                key: (len(values), [o for o in dict.fromkeys(values) if o in allowed])
                for key, values in matches.items()}
        return index.get(others, (0, []))

    def forall_clauses(self, f: Forall) -> Optional[list[list[Literal]]]:
        """The CNF of a forall whose body is one clause with a joinable
        literal, or None for any other forall.

        A literal is joinable when it is a negated static atom or a positive
        equality, and each of its arguments is a variable of the forall or a
        constant. Only instances static evaluation cannot satisfy are
        expanded: they need every joinable literal to be false, which is a
        static join, where the full product is mostly satisfied instances.
        The clauses keep `itertools.product` order and leave the joinable
        literals out; a negated equality over the forall's variables is
        folded, an instance negating a `_never_true` atom is skipped, and
        every other literal is kept for the caller (one that mentions a
        schema parameter is only decided per binding).
        """
        names = [v for v, _ in f.variables]
        literals: list[tuple[Atom, bool, bool]] = []  # atom, positive, decided
        constraints: list[Formula] = []
        for lit in f.body.parts if isinstance(f.body, Or) else (f.body,):
            atom = lit.body if isinstance(lit, Not) else lit
            if not isinstance(atom, Atom):
                return None
            positive = lit is atom
            decided = all(a in names or not a.startswith("?") for a in atom.args)
            if decided and not positive and atom.predicate in self.static_preds:
                constraints.append(atom)
            elif decided and positive and atom.predicate == "=":
                constraints.append(Not(atom))
            else:
                literals.append((atom, positive, decided))
        if not constraints:
            return None
        rows = self.bindings(f.variables, constraints)
        ranks = [{o: i for i, o in enumerate(self.universe.get(typ, []))}
                 for _, typ in f.variables]
        rows.sort(key=lambda row: tuple(map(dict.__getitem__, ranks, row)))
        clauses = []
        for row in rows:
            binding = dict(zip(names, row))
            clause: list[Literal] = []
            for atom, positive, decided in literals:
                args = tuple([binding.get(a, a) for a in atom.args])
                if decided and not positive and (
                        args[0] != args[1] if atom.predicate == "="
                        else self._never_true(atom.predicate, args)):
                    break  # the instance holds
                if not decided or atom.predicate != "=":
                    clause.append((Atom(atom.predicate, args), positive))
            else:
                clauses.append(clause)
        return clauses

    def _never_true(self, pred: str, args: tuple[str, ...]) -> bool:
        """The dynamic atom is not in init, and no add effect puts the type
        or the constant of one of its arguments there (`added_args`)."""
        return Atom(pred, args) not in self.init_dynamic and any(
            self.added_args.get((pred, i), set()).isdisjoint(
                (arg, *self.supertypes.get(self.types_of.get(arg), ())))
            for i, arg in enumerate(args))


_EQUALITY = object()  # the "table" of an equality literal in a template


def _arg_getter(idx: tuple[int, ...]):
    """Map `ext` to the tuple of its items at `idx` (itemgetter returns a
    bare item for one index and fails for none; slices keep tuples)."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else itemgetter(slice(0))


class _Schema:
    """A schema precondition, normalized once per task into clause
    templates: the only code that grounds a formula into clauses. The goal
    (the precondition of a parameterless schema) and the monitor's check
    build this alone; `_ActionSchema` adds what `ground` reads of an action.

    A binding's values followed by the constants the schema mentions form
    its `ext` tuple; each template atom is a predicate and a getter of its
    arguments from `ext`.

    `clauses` is the precondition CNF as clause templates, taken one
    conjunct at a time (the CNF of a conjunction is its conjuncts' CNFs in
    order): a forall whose body is one clause through the static join
    `forall_clauses`, any other conjunct with its foralls expanded.
    `clauses_for` fills them in for one binding: it substitutes their
    arguments and decides their static and equality literals. Equalities
    are folded after the CNF, so a conjunct with an equality under a
    conjunction under a disjunction may keep a clause that the conjunct's
    other clauses imply.
    """

    def __init__(self, params: tuple[tuple[str, str], ...],
                 precondition: Formula, grounder: _SchemaGrounder):
        self.atoms = grounder.atoms
        self.params = tuple(v for v, _ in params)
        self._slot = {v: i for i, v in enumerate(self.params)}
        self._consts: list[str] = []
        static_preds = grounder.static_preds
        static_sets = grounder.static_sets

        def table(pred: str):
            if pred == "=":
                return _EQUALITY
            if pred in static_preds:
                return static_sets.get(pred, frozenset())
            return None

        def template(clause: list[Literal]) -> tuple:
            out = []
            for atom, positive in clause:
                pred, idx = self._index(atom)
                out.append((pred, _arg_getter(idx), positive, table(pred)))
            return tuple(out)

        self.conjuncts = _split_conjuncts(precondition)
        clauses = []
        for conjunct in self.conjuncts:
            cnf = (grounder.forall_clauses(conjunct)
                   if isinstance(conjunct, Forall) else None)
            if cnf is None:
                cnf = _cnf(_nnf(_expand_foralls(conjunct, grounder.universe),
                                False))
            clauses.extend(map(template, cnf))
        self.clauses = tuple(clauses)
        self.consts = tuple(self._consts)

    def _index(self, atom: Atom) -> tuple[str, tuple[int, ...]]:
        """The predicate of `atom` and the `ext` positions of its arguments."""
        slot = self._slot
        for a in atom.args:
            if a not in slot:
                slot[a] = len(slot)
                self._consts.append(a)
        return atom.predicate, tuple(slot[a] for a in atom.args)

    def clauses_for(self, args: tuple[str, ...]
                    ) -> Optional[list[list[Literal]]]:
        """The precondition bound to `args` as CNF clauses over dynamic
        atoms, or None when it is statically false."""
        ext = args + self.consts
        atoms = self.atoms
        clauses = []
        for template in self.clauses:
            kept = []
            for pred, get, positive, table in template:
                values = get(ext)
                if table is None:
                    kept.append((atoms[pred, values], positive))
                elif (values[0] == values[1] if table is _EQUALITY
                      else values in table) == positive:
                    break  # statically satisfied
            else:
                if not kept:
                    return None
                clauses.append(kept)
        return clauses


class _ActionSchema(_Schema):
    """An action schema as `ground` reads it: the precondition templates,
    `needs` (the top-level positive dynamic atoms), `adds`/`dels` (the
    effects with foralls expanded) and `overlaps` (the argument equalities
    under which an add and a delete coincide)."""

    def __init__(self, schema: Action, grounder: _SchemaGrounder):
        super().__init__(schema.params, schema.precondition, grounder)
        self.name = schema.name
        needs = dict.fromkeys(
            self._index(c) for c in self.conjuncts if isinstance(c, Atom)
            and c.predicate != "=" and c.predicate not in grounder.static_preds)
        self.needs = tuple((p, _arg_getter(idx)) for p, idx in needs)

        adds: set[Atom] = set()
        dels: set[Atom] = set()
        _collect_effects(schema.effect, grounder.universe, adds, dels)
        add_idx = [self._index(a) for a in adds]
        del_idx = [self._index(a) for a in dels]
        self.adds = tuple((p, _arg_getter(idx)) for p, idx in add_idx)
        self.dels = tuple((p, _arg_getter(idx)) for p, idx in del_idx)
        n = len(self.params)
        overlaps = []
        for p, ia in add_idx:
            for q, idl in del_idx:
                if p != q or len(ia) != len(idl):
                    continue
                conds = tuple((i, j) for i, j in zip(ia, idl) if i != j)
                # two distinct constants at one position never coincide
                if not any(i >= n and j >= n for i, j in conds):
                    overlaps.append(conds)
        self.overlaps = tuple(overlaps)
        self.consts = tuple(self._consts)

    def needs_of(self, ext: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
        return [(p, get(ext)) for p, get in self.needs]

    def may_overlap(self, ext: tuple[str, ...]) -> bool:
        return any(all(ext[i] == ext[j] for i, j in conds)
                   for conds in self.overlaps)

    def build(self, args: tuple[str, ...]):
        """The grounded action as (name, args, clauses, adds, dels), or None
        when its precondition is statically false."""
        clauses = self.clauses_for(args)
        if clauses is None:
            return None
        ext = args + self.consts
        atoms = self.atoms
        adds = {atoms[p, get(ext)] for p, get in self.adds}
        dels = {atoms[p, get(ext)] for p, get in self.dels}
        both = adds & dels
        if both:
            raise TypeMismatchError(
                f"action {self.name} adds and deletes {sorted(map(str, both))}")
        return self.name, args, clauses, adds, dels


class _Worklist:
    """Counter-based relaxed reachability over enumerated bindings.

    A binding waits on its needs, each a list of atoms met by any one of
    them. Its top-level positive dynamic atoms are one-atom needs; when they
    are met it is built, and each all-positive clause of the built action is
    one more need. When every need is met the action is kept and its add
    effects are reached, which meets needs in turn. Atoms are (predicate,
    args) keys; a need waits as a one-item list that is emptied when met.
    """

    def __init__(self, reached: set[tuple[str, tuple[str, ...]]]):
        self.reached = reached
        self.waiting: dict[tuple[str, tuple[str, ...]], list[list]] = {}
        self.kept: dict[int, tuple] = {}
        self.count = 0

    def add(self, schema: _Schema, args: tuple[str, ...], needs) -> None:
        # [unmet needs, enumeration index, schema, args, built action]
        entry = [0, self.count, schema, args, None]
        self.count += 1
        if not self._wait(entry, [(key,) for key in needs]):
            self._fire(entry)

    def _wait(self, entry: list, needs) -> bool:
        """Queue `entry` on each of `needs` not met yet; False if none."""
        for need in needs:
            if self.reached.isdisjoint(need):
                entry[0] += 1
                cell = [entry]
                for key in need:
                    self.waiting.setdefault(key, []).append(cell)
        return entry[0] > 0

    def _fire(self, entry: list) -> None:
        stack = [entry]
        while stack:
            entry = stack.pop()
            raw = entry[4]
            if raw is None:
                raw = entry[4] = entry[2].build(entry[3])
                if raw is None:
                    continue  # statically false
                if self._wait(entry, [
                        [(atom.predicate, atom.args) for atom, _ in clause]
                        for clause in raw[2]
                        if all(positive for _, positive in clause)]):
                    continue
            self.kept[entry[1]] = raw
            for atom in raw[3]:
                key = (atom.predicate, atom.args)
                if key in self.reached:
                    continue
                self.reached.add(key)
                for cell in self.waiting.pop(key, ()):
                    if cell:  # not met yet through another of its atoms
                        waiter = cell.pop()
                        waiter[0] -= 1
                        if not waiter[0]:
                            stack.append(waiter)

    def actions(self) -> list[tuple]:
        """The kept actions in enumeration order."""
        return [self.kept[i] for i in sorted(self.kept)]


def _step_schema(domain: Domain, problem: Problem, name: str,
                 grounder: _SchemaGrounder) -> _Schema:
    """The precondition of plan step `name`; the step `GOAL` is the goal of
    `problem`, a parameterless schema."""
    if name == GOAL:
        return _Schema((), problem.goal, grounder)
    schema = next(a for a in domain.actions if a.name == name)
    return _Schema(schema.params, schema.precondition, grounder)


def precondition_clauses(domain: Domain, problem: Problem, name: str,
                         args: tuple[str, ...]
                         ) -> Optional[list[list[Literal]]]:
    """The precondition of plan step `name` bound to `args` (`(GOAL, ())`
    for the goal), grounded over the objects and static facts of `problem`
    as `ground` grounds it: CNF clauses over dynamic atoms, or None if it
    is statically false. Only the precondition is normalized; the effects
    are never expanded."""
    grounder = _SchemaGrounder(domain, problem)
    return _step_schema(domain, problem, name, grounder).clauses_for(args)


def ground(domain: Domain, problem: Problem) -> GroundedTask:
    """Ground the relaxed-reachable actions of `problem` over its reachable
    atoms.

    Bindings are enumerated schema by schema, joined on the static facts;
    each is kept once its needs are met (see the module docstring) and the
    kept actions keep enumeration order. The fact table holds the reached
    atoms, sorted by text, and the masks are trimmed to it.
    """
    grounder = _SchemaGrounder(domain, problem)
    supertypes = grounder.supertypes
    for atom in problem.init:
        _check_signature(domain, atom, grounder.types_of, supertypes)

    atoms = grounder.atoms
    init_dynamic = grounder.init_dynamic
    worklist = _Worklist({(a.predicate, a.args) for a in init_dynamic})
    for schema in domain.actions:
        types_of = dict(schema.params) | grounder.types_of
        for atom in itertools.chain(atoms_in(schema.precondition),
                                    atoms_in(schema.effect)):
            _check_signature(domain, atom, types_of, supertypes)
        compiled: Optional[_ActionSchema] = None  # normalized at the first binding
        for args in grounder.bindings(schema.params,
                                      _split_conjuncts(schema.precondition)):
            if compiled is None:
                compiled = _ActionSchema(schema, grounder)
            ext = args + compiled.consts
            if compiled.may_overlap(ext):
                compiled.build(args)  # raises unless statically false
            worklist.add(compiled, args, compiled.needs_of(ext))
    raw_actions = worklist.actions()
    facts = tuple(sorted((atoms[key] for key in worklist.reached), key=str))
    fact_id = {f: i for i, f in enumerate(facts)}

    def mask(members: Iterable[Atom]) -> int:
        """The bits of those `members` that can become true."""
        m = 0
        for a in members:
            i = fact_id.get(a)
            if i is not None:
                m |= 1 << i
        return m

    actions = []
    for name, args, clauses, adds, dels in raw_actions:
        pos_atoms: list[Atom] = []
        neg_atoms: list[Atom] = []
        multi: list[list[Literal]] = []
        for clause in clauses:
            if len(clause) == 1:
                atom, positive = clause[0]
                (pos_atoms if positive else neg_atoms).append(atom)
            elif all(positive or a in fact_id for a, positive in clause):
                multi.append(clause)
            # else a negative literal on a never-true atom: always holds
        actions.append(GroundAction(
            name=name,
            args=args,
            pos_pre=mask(pos_atoms),
            neg_pre=mask(neg_atoms),
            clauses=tuple((mask(a for a, p in cl if p),
                           mask(a for a, p in cl if not p)) for cl in multi),
            add=mask(adds),
            delete=mask(dels),
        ))

    goal = _step_schema(domain, problem, GOAL, grounder).clauses_for(())
    if goal is not None and any(len(clause) != 1 for clause in goal):
        raise UnsupportedConstructError("goal must be a conjunction of literals")
    unsolvable = goal is None  # statically false
    goal_pos = 0
    goal_neg = 0
    for [(atom, positive)] in goal or ():
        if atom not in fact_id:
            unsolvable |= positive  # never true
        elif positive:
            goal_pos |= 1 << fact_id[atom]
        else:
            goal_neg |= 1 << fact_id[atom]

    return GroundedTask(
        facts=facts,
        actions=tuple(actions),
        init=mask(init_dynamic),
        goal_pos=goal_pos,
        goal_neg=goal_neg,
        static_facts=frozenset(problem.init).difference(init_dynamic),
        unsolvable_goal=unsolvable,
    )


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
