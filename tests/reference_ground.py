"""The naive grounding contract, kept as the reference the tests compare with.

`reference_ground` instantiates every binding that survives the static
preconditions (the static-filtered cross product, reachable or not) and
builds each one by substituting and normalizing the whole precondition;
`reference_simplify` then drops what relaxed reachability rules out. This is
the grounder and simplifier `vgdl2pddl.ground` had before it grounded only the
relaxed-reachable actions, copied verbatim apart from the names and the
`GroundedTask` fields it no longer has, together with the whole-formula
normalization it used (`normalize_ground`, which folds equalities before
the CNF). The production `ground(x)` must equal
`reference_simplify(reference_ground(x))` literal for literal, once the
atoms that never become true are removed from the reference's masks
(`without_never_true` in `tests/test_ground.py`).
"""
from __future__ import annotations

from typing import Iterable, Optional

from vgdl2pddl.errors import TypeMismatchError, UnsupportedConstructError
from vgdl2pddl.ground import (
    GroundAction,
    GroundedTask,
    Literal,
    _cnf,
    _collect_effects,
    _expand_foralls,
    _nnf,
    _split_conjuncts,
    _substitute,
)
from vgdl2pddl.pddl import (And, Atom, Domain, Formula, Not, Or, Problem, ROOT_TYPE,
                            atoms_in)


def _build_universe(domain: Domain, problem: Problem) -> dict[str, list[str]]:
    parents = dict(domain.types)
    known = set(parents) | {ROOT_TYPE}
    for name, parent in domain.types:
        if parent is not None and parent not in known:
            raise TypeMismatchError(f"type {name!r} has undeclared parent {parent!r}")
    universe: dict[str, list[str]] = {t: [] for t in known}
    for obj, typ in tuple(domain.constants) + tuple(problem.objects):
        if typ not in known:
            raise TypeMismatchError(f"object {obj!r} has undeclared type {typ!r}")
        cur: Optional[str] = typ
        seen: set[str] = set()
        while cur is not None:
            if cur in seen:
                raise TypeMismatchError(f"type cycle at {cur!r}")
            seen.add(cur)
            universe[cur].append(obj)
            if cur == ROOT_TYPE:
                break
            cur = parents.get(cur)
    return universe


def _roots_at_object(parents: dict[str, Optional[str]], typ: str) -> bool:
    cur: Optional[str] = typ
    while cur is not None:
        if cur == ROOT_TYPE:
            return True
        cur = parents.get(cur)
    return False


def _check_signature(domain: Domain, atom: Atom, types_of: dict[str, str],
                     parents_closure) -> None:
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
        if declared not in parents_closure(actual):
            raise TypeMismatchError(
                f"{atom.predicate}: {arg} has type {actual}, needs {declared}")


_TRUE = object()
_FALSE = object()


def _eval_equalities(f: Formula) -> Formula:
    """Fold ground (= a b) atoms into true/false and simplify."""
    if isinstance(f, Atom):
        if f.predicate == "=":
            return _TRUE if f.args[0] == f.args[1] else _FALSE  # type: ignore
        return f
    if isinstance(f, Not):
        body = _eval_equalities(f.body)
        if body is _TRUE:
            return _FALSE  # type: ignore
        if body is _FALSE:
            return _TRUE  # type: ignore
        return Not(body)  # type: ignore[arg-type]
    if isinstance(f, And):
        parts = []
        for p in f.parts:
            q = _eval_equalities(p)
            if q is _FALSE:
                return _FALSE  # type: ignore
            if q is _TRUE:
                continue
            parts.append(q)
        return And(tuple(parts))
    if isinstance(f, Or):
        parts = []
        for p in f.parts:
            q = _eval_equalities(p)
            if q is _TRUE:
                return _TRUE  # type: ignore
            if q is _FALSE:
                continue
            parts.append(q)
        return Or(tuple(parts))
    raise TypeError(f"unexpected formula: {f!r}")


def normalize_ground(f: Formula, universe: dict[str, list[str]]
                     ) -> Optional[list[list[Literal]]]:
    """Ground formula -> CNF clause list, or None if statically false."""
    expanded = _expand_foralls(f, universe)
    folded = _eval_equalities(expanded)
    if folded is _TRUE:
        return []
    if folded is _FALSE:
        return None
    return _cnf(_nnf(folded, False))


class _SchemaGrounder:
    """Backtracking enumeration of one action schema's bindings.

    Static positive atoms both filter candidates (when one argument is left
    unbound, the static fact table supplies its candidates) and reject
    partial bindings early.
    """

    def __init__(self, task_statics: dict[str, list[tuple[str, ...]]],
                 static_preds: frozenset[str]):
        self.static_table = task_statics
        self.static_preds = static_preds

    def bindings(self, params: tuple[tuple[str, str], ...],
                 universe: dict[str, list[str]],
                 conjuncts: list[Formula]):
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
        binding: dict[str, str] = {}
        out: list[dict[str, str]] = []

        def consistent() -> bool:
            for a, b in neq:
                va, vb = binding.get(a, a), binding.get(b, b)
                if va.startswith("?") or vb.startswith("?"):
                    continue  # not fully bound yet
                if va == vb:
                    return False
            for atom in static_atoms:
                args = [binding.get(a, a) for a in atom.args]
                if any(a.startswith("?") for a in args):
                    continue
                if tuple(args) not in self.static_table.get(atom.predicate, ()):
                    return False
            return True

        def candidates(var: str) -> list[str]:
            base = universe.get(types[var], [])
            best: Optional[list[str]] = None
            for atom in static_atoms:
                if var not in atom.args:
                    continue
                args = [binding.get(a, a) for a in atom.args]
                if sum(a.startswith("?") for a in args) != 1:
                    continue
                pos = args.index(var)
                opts = []
                for row in self.static_table.get(atom.predicate, ()):
                    if all(a.startswith("?") or a == r for a, r in zip(args, row)):
                        opts.append(row[pos])
                if best is None or len(opts) < len(best):
                    best = opts
            if best is None:
                return list(base)
            allowed = set(universe.get(types[var], []))
            return [o for o in dict.fromkeys(best) if o in allowed]

        def search(i: int):
            if i == len(order):
                out.append(dict(binding))
                return
            var = order[i]
            for value in candidates(var):
                binding[var] = value
                if consistent():
                    search(i + 1)
                del binding[var]

        search(0)
        return out


def reference_ground(domain: Domain, problem: Problem) -> GroundedTask:
    universe = _build_universe(domain, problem)
    parents = dict(domain.types)

    def closure(typ: str) -> set[str]:
        out = {typ}
        cur: Optional[str] = typ
        while cur in parents and parents[cur] is not None:
            cur = parents[cur]
            out.add(cur)
        if _roots_at_object(parents, typ):
            out.add(ROOT_TYPE)
        return out

    types_of = {name: typ for name, typ in
                tuple(domain.constants) + tuple(problem.objects)}

    static_preds = domain.static_predicates

    # init facts, type-checked and split static/dynamic
    static_table: dict[str, list[tuple[str, ...]]] = {}
    init_dynamic: set[Atom] = set()
    static_facts: set[Atom] = set()
    for atom in problem.init:
        _check_signature(domain, atom, types_of, closure)
        if atom.predicate in static_preds:
            static_table.setdefault(atom.predicate, []).append(atom.args)
            static_facts.add(atom)
        else:
            init_dynamic.add(atom)

    grounder = _SchemaGrounder(static_table, static_preds)

    raw_actions: list[tuple[str, tuple[str, ...], list[list[Literal]],
                            set[Atom], set[Atom]]] = []
    for schema in domain.actions:
        conjuncts = _split_conjuncts(schema.precondition)
        for atom in atoms_in(schema.precondition):
            _check_signature(domain, atom, dict(schema.params) | types_of, closure)
        for atom in atoms_in(schema.effect):
            _check_signature(domain, atom, dict(schema.params) | types_of, closure)
        for binding in grounder.bindings(schema.params, universe, conjuncts):
            pre = _substitute(schema.precondition, binding)
            cnf = normalize_ground(pre, universe)
            if cnf is None:
                continue
            # evaluate static literals now
            clauses: list[list[Literal]] = []
            impossible = False
            for clause in cnf:
                kept: list[Literal] = []
                sat = False
                for atom, positive in clause:
                    if atom.predicate in static_preds:
                        holds = atom in static_facts
                        if holds == positive:
                            sat = True
                            break
                    else:
                        kept.append((atom, positive))
                if sat:
                    continue
                if not kept:
                    impossible = True
                    break
                clauses.append(kept)
            if impossible:
                continue
            adds: set[Atom] = set()
            dels: set[Atom] = set()
            eff = _substitute(schema.effect, binding)
            _collect_effects(eff, universe, adds, dels)
            both = adds & dels
            if both:
                raise TypeMismatchError(
                    f"action {schema.name} adds and deletes {sorted(map(str, both))}")
            args = tuple(binding[v] for v, _ in schema.params)
            raw_actions.append((schema.name, args, clauses, adds, dels))

    # fact index over dynamic atoms
    fact_set: set[Atom] = set(init_dynamic)
    for _, _, clauses, adds, dels in raw_actions:
        for clause in clauses:
            fact_set.update(a for a, _ in clause)
        fact_set.update(adds)
        fact_set.update(dels)

    # goal
    goal_cnf = normalize_ground(problem.goal, universe)
    if goal_cnf is None:
        goal_literals: tuple[Literal, ...] = ((Atom("=", ("a", "b")), True),)
        unsolvable = True
    else:
        goal_lits: list[Literal] = []
        unsolvable = False
        for clause in goal_cnf:
            if len(clause) != 1:
                raise UnsupportedConstructError(
                    "goal must be a conjunction of literals")
            goal_lits.append(clause[0])
        goal_literals = tuple(goal_lits)
        for atom, positive in goal_literals:
            if atom.predicate in static_preds:
                if (atom in static_facts) != positive:
                    unsolvable = True
            else:
                fact_set.update({atom})

    facts = tuple(sorted(fact_set, key=str))
    fact_id = {f: i for i, f in enumerate(facts)}

    def mask(atoms: Iterable[Atom]) -> int:
        m = 0
        for a in atoms:
            m |= 1 << fact_id[a]
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
            else:
                multi.append(clause)
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

    goal_pos = 0
    goal_neg = 0
    for atom, positive in goal_literals:
        i = fact_id.get(atom)
        if i is None:
            continue
        if positive:
            goal_pos |= 1 << i
        else:
            goal_neg |= 1 << i

    return GroundedTask(
        facts=facts,
        actions=tuple(actions),
        init=mask(init_dynamic),
        goal_pos=goal_pos,
        goal_neg=goal_neg,
        static_facts=frozenset(static_facts),
        unsolvable_goal=unsolvable,
    )


def reference_simplify(task: GroundedTask) -> GroundedTask:
    """Drop actions and clause literals that relaxed reachability rules out.

    Sound for search: a pruned action has a positive precondition that can
    never become true, a pruned clause is permanently satisfied by a negative
    literal whose atom can never become true.
    """
    def optimistic(a: GroundAction, reachable: int) -> bool:
        if a.pos_pre & ~reachable:
            return False
        for pos_mask, neg_mask in a.clauses:
            # negative literals are optimistically satisfiable; a clause of
            # only positives needs at least one reachable atom
            if neg_mask == 0 and not pos_mask & reachable:
                return False
        return True

    reachable = task.init
    while True:
        new_reachable = reachable
        for a in task.actions:
            if optimistic(a, reachable):
                new_reachable |= a.add
        if new_reachable == reachable:
            break
        reachable = new_reachable

    ever_true = reachable
    kept = [a for a in task.actions if optimistic(a, ever_true)]
    simplified = []
    for a in kept:
        new_clauses = []
        dead = False
        for pos_mask, neg_mask in a.clauses:
            # a negative literal over a never-true fact satisfies the clause
            if neg_mask & ~ever_true:
                continue
            pos_mask &= ever_true
            if pos_mask == 0 and neg_mask == 0:
                dead = True
                break
            new_clauses.append((pos_mask, neg_mask))
        if dead:
            continue
        simplified.append(GroundAction(
            name=a.name, args=a.args, pos_pre=a.pos_pre, neg_pre=a.neg_pre,
            clauses=tuple(new_clauses), add=a.add, delete=a.delete,
        ))
    return GroundedTask(
        facts=task.facts, actions=tuple(simplified),
        init=task.init, goal_pos=task.goal_pos, goal_neg=task.goal_neg,
        static_facts=task.static_facts,
        unsolvable_goal=task.unsolvable_goal or bool(task.goal_pos & ~ever_true),
    )
