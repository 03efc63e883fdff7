"""Independent naive interpreter used as a cross-check oracle.

Deliberately shares no code with vgdl2pddl.ground: formulas are evaluated
recursively over explicit atom sets, and instantiation is a plain cross
product over the typed universe.
"""
from __future__ import annotations

import itertools

from vgdl2pddl.pddl import And, Atom, Domain, Forall, Not, Or, Problem, ROOT_TYPE


def universe_of(domain: Domain, problem: Problem) -> dict[str, list[str]]:
    parents = dict(domain.types)
    uni: dict[str, list[str]] = {t: [] for t in list(parents) + [ROOT_TYPE]}
    for obj, typ in tuple(domain.constants) + tuple(problem.objects):
        cur = typ
        while cur is not None:
            uni.setdefault(cur, []).append(obj)
            if cur == ROOT_TYPE:
                break
            cur = parents.get(cur)
    return uni


def substitute(f, binding):
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(binding.get(a, a) for a in f.args))
    if isinstance(f, Not):
        return Not(substitute(f.body, binding))
    if isinstance(f, And):
        return And(tuple(substitute(p, binding) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, binding) for p in f.parts))
    if isinstance(f, Forall):
        shadowed = {v for v, _ in f.variables}
        inner = {k: v for k, v in binding.items() if k not in shadowed}
        return Forall(f.variables, substitute(f.body, inner))
    raise TypeError(f)


def evaluate(f, atoms: frozenset, uni: dict[str, list[str]]) -> bool:
    if isinstance(f, Atom):
        if f.predicate == "=":
            return f.args[0] == f.args[1]
        return f in atoms
    if isinstance(f, Not):
        return not evaluate(f.body, atoms, uni)
    if isinstance(f, And):
        return all(evaluate(p, atoms, uni) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate(p, atoms, uni) for p in f.parts)
    if isinstance(f, Forall):
        domains = [[(v, o) for o in uni.get(t, [])] for v, t in f.variables]
        for combo in itertools.product(*domains):
            if not evaluate(substitute(f.body, dict(combo)), atoms, uni):
                return False
        return True
    raise TypeError(f)


def effects(f, atoms: frozenset, uni) -> tuple[set, set]:
    adds: set = set()
    dels: set = set()

    def walk(g):
        if isinstance(g, Atom):
            adds.add(g)
        elif isinstance(g, Not):
            dels.add(g.body)
        elif isinstance(g, And):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Forall):
            domains = [[(v, o) for o in uni.get(t, [])] for v, t in g.variables]
            for combo in itertools.product(*domains):
                walk(substitute(g.body, dict(combo)))
        else:
            raise TypeError(g)

    walk(f)
    return adds, dels


def naive_apply(domain: Domain, problem: Problem, atoms: frozenset,
                name: str, args: tuple[str, ...]):
    """Evaluate precondition and apply effects by formula walking, or None."""
    uni = universe_of(domain, problem)
    schema = next(a for a in domain.actions if a.name == name)
    binding = {v: obj for (v, _), obj in zip(schema.params, args)}
    pre = substitute(schema.precondition, binding)
    if not evaluate(pre, atoms, uni):
        return None
    adds, dels = effects(substitute(schema.effect, binding), atoms, uni)
    return frozenset((set(atoms) - dels) | adds)


def naive_ground_actions(domain: Domain, problem: Problem,
                         static_preds: set[str], init: frozenset):
    """Cross-product instantiation filtered by static preconditions in init."""
    uni = universe_of(domain, problem)
    out = set()
    static_atoms = frozenset(a for a in init if a.predicate in static_preds)
    for schema in domain.actions:
        domains = [uni.get(t, []) for _, t in schema.params]
        for combo in itertools.product(*domains):
            binding = {v: obj for (v, _), obj in zip(schema.params, combo)}
            pre = substitute(schema.precondition, binding)
            if _statics_hold(pre, static_atoms, static_preds, uni):
                out.add((schema.name, tuple(combo)))
    return out


def _statics_hold(f, static_atoms, static_preds, uni) -> bool:
    """Check only the top-level static conjuncts (including equality)."""
    parts = f.parts if isinstance(f, And) else (f,)
    for p in parts:
        if isinstance(p, Atom):
            if p.predicate == "=":
                if p.args[0] != p.args[1]:
                    return False
            elif p.predicate in static_preds and p not in static_atoms:
                return False
        elif isinstance(p, Not) and isinstance(p.body, Atom):
            atom = p.body
            if atom.predicate == "=":
                if atom.args[0] == atom.args[1]:
                    return False
            elif atom.predicate in static_preds and atom in static_atoms:
                return False
    return True


def static_predicates(domain: Domain) -> set[str]:
    """Predicates no action effect mentions."""
    mentioned: set[str] = set()

    def walk(g):
        if isinstance(g, Atom):
            mentioned.add(g.predicate)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Forall):
            walk(g.body)

    for action in domain.actions:
        walk(action.effect)
    return {p.name for p in domain.predicates} - mentioned


def holds_optimistically(f, positive: bool, reached: set, static_atoms,
                         static_preds: set[str], uni) -> bool:
    """Whether `f` (negated unless `positive`) can hold once `reached` is:
    a positive dynamic atom holds iff it is reached, a negated dynamic atom
    always holds, and static atoms, `=`, `or` and `forall` are evaluated as
    written."""
    if isinstance(f, Atom):
        if f.predicate == "=":
            value = f.args[0] == f.args[1]
        elif f.predicate in static_preds:
            value = f in static_atoms
        else:
            return f in reached if positive else True
        return value == positive
    if isinstance(f, Not):
        return holds_optimistically(f.body, not positive, reached,
                                    static_atoms, static_preds, uni)
    if isinstance(f, Forall):
        domains = [[(v, o) for o in uni.get(t, [])] for v, t in f.variables]
        parts = [substitute(f.body, dict(combo))
                 for combo in itertools.product(*domains)]
        conjunction = True
    elif isinstance(f, (And, Or)):
        parts = f.parts
        conjunction = isinstance(f, And)
    else:
        raise TypeError(f)
    # a negated conjunction is a disjunction of negations, and vice versa
    combine = all if conjunction == positive else any
    return combine(holds_optimistically(p, positive, reached, static_atoms,
                                        static_preds, uni) for p in parts)


def relaxed_reachable(domain: Domain, problem: Problem, static_preds: set[str],
                      actions: set) -> tuple[set, set]:
    """(the (name, args) in `actions` that relaxed reachability keeps, the
    atoms it reaches).

    An action fires once its precondition holds optimistically (see
    `holds_optimistically`) over init and the adds of the actions that
    already fired; deletes are ignored. Iterated to a fixpoint by plain
    rescanning.
    """
    uni = universe_of(domain, problem)
    schemas = {a.name: a for a in domain.actions}
    static_atoms = frozenset(a for a in problem.init
                             if a.predicate in static_preds)
    pres = {}
    adds = {}
    for name, args in actions:
        schema = schemas[name]
        binding = {v: obj for (v, _), obj in zip(schema.params, args)}
        pres[name, args] = substitute(schema.precondition, binding)
        adds[name, args], _ = effects(substitute(schema.effect, binding),
                                      frozenset(), uni)
    reached = {a for a in problem.init if a.predicate not in static_preds}
    fired: set = set()
    changed = True
    while changed:
        changed = False
        for act in sorted(actions):
            if act not in fired and holds_optimistically(
                    pres[act], True, reached, static_atoms, static_preds, uni):
                fired.add(act)
                reached |= adds[act]
                changed = True
    return fired, reached
