"""PDDL 1.2 abstract syntax, reader and printer.

The supported subset is exactly what the compiler emits: typed STRIPS with
negative preconditions, equality, universally quantified preconditions and
quantified effects.  Anything else (numeric fluents, durative actions,
``exists``, ``when``) is rejected with UnsupportedConstruct.

Names are case-sensitive here; plan files are the one place parsed
case-insensitively (IPC convention, see :func:`parse_plan`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .errors import PddlSyntaxError, UnsupportedConstructError

ROOT_TYPE = "Object"

UNSUPPORTED_HEADS = {
    "exists", "when", "imply", "increase", "decrease", "assign",
    ":functions", ":durative-action", ":axiom", ":derived",
}


# -- formulas ------------------------------------------------------------------

class Atom(NamedTuple):
    """A (predicate, args) pair; it equals and hashes as that plain tuple."""
    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.predicate})"
        return f"({self.predicate} {' '.join(self.args)})"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...] = ()


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...] = ()


@dataclass(frozen=True)
class Forall:
    variables: tuple[tuple[str, str], ...]  # (?var, type)
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Forall]


def atoms_in(f: Formula):
    """Every atom of `f`, in order, with repeats."""
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from atoms_in(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from atoms_in(p)
    elif isinstance(f, Forall):
        yield from atoms_in(f.body)


def effect_literals(f: Formula):
    """(atom, positive) per literal of effect `f`."""
    if isinstance(f, And):
        for p in f.parts:
            yield from effect_literals(p)
    elif isinstance(f, Forall):
        yield from effect_literals(f.body)
    elif isinstance(f, Atom):
        yield f, True
    elif isinstance(f, Not) and isinstance(f.body, Atom):
        yield f.body, False
    else:
        raise UnsupportedConstructError(
            f"unsupported effect construct {format_formula(f)}")


def conj(*parts: Formula) -> And:
    """Flattened conjunction."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return And(tuple(flat))


# -- declarations --------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[tuple[str, str], ...] = ()  # (?var, type)


@dataclass(frozen=True)
class Action:
    name: str
    params: tuple[tuple[str, str], ...]
    precondition: Formula
    effect: Formula


@dataclass(frozen=True)
class Domain:
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, Optional[str]], ...]  # (name, parent or None)
    predicates: tuple[Predicate, ...]
    actions: tuple[Action, ...]
    constants: tuple[tuple[str, str], ...] = ()  # (name, type)

    @cached_property
    def static_predicates(self) -> frozenset[str]:
        """The predicates no action's effect mentions, computed once."""
        return frozenset(p.name for p in self.predicates) - {
            atom.predicate for action in self.actions
            for atom in atoms_in(action.effect)}

    def predicate(self, name: str) -> Predicate:
        for p in self.predicates:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass(frozen=True)
class Problem:
    name: str
    domain: str
    objects: tuple[tuple[str, str], ...]  # (name, type)
    init: tuple[Atom, ...]
    goal: Formula


# -- tokenizer -----------------------------------------------------------------

@dataclass
class _Token:
    text: str
    line: int
    column: int


# a comment, a token (a parenthesis or a name) or a line break; whatever
# else the pattern skips is blank
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)|\n")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        token = match.group(1)
        if token is not None:
            tokens.append(_Token(token, line, match.start() - line_start + 1))
        elif match.group() == "\n":
            line, line_start = line + 1, match.end()
    return tokens


class _Reader:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _err(self, message: str, token: Optional[_Token] = None):
        tok = token or (self.tokens[self.pos - 1] if self.pos else None)
        line = tok.line if tok else 1
        col = tok.column if tok else 1
        return PddlSyntaxError(message, line=line, column=col)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self._err("unexpected end of input")
        self.pos += 1
        return tok

    def read_sexpr(self):
        """Read one s-expression as nested lists of tokens."""
        tok = self.next()
        if tok.text == "(":
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise self._err("unbalanced '('", tok)
                if nxt.text == ")":
                    self.next()
                    return items
                items.append(self.read_sexpr())
        if tok.text == ")":
            raise self._err("unexpected ')'", tok)
        return tok


def _head(sexpr) -> str:
    if not isinstance(sexpr, list) or not sexpr or isinstance(sexpr[0], list):
        return ""
    return sexpr[0].text


def _atom_token(item) -> _Token:
    if isinstance(item, list):
        raise PddlSyntaxError("expected a name, got a list",
                              line=item[0].line if item else 1,
                              column=item[0].column if item else 1)
    return item


def _parse_typed_list(items, untyped: Optional[str] = ROOT_TYPE
                      ) -> tuple[tuple[str, Optional[str]], ...]:
    """Parse `a b - t c - u d` style lists; names in the trailing group
    without a type (`d`) get `untyped`."""
    out: list[tuple[str, Optional[str]]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = _atom_token(items[i])
        if tok.text == "-":
            if i + 1 >= len(items):
                raise PddlSyntaxError("dangling '-' in typed list",
                                      line=tok.line, column=tok.column)
            type_tok = _atom_token(items[i + 1])
            for name in pending:
                out.append((name, type_tok.text))
            pending = []
            i += 2
        else:
            pending.append(tok.text)
            i += 1
    for name in pending:
        out.append((name, untyped))
    return tuple(out)


def _check_unsupported(head: str, tok: _Token):
    if head in UNSUPPORTED_HEADS:
        raise UnsupportedConstructError(f"unsupported construct {head!r}",
                                        line=tok.line, column=tok.column)


def _parse_formula(sexpr) -> Formula:
    if not isinstance(sexpr, list):
        raise PddlSyntaxError("expected a formula", line=sexpr.line,
                              column=sexpr.column)
    if not sexpr:
        return And(())
    head_tok = sexpr[0]
    if isinstance(head_tok, list):
        raise PddlSyntaxError("formula head must be a symbol",
                              line=1, column=1)
    head = head_tok.text
    _check_unsupported(head, head_tok)
    if head == "and":
        return And(tuple(_parse_formula(p) for p in sexpr[1:]))
    if head == "or":
        return Or(tuple(_parse_formula(p) for p in sexpr[1:]))
    if head == "not":
        if len(sexpr) != 2:
            raise PddlSyntaxError("not takes one argument",
                                  line=head_tok.line, column=head_tok.column)
        return Not(_parse_formula(sexpr[1]))
    if head == "forall":
        if len(sexpr) != 3 or not isinstance(sexpr[1], list):
            raise PddlSyntaxError("forall needs (vars) and a body",
                                  line=head_tok.line, column=head_tok.column)
        variables = _parse_typed_list(sexpr[1])
        return Forall(variables, _parse_formula(sexpr[2]))
    args = []
    for item in sexpr[1:]:
        args.append(_atom_token(item).text)
    return Atom(head, tuple(args))


def _parse_action(sexpr) -> Action:
    name = _atom_token(sexpr[1]).text
    params: tuple[tuple[str, str], ...] = ()
    precondition: Formula = And(())
    effect: Formula = And(())
    i = 2
    while i < len(sexpr):
        key_tok = _atom_token(sexpr[i])
        key = key_tok.text
        if key == ":parameters":
            params = _parse_typed_list(sexpr[i + 1])
        elif key == ":precondition":
            precondition = _parse_formula(sexpr[i + 1])
        elif key == ":effect":
            effect = _parse_formula(sexpr[i + 1])
        else:
            _check_unsupported(key, key_tok)
            raise PddlSyntaxError(f"unexpected action section {key!r}",
                                  line=key_tok.line, column=key_tok.column)
        i += 2
    return Action(name, params, precondition, effect)


def _read_define(text: str, kind: str, bad_decl: str
                 ) -> tuple[str, list[tuple[str, _Token, list]]]:
    """NAME and the sections of `(define (<kind> NAME) sections...)`, the
    whole of `text`, each section as (head, head token, section) with an
    unsupported head rejected; a missing `(<kind> NAME)` raises `bad_decl`."""
    reader = _Reader(text)
    sexpr = reader.read_sexpr()
    if reader.peek() is not None:
        raise reader._err(f"trailing content after {kind}")
    if _head(sexpr) != "define":
        raise PddlSyntaxError(f"expected (define ({kind} ...))", line=1, column=1)
    decl = sexpr[1] if len(sexpr) > 1 else None
    if _head(decl) != kind or len(decl) < 2:
        raise PddlSyntaxError(bad_decl, line=1, column=1)
    sections = []
    for section in sexpr[2:]:
        head = _head(section)
        _check_unsupported(head, section[0])
        sections.append((head, section[0], section))
    return _atom_token(decl[1]).text, sections


def read_domain(text: str) -> Domain:
    name, sections = _read_define(text, "domain", "expected (domain NAME)")
    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, Optional[str]], ...] = ()
    constants: tuple[tuple[str, str], ...] = ()
    predicates: list[Predicate] = []
    actions: list[Action] = []
    for head, head_tok, section in sections:
        if head == ":requirements":
            requirements = tuple(_atom_token(t).text for t in section[1:])
        elif head == ":types":
            types = _parse_typed_list(section[1:], untyped=None)
        elif head == ":constants":
            constants = _parse_typed_list(section[1:])
        elif head == ":predicates":
            for p in section[1:]:
                pname = _atom_token(p[0]).text
                predicates.append(Predicate(pname, _parse_typed_list(p[1:])))
        elif head == ":action":
            actions.append(_parse_action(section))
        else:
            raise PddlSyntaxError(f"unexpected domain section {head!r}",
                                  line=head_tok.line, column=head_tok.column)
    return Domain(name, requirements, types, tuple(predicates), tuple(actions),
                  constants)


def read_problem(text: str) -> Problem:
    name, sections = _read_define(text, "problem",
                                  "expected (define (problem ...))")
    domain = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Atom] = []
    goal: Formula = And(())
    for head, head_tok, section in sections:
        if head == ":domain":
            domain = _atom_token(section[1]).text
        elif head == ":objects":
            objects = _parse_typed_list(section[1:])
        elif head == ":init":
            for fact in section[1:]:
                formula = _parse_formula(fact)
                if not isinstance(formula, Atom):
                    raise PddlSyntaxError("init facts must be ground atoms",
                                          line=head_tok.line,
                                          column=head_tok.column)
                init.append(formula)
        elif head == ":goal":
            goal = _parse_formula(section[1])
        else:
            raise PddlSyntaxError(f"unexpected problem section {head!r}",
                                  line=head_tok.line, column=head_tok.column)
    return Problem(name, domain, objects, tuple(init), goal)


# -- fragment parsing (used by the template knowledge base) ----------------------

def parse_fragment_action(text: str) -> Action:
    return _parse_action(_Reader(text).read_sexpr())


def parse_fragment_predicate(text: str) -> Predicate:
    parsed = _Reader(text).read_sexpr()
    name = _atom_token(parsed[0]).text
    return Predicate(name, _parse_typed_list(parsed[1:]))


def parse_fragment_atom(text: str) -> Atom:
    formula = _parse_formula(_Reader(text).read_sexpr())
    if not isinstance(formula, Atom):
        raise PddlSyntaxError(f"expected a ground atom, got {text!r}",
                              line=1, column=1)
    return formula


def parse_fragment_formula(text: str) -> Formula:
    return _parse_formula(_Reader(text).read_sexpr())


# -- printer -------------------------------------------------------------------

def format_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, Not):
        return f"(not {format_formula(f.body)})"
    if isinstance(f, And):
        if not f.parts:
            return "(and)"
        return f"(and {' '.join(format_formula(p) for p in f.parts)})"
    if isinstance(f, Or):
        return f"(or {' '.join(format_formula(p) for p in f.parts)})"
    if isinstance(f, Forall):
        vars_s = _format_typed(f.variables)
        return f"(forall ({vars_s}) {format_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def _format_typed(pairs: tuple[tuple[str, Optional[str]], ...],
                  sep: str = " ") -> str:
    """Format a typed list, one `a b - t` group per run of consecutive
    entries of the same type, groups joined by `sep`; a group of type None
    (a root of `:types`) prints without `- t`."""
    return sep.join(" ".join(name for name, _ in group)
                    + ("" if typ is None else f" - {typ}")
                    for typ, group in groupby(pairs, key=itemgetter(1)))


def _format_block(f: Formula, indent: str) -> str:
    """Multi-line and-block used for :precondition / :effect bodies."""
    if isinstance(f, And) and f.parts:
        inner = "\n".join(f"{indent}  {format_formula(p)}" for p in f.parts)
        return f"(and\n{inner}\n{indent})"
    return format_formula(f)


def print_domain(domain: Domain) -> str:
    out = [f"(define (domain {domain.name})"]
    if domain.requirements:
        out.append(f"  (:requirements {' '.join(domain.requirements)})")
    if domain.types:
        out.append("  (:types")
        out.append("    " + _format_typed(domain.types, sep="\n    "))
        out.append("  )")
    if domain.constants:
        out.append(f"  (:constants {_format_typed(domain.constants)})")
    if domain.predicates:
        out.append("  (:predicates")
        for p in domain.predicates:
            if p.params:
                out.append(f"    ({p.name} {_format_typed(p.params)})")
            else:
                out.append(f"    ({p.name})")
        out.append("  )")
    for action in domain.actions:
        out.append(f"  (:action {action.name}")
        out.append(f"    :parameters ({_format_typed(action.params)})")
        out.append(f"    :precondition {_format_block(action.precondition, '    ')}")
        out.append(f"    :effect {_format_block(action.effect, '    ')}")
        out.append("  )")
    out.append(")")
    return "\n".join(out) + "\n"


def print_problem(problem: Problem) -> str:
    out = [f"(define (problem {problem.name})",
           f"  (:domain {problem.domain})"]
    out.append("  (:objects")
    if problem.objects:
        out.append("    " + _format_typed(problem.objects, sep="\n    "))
    out.append("  )")
    out.append("  (:init")
    for atom in problem.init:
        out.append(f"    {atom}")
    out.append("  )")
    out.append(f"  (:goal {format_formula(problem.goal)})")
    out.append(")")
    return "\n".join(out) + "\n"


# -- plan text (IPC convention) -------------------------------------------------

def parse_plan(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Parse `(ACTION arg1 arg2)` lines, case-insensitively.

    Action names are normalized to upper case and arguments to lower case,
    matching how the compiler names things.
    """
    steps: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        if not (line.startswith("(") and line.endswith(")")):
            raise PddlSyntaxError(f"bad plan line {raw!r}", line=lineno, column=1)
        parts = line[1:-1].split()
        if not parts:
            raise PddlSyntaxError("empty plan step", line=lineno, column=1)
        steps.append((parts[0].upper(), tuple(a.lower() for a in parts[1:])))
    return steps


def format_plan(steps) -> str:
    lines = []
    for name, args in steps:
        if args:
            lines.append(f"({name} {' '.join(args)})")
        else:
            lines.append(f"({name})")
    return "\n".join(lines) + "\n"
