"""Knowledge base of game-independent PDDL templates.

Templates live as data files (one per template): the PDDL of a construct is
edited there, not in the compiler.  A file has three header lines and a body of
PDDL fragments (optional ``holes:`` and ``directions:`` lines are described
below):

    id: interaction_killsprite
    kind: Interaction
    placeholders: S1 S2
    ---
    (:action <S1>_<S2>_KILLSPRITE ...)

``pddl``'s reader reads a body once, at the load, into token trees; a body
it cannot read fails the load, naming the file and line.  Placeholders are
written ``<NAME>``: a token that is exactly ``<NAME>`` is replaced by the
tokens of its value, any other token has ``<NAME>`` replaced by the value's
text.  Action-name heads are uppercased after that (SHOES_USER_COLLECTRESOURCE
style).  Holes (a ``holes:`` header) are placeholders bound to PDDL text,
possibly empty, which the compiler computes from the game.  Fragments in a
``(:per-direction ...)`` block are instantiated once per requested direction
from its ``DIRECTION_TABLE`` row, which also fills a hole's value before it
is spliced in; a ``directions:`` header restricts a template to the
directions it lists.  ``shipped`` loads the shipped templates once per process.
Each template with behaviour ships with a micro domain/problem check
(templates/checks/<id>.yaml) executed by ``validate_kb``: the instantiated
action is grounded, applied to the check's initial state, and the state diff
compared with the hand-checked expectation.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Union

import yaml

from .errors import (
    PddlSyntaxError,
    TemplateFormatError,
    UnboundPlaceholderError,
    UnknownTemplateError,
)
from . import ground as G
from . import pddl
from .pddl import Action, Domain, Predicate, Problem

_PLACEHOLDER_RE = re.compile(r"<([A-Z][A-Z0-9_]*)>")

KIND_SPRITE = "SpriteBehaviour"
KIND_AVATAR = "AvatarAction"
KIND_INTERACTION = "Interaction"
KIND_TURN = "TurnControl"

_KINDS = {KIND_SPRITE, KIND_AVATAR, KIND_INTERACTION, KIND_TURN}

# One grid step per direction, as template text.  The row order is the
# canonical direction order: per-direction blocks expand in it, and
# <O1> <O2> <O3> name the other three directions in it.  Besides these
# columns a block sees <D> (the direction name) and <SUFFIX> (``_<D>`` when
# the block is instantiated for more than one direction, else empty).
DIRECTION_TABLE: dict[str, dict[str, str]] = {
    "up": {"NEW": "?new_y", "DEST": "?x ?new_y", "NEXT": "?new_y ?y",
           "EDGE": "?y"},
    "down": {"NEW": "?new_y", "DEST": "?x ?new_y", "NEXT": "?y ?new_y",
             "EDGE": "?y"},
    "left": {"NEW": "?new_x", "DEST": "?new_x ?y", "NEXT": "?new_x ?x",
             "EDGE": "?x"},
    "right": {"NEW": "?new_x", "DEST": "?new_x ?y", "NEXT": "?x ?new_x",
              "EDGE": "?x"},
}
DIRECTIONS = tuple(d.upper() for d in DIRECTION_TABLE)
_DIRECTION_PLACEHOLDERS = frozenset(
    {"D", "O1", "O2", "O3", "SUFFIX", *DIRECTION_TABLE["up"]})

# A template section in file order: a fragment's token tree, or a tuple of
# the fragment trees of one (:per-direction ...) block.
Section = tuple[Union[list, tuple[list, ...]], ...]

# "<NAME>" -> (the value's text, its tokens)
Values = dict[str, tuple[str, list]]


@dataclass(frozen=True)
class TemplateSet:
    """One template file, read once: token trees still carrying ``<NAME>``
    placeholders."""

    template_id: str
    kind: str
    placeholders: frozenset[str]  # bound to names
    holes: frozenset[str]  # bound to PDDL text
    directions: tuple[str, ...]  # the directions blocks may be instantiated for
    predicates: Section
    actions: Section


@dataclass(frozen=True)
class Instantiated:
    predicates: tuple[Predicate, ...]
    actions: tuple[Action, ...]


def _parse_template(text: str, source: str) -> TemplateSet:
    if "---" not in text:
        raise TemplateFormatError(f"{source}: missing '---' separator")
    header, body = text.split("---", 1)
    fields = {}
    for line in header.splitlines():
        if not line.strip():
            continue
        if ":" not in line:
            raise TemplateFormatError(f"{source}: bad header line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    for required in ("id", "kind"):
        if required not in fields:
            raise TemplateFormatError(f"{source}: missing header {required!r}")
    if fields["kind"] not in _KINDS:
        raise TemplateFormatError(f"{source}: unknown kind {fields['kind']!r}")
    placeholders = frozenset(fields.get("placeholders", "").split())
    holes = frozenset(fields.get("holes", "").split())
    directions = tuple(fields.get("directions", " ".join(DIRECTIONS)).split())
    unknown = set(directions) - set(DIRECTIONS)
    if unknown:
        raise TemplateFormatError(f"{source}: unknown directions {sorted(unknown)}")
    try:  # the body read at its lines in the file, so errors name them
        sections = _parse_sections(
            pddl.read_all("\n" * header.count("\n") + body))
    except PddlSyntaxError as exc:
        raise TemplateFormatError(f"{source}:{exc}") from None
    outside = _DIRECTION_PLACEHOLDERS.intersection(_placeholders(
        item for section in sections.values() for item in section
        if not isinstance(item, tuple)))
    if outside:
        raise TemplateFormatError(
            f"{source}: direction placeholders {sorted(outside)} outside "
            f"(:per-direction ...)")
    undeclared = (set(_placeholders(sections.values())) - placeholders
                  - holes - _DIRECTION_PLACEHOLDERS)
    if undeclared:
        raise TemplateFormatError(
            f"{source}: undeclared placeholders {sorted(undeclared)}")
    return TemplateSet(template_id=fields["id"], kind=fields["kind"],
                       placeholders=placeholders, holes=holes,
                       directions=directions,
                       **{key: tuple(items) for key, items in sections.items()})


def _parse_sections(fragments: list, per_direction: bool = False
                    ) -> dict[str, list]:
    """Sort fragments into predicates/actions; a per-direction block becomes
    one nested tuple in each section it contributes to."""
    sections: dict[str, list] = {"predicates": [], "actions": []}
    for fragment in fragments:
        head = pddl._head(fragment)
        if head == ":predicates":
            for predicate in fragment[1:]:
                pddl._named(predicate, "a predicate (NAME ...)")
            sections["predicates"].extend(fragment[1:])
        elif head == ":action":
            sections["actions"].append(fragment)
        elif head == ":per-direction" and not per_direction:
            for key, items in _parse_sections(fragment[1:], True).items():
                if items:
                    sections[key].append(tuple(items))
        else:
            raise pddl._error("expected (:predicates ...), (:action ...) or,"
                              " outside a block, (:per-direction ...)",
                              fragment)
    return sections


def _placeholders(items):
    """The NAME of every ``<NAME>`` in the tokens of `items`, which may nest
    lists and tuples."""
    for item in items:
        if isinstance(item, (list, tuple)):
            yield from _placeholders(item)
        else:
            yield from _PLACEHOLDER_RE.findall(item.text)


def _fill(items, values: Values, row: Values, out: list) -> list:
    """Append `items` to `out` with every placeholder filled: a token that
    is exactly ``<NAME>`` becomes the value's tokens, filled from the
    direction `row` first; any other token has each ``<NAME>`` replaced by
    the value's text.  A placeholder without a value raises KeyError."""
    for item in items:
        if isinstance(item, list):
            out.append(_fill(item, values, row, pddl._List(item)))
        elif "<" not in item.text:
            out.append(item)
        elif item.text in values:
            _fill(values[item.text][1], row, row, out)
        else:
            out.append(pddl._Token(_PLACEHOLDER_RE.sub(
                lambda m: values[m.group()][0], item.text),
                item.line, item.column))
    return out


def _values(binding: dict[str, str]) -> Values:
    """Each value of `binding`, by its placeholder, as text and as tokens."""
    return {f"<{name}>": (text, pddl.read_all(text))
            for name, text in binding.items()}


def _direction_rows(ts: TemplateSet,
                    directions: Iterable[str]) -> list[dict[str, str]]:
    names = [d.lower() for d in directions]
    rows = []
    for name in names:
        if name.upper() not in ts.directions:
            raise UnboundPlaceholderError(
                f"{ts.template_id}: direction {name!r} not in "
                f"{list(ts.directions)}")
        others = [o for o in DIRECTION_TABLE if o != name]
        rows.append({**DIRECTION_TABLE[name], "D": name,
                     "O1": others[0], "O2": others[1], "O3": others[2],
                     "SUFFIX": f"_{name}" if len(names) > 1 else ""})
    return rows


def default_template_dir() -> Path:
    return Path(resources.files("vgdl2pddl")) / "templates"


class KnowledgeBase:
    """All templates from one directory, addressed by (section, key)."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else default_template_dir()
        self.templates: dict[str, TemplateSet] = {}
        for path in sorted(self.directory.glob("*.tmpl")):
            ts = _parse_template(path.read_text(), str(path))
            if ts.template_id in self.templates:
                raise TemplateFormatError(f"duplicate template id {ts.template_id}")
            self.templates[ts.template_id] = ts

    def lookup(self, section: str, key: str) -> TemplateSet:
        """section is one of sprite/avatar/interaction/turn; key names the
        VGDL type or interaction kind."""
        name = f"{section.lower()}_{key.lower()}"
        ts = self.templates.get(name)
        if ts is None:
            raise UnknownTemplateError(f"no template {name!r} in {self.directory}")
        return ts

    def instantiate(self, ts: TemplateSet, binding: dict[str, str],
                    directions: Optional[Iterable[str]] = None) -> Instantiated:
        """Fill ``binding`` in, and instantiate per-direction blocks once
        for each of ``directions`` (default: the template's own), in the
        given order."""
        missing = (ts.placeholders | ts.holes) - set(binding)
        if missing:
            raise UnboundPlaceholderError(
                f"{ts.template_id}: unbound placeholders {sorted(missing)}")
        values = _values(binding)
        rows = _direction_rows(
            ts, ts.directions if directions is None else directions)

        def filled(section: Section) -> list:
            out = []
            for item in section:
                if not isinstance(item, tuple):
                    out.append(_fill(item, values, {}, pddl._List(item)))
                    continue
                for row in map(_values, rows):  # directions outermost
                    both = {**values, **row}
                    out.extend(_fill(fragment, both, row, pddl._List(fragment))
                               for fragment in item)
            return out

        try:
            predicates, actions = filled(ts.predicates), filled(ts.actions)
        except KeyError as exc:
            raise UnboundPlaceholderError(
                f"{ts.template_id}: placeholder {exc.args[0]} is unbound"
            ) from None
        return Instantiated(
            tuple(map(pddl._parse_predicate, predicates)),
            tuple(Action(a.name.upper(), a.params, a.precondition, a.effect)
                  for a in map(pddl._parse_action, actions)))


@functools.cache
def shipped() -> KnowledgeBase:
    """The shipped templates, loaded once per process."""
    return KnowledgeBase()


# -- per-template micro checks ---------------------------------------------------

@dataclass
class CheckResult:
    template_id: str
    status: str  # "pass" | "fail" | "vacuous"
    message: str = ""
    case: str = ""  # check file stem; several cases may share a template


def _micro_domain(kb: KnowledgeBase, check: dict) -> tuple[Domain, Problem]:
    core_template = kb.lookup("turn", "core")
    core = kb.instantiate(core_template, dict.fromkeys(core_template.holes, ""))
    predicates = list(core.predicates)
    actions: list[Action] = []
    seen = {p.name for p in predicates}
    inst_list = [(check["template"], check.get("binding", {}),
                  check.get("directions"))]
    for extra in check.get("extra_templates", []):
        inst_list.append((extra["id"], extra.get("binding", {}), None))
    for template_id, binding, directions in inst_list:
        ts = kb.templates.get(template_id)
        if ts is None:
            raise UnknownTemplateError(template_id)
        inst = kb.instantiate(ts, {k: str(v) for k, v in binding.items()},
                              directions)
        for p in inst.predicates:
            if p.name not in seen:
                predicates.append(p)
                seen.add(p.name)
        actions.extend(inst.actions)
    types = tuple(check.get("types", {}).items())
    if "num" not in check.get("types", {}):
        types += (("num", None),)
    domain = Domain(
        name=f"check-{check['template']}",
        requirements=(":strips", ":typing"),
        types=types,
        predicates=tuple(predicates),
        actions=tuple(actions),
    )
    objects = tuple((name, typ) for name, typ in check["objects"].items())
    init = tuple(pddl.parse_fragment_atom(f) for f in check.get("init", []))
    problem = Problem(
        name="check", domain=domain.name, objects=objects, init=init,
        goal=pddl.And(()),
    )
    return domain, problem


def run_check(kb: KnowledgeBase, check: dict) -> CheckResult:
    template_id = check["template"]
    domain, problem = _micro_domain(kb, check)
    task = G.ground(domain, problem)
    step = pddl.parse_fragment_atom(check["action"])
    action = task.action(step.predicate, step.args)
    if action is None:
        return CheckResult(template_id, "fail",
                           f"action {check['action']} was not grounded: "
                           "statically false or unreachable from init")
    if not G.applicable(task.init, action):
        return CheckResult(template_id, "fail",
                           f"action {check['action']} not applicable in init")
    after = G.apply(task.init, action)
    added = task.state_atoms(after) - task.state_atoms(task.init)
    deleted = task.state_atoms(task.init) - task.state_atoms(after)
    expect_added = {pddl.parse_fragment_atom(f)
                    for f in check.get("expect_added", [])}
    expect_deleted = {pddl.parse_fragment_atom(f)
                      for f in check.get("expect_deleted", [])}
    if added != expect_added or deleted != expect_deleted:
        return CheckResult(
            template_id, "fail",
            f"state diff mismatch: +{sorted(map(str, added))} "
            f"-{sorted(map(str, deleted))}, expected "
            f"+{sorted(map(str, expect_added))} -{sorted(map(str, expect_deleted))}")
    return CheckResult(template_id, "pass")


def validate_kb(kb: KnowledgeBase) -> list[CheckResult]:
    """Run every template's micro check; templates without behaviour and
    without a check file report vacuous passes."""
    checks_dir = kb.directory / "checks"
    results: list[CheckResult] = []
    checked: set[str] = set()
    if checks_dir.is_dir():
        for path in sorted(checks_dir.glob("*.yaml")):
            check_id = path.stem  # until the file names its template
            try:
                check = yaml.safe_load(path.read_text())
                if not isinstance(check, dict) or "template" not in check:
                    raise TemplateFormatError(
                        f"{path}: not a mapping with a 'template:' key")
                check_id = str(check["template"])
                checked.add(check_id)
                result = run_check(kb, check)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                result = CheckResult(check_id, "fail", repr(exc))
            result.case = path.stem
            results.append(result)
    for template_id, ts in sorted(kb.templates.items()):
        if template_id in checked:
            continue
        if ts.actions:
            results.append(CheckResult(template_id, "fail",
                                       "template has actions but no check file"))
        else:
            results.append(CheckResult(template_id, "vacuous",
                                       "no behaviour to check"))
    if not results:
        results.append(CheckResult("(empty)", "vacuous", "knowledge base is empty"))
    return results
