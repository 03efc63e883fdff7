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

Placeholders are written ``<NAME>`` and replaced textually; action-name heads
are uppercased after substitution (SHOES_USER_COLLECTRESOURCE style), all
other identifiers stay lowercase.  A ``holes:`` header declares holes: they
are written ``<NAME>`` too, but bound to PDDL text, possibly empty, which the
compiler computes from the game (a blocker test, the ammunition pool, the
next phase, the turn core's guards and tick).  Fragments wrapped in ``(:per-direction ...)`` are written once
and instantiated once per requested direction, with the grid geometry of that
direction filled in from ``DIRECTION_TABLE`` after the binding, so a hole's
text may use it too; a ``directions:`` header restricts a template to the directions it lists.
Each template with behaviour ships with a micro domain/problem check
(templates/checks/<id>.yaml) executed by ``validate_kb``: the instantiated
action is grounded, applied to the check's initial state, and the state diff
compared with the hand-checked expectation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import yaml

from .errors import (
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

# A template section in file order; a nested tuple holds the fragments of one
# (:per-direction ...) block.
Section = tuple[Union[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class TemplateSet:
    """One template file: fragments still carrying ``<NAME>`` holes."""

    template_id: str
    kind: str
    placeholders: frozenset[str]  # bound to names
    holes: frozenset[str]  # bound to PDDL text
    directions: tuple[str, ...]  # the directions blocks may be instantiated for
    predicates: Section
    actions: Section

    def text(self) -> str:
        """Every fragment, per-direction ones written once."""
        fragments: list[str] = []
        for item in self.predicates + self.actions:
            fragments.extend((item,) if isinstance(item, str) else item)
        return "\n".join(fragments)

    def used_placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.text()))


@dataclass(frozen=True)
class Instantiated:
    predicates: tuple[Predicate, ...]
    actions: tuple[Action, ...]


def _split_fragments(body: str, source: str) -> list[str]:
    """Split a body into top-level parenthesized fragments, dropping
    comments; text outside every fragment, or a parenthesis that does not
    balance, is an error naming `source`."""
    text = "\n".join(raw.split(";")[0] for raw in body.split("\n"))
    fragments = []
    depth = start = end = 0  # `end`: just after the last fragment
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                _outside(text[end:i], source)
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break  # it closes nothing
            if depth == 0:
                fragments.append(text[start:i + 1])
                end = i + 1
    if depth != 0:
        raise TemplateFormatError(
            f"{source}: unbalanced parentheses in template body")
    _outside(text[end:], source)
    return fragments


def _outside(text: str, source: str) -> None:
    """Raise if `text`, found between fragments, is not blank."""
    if text.strip():
        raise TemplateFormatError(
            f"{source}: text outside a fragment: {text.strip()[:40]!r}")


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
    sections = _parse_sections(_split_fragments(body, source), source)
    ts = TemplateSet(template_id=fields["id"], kind=fields["kind"],
                     placeholders=placeholders, holes=holes,
                     directions=directions,
                     **{key: tuple(items) for key, items in sections.items()})
    undeclared = (ts.used_placeholders() - placeholders - holes
                  - _DIRECTION_PLACEHOLDERS)
    if undeclared:
        raise TemplateFormatError(
            f"{source}: undeclared placeholders {sorted(undeclared)}")
    return ts


def _parse_sections(fragments: list[str], source: str,
                    per_direction: bool = False) -> dict[str, list]:
    """Sort fragments into predicates/actions; a per-direction block becomes
    one nested tuple in each section it contributes to."""
    sections: dict[str, list] = {"predicates": [], "actions": []}
    for fragment in fragments:
        head = fragment[1:].split(None, 1)[0] if fragment[1:].split() else ""
        inner = fragment[len(head) + 1:-1]
        if head == ":predicates":
            sections["predicates"].extend(_split_fragments(inner, source))
        elif head == ":action":
            sections["actions"].append(fragment)
        elif head == ":per-direction" and not per_direction:
            block = _parse_sections(_split_fragments(inner, source), source,
                                    True)
            for key, items in block.items():
                if items:
                    sections[key].append(tuple(items))
        else:
            raise TemplateFormatError(f"{source}: unexpected fragment {head!r}")
        if not per_direction and head != ":per-direction":
            used = set(_PLACEHOLDER_RE.findall(fragment))
            if used & _DIRECTION_PLACEHOLDERS:
                raise TemplateFormatError(
                    f"{source}: direction placeholders "
                    f"{sorted(used & _DIRECTION_PLACEHOLDERS)} outside "
                    f"(:per-direction ...)")
    return sections


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


def _expand(section: Section, rows: list[dict[str, str]],
            bind: Callable[[str], str]) -> list[str]:
    """``bind`` applied to every fragment, then per-direction blocks once per
    row, directions outermost."""
    out: list[str] = []
    for item in section:
        if isinstance(item, str):
            out.append(bind(item))
            continue
        bound = [bind(fragment) for fragment in item]
        for row in rows:
            for fragment in bound:
                for name, value in row.items():
                    fragment = fragment.replace(f"<{name}>", value)
                out.append(fragment)
    return out


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
        """Fill ``binding`` in, then instantiate per-direction blocks once
        for each of ``directions`` (default: the template's own), in the
        given order."""
        missing = (ts.placeholders | ts.holes) - set(binding)
        if missing:
            raise UnboundPlaceholderError(
                f"{ts.template_id}: unbound placeholders {sorted(missing)}")

        def bind(text: str) -> str:
            for name, value in binding.items():
                text = text.replace(f"<{name}>", value)
            return text

        def parsed(section: Section, parse: Callable) -> list:
            out = []
            for fragment in _expand(section, rows, bind):
                leftover = _PLACEHOLDER_RE.search(fragment)
                if leftover:
                    raise UnboundPlaceholderError(
                        f"{ts.template_id}: placeholder {leftover.group(0)} "
                        "survives")
                out.append(parse(fragment))
            return out

        rows = _direction_rows(
            ts, ts.directions if directions is None else directions)
        actions = [Action(a.name.upper(), a.params, a.precondition, a.effect)
                   for a in parsed(ts.actions, pddl.parse_fragment_action)]
        return Instantiated(
            tuple(parsed(ts.predicates, pddl.parse_fragment_predicate)),
            tuple(actions))


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
    step = check["action"].strip()[1:-1].split()
    action = task.action(step[0], tuple(step[1:]))
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
            check = yaml.safe_load(path.read_text())
            check_id = check["template"]
            checked.add(check_id)
            try:
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
