"""Forward-search planning over grounded tasks, plus an external adapter.

Modes:
  * BlindBFS    -- breadth-first search; returns a shortest plan (the
                   optimality oracle for the rest of the suite);
  * GBFS_hadd   -- greedy best-first on the additive delete-relaxation
                   heuristic (satisficing workhorse);
  * AStar_hadd  -- f = g + h_add (inadmissible h, satisficing);
  * GoalCount   -- greedy on the number of unsatisfied goal literals.

Search is deterministic given (task, seed): actions are tried in grounding
order and heap ties break on insertion-order XOR seed.  Every mode searches
``simplify(task)``, the task projected onto the facts that a precondition,
a clause or the goal reads, so states that differ only in unread facts are
one state (aliens lvl1 blind BFS: 160,646 -> 126,792 expansions, same plan).
Every mode also uses interchangeable objects lowest-first (``_Symmetry``,
on the classes ``ground`` finds on the lifted problem): of a compiled
avatar's identical rounds of ammunition, search fires only the lowest
untouched one (aliens lvl1 blind BFS: 126,792 -> 24,381 expansions, same
plan).

Compiled tasks gate almost every action behind a phase fact (turn-avatar,
turn-interactions, turn-<T>-move, ...), so successor generation buckets
actions by gate and only looks at the buckets active in the current state.
Inside a bucket it files each action under one key fact, the positive
precondition (besides the gate) that the fewest actions of the bucket
share, as in Fast Downward's successor generator (Helmert, JAIR 2006): a
state's candidates are the actions filed under its true facts plus those
with no key.  Every candidate gets the full applicability test, and
candidates are tried in grounding order, so the index yields exactly what
a scan of the active buckets would.  Each search memoises that answer on
the state's projection onto the group gates and the facts the active
buckets' actions read: the states a search expands repeat few projections
(aliens lvl1 blind BFS: 24,381 expansions, 3,130 projections), and the
answer depends on nothing else.  A projection it has not seen is looked up
again on the state's key facts, under which the candidates' tests are kept
partially evaluated, and then on the facts those remaining tests read
(zenpuzzle lvl0 blind BFS: 15,927 new projections, 30 full scans).

Best-first search (GBFS, A*, GoalCount) prunes with strong stubborn sets
(``_StubbornSets``): it expands only those applicable actions, in the
generator's order.  Where the movers of one phase commute, every order of
their moves reaches the same states, and the set keeps one mover at a time
(rain lvl1 GBFS: 3,178 h_add calls -> 288, same plan length).  The set's
choice rule tries an unmet phase gate before any other literal; the literal
with the fewest achievers alone barely prunes there (3,077 calls).  On the
other shipped levels and on open Sokoban every set of GBFS and A* holds
every applicable action, so those searches are unchanged; goal-count search
prunes on aliens too (lvl1: 420 actions).  Blind BFS takes no stubborn
sets: a BFS expansion costs a few microseconds, about what a set costs.
Through the set (2-core host), rain lvl1 BFS expands 1,369 states instead
of 14,373 with its optimal length kept, yet takes about as long (a few
hundredths of a second), and aliens lvl1 expands 111,024 states instead of
24,381 and takes ~30x as long.  The symmetry pruning, a memo hit per
state, serves every mode.
"""
from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from heapq import heappop, heappush
from itertools import chain
from pathlib import Path
from typing import Optional

from .errors import PlanParseError, SpawnError, ValidationFailedError
from . import pddl
from .ground import GroundAction, GroundedTask, applicable, goal_satisfied, ground

INF = float("inf")
# the cost of a node h_add has not reached; above any cost it can reach
_UNREACHED = 1 << 62
# a currently-false negative goal literal is heavily discouraged but not
# pruned; keeps greedy search complete while h==0 still characterizes goals
NEG_GOAL_PENALTY = 10 ** 6


class Mode(Enum):
    BLIND_BFS = "BlindBFS"
    GBFS_HADD = "GBFS_hadd"
    ASTAR_HADD = "AStar_hadd"
    GOAL_COUNT = "GoalCount"


class Status(Enum):
    SOLVED = "Solved"
    UNSOLVABLE = "Unsolvable"
    TIMEOUT = "Timeout"
    OUT_OF_MEMORY = "OutOfMemory"


@dataclass(frozen=True)
class SearchConfig:
    mode: Mode = Mode.GBFS_HADD
    time_limit: float = 60.0
    # approximate bytes for visited states, guessed at 64 per state; the
    # successor and h_add memos are not counted (at most one entry per
    # expanded and per evaluated state)
    memory_limit: int = 2 * 10 ** 9
    seed: int = 0

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SearchStats:
    expanded: int = 0
    generated: int = 0
    evaluated: int = 0  # heuristic calls; 0 for blind BFS
    # applicable actions search left out: outside the stubborn set, or an
    # action whose image on interchangeable objects it kept (`_Symmetry`)
    pruned: int = 0
    wall_time: float = 0.0


@dataclass
class PlanResult:
    status: Status
    plan: Optional[tuple[GroundAction, ...]] = None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def steps(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(a.name, a.args) for a in self.plan or ()]


# -- successor generation -----------------------------------------------------------

def _gates(task: GroundedTask) -> int:
    """The mask of the argument-free facts: a compiled task's phase flags."""
    return sum(1 << i for atom, i in task.fact_id.items() if not atom.args)


def _read_table(task: GroundedTask) -> list[tuple[int, int]]:
    """Per action of ``task``, in order, the facts it reads positively and
    negatively: its unit preconditions and its clauses' literals.  ``solve``
    builds it once and shares it: ``simplify`` keeps every precondition, so
    it is the search task's table too."""
    table = []
    for action in task.actions:
        pos, neg = action.pos_pre, action.neg_pre
        for pos_mask, neg_mask in action.clauses:
            pos |= pos_mask
            neg |= neg_mask
        table.append((pos, neg))
    return table


class _Successors:
    """Index actions by their phase gate, then by one key fact, so that
    expansion tests only the actions that might apply.

    The gates are the argument-free facts, which in a compiled domain are
    the turn-phase flags (``turn-avatar``, ``finished-turn-<T>-move``, ...);
    an action's gate is the lowest-numbered gate among its positive
    preconditions, and actions with none form an always-active group, last.
    Inside a group each action is filed under its key fact: the positive
    precondition, other than the group's gate, that the fewest actions of
    the group require, ties to the lowest fact.  An action with no such fact
    is unkeyed and a candidate whenever its group is active.

    ``_candidates`` takes the active groups in gate order; a group's
    candidates are its unkeyed actions plus those filed under the key facts
    true in the state, in grounding order.  ``_scan`` tests each fully, so
    it returns exactly what a scan of every action of the active groups
    would, in the same order, as action indices.

    ``applicable`` remembers that answer in two lookups.  The first is keyed
    by ``state & mask``: ``mask`` holds every group gate and each active
    group's ``reads``, the facts its actions' positive and negative
    preconditions and clauses mention, and is cached per combination of
    true gates.  The key is exact: an action's applicability reads only its
    own masks, every action of an active group is covered by ``mask``, and
    an inactive group's gate is in ``mask`` and false, so two states with
    one key have the same applicable actions in the same order.

    That key is fine-grained where a phase's actions read many facts: a
    compiled END-TURN-INTERACTIONS reads every interaction's facts in its
    guard clauses.  So a miss looks up a second entry, keyed by the state's
    known facts ``state & known``: ``known`` holds every group gate and the
    key facts of the active groups, cached per combination of true gates.
    They decide the candidates, and the entry holds the candidates' tests
    partially evaluated on them, as Fast Downward's successor generator
    tests a few variables and never the whole state (Helmert, JAIR 2006):
    an action that a known fact rules out is dropped, a clause that a known
    literal satisfies is dropped, an action with a clause of known false
    literals only is dropped, and the rest of each test is kept.  ``read``
    is ``known`` with every fact those remaining tests mention, so the
    answer depends on ``state & read`` alone and is remembered under it.
    That key is exact too: its gate bits give ``known``, its known bits the
    entry, and so ``read``.  On zenpuzzle lvl0 blind BFS the avatar's cell
    leaves one guard clause of the thirteen, and the 15,927 misses of the
    first lookup take 30 scans and 14 entries instead of 15,927 scans.

    An entry is built on the second miss of its known facts, the first
    sign that they recur; the first miss scans as before.  So known facts
    seen on one miss only cost no entry: aliens lvl1, whose known facts
    include every moving object's cell, misses 3,130 times on 1,726 of
    them.  Building an entry costs about one and a half scans, and a test
    left in it about half a scan, so an entry that is never used again is
    the only waste.  Each set of action indices has one answer tuple
    (``_by_indices``), whichever lookup found it, and distinct actions have
    distinct indices, so equal answers are one tuple and callers that key
    on an answer's identity (``_StubbornSets``, ``_Symmetry``) see the same
    tuples a scan alone would give.  The memos live as long as the
    generator, one search, and each gains at most one entry per expanded
    state.
    """

    def __init__(self, task: GroundedTask, reads: list[tuple[int, int]]):
        gate_mask = _gates(task)
        buckets: dict[int, list[int]] = {}
        for i, action in enumerate(task.actions):
            gates = action.pos_pre & gate_mask
            buckets.setdefault(gates & -gates, []).append(i)
        self.actions = task.actions
        # per action, the facts its clauses read
        self.clause_reads = []
        for action in task.actions:
            read = 0
            for pos_mask, neg_mask in action.clauses:
                read |= pos_mask | neg_mask
            self.clause_reads.append(read)
        # (gate bit, unkeyed, key mask, key bit -> actions) in gate order,
        # each action as its test (index, pos, neg, clauses); 0 marks the
        # always group
        order = sorted(buckets, key=lambda b: (not b, b))
        self.groups = [self._index(bit, buckets[bit]) for bit in order]
        # gate bit -> every fact its group's applicability tests read
        self.reads: dict[int, int] = {}
        for bit in order:
            group = 0
            for i in buckets[bit]:
                pos, neg = reads[i]
                group |= pos | neg
            self.reads[bit] = group
        # the group gates are distinct single bits, so their sum is their union
        self.gate_mask = sum(order)
        self._masks: dict[int, int] = {}  # active gates -> projection mask
        self._known: dict[int, int] = {}  # active gates -> known facts
        self._memo: dict[int, tuple[GroundAction, ...]] = {}  # key -> answer
        # known facts -> None after their first miss, then their entry:
        # (remaining tests, read: the known facts and what those tests read)
        self._entries: dict[int, Optional[tuple]] = {}
        self._partial: dict[int, tuple] = {}  # state & read -> answer
        # action indices -> their one answer; hashing the indices is cheaper
        # than hashing the actions
        self._by_indices: dict[tuple[int, ...], tuple] = {}

    def _index(self, bit: int, members: list[int]):
        actions = self.actions
        facts = [_bits(actions[i].pos_pre & ~bit) for i in members]
        requires = Counter(f for fs in facts for f in fs)
        unkeyed: list[tuple] = []
        keyed: dict[int, list[tuple]] = {}
        for i, fs in zip(members, facts):
            a = actions[i]
            test = (i, a.pos_pre, a.neg_pre, a.clauses)
            if fs:
                key = min(fs, key=lambda f: (requires[f], f))
                keyed.setdefault(1 << key, []).append(test)
            else:
                unkeyed.append(test)
        # the keys are distinct single bits, so their sum is their union
        return bit, unkeyed, sum(keyed), keyed

    def applicable(self, state: int) -> tuple[GroundAction, ...]:
        gates = state & self.gate_mask
        mask = self._masks.get(gates)
        if mask is None:
            mask = self.gate_mask
            for bit, reads in self.reads.items():
                if not bit or gates & bit:
                    mask |= reads
            self._masks[gates] = mask
        key = state & mask
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = self._miss(state, gates)
        return found

    def _miss(self, state: int, gates: int) -> tuple[GroundAction, ...]:
        known = self._known.get(gates)
        if known is None:
            known = self.gate_mask
            for bit, _, key_mask, _ in self.groups:
                if not bit or gates & bit:
                    known |= key_mask
            self._known[gates] = known
        facts = state & known
        entry = self._entries.get(facts)
        if entry is None:
            # the first miss on these known facts scans, the second builds
            # their entry
            if facts in self._entries:
                entry = self._entries[facts] = self._evaluate(state, known)
            else:
                self._entries[facts] = None
                return self._answer(self._scan(state))
        tests, read = entry
        key = state & read
        found = self._partial.get(key)
        if found is None:
            found = self._partial[key] = self._answer(_passing(tests, state))
        return found

    def _candidates(self, state: int) -> list[tuple]:
        """The tests of the active groups' candidates: per group in gate
        order, in grounding order."""
        out: list[tuple] = []
        for bit, unkeyed, key_mask, keyed in self.groups:
            if bit and not state & bit:
                continue
            keys = state & key_mask
            if not keys:
                out += unkeyed
                continue
            candidates = unkeyed[:]
            while keys:
                low = keys & -keys
                candidates += keyed[low]
                keys ^= low
            candidates.sort()
            out += candidates
        return out

    def _answer(self, indices: tuple[int, ...]) -> tuple[GroundAction, ...]:
        """The one answer of the actions at ``indices``."""
        found = self._by_indices.get(indices)
        if found is None:
            found = self._by_indices[indices] = tuple(
                map(self.actions.__getitem__, indices))
        return found

    def _scan(self, state: int) -> tuple[int, ...]:
        return _passing(self._candidates(state), state)

    def _evaluate(self, state: int, known: int) -> tuple[list, int]:
        """The candidates' tests evaluated on ``state & known``, and
        ``known`` with the facts the remaining tests read."""
        true, false = state & known, known & ~state
        unknown = ~known
        clause_reads = self.clause_reads
        tests = []
        read = known
        for i, pos, neg, clauses in self._candidates(state):
            if pos & false or neg & true:
                continue
            reads = clause_reads[i]
            if reads & known:
                clauses, reads = _evaluate_clauses(clauses, true, false,
                                                   unknown)
                if clauses is None:
                    continue
            pos &= unknown
            neg &= unknown
            tests.append((i, pos, neg, clauses))
            read |= pos | neg | reads
        return tests, read


def _evaluate_clauses(clauses, true: int, false: int, unknown: int):
    """``clauses`` less those a known literal satisfies and less their known
    false literals, and the facts they still read; None for the clauses
    when one has no literal left."""
    rest = []
    reads = 0
    for pos_mask, neg_mask in clauses:
        if pos_mask & true or neg_mask & false:
            continue  # a known literal holds
        pos_mask &= unknown
        neg_mask &= unknown
        if not pos_mask | neg_mask:
            return None, 0  # every literal is known false
        rest.append((pos_mask, neg_mask))
        reads |= pos_mask | neg_mask
    return rest, reads


def _passing(tests, state: int) -> tuple[int, ...]:
    """The indices of ``tests``, each (index, pos, neg, clauses), whose
    test ``state`` passes."""
    out = []
    for i, pos, neg, clauses in tests:
        if state & pos != pos or state & neg:
            continue
        for pos_mask, neg_mask in clauses:
            if not state & pos_mask and not neg_mask & ~state:
                break
        else:
            out.append(i)
    return tuple(out)


# -- strong stubborn sets -----------------------------------------------------------

class _StubbornSets:
    """Partial-order reduction by strong stubborn sets (Alkhazraji et al.,
    ECAI 2012; Wehrle & Helmert, ICAPS 2014).

    A set T of actions is a strong stubborn set in a state s that is not a
    goal when
      * T holds every achiever of some goal literal that s does not meet;
      * for each action of T applicable in s, T holds every action that
        interferes with it;
      * for each action of T not applicable in s, T holds every achiever of
        some precondition that s does not meet; for a false clause, the
        achievers of all its literals.
    An achiever of a fact adds it; of a negated fact, deletes it.  Two
    actions interfere when one deletes a fact the other reads positively
    (a positive precondition or clause literal), adds a fact the other reads
    negatively, or adds a fact the other deletes.  Every plan from s then
    has a reordering of the same length whose first action is an applicable
    action of T, so expanding only those keeps a plan, and an optimal one,
    from every solvable state.

    Which unmet literal is chosen decides how small T gets.  An unmet
    argument-free fact comes first: these are a compiled task's phase gates,
    and their achievers are the few actions that close a phase.  Only when
    no gate is unmet does the literal with the fewest achievers win, ties to
    the first.  So where movers of one phase commute, as rain's drops do, T
    follows the phase's end back to one mover's moves.

    ``keep`` takes the generator's answer for a state.  If every
    two of its actions interfere, a T holding one of them holds all of them,
    and a T holding none means the state is a dead end, so the answer is
    kept whole with no closure; that test reads the actions' masks and is
    cached per answer.  The per-fact tables are built on the first closure,
    each action's interference set on its first need.  The closure is a
    fixpoint, so the order it visits actions in does not matter: the
    actions with an unmet gate literal, most of a compiled task in any one
    phase, are taken in bulk, grouped per combination of true gates by the
    gate they wait on (rain lvl1: 55 -> 6-9 ms of closure over 160 calls).
    """

    def __init__(self, task: GroundedTask, reads: list[tuple[int, int]]):
        self.actions = task.actions
        self.reads = reads
        self.n_facts = len(task.facts)
        self.goal_pos, self.goal_neg = task.goal_pos, task.goal_neg
        self.gate_mask = _gates(task)
        # id(answer) -> (answer, its actions' bits or None if every two of
        # them interfere, their union); holding the answer keeps its id from
        # being reused
        self._answers: dict[int, tuple] = {}
        self._index = {id(a): i for i, a in enumerate(task.actions)}
        self._built = False
        self._interferes: list[Optional[int]] = [None] * len(task.actions)
        self._gated: dict[int, tuple] = {}  # true gates -> _gate_groups

    def keep(self, state: int, answer: tuple[GroundAction, ...]
             ) -> tuple[GroundAction, ...]:
        """The actions of ``answer`` in a strong stubborn set for ``state``,
        a non-goal state whose applicable actions are ``answer``, in order."""
        entry = self._answers.get(id(answer))
        if entry is None:
            bits = self._bits_unless_interfering(answer)
            entry = (answer, bits, sum(bits or ()))
            self._answers[id(answer)] = entry
        _, bits, applicable = entry
        if bits is None:
            return answer
        stubborn = self._closure(state, applicable)
        if not applicable & ~stubborn:
            return answer
        return tuple(a for a, bit in zip(answer, bits) if stubborn & bit)

    def _bits_unless_interfering(self, answer):
        if len(answer) < 2:
            return None
        index = [self._index[id(a)] for a in answer]
        reads = [self.reads[i] for i in index]
        for j, b in enumerate(answer):
            b_pos, b_neg = reads[j]
            for a, (a_pos, a_neg) in zip(answer[:j], reads):
                if not (a.delete & (b_pos | b.add) or b.delete & (a_pos | a.add)
                        or a.add & b_neg or b.add & a_neg):
                    if not self._built:
                        self._build()
                    return [1 << i for i in index]
        return None

    def _build(self):
        n = self.n_facts
        adders, deleters = [0] * n, [0] * n
        pos_readers, neg_readers = [0] * n, [0] * n
        self._built = True
        for i, (a, (pos, neg)) in enumerate(zip(self.actions, self.reads)):
            bit = 1 << i
            for table, mask in ((adders, a.add), (deleters, a.delete),
                                (pos_readers, pos), (neg_readers, neg)):
                for f in _bits(mask):
                    table[f] |= bit
        self.adders, self.deleters = adders, deleters
        self.pos_readers, self.neg_readers = pos_readers, neg_readers

    def _closure(self, state: int, applicable: int) -> int:
        """A strong stubborn set for ``state``, or, once it holds every
        action of ``applicable``, the part built so far."""
        actions, interferes = self.actions, self._interferes
        gates = state & self.gate_mask
        gated = self._gated.get(gates)
        if gated is None:
            gated = self._gated[gates] = self._gate_groups(gates)
        waiting, groups = gated
        stubborn = queue = self._achievers(
            state, self.goal_pos & ~state, self.goal_neg & state, ())
        while queue:
            if queue & waiting:
                for members, achievers in groups:
                    if queue & members:
                        queue = queue & ~members | achievers & ~stubborn
                        stubborn |= achievers
                if not applicable & ~stubborn:
                    break
                continue
            low = queue & -queue
            queue ^= low
            i = low.bit_length() - 1
            if applicable & low:
                new = interferes[i]
                if new is None:
                    new = interferes[i] = self._interference(i)
            else:
                a = actions[i]
                new = self._achievers(state, a.pos_pre & ~state,
                                      a.neg_pre & state, a.clauses)
            new &= ~stubborn
            if new:
                stubborn |= new
                if not applicable & ~stubborn:
                    break
                queue |= new
        return stubborn

    def _gate_groups(self, gates: int) -> tuple[int, list[tuple[int, int]]]:
        """For the states whose true gates are ``gates``: (every action with
        an unmet gate literal, [(the actions whose first unmet gate literal
        is on one gate, that literal's achievers)])."""
        groups: dict[int, int] = {}  # gate bit -> actions waiting on it
        for i, a in enumerate(self.actions):
            unmet = (a.pos_pre & ~gates | a.neg_pre & gates) & self.gate_mask
            if unmet:
                low = unmet & -unmet
                groups[low] = groups.get(low, 0) | 1 << i
        pairs = []
        for low, members in groups.items():
            f = low.bit_length() - 1
            pairs.append((members, self.deleters[f] if gates & low
                          else self.adders[f]))
        # each action waits on one gate, so the groups' sum is their union
        return sum(groups.values()), pairs

    def _achievers(self, state: int, missing: int, present: int,
                   clauses) -> int:
        """The achievers of one unmet literal: facts ``missing`` must be
        true, facts ``present`` false, and the false ones of ``clauses``;
        a gate first, else the literal with the fewest achievers."""
        adders, deleters = self.adders, self.deleters
        gates = (missing | present) & self.gate_mask
        if gates:
            low = gates & -gates
            f = low.bit_length() - 1
            return adders[f] if missing & low else deleters[f]
        best, fewest = 0, INF
        candidates = [adders[f] for f in _bits(missing)]
        candidates += [deleters[f] for f in _bits(present)]
        for pos_mask, neg_mask in clauses:
            if state & pos_mask or neg_mask & ~state:
                continue
            union = 0
            for f in _bits(pos_mask):
                union |= adders[f]
            for f in _bits(neg_mask):
                union |= deleters[f]
            candidates.append(union)
        for achievers in candidates:
            count = achievers.bit_count()
            if count < fewest:
                best, fewest = achievers, count
        return best

    def _interference(self, i: int) -> int:
        a = self.actions[i]
        pos, neg = self.reads[i]
        out = 0
        for f in _bits(pos):
            out |= self.deleters[f]
        for f in _bits(neg):
            out |= self.adders[f]
        for f in _bits(a.delete):
            out |= self.pos_readers[f] | self.adders[f]
        for f in _bits(a.add):
            out |= self.neg_readers[f] | self.deleters[f]
        return out


# -- interchangeable objects --------------------------------------------------------

class _Symmetry:
    """Symmetry pruning over classes of interchangeable objects (Fox & Long,
    IJCAI 1999; Pochter, Zohar & Rosenschein, AAAI 2011).

    ``ground`` finds the classes on the lifted problem
    (``GroundedTask.interchangeable``), like a compiled avatar's ammunition
    pool (``bullet_ammo_1..k``).  A member is untouched in a state when
    every fact that names it has its init value; swapping two untouched
    members then maps the state onto itself, and so does every permutation
    of a class's untouched members.

    ``keep`` drops an action of an answer when its image is another action
    of that answer.  The image renames the action's untouched members, in
    order, to the lowest untouched members of their class.  Members keep
    the problem's object order, so a compiled pool's ``bullet_ammo_1`` is
    lowest, the round an unpruned search fires first.  The image leads to
    the image of the successor, at the same goal distance, and is its own
    image, so it is never dropped: BFS and A* keep their optimal lengths,
    and GBFS and goal-count search stay complete.  For BFS the image is
    always applicable, so only images are kept.  Best-first search asks
    after the stubborn sets, and an action is dropped only for an image the
    set kept, which keeps the two prunings safe together (Wehrle et al.,
    IJCAI 2015).  Touched members are never renamed: states are not mapped
    to a canonical form.

    ``keep`` remembers its answer per (answer, untouched members) for one
    search; holding the answer keeps its id from being reused.
    """

    def __init__(self, task: GroundedTask):
        classes = task.interchangeable
        # member index -> object, and object -> its member bit
        self.names = [x for objects in classes for x in objects]
        self.bit_of = {x: 1 << k for k, x in enumerate(self.names)}
        # per class, the bits of its members
        self.spans = [sum(map(self.bit_of.get, objects)) for objects in classes]
        named = dict.fromkeys(self.names, 0)  # member -> the facts naming it
        for f, atom in enumerate(task.facts):
            for x in atom.args:
                if x in named:
                    named[x] |= 1 << f
        # (facts naming a member, their init, its bit)
        self.members = [(named[x], task.init & named[x], self.bit_of[x])
                        for x in self.names]
        # (name, args) -> action, for the actions naming a member
        self.by_ident = {a.ident: a for a in task.actions
                         if not self.bit_of.keys().isdisjoint(a.args)}
        # (id(answer), untouched members) -> (answer, the actions kept)
        self._memo: dict[tuple[int, int], tuple] = {}

    def keep(self, state: int, answer: tuple[GroundAction, ...]
             ) -> tuple[GroundAction, ...]:
        if len(answer) < 2:
            return answer
        untouched = 0
        for mask, value, bit in self.members:
            if state & mask == value:
                untouched |= bit
        key = (id(answer), untouched)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (answer, self._drop(untouched, answer))
        return entry[1]

    def _drop(self, untouched: int, answer):
        ids = {id(a) for a in answer}
        kept = tuple(a for a in answer
                     if (image := self._image(a, untouched)) is a
                     or id(image) not in ids)
        return answer if len(kept) == len(answer) else kept

    def _image(self, action: GroundAction, untouched: int) -> GroundAction:
        named = 0
        for x in action.args:
            named |= self.bit_of.get(x, 0)
        named &= untouched
        if not named:
            return action
        rename = {}
        for span in self.spans:
            mine = named & span
            if not mine:
                continue
            free, lowest = untouched & span, 0
            for _ in range(mine.bit_count()):
                low = free & -free
                lowest |= low
                free ^= low
            for x, y in zip(_bits(mine), _bits(lowest)):
                if x != y:
                    rename[self.names[x]] = self.names[y]
        if not rename:
            return action
        return self.by_ident[action.name,
                             tuple(rename.get(x, x) for x in action.args)]


# -- additive heuristic -------------------------------------------------------------

def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        f = mask.bit_length() - 1
        out.append(f)
        mask ^= 1 << f
    out.reverse()
    return out


class _HAdd:
    """The additive delete-relaxation heuristic h_add, computed exactly.

    h_add (Bonet & Geffner, AIJ 2001): a fact true in the state costs 0; an
    action costs 1 plus the sum of its requirement costs; any other fact
    costs its cheapest adding action, or infinity.  A requirement is a
    positive precondition or an all-positive clause (disjunctive
    precondition), which costs its cheapest member; negative preconditions
    and clauses with a negative literal are free.  h is the sum of the
    positive goal facts' costs, plus NEG_GOAL_PENALTY for each negative goal
    literal that is currently false.

    ``value`` runs Dijkstra from the state's facts over a relaxed graph built
    once per task.  Every reduction below keeps each goal fact's cost, so h
    is the same number it is on the task's own actions (Fast Downward
    simplifies its relaxed task the same way; Helmert, JAIR 2006):

    * one relaxed action per requirement set (the positive preconditions and
      the multiset of all-positive clauses), adding the union of the adds of
      the actions that share it: on a 12x12 open Sokoban the four moves from
      a cell share {turn-avatar, at X}, and 724 actions become 464;
    * an add is dropped where another relaxed action adds the same fact from
      a sub-multiset of the requirements, which costs no more (1,386 add
      entries -> 1,086 there), and where the action requires the fact;
    * what the goal cannot need is dropped: a relaxed action is kept only
      while it adds a goal fact or a requirement of a kept action, and keeps
      only such adds;
    * an all-positive clause is one node, shared by every action that
      requires it, and costs its first popped member.

    A relaxed action waits on one requirement at a time: first on the one
    the fewest relaxed actions share (``at X`` rather than a phase fact), and
    on popping it, on the first requirement that is not yet final, if any.
    So a phase fact that hundreds of actions require does not touch each of
    them when it pops.  Costs are integers (unit action costs), so the queue
    is a list of buckets indexed by cost (Dial, CACM 1969); the list grows to
    the largest cost pushed.  ``value`` stops as soon as every positive goal
    fact has been popped.  The stop is sound: an action costs more than any
    one of its requirements, so whatever a popped node enables costs more
    than the node itself, popped costs never decrease and a popped cost is
    final.  Once the goal facts are popped, their sum cannot change.

    ``value`` remembers h for the task's life, keyed on ``state & (needed |
    goal_neg)``.  The key is exact: Dijkstra reads the state only as its
    zero-cost facts ``state & needed``, the goal facts still to pop (of
    ``goal_pos``, which is within ``needed``) and the penalty's ``goal_neg``
    facts.  ``goal_neg`` must be in the key: rain's ``(dead avatar)`` is a
    negative goal fact that no relaxed action needs.
    """

    def __init__(self, task: GroundedTask):
        n = len(task.facts)
        merged: dict[tuple[int, tuple[int, ...]], int] = {}
        get = merged.get
        for a in task.actions:
            clauses = ()
            if a.clauses:
                clauses = tuple(sorted(p for p, neg in a.clauses if not neg))
            key = (a.pos_pre, clauses)
            merged[key] = get(key, 0) | a.add & ~a.pos_pre
        keys = list(merged)
        merged_adds = list(merged.values())
        adds = merged_adds.copy()
        add_bits = [_bits(add) for add in adds]
        size = [pos.bit_count() + len(clauses) for pos, clauses in keys]
        # fact -> its adders, fewest requirements first
        adders: list[list[int]] = [[] for _ in range(n)]
        for r in sorted(range(len(keys)), key=size.__getitem__):
            for f in add_bits[r]:
                adders[f].append(r)
        for f, rs in enumerate(adders):
            if not rs or size[rs[0]] == size[rs[-1]]:
                continue  # no adder has fewer requirements than another
            kept = []
            for r in rs:
                pos, clauses = keys[r]
                for q in rs:
                    if size[q] >= size[r]:
                        kept.append(r)
                        break
                    q_pos, q_clauses = keys[q]
                    if not q_pos & ~pos and _submultiset(q_clauses, clauses):
                        adds[r] &= ~(1 << f)
                        break
            adders[f] = kept
        # backwards from the goal: the facts a kept relaxed action can need
        needed = task.goal_pos
        used = bytearray(len(keys))
        work = _bits(needed)
        while work:
            f = work.pop()
            for r in adders[f]:
                if used[r]:
                    continue
                used[r] = 1
                pos, clauses = keys[r]
                for c in clauses:
                    pos |= c
                if pos & ~needed:
                    work += _bits(pos & ~needed)
                    needed |= pos
        self.needed = needed
        # nodes: the facts, then one per all-positive clause
        clause_node: dict[int, int] = {}
        self.reqs = reqs = []
        self.adds = req_adds = []
        free = 0
        for (pos, clauses), add, merged_add, bits, u in zip(
                keys, adds, merged_adds, add_bits, used):
            add &= needed
            if not u or not add:
                continue
            req = _bits(pos)
            for c in clauses:
                req.append(clause_node.setdefault(c, n + len(clause_node)))
            if req:
                reqs.append(req)
                req_adds.append(bits if add == merged_add else
                                [f for f in bits if add >> f & 1])
            else:
                free |= add
        self.free_adds = _bits(free)
        self.nodes = n + len(clause_node)
        self.clauses_of: list[list[int]] = [[] for _ in range(self.nodes)]
        for c, k in clause_node.items():
            for f in _bits(c):
                self.clauses_of[f].append(k)
        shared = Counter(chain.from_iterable(reqs)).__getitem__
        self.watch = watch = [[] for _ in range(self.nodes)]
        for ri, req in enumerate(reqs):
            if len(req) > 1:
                req.sort(key=shared)
            watch[req[0]].append(ri)
        self.goal_mask = task.goal_pos
        self.goal_pos = _bits(task.goal_pos)
        self.is_goal = bytearray(self.nodes)
        for f in self.goal_pos:
            self.is_goal[f] = 1
        self.goal_neg = task.goal_neg
        self.key_mask = needed | task.goal_neg
        self._memo: dict[int, float] = {}  # state & key_mask -> h

    def value(self, state: int) -> float:
        key = state & self.key_mask
        h = self._memo.get(key)
        if h is None:
            h = self._memo[key] = self._dijkstra(key)
        return h

    def _dijkstra(self, state: int) -> float:
        penalty = (self.goal_neg & state).bit_count() * NEG_GOAL_PENALTY
        # positive goal facts still to be popped; those in the state cost 0
        left = (self.goal_mask & ~state).bit_count()
        if not left:
            return float(penalty)
        cost = [_UNREACHED] * self.nodes
        zero = []
        m = state & self.needed
        while m:
            low = m & -m
            f = low.bit_length() - 1
            cost[f] = 0
            zero.append(f)
            m ^= low
        one = []
        for f in self.free_adds:
            if cost[f]:
                cost[f] = 1
                one.append(f)
        buckets = [zero, one]
        watch = self.watch
        reqs = self.reqs
        adds = self.adds
        clauses_of = self.clauses_of
        is_goal = self.is_goal
        waiting: dict[int, list[int]] = {}  # node -> relaxed actions
        c = 0
        while c < len(buckets):
            bucket = buckets[c]
            for f in bucket:  # a clause node joins the bucket it is popped in
                if cost[f] < c:
                    continue  # popped already, at a lower cost
                if c and is_goal[f]:
                    left -= 1
                    if not left:
                        total = 0
                        for g in self.goal_pos:
                            total += cost[g]
                        return float(total + penalty)
                for k in clauses_of[f]:
                    if cost[k] > c:
                        cost[k] = c
                        bucket.append(k)
                woken = watch[f]
                if f in waiting:
                    woken = woken + waiting.pop(f)
                for ri in woken:
                    new_cost = 1
                    for x in reqs[ri]:
                        if cost[x] > c:  # not final yet: wait on it
                            if x in waiting:
                                waiting[x].append(ri)
                            else:
                                waiting[x] = [ri]
                            break
                        new_cost += cost[x]
                    else:
                        for g in adds[ri]:
                            if new_cost < cost[g]:
                                cost[g] = new_cost
                                while len(buckets) <= new_cost:
                                    buckets.append([])
                                buckets[new_cost].append(g)
            c += 1
        return INF


def _submultiset(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether sorted ``small`` is a sub-multiset of sorted ``big``."""
    rest = iter(big)
    return all(any(x == y for y in rest) for x in small)


def _goal_count(task: GroundedTask, state: int) -> float:
    return float((task.goal_pos & ~state).bit_count()
                 + (task.goal_neg & state).bit_count())


# -- search -------------------------------------------------------------------------

def simplify(task: GroundedTask, reads: Optional[list[tuple[int, int]]] = None
             ) -> GroundedTask:
    """The task the search runs on: `task` projected onto the facts it reads.

    A fact is read when a precondition, a clause or a goal literal mentions
    it.  Every other fact is dropped from each action's add and delete and
    from init (Helmert, AIJ 2009, drops such facts as irrelevant): on the
    shipped levels, the avatar's unread `oriented-*` flags and digger's
    `(dead dirt_...)` and `(dead gem_...)`.  `facts`, `fact_id` and the
    action order are kept, and an action that writes no dropped fact is
    kept as the same object.  Nothing reads a dropped fact, so a state and
    its projection have the same applicable actions in the same order, the
    same h_add and the same goal test, and the projection of a successor is
    the successor of the projection: the two tasks have the same plans, and
    search keeps apart only states that differ in what is read.  With
    nothing unread (every Sokoban task), `task` itself is returned.
    `reads` is `task`'s read table, built here if not given."""
    read = task.goal_pos | task.goal_neg
    for pos, neg in reads or _read_table(task):
        read |= pos | neg
    unread = ((1 << len(task.facts)) - 1) & ~read
    if not unread:
        return task
    # the constructor, not `replace`: a third of the cost on rain's 220
    # rewritten actions
    actions = tuple(
        a if not (a.add | a.delete) & unread
        else GroundAction(a.name, a.args, a.pos_pre, a.neg_pre, a.clauses,
                          a.add & read, a.delete & read)
        for a in task.actions)
    return replace(task, actions=actions, init=task.init & read)


def solve(task: GroundedTask, cfg: SearchConfig = SearchConfig()) -> PlanResult:
    """Search ``simplify(task)`` in ``cfg.mode``.  ``simplify`` keeps the
    action order, so the plan is mapped back by position to ``task``'s own
    actions: callers (the agent, ``validate``, ``apply``) see full effects,
    unread facts included.  It trusts ``task.interchangeable``: see
    ``GroundedTask``."""
    start = time.perf_counter()
    stats = SearchStats()
    try:
        reads = _read_table(task)
        # by keyword: perfbench's tracer notes `simplify`'s positional
        # arguments as `(task,)`
        search_task = simplify(task, reads=reads)
        if search_task.unsolvable_goal:
            return PlanResult(Status.UNSOLVABLE, None, stats)
        if goal_satisfied(search_task, search_task.init):
            return PlanResult(Status.SOLVED, (), stats)
        search = _bfs if cfg.mode is Mode.BLIND_BFS else _best_first
        symmetry = (_Symmetry(search_task) if search_task.interchangeable
                    else None)
        result = search(search_task, reads, symmetry, cfg, stats, start,
                        max(1000, cfg.memory_limit // 64))
        if result.plan and search_task is not task:
            own = dict(zip(map(id, search_task.actions), task.actions))
            result.plan = tuple(own[id(a)] for a in result.plan)
        return result
    finally:
        stats.wall_time = time.perf_counter() - start


def _bfs(task, reads, symmetry, cfg, stats, start, max_states
         ) -> PlanResult:
    """Breadth-first search.  ``parents`` maps each state found to the state
    it was reached from, ints only, so the cyclic GC has nothing to walk
    there (Fast Downward keeps a parent id per state; Helmert, JAIR 2006).
    Best-first search keeps the same map, re-pointing a state it reaches at
    a lower g.  ``_rebuild`` takes each step as the first action of
    ``expand(parent)`` that leads to the child, where ``expand`` is the
    expansion the search made: ``_Successors.applicable`` for BFS, its
    stubborn-kept actions for best-first search, both answered from the
    memo the search filled, each through ``symmetry`` if the task has
    interchangeable objects.  The search kept that action and skipped the
    rest as duplicates or as no cheaper."""
    parents = {task.init: None}
    queue = deque([task.init])
    deadline = start + cfg.time_limit
    goal_pos, goal_neg = task.goal_pos, task.goal_neg
    applicable = _Successors(task, reads).applicable
    expanded = generated = pruned = 0
    try:
        while queue:
            if expanded % 512 == 0 and time.perf_counter() > deadline:
                return PlanResult(Status.TIMEOUT, None, stats)
            state = queue.popleft()
            expanded += 1
            answer = applicable(state)
            if symmetry is not None:
                kept = symmetry.keep(state, answer)
                pruned += len(answer) - len(kept)
                answer = kept
            for action in answer:
                succ = (state & ~action.delete) | action.add
                if succ in parents:
                    continue
                parents[succ] = state
                generated += 1
                if succ & goal_pos == goal_pos and not succ & goal_neg:
                    return PlanResult(Status.SOLVED, _rebuild(
                        parents, applicable if symmetry is None else
                        lambda s: symmetry.keep(s, applicable(s)), succ),
                        stats)
                if len(parents) > max_states:
                    return PlanResult(Status.OUT_OF_MEMORY, None, stats)
                queue.append(succ)
        return PlanResult(Status.UNSOLVABLE, None, stats)
    finally:
        stats.expanded, stats.generated = expanded, generated
        stats.pruned = pruned


def _rebuild(parents, expand, state) -> tuple[GroundAction, ...]:
    plan = []
    while (parent := parents[state]) is not None:
        plan.append(next(a for a in expand(parent)
                         if (parent & ~a.delete) | a.add == state))
        state = parent
    plan.reverse()
    return tuple(plan)


def _best_first(task, reads, symmetry, cfg, stats, start, max_states
                ) -> PlanResult:
    """Greedy (or A*) best-first search on h, with duplicate detection.
    A popped non-goal state expands only the applicable actions of a strong
    stubborn set (``_StubbornSets``), less those ``symmetry`` drops, which
    keeps a plan from every solvable state; ``stats.pruned`` counts the
    applicable actions left out."""
    if cfg.mode is Mode.GOAL_COUNT:
        h = lambda s: _goal_count(task, s)  # noqa: E731
    else:
        h = _HAdd(task).value
    astar = cfg.mode is Mode.ASTAR_HADD
    deadline = start + cfg.time_limit
    g_cost = {task.init: 0}
    parents = {task.init: None}
    counter = 0
    h0 = h(task.init)
    stats.evaluated += 1
    open_heap = [(h0, h0, counter ^ cfg.seed, task.init)]
    closed: set[int] = set()
    successors = _Successors(task, reads)
    stubborn = _StubbornSets(task, reads)

    def expand(state, answer):
        kept = stubborn.keep(state, answer)
        return kept if symmetry is None else symmetry.keep(state, kept)

    while open_heap:
        if stats.expanded % 256 == 0 and time.perf_counter() > deadline:
            return PlanResult(Status.TIMEOUT, None, stats)
        _, _, _, state = heappop(open_heap)
        if state in closed:
            continue
        closed.add(state)
        stats.expanded += 1
        if goal_satisfied(task, state):
            return PlanResult(Status.SOLVED, _rebuild(
                parents, lambda s: expand(s, successors.applicable(s)),
                state), stats)
        g = g_cost[state]
        applicable = successors.applicable(state)
        kept = expand(state, applicable)
        stats.pruned += len(applicable) - len(kept)
        for action in kept:
            succ = (state & ~action.delete) | action.add
            if succ in closed:
                continue
            new_g = g + 1
            old = g_cost.get(succ)
            if old is not None and old <= new_g:
                continue
            g_cost[succ] = new_g
            parents[succ] = state
            stats.generated += 1
            if len(g_cost) > max_states:
                return PlanResult(Status.OUT_OF_MEMORY, None, stats)
            hs = h(succ)
            stats.evaluated += 1
            if hs >= INF:
                continue
            counter += 1
            f = (new_g + hs) if astar else hs
            heappush(open_heap, (f, hs, counter ^ cfg.seed, succ))
    return PlanResult(Status.UNSOLVABLE, None, stats)


# -- validation ---------------------------------------------------------------------

def validate(task: GroundedTask, plan) -> tuple[bool, Optional[int]]:
    """Sequential applicability check; returns (valid, first failure index).

    Accepts GroundActions or (name, args) pairs; an unknown action name fails
    at its index.  The final state must satisfy the goal, otherwise the
    failure index is len(plan).
    """
    state = task.init
    for i, step in enumerate(plan):
        if isinstance(step, GroundAction):
            action = task.action(step.name, step.args)
        else:
            name, args = step
            action = task.action(name, tuple(args))
        if action is None or not applicable(state, action):
            return False, i
        state = (state & ~action.delete) | action.add
    if goal_satisfied(task, state):
        return True, None
    return False, len(plan)


# -- external planner adapter --------------------------------------------------------

def external_solve(domain_file: str | Path, problem_file: str | Path,
                   cmd_template: str, time_limit: float = 900.0
                   ) -> PlanResult:
    """Run an external planner via a command template.

    The template's {domain}, {problem} and {plan} placeholders are
    substituted; the child runs in a session of its own, and at the
    wall-clock limit its whole process group is killed.  The produced
    plan file is parsed with the IPC convention and validated before the
    result is reported Solved.
    """
    domain_file = Path(domain_file)
    problem_file = Path(problem_file)
    start = time.perf_counter()
    stats = SearchStats()
    with tempfile.TemporaryDirectory(prefix="vgdl2pddl-ext-") as tmp:
        plan_path = Path(tmp) / "plan.txt"
        cmd = cmd_template.format(domain=str(domain_file),
                                  problem=str(problem_file),
                                  plan=str(plan_path))
        try:
            proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE,
                                    start_new_session=True)
        except OSError as exc:
            raise SpawnError(f"failed to spawn {cmd!r}: {exc}") from exc
        with proc:
            try:
                _, stderr = proc.communicate(timeout=time_limit)
            except subprocess.TimeoutExpired:
                # the shell leads its own process group, which holds every
                # process it started: kill them all, not the shell alone
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                stats.wall_time = time.perf_counter() - start
                return PlanResult(Status.TIMEOUT, None, stats)
        stats.wall_time = time.perf_counter() - start
        if not plan_path.exists():
            raise PlanParseError(
                f"planner produced no plan file (exit {proc.returncode}): "
                f"{stderr.decode(errors='replace')[:500]}")
        try:
            steps = pddl.parse_plan(plan_path.read_text())
        except Exception as exc:
            raise PlanParseError(f"bad plan file: {exc}") from exc
    task = ground(pddl.read_domain(domain_file.read_text()),
                  pddl.read_problem(problem_file.read_text()))
    ok, index = validate(task, steps)
    if not ok:
        raise ValidationFailedError(
            f"external plan rejected at step {index}")
    plan = tuple(task.action(name, args) for name, args in steps)
    return PlanResult(Status.SOLVED, plan, stats)
