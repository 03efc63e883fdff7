"""Grounding and STRIPS-semantics tests, cross-checked against a naive oracle."""
import gc
import itertools
import random
import re
import signal
import weakref
from dataclasses import replace

import pytest

from oracle_interp import (
    naive_apply,
    naive_ground_actions,
    relaxed_reachable,
    static_predicates,
)
from reference_ground import (_build_universe, reference_ground,
                             reference_simplify)
from test_compiler import _stability_model
from test_planner import (POOL_ASYMMETRIES, level_task, perfbench_module,
                          pool_task, random_aliens_level)
from vgdl2pddl import engine
from vgdl2pddl import ground as ground_module
from vgdl2pddl.agent import violated_literals
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.engine import AvatarAction
from vgdl2pddl.errors import NotApplicableError, TypeMismatchError
from vgdl2pddl.games import available_games, load_game, load_level
from vgdl2pddl.ground import (
    GOAL,
    _Context,
    _Forall,
    _Schema,
    _Worklist,
    _cnf,
    _expand_foralls,
    _nnf,
    _Reached,
    applicable,
    apply,
    domain_program,
    goal_satisfied,
    ground,
    precondition_clauses,
)
from vgdl2pddl.pddl import (Atom, Forall, print_domain, read_domain,
                            read_problem)
from vgdl2pddl.problems import generate_problem
from vgdl2pddl.vgdl import parse_ldf

PUSH_DOMAIN = """\
(define (domain push)
  (:requirements :strips :typing :negative-preconditions :equality
                 :universal-preconditions)
  (:types
    boulder walker - Object
    num
  )
  (:predicates
    (at ?x ?y - num ?o - Object)
    (dead ?o - Object)
    (next ?n1 ?n2 - num)
    (is-wall ?x ?y - num)
    (oriented-down ?o - Object)
    (turn-boulder-move)
    (boulder-moved ?o - boulder)
  )
  (:action WALK_DOWN
    :parameters (?a - walker ?x ?y ?new_y - num)
    :precondition (and
      (at ?x ?y ?a)
      (next ?y ?new_y)
      (not (is-wall ?x ?new_y))
    )
    :effect (and
      (not (at ?x ?y ?a))
      (at ?x ?new_y ?a)
    )
  )
  (:action WALK_UP
    :parameters (?a - walker ?x ?y ?new_y - num)
    :precondition (and
      (at ?x ?y ?a)
      (next ?new_y ?y)
      (not (is-wall ?x ?new_y))
    )
    :effect (and
      (not (at ?x ?y ?a))
      (at ?x ?new_y ?a)
    )
  )
  (:action BOULDER_MOVE_DOWN
    :parameters (?o - boulder ?x ?y ?new_y - num)
    :precondition (and
      (turn-boulder-move)
      (not (boulder-moved ?o))
      (oriented-down ?o)
      (at ?x ?y ?o)
      (next ?y ?new_y)
      (not (is-wall ?x ?new_y))
    )
    :effect (and
      (not (at ?x ?y ?o))
      (at ?x ?new_y ?o)
      (boulder-moved ?o)
    )
  )
  (:action STOP_BOULDER_MOVE
    :parameters ()
    :precondition (and
      (turn-boulder-move)
      (forall (?o - boulder) (or (dead ?o) (boulder-moved ?o)))
    )
    :effect (and
      (forall (?o - boulder) (not (boulder-moved ?o)))
      (not (turn-boulder-move))
    )
  )
  (:action SQUASH
    :parameters (?a - walker ?o - boulder ?x ?y - num)
    :precondition (and
      (not (= ?a ?o))
      (at ?x ?y ?a)
      (at ?x ?y ?o)
    )
    :effect (and
      (not (at ?x ?y ?a))
      (dead ?a)
    )
  )
)
"""

PUSH_PROBLEM = """\
(define (problem PushProblem)
  (:domain push)
  (:objects
    w1 - walker
    b1 b2 - boulder
    n0 n1 n2 - num
  )
  (:init
    (at n1 n0 b1)
    (at n2 n0 b2)
    (at n0 n2 w1)
    (oriented-down b1)
    (oriented-down b2)
    (turn-boulder-move)
    (next n0 n1)
    (next n1 n2)
    (is-wall n0 n0)
  )
  (:goal (and (at n1 n2 b1) (not (dead w1))))
)
"""


@pytest.fixture()
def push_task():
    domain = read_domain(PUSH_DOMAIN)
    problem = read_problem(PUSH_PROBLEM)
    return domain, problem, ground(domain, problem)


@pytest.fixture()
def reference_push_task():
    """The naive grounding: every statically possible action, reachable or
    not (SQUASH, for one, can never fire from the push init)."""
    domain = read_domain(PUSH_DOMAIN)
    problem = read_problem(PUSH_PROBLEM)
    return domain, problem, reference_ground(domain, problem)


class TestGrounding:
    def test_static_pruning_drops_wall_targets(self, push_task):
        _, _, task = push_task
        names = {a.ident for a in task.actions}
        # walking up from (n0, n1) into the wall at (n0, n0) must be pruned
        assert ("WALK_UP", ("w1", "n0", "n1", "n0")) not in names
        # walking down from (n0, n1) is fine
        assert ("WALK_DOWN", ("w1", "n0", "n1", "n2")) in names

    def test_chain_restricts_next(self, push_task):
        _, _, task = push_task
        # next only links n0->n1->n2, so no action mentions next(n2, ...)
        for a in task.actions:
            if a.name == "WALK_DOWN":
                y = a.args[2]
                assert y in ("n0", "n1")

    def test_stop_expands_to_clause_pairs(self, push_task,
                                          reference_push_task):
        # two boulders -> two (dead | moved) disjunction pairs
        _, _, reference = reference_push_task
        stop = reference.action("STOP_BOULDER_MOVE", ())
        assert stop is not None
        assert len(stop.clauses) == 2
        for pos_mask, neg_mask in stop.clauses:
            assert neg_mask == 0
            preds = sorted(a.predicate for a in reference.state_atoms(pos_mask))
            assert preds == ["boulder-moved", "dead"]
        # only SQUASH adds dead, and it never fires: each clause is trimmed
        # to its boulder-moved literal and stays a clause
        _, _, task = push_task
        stop = task.action("STOP_BOULDER_MOVE", ())
        assert stop is not None
        assert [(task.state_atoms(p), n) for p, n in stop.clauses] == [
            ({Atom("boulder-moved", ("b1",))}, 0),
            ({Atom("boulder-moved", ("b2",))}, 0)]

    def test_forall_over_empty_type_is_true(self):
        domain = read_domain(PUSH_DOMAIN)
        problem = read_problem(PUSH_PROBLEM.replace("b1 b2 - boulder\n    ", ""))
        task = ground(domain, problem)
        stop = task.action("STOP_BOULDER_MOVE", ())
        assert stop is not None
        assert stop.clauses == ()
        assert applicable(task.init, stop)

    def test_equality_prunes_same_object(self):
        # the walker starts in b1's column, so SQUASH is reachable
        problem = read_problem(PUSH_PROBLEM.replace("(at n0 n2 w1)",
                                                    "(at n1 n2 w1)"))
        task = ground(read_domain(PUSH_DOMAIN), problem)
        squashes = [a for a in task.actions if a.name == "SQUASH"]
        assert squashes
        for a in squashes:
            assert a.args[0] != a.args[1]

    def test_soundness_vs_naive_oracle(self, reference_push_task):
        domain, problem, task = reference_push_task
        static_preds = {"next", "is-wall"}
        init = frozenset(problem.init)
        expected = naive_ground_actions(domain, problem, static_preds, init)
        actual = {a.ident for a in task.actions}
        assert actual == expected

    def test_reachable_subset_vs_naive_oracle(self, push_task):
        domain, problem, task = push_task
        static_preds = {"next", "is-wall"}
        naive = naive_ground_actions(domain, problem, static_preds,
                                     frozenset(problem.init))
        expected, reached = relaxed_reachable(domain, problem, static_preds,
                                              naive)
        assert {a.ident for a in task.actions} == expected
        # oriented-down is static too, though left out of static_preds
        assert set(task.facts) == reached - task.static_facts
        assert not any(name == "SQUASH" for name, _ in expected)
        assert expected < naive

    def test_type_mismatch_detected(self):
        domain = read_domain(PUSH_DOMAIN)
        bad = PUSH_PROBLEM.replace("(at n0 n2 w1)", "(at n0 w1 n2)")
        with pytest.raises(TypeMismatchError):
            ground(domain, read_problem(bad))

    @pytest.mark.parametrize("atom,message", [
        ("(dne b1)", "undeclared predicate 'dne'"),
        ("(dead b1 b1)", "dead expects 1 args, got 2"),
        ("(boulder-moved w1)", "boulder-moved: w1 has type walker"),
    ])
    def test_goal_atoms_are_checked_as_init_atoms_are(self, atom, message):
        domain = read_domain(PUSH_DOMAIN)
        goal = "(:goal (and (at n1 n2 b1) (not (dead w1))))"
        for text in (PUSH_PROBLEM.replace(goal, f"(:goal (not {atom}))"),
                     PUSH_PROBLEM.replace("(turn-boulder-move)", atom)):
            with pytest.raises(TypeMismatchError, match=re.escape(message)):
                ground(domain, read_problem(text))


LOOP_DOMAIN = """\
(define (domain loop)
  (:requirements :strips :typing)
  (:types {types})
  (:predicates (p ?x - a) (q ?x - c))
  (:action TOUCH
    :parameters (?x - a)
    :precondition (p ?x)
    :effect (not (p ?x))
  )
)
"""

LOOP_PROBLEM = """\
(define (problem loop1)
  (:domain loop)
  (:objects o - {typ})
  (:init)
  (:goal (q o))
)
"""


def _within(seconds: int, call):
    """`call()`, failing with TimeoutError if it runs `seconds` or more."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTypeChecks:
    def _ground(self, types: str, typ: str):
        domain = read_domain(LOOP_DOMAIN.format(types=types))
        problem = read_problem(LOOP_PROBLEM.format(typ=typ))
        return _within(5, lambda: ground(domain, problem))

    def test_acyclic_types_ground(self):
        task = self._ground("a - b b c", "c")
        assert task.actions == ()

    def test_undeclared_parent(self):
        with pytest.raises(TypeMismatchError, match="undeclared parent 'd'"):
            self._ground("a - d c", "c")

    def test_undeclared_object_type(self):
        with pytest.raises(TypeMismatchError,
                           match="object 'o' has undeclared type 'e'"):
            self._ground("a c", "e")

    def test_cycle_through_an_object_type(self):
        with pytest.raises(TypeMismatchError, match="type cycle"):
            self._ground("a - b b - a c", "a")

    def test_cycle_through_a_parameter_type_only(self):
        # no object has a type on the cycle: only the signature check of
        # TOUCH's (p ?x) walks it
        with pytest.raises(TypeMismatchError, match="type cycle"):
            self._ground("a - b b - a c", "c")

    def test_monitor_rejects_a_cycle(self):
        domain = read_domain(LOOP_DOMAIN.format(types="a - b b - a c"))
        problem = read_problem(LOOP_PROBLEM.format(typ="c"))
        with pytest.raises(TypeMismatchError, match="type cycle"):
            _within(5, lambda: precondition_clauses(domain, problem,
                                                    "TOUCH", ("o",)))


PROBE = """
  (:action PROBE
    :parameters ()
    :precondition (q o)
    :effect (not (q o))
  )
"""

MISTYPED = """
  (:action MISTYPED
    :parameters (?x - c)
    :precondition (q ?x)
    :effect (not (p ?x))
  )
"""


class TestErrorsOnEveryCall:
    """A domain's program is compiled once, but no call skips a check:
    each checks what its problem decides, a domain error found while
    compiling is raised by every call that reaches it, and a domain that
    fails its type walk keeps no program."""

    @staticmethod
    def loop(types: str, action: str = ""):
        text = LOOP_DOMAIN.format(types=types)
        return read_domain(text[:text.rindex(")")] + action + ")\n")

    def test_a_type_cycle_raises_on_every_call(self):
        domain = self.loop("a - b b - a c")
        problem = read_problem(LOOP_PROBLEM.format(typ="c"))
        for _ in range(2):
            with pytest.raises(TypeMismatchError, match="type cycle"):
                _within(5, lambda: ground(domain, problem))
            with pytest.raises(TypeMismatchError, match="type cycle"):
                _within(5, lambda: precondition_clauses(domain, problem,
                                                        "TOUCH", ("o",)))

    def test_an_undeclared_object_type_raises_after_a_good_problem(self):
        domain = self.loop("a c")
        assert ground(domain, read_problem(LOOP_PROBLEM.format(typ="c"))
                      ).actions == ()
        with pytest.raises(TypeMismatchError,
                           match="object 'o' has undeclared type 'e'"):
            ground(domain, read_problem(LOOP_PROBLEM.format(typ="e")))

    def test_a_schema_naming_an_object_of_the_wrong_type(self):
        domain = self.loop("a c", PROBE)
        assert ground(domain, read_problem(LOOP_PROBLEM.format(typ="c"))
                      ).actions == ()
        with pytest.raises(TypeMismatchError, match="q: o has type a, needs c"):
            ground(domain, read_problem(LOOP_PROBLEM.format(typ="a")))

    def test_a_domain_error_raises_on_every_ground(self):
        """A mistyped parameter fails every `ground`; the monitor, which
        checks no signature, still grounds the other steps."""
        domain = self.loop("a c", MISTYPED)
        problem = read_problem(LOOP_PROBLEM.format(typ="a"))
        for _ in range(2):
            with pytest.raises(TypeMismatchError,
                               match=r"p: \?x has type c, needs a"):
                ground(domain, problem)
        assert precondition_clauses(domain, problem, "TOUCH", ("o",)) == [
            [(Atom("p", ("o",)), True)]]


def _with_action(action_text: str) -> str:
    return PUSH_DOMAIN[:PUSH_DOMAIN.rindex(")")] + action_text + ")\n"


STAY = """
  (:action STAY
    :parameters (?a - walker ?x ?y - num)
    :precondition {pre}
    :effect (and (not (at ?x ?y ?a)) (at ?x ?y ?a))
  )
"""


class TestAddDeleteOverlap:
    """An action that adds and deletes one atom is rejected for every binding
    the static facts allow, whether or not relaxed reachability builds it."""

    @pytest.mark.parametrize("pre, reachable, raises", [
        ("(at ?x ?y ?a)", True, True),
        ("(dead ?a)", False, True),  # only the unreachable SQUASH adds dead
        ("(and (is-wall ?x ?y) (not (is-wall ?x ?y)))", False, False),
    ], ids=["reachable", "unreachable", "statically-false"])
    def test_overlap(self, pre, reachable, raises):
        problem = read_problem(PUSH_PROBLEM)
        domain = read_domain(_with_action(STAY.format(pre=pre)))
        for grounder in (ground, reference_ground):
            if raises:
                with pytest.raises(TypeMismatchError, match="adds and deletes"):
                    grounder(domain, problem)
            else:
                grounder(domain, problem)
        harmless = read_domain(_with_action(
            STAY.format(pre=pre).replace("(not (at ?x ?y ?a)) ", "")))
        names = {a.name for a in ground(harmless, problem).actions}
        assert ("STAY" in names) == reachable


class TestSemantics:
    def test_apply_moves_at_fact(self, push_task):
        _, _, task = push_task
        act = task.action("WALK_DOWN", ("w1", "n0", "n2", "n2"))
        assert act is None  # next(n2, n2) does not hold
        act = task.action("BOULDER_MOVE_DOWN", ("b1", "n1", "n0", "n1"))
        state = apply(task.init, act)
        atoms = task.state_atoms(state)
        assert Atom("at", ("n1", "n1", "b1")) in atoms
        assert Atom("at", ("n1", "n0", "b1")) not in atoms

    def test_inverse_walk_is_involution(self, push_task):
        _, _, task = push_task
        down = task.action("WALK_DOWN", ("w1", "n0", "n2", "n2"))
        # walker is at (n0, n2); corridor below is the wall-free column n1
        down = task.action("WALK_UP", ("w1", "n0", "n2", "n1"))
        state1 = apply(task.init, down)
        back = task.action("WALK_DOWN", ("w1", "n0", "n1", "n2"))
        assert apply(state1, back) == task.init

    def test_not_applicable_raises(self, push_task):
        _, _, task = push_task
        # reachable (b1 first moves to (n1, n1)) but not applicable in init
        move = task.action("BOULDER_MOVE_DOWN", ("b1", "n1", "n1", "n2"))
        assert move is not None
        with pytest.raises(NotApplicableError):
            apply(task.init, move)

    def test_goal_detection(self, push_task):
        _, _, task = push_task
        assert not goal_satisfied(task, task.init)
        act = task.action("BOULDER_MOVE_DOWN", ("b1", "n1", "n0", "n1"))
        s = apply(task.init, act)
        act = task.action("BOULDER_MOVE_DOWN", ("b1", "n1", "n1", "n2"))
        assert act is not None and applicable(s, act) is False  # b1 already moved

    def test_negative_goal_literal(self, reference_push_task):
        _, _, task = reference_push_task
        # kill the walker: the goal (not (dead w1)) must then fail even if
        # the positive part were reached
        squash = task.action("SQUASH", ("w1", "b1", "n1", "n0"))
        assert squash is not None

    def test_random_apply_agrees_with_naive_interpreter(self, push_task):
        domain, problem, task = push_task
        rng = random.Random(7)
        checked = 0
        state = task.init
        statics = frozenset(task.static_facts)
        for _ in range(1000):
            acts = [a for a in task.actions if applicable(state, a)]
            if not acts:
                state = task.init
                continue
            act = rng.choice(acts)
            naive = naive_apply(domain, problem,
                                task.state_atoms(state) | statics,
                                act.name, act.args)
            assert naive is not None, f"{act} applicable only in bitmask model"
            state = apply(state, act)
            assert task.state_atoms(state) == naive - statics
            checked += 1
        assert checked >= 900

    def test_apply_stays_within_fact_index(self, push_task):
        _, _, task = push_task
        full = (1 << len(task.facts)) - 1
        state = task.init
        rng = random.Random(3)
        for _ in range(200):
            acts = [a for a in task.actions if applicable(state, a)]
            if not acts:
                break
            state = apply(state, rng.choice(acts))
            assert state & ~full == 0


class TestSokobanAdjacency:
    def test_avatar_moves_equal_open_adjacencies(self):
        """Wall-targeted avatar moves are pruned: what remains is exactly one
        grounded move per (open cell, open neighbour) pair, counted by brute
        force on the grid."""
        from vgdl2pddl.compiler import compile_game
        from vgdl2pddl.games import load_game, load_level
        from vgdl2pddl.problems import generate_problem

        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        problem, _ = generate_problem(grid, game)
        # moves out of wall cells are statically possible, but the avatar
        # never reaches a wall cell, so they are not grounded
        task = ground(game.domain, problem)

        open_cells = {(x, y) for x, y, c in grid.positions() if c != "w"}
        expected = 0
        for x, y in open_cells:
            for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                if (x + dx, y + dy) in open_cells:
                    expected += 1
        moves = [a for a in task.actions
                 if a.name.startswith("AVATAR_ACTION_MOVE_")]
        assert len(moves) == expected


class TestSimplify:
    """What relaxed reachability removes, as `ground` returns it."""

    def test_simplify_preserves_reachable_behaviour(self, push_task,
                                                    reference_push_task):
        _, _, task = push_task
        _, _, reference = reference_push_task
        assert {a.ident for a in task.actions} <= {a.ident for a in reference.actions}
        # every grounded action behaves as the naive one on the init state
        for a in task.actions:
            original = reference.action(a.name, a.args)
            assert (applicable(task.init, a)
                    == applicable(reference.init, original))

    def test_unreachable_goal_flagged(self):
        domain = read_domain(PUSH_DOMAIN)
        # boulders cannot reach (n0, n0): it is a wall
        text = PUSH_PROBLEM.replace("(:goal (and (at n1 n2 b1) (not (dead w1))))",
                                    "(:goal (at n0 n0 b1))")
        task = ground(domain, read_problem(text))
        assert task.unsolvable_goal
        assert Atom("at", ("n0", "n0", "b1")) not in task.fact_id

    def test_unreached_negative_goal_always_holds(self, push_task):
        _, _, task = push_task
        # the goal's (not (dead w1)) is on an atom nothing can add
        assert Atom("dead", ("w1",)) not in task.fact_id
        assert task.goal_neg == 0 and not task.unsolvable_goal

    def test_clause_needs_are_met_before_building(self):
        """digger's boulder at (3, 3) could stop at (3, 4) only on a dirt at
        (3, 5) that is never there: an all-positive clause is a need."""
        domain, problem = _case("digger-0")
        idents = {a.ident for a in ground(domain, problem).actions}
        stop = ("BOULDER_MOVE_STOP", ("boulder_3_3", "n3", "n4", "n5"))
        assert stop not in idents
        assert stop in {a.ident for a in reference_ground(domain, problem).actions}


class TestStaticFolding:
    """The goal and the monitor's precondition are grounded like any schema
    precondition: static and equality literals are decided, never listed."""

    PUSH_GOAL = "(:goal (and (at n1 n2 b1) (not (dead w1))))"

    def _with_goal(self, goal: str):
        domain = read_domain(PUSH_DOMAIN)
        return ground(domain, read_problem(PUSH_PROBLEM.replace(self.PUSH_GOAL, goal)))

    def test_decided_goal_literals_fold_away(self, push_task):
        domain, problem, base = push_task
        goal = ("(:goal (and (at n1 n2 b1) (next n0 n1)"
                " (not (= b1 b2)) (not (dead w1))))")
        task = self._with_goal(goal)
        assert (task.goal_pos, task.goal_neg) == (base.goal_pos, base.goal_neg)
        assert not task.unsolvable_goal
        decided = read_problem(PUSH_PROBLEM.replace(self.PUSH_GOAL, goal))
        assert precondition_clauses(domain, decided, GOAL, ()) == \
            precondition_clauses(domain, problem, GOAL, ()) == \
            [[(Atom("at", ("n1", "n2", "b1")), True)],
             [(Atom("dead", ("w1",)), False)]]

    def test_false_static_goal_atom_is_unsolvable(self):
        task = self._with_goal("(:goal (and (at n1 n2 b1) (next n1 n0)))")
        assert task.unsolvable_goal
        assert not goal_satisfied(task, task.init)

    def test_failed_inequality_is_statically_false(self):
        game = compile_game(load_game("sokoban"))
        problem, _ = generate_problem(load_level("sokoban", 0, game.model), game)
        task = ground(game.domain, problem)
        bounce = next(a for a in task.actions
                      if a.name.startswith("BOX_AVATAR_BOUNCEFORWARD_"))
        box, avatar, *cells = bounce.args
        assert precondition_clauses(game.domain, problem, bounce.name,
                                    bounce.args)
        # ?o1 = ?o2 fails the interaction's (not (= ?o1 ?o2))
        assert precondition_clauses(game.domain, problem, bounce.name,
                                    (avatar, avatar, *cells)) is None


class TestNeverTrueInstances:
    """A forall instance with a negative literal on an atom that is not in
    init and that no add effect can produce always holds: no clause is built
    for it. `TestReferenceEquality` shows the grounded tasks stay the same."""

    def test_guards_join_on_the_atoms_that_can_be_true(self):
        """END-TURN-INTERACTIONS' guard foralls are expanded only where each
        negated dynamic atom can be true: on the reached atoms for `ground`,
        so the fact table trims none of their clauses, and on the observed
        state's atoms for the monitor."""
        domain, problem = _case("digger-1")
        task = ground(domain, problem)
        eti = next(a for a in domain.actions
                   if a.name == "END-TURN-INTERACTIONS")
        cx = _Context(domain_program(domain), problem)
        joined = _Schema(cx.program.step(eti.name, problem), cx,
                         _Worklist(cx).reached).clauses_for(())
        guards = [clause for clause in joined if len(clause) > 1]
        assert guards and all(not positive and atom in task.fact_id
                              for clause in guards for atom, positive in clause)
        kept = task.action("END-TURN-INTERACTIONS", ())
        assert [task.state_atoms(neg) for pos, neg in kept.clauses] == [
            {atom for atom, _ in clause} for clause in guards]
        observed = precondition_clauses(domain, problem,
                                        "END-TURN-INTERACTIONS", ())
        init = set(problem.init)
        assert all(atom in init for clause in observed if len(clause) > 1
                   for atom, _ in clause)
        assert len(observed) < len(joined)

    def test_guard_builds_few_templates(self):
        domain, problem = _case("digger-1")
        eti = next(a for a in domain.actions
                   if a.name == "END-TURN-INTERACTIONS")
        cx = _Context(domain_program(domain), problem)
        schema = _Schema(cx.program.step(eti.name, problem), cx,
                         _Worklist(cx).reached)
        # one template per instance of every guard's forall would be 1,268
        assert len(schema.clauses) <= 70
        kept = ground(domain, problem).action("END-TURN-INTERACTIONS", ())
        assert 0 < len(kept.clauses) <= len(schema.clauses)

    def test_reached_atoms_are_computed_once_by_ground_only(self, monkeypatch):
        """The relaxed-reachable atoms come from the one fixpoint `ground`
        runs; the monitor joins guards on the observed atoms and runs
        none."""
        domain, problem = _case("digger-1")
        built = []

        class Counting(_Worklist):
            def __init__(self, grounder):
                built.append(grounder)
                super().__init__(grounder)

        monkeypatch.setattr(ground_module, "_Worklist", Counting)
        ground(domain, problem)
        assert len(built) == 1
        for step in ("END-TURN-INTERACTIONS", GOAL):
            assert precondition_clauses(domain, problem, step, ()) is not None
        assert len(built) == 1


class TestForallClauses:
    """A `_Forall`, planned once per domain, grounds every forall whose body
    is one clause; a guard is joined only once the atoms it joins on are
    passed."""

    @staticmethod
    def foralls(name):
        """The context of rain lvl1, and each forall conjunct of schema
        `name` with its `_Forall` plan."""
        domain, problem = _case("rain-1")
        program = domain_program(domain)
        schema = next(s for s in program.schemas if s.name == name)
        return _Context(program, problem), [
            (c, plan) for c, plan in zip(schema.conjuncts, schema.parts)
            if isinstance(plan, _Forall)]

    def test_nothing_joinable_is_the_plain_expansion(self):
        cx, [(forall, plan)] = self.foralls("STOP_DROP_MOVE")
        assert isinstance(forall, Forall)
        expanded = _cnf(_nnf(_expand_foralls(forall, cx.universe), False))
        assert len(expanded) > 1
        assert plan.clauses(cx) == expanded

    def test_guard_passed_no_atoms_is_returned_as_itself(self):
        """A schema built without atoms keeps each guard as its plan."""
        cx, guards = self.foralls("END-TURN-INTERACTIONS")
        assert guards and all(plan.guard for _, plan in guards)
        schema = _Schema(cx.program.step("END-TURN-INTERACTIONS", None), cx, None)
        assert [part for part in schema._parts if isinstance(part, _Forall)
                ] == [plan for _, plan in guards]
        reached = _Worklist(cx).reached
        for _, plan in guards:
            assert isinstance(plan.clauses(cx, reached), list)


# -- equality with the naive grounding --------------------------------------------

def literal_view(task):
    """A grounded task at the literal level: fact indices differ between
    groundings that keep different fact sets, the atoms behind them do not."""
    atoms = task.state_atoms
    return (
        tuple((a.name, a.args, atoms(a.pos_pre), atoms(a.neg_pre),
               tuple((atoms(p), atoms(n)) for p, n in a.clauses),
               atoms(a.add), atoms(a.delete))
              for a in task.actions),
        atoms(task.goal_pos), atoms(task.goal_neg),
        atoms(task.init), task.unsolvable_goal)


def without_never_true(task):
    """A `reference_simplify` output with its never-true atoms removed from
    every mask, and the set of its ever-true atoms: init and the adds of its
    actions. `ground` keeps only those atoms in its fact table; the
    reference keeps every atom its naive actions mention."""
    ever_true = task.init
    for a in task.actions:
        ever_true |= a.add
    actions = tuple(
        replace(a, pos_pre=a.pos_pre & ever_true, neg_pre=a.neg_pre & ever_true,
                clauses=tuple((p & ever_true, n & ever_true)
                              for p, n in a.clauses),
                add=a.add & ever_true, delete=a.delete & ever_true)
        for a in task.actions)
    projected = replace(task, actions=actions, goal_pos=task.goal_pos & ever_true,
                        goal_neg=task.goal_neg & ever_true)
    return projected, task.state_atoms(ever_true)


TOY_LEVELS = {
    "toy_right": "m p\nA  \nw w", "toy_left": "m p\nA  \nw w",
    "toy_up": "m p\nA  \nw w", "toy2": "mdp\nA  \nw w",
    "hunter": "  s  \n     \ns A  \n     \n     ",
    "hunter_walled": "  s  \n  w  \ns A  \n     \n     ",
}


def _open_sokoban(side: int) -> str:
    rows = [["w" if x in (0, side - 1) or y in (0, side - 1) else " "
             for x in range(side)] for y in range(side)]
    rows[2][2], rows[5][5], rows[5][8] = "A", "b", "h"
    return "\n".join("".join(row) for row in rows)


# a forall joined on is-wall, with the walls listed out of universe order:
# the join meets (n2, n1) before (n2, n0), the conjunction must not; and its
# instances with ?o distinct from ?p hold by the negated equality
SETTLE = """
  (:action SETTLE
    :parameters ()
    :precondition (and
      (turn-boulder-move)
      (forall (?o ?p - Object ?x ?y - num)
        (or (= ?x ?y) (not (is-wall ?x ?y)) (not (= ?o ?p))
            (not (at ?x ?y ?o)) (dead ?p)))
    )
    :effect (not (turn-boulder-move))
  )
"""


# a forall joined on is-wall whose equality names the schema parameter: the
# join must leave (= ?o ?q) to each binding, where it holds for GUARD b2 on
# the instance ?o = b2 (b2 stands on the wall at (n2, n0))
GUARD = """
  (:action GUARD
    :parameters (?q - boulder)
    :precondition
      (forall (?o - Object ?x ?y - num)
        (or (= ?o ?q) (not (is-wall ?x ?y)) (not (at ?x ?y ?o))))
    :effect (not (turn-boulder-move))
  )
"""

# a clause with a negated atom that never becomes true, and a positive one
CALM = """
  (:action CALM
    :parameters (?a - walker ?x ?y - num)
    :precondition (and (at ?x ?y ?a) (or (not (dead ?a)) (dead ?a)))
    :effect (not (turn-boulder-move))
  )
"""

# an equality under a conjunction under a disjunction
NESTED = """
  (:action NESTED
    :parameters (?p ?q - boulder)
    :precondition (or (and (= ?p ?q) (boulder-moved ?p)) (turn-boulder-move))
    :effect (not (turn-boulder-move))
  )
"""


# the walls are listed out of object order and a wall of ?x = n2 holds w1,
# so (n2 n1 w1) comes before (n2 n0 b2), as the is-wall rows list them;
# ?o - Object also meets the atoms of its subtypes walker and boulder
CRUSH = """
  (:action CRUSH
    :parameters (?x ?y - num ?o - Object)
    :precondition (and (is-wall ?x ?y) (at ?x ?y ?o))
    :effect (dead ?o)
  )
"""

# a need with a constant argument
ROW_ONE = """
  (:action ROW_ONE
    :parameters (?y - num ?o - boulder)
    :precondition (and (at n1 ?y ?o) (turn-boulder-move))
    :effect (dead ?o)
  )
"""

# two needs that give the same atom when ?o = ?p
TWIN = """
  (:action TWIN
    :parameters (?o ?p - boulder ?x ?y - num)
    :precondition (and (at ?x ?y ?o) (at ?x ?y ?p))
    :effect (dead ?o)
  )
"""

# no positive dynamic precondition, so no need
REST = """
  (:action REST
    :parameters (?o - boulder ?x ?y - num)
    :precondition (and (is-wall ?x ?y) (not (dead ?o)))
    :effect (boulder-moved ?o)
  )
"""

# a guard whose negated atom, (at n1 n2 b1), is reached only after b1 has
# moved twice, a STOP_BOULDER_MOVE in between
LATE = """
  (:action LATE
    :parameters ()
    :precondition (and
      (turn-boulder-move)
      (forall (?o - boulder) (or (not (at n1 n2 ?o)) (boulder-moved ?o)))
    )
    :effect (not (turn-boulder-move))
  )
"""

TOY_ACTIONS = {"push-crush": CRUSH, "push-row-one": ROW_ONE, "push-twin": TWIN,
               "push-rest": REST, "push-late-guard": LATE}

# a few seeded engine turns into aliens, with a live bullet and falling
# rocks (the aliens' bombs): the problems an episode grounds at a replan
MID_EPISODE = {"aliens-0-turn-4": (0, 4), "aliens-1-turn-4": (1, 4)}
OPENING = (AvatarAction.USE, AvatarAction.LEFT, AvatarAction.NIL,
           AvatarAction.USE)


def _case(case):
    """(domain, problem) of a named grounding case."""
    if case == "push":
        return read_domain(PUSH_DOMAIN), read_problem(PUSH_PROBLEM)
    if case in TOY_ACTIONS:
        problem = _case("push-walls")[1]
        if case == "push-crush":
            problem = replace(problem, init=tuple(
                Atom("at", ("n2", "n1", "w1")) if atom.args == ("n0", "n2", "w1")
                else atom for atom in problem.init))
        return read_domain(_with_action(TOY_ACTIONS[case])), problem
    if case in MID_EPISODE:
        level, turns = MID_EPISODE[case]
        game = compile_game(load_game("aliens"))
        state = engine.load(game.model, load_level("aliens", level, game.model))
        for action in OPENING[:turns]:
            engine.step(state, action)
        return game.domain, generate_problem(state, game)[0]
    if case == "push-walls":
        walls = "(is-wall n2 n1)\n    (is-wall n2 n0)\n    (is-wall n0 n0)"
        return (read_domain(_with_action(SETTLE)),
                read_problem(PUSH_PROBLEM.replace("(is-wall n0 n0)", walls)))
    if case == "push-guard":
        return read_domain(_with_action(GUARD)), _case("push-walls")[1]
    if case == "open-sokoban-12":
        game = compile_game(load_game("sokoban"))
        grid = parse_ldf(_open_sokoban(12), game.model)
    elif case in TOY_LEVELS:
        game = compile_game(_stability_model(case))
        grid = parse_ldf(TOY_LEVELS[case], game.model)
    else:
        name, index = case.rsplit("-", 1)
        game = compile_game(load_game(name))
        grid = load_level(name, int(index), game.model)
    problem, _ = generate_problem(grid, game)
    return game.domain, problem


SHIPPED = ["aliens", "digger", "keymaze", "rain", "sokoban", "zenpuzzle"]


class TestReferenceEquality:
    """The search sees the same task as with the naive grounding: `ground`
    equals `reference_simplify(reference_ground(x))` over the atoms that can
    become true, and its fact table is exactly those atoms."""

    def test_every_shipped_game_is_covered(self):
        assert available_games() == SHIPPED

    @pytest.mark.parametrize("case", [f"{g}-{i}" for g in SHIPPED for i in (0, 1)]
                             + sorted(TOY_LEVELS)
                             + ["push", "push-walls", "push-guard",
                                "open-sokoban-12"]
                             + sorted(TOY_ACTIONS) + sorted(MID_EPISODE))
    def test_simplified_tasks_equal(self, case):
        domain, problem = _case(case)
        task = ground(domain, problem)
        reference = reference_ground(domain, problem)
        # the kept actions are the relaxed-reachable part of the reference's
        reachable, reached = relaxed_reachable(
            domain, problem, static_predicates(domain),
            {a.ident for a in reference.actions})
        assert {a.ident for a in task.actions} == reachable
        # built as the reference builds them, in its order, without the
        # atoms that never become true
        expected, ever_true = without_never_true(reference_simplify(reference))
        assert literal_view(task) == literal_view(expected)
        assert set(task.facts) == ever_true == reached

    def test_nested_equality_keeps_applicability(self):
        """An equality under a conjunction under a disjunction is folded
        after the CNF: NESTED b1 b2 keeps the clause (boulder-moved b1) or
        (turn-boulder-move), which the unit clause (turn-boulder-move)
        implies and the reference folds away. Both groundings make the same
        NESTED actions applicable in every state over the atoms they
        mention."""
        domain = read_domain(_with_action(NESTED))
        problem = read_problem(PUSH_PROBLEM)
        task = ground(domain, problem)
        reference = reference_simplify(reference_ground(domain, problem))
        pairs = [(a, reference.action(a.name, a.args))
                 for a in task.actions if a.name == "NESTED"]
        assert len(pairs) == 4 and all(ref is not None for _, ref in pairs)

        def mentioned(t, a):
            mask = a.pos_pre | a.neg_pre
            for pos_mask, neg_mask in a.clauses:
                mask |= pos_mask | neg_mask
            return t.state_atoms(mask)

        atoms = sorted(set().union(*(mentioned(task, a) | mentioned(reference, r)
                                     for a, r in pairs)), key=str)
        assert len(atoms) <= 4

        def state(t, true):
            return sum(1 << t.fact_id[f] for f in true if f in t.fact_id)

        for bits in itertools.product((False, True), repeat=len(atoms)):
            true = [f for f, b in zip(atoms, bits) if b]
            for a, ref in pairs:
                assert (applicable(state(task, true), a)
                        == applicable(state(reference, true), ref)), (a, true)


class TestMaskPass:
    """The fixpoint checks a binding without building its clauses; each kept
    action is evaluated into masks once, after it, by code apart from the
    monitor's `clauses_for`."""

    @pytest.mark.parametrize("case", [f"{g}-{i}" for g in SHIPPED for i in (0, 1)])
    def test_masks_agree_with_the_monitor_in_init(self, case):
        domain, problem = _case(case)
        task = ground(domain, problem)
        init = frozenset(problem.init)
        for a in task.actions:
            clauses = precondition_clauses(domain, problem, a.name, a.args)
            assert applicable(task.init, a) == (
                violated_literals(clauses, init) == ()), a

    def test_a_negated_never_true_atom_drops_its_clause(self):
        """Only the unreachable SQUASH adds dead, so CALM's clause always
        holds: it is no need, and no mask names it."""
        task = ground(read_domain(_with_action(CALM)), read_problem(PUSH_PROBLEM))
        calm = [a for a in task.actions if a.name == "CALM"]
        assert Atom("dead", ("w1",)) not in task.fact_id
        assert calm and all(a.clauses == () and a.neg_pre == 0 for a in calm)
        assert all(applicable(task.init, a) for a in calm
                   if a.args[1:] == ("n0", "n2"))

    @pytest.mark.parametrize("case", ["digger-1", "rain-1", "push-guard"])
    def test_each_kept_action_is_evaluated_once(self, case, monkeypatch):
        """One `ground` turns each kept action's precondition into masks
        once, and builds a literal clause list for the goal alone."""
        evaluated, filled = [], []
        action, clauses_for = _Schema.action, _Schema.clauses_for

        def counted(self, args, bits):
            if isinstance(self, ground_module._ActionSchema):
                evaluated.append((self.name, args))
            return action(self, args, bits)

        def recorded(self, args):
            filled.append(self)
            return clauses_for(self, args)

        monkeypatch.setattr(_Schema, "action", counted)
        monkeypatch.setattr(_Schema, "clauses_for", recorded)
        task = ground(*_case(case))
        assert evaluated == [a.ident for a in task.actions]
        assert len(filled) == 1
        assert not isinstance(filled[0], ground_module._ActionSchema)


class TestDomainProgram:
    """`ground` compiles a domain's program once per `Domain` object and
    keeps nothing of a problem in it."""

    def test_shared_domains_ground_as_fresh_ones(self, monkeypatch):
        """The cases of `TestReferenceEquality` (the shipped levels among
        them) and the ladder rungs, grounded in shuffled order on one
        `Domain` object per domain text, equal their grounds on a freshly
        compiled domain, interchangeable objects included."""
        cases = [_case(c) for c in
                 [f"{g}-{i}" for g in SHIPPED for i in (0, 1)]
                 + sorted(TOY_LEVELS)
                 + ["push", "push-walls", "push-guard", "open-sokoban-12"]
                 + sorted(TOY_ACTIONS) + sorted(MID_EPISODE)]
        inputs = perfbench_module("inputs", monkeypatch)
        for _, text in inputs.ladder_levels(1):
            game = compile_game(load_game("sokoban"))
            cases.append((game.domain,
                          generate_problem(parse_ldf(text, game.model), game)[0]))
        expected = [ground(domain, problem) for domain, problem in cases]
        shared: dict[str, object] = {}
        pairs = [(shared.setdefault(print_domain(d), d), p) for d, p in cases]
        assert len(shared) < len(pairs)
        order = list(range(len(pairs)))
        random.Random(7).shuffle(order)
        for i in order:
            assert ground(*pairs[i]) == expected[i], i
        assert any(task.interchangeable for task in expected)

    def test_a_grounded_problem_is_not_kept(self):
        domain, problem = _case("aliens-1")
        ground(domain, problem)
        precondition_clauses(domain, problem, GOAL, ())
        problem_ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert problem_ref() is None
        assert id(domain) in ground_module._PROGRAMS

    def test_the_program_dies_with_its_domain(self):
        domain, problem = _case("aliens-0")
        ground(domain, problem)
        key = id(domain)
        assert key in ground_module._PROGRAMS
        del domain
        gc.collect()
        assert key not in ground_module._PROGRAMS


class TestContext:
    """A problem's context lists every type's objects and every static
    predicate's rows, and a monitor step grounds on it as `ground` does."""

    @pytest.mark.parametrize("case", [f"{g}-1" for g in SHIPPED]
                             + ["push-walls"])
    def test_universe_and_static_sets_equal_the_eager_ones(self, case):
        domain, problem = _case(case)
        program = domain_program(domain)
        cx = _Context(program, problem)
        for typ, objs in _build_universe(domain, problem).items():
            assert cx.universe[typ] == cx.universe.get(typ) == objs, typ
        assert cx.universe["no-such-type"] == []
        for pred in program.static_preds:
            assert cx.static_sets[pred] == {
                atom.args for atom in problem.init if atom.predicate == pred}

    def test_a_monitor_step_builds_only_what_it_reads(self):
        domain, problem = _case("aliens-1")
        move = next(a for a in ground(domain, problem).actions
                    if a.name.startswith("AVATAR_ACTION_MOVE"))
        program = domain_program(domain)
        cx = _Context(program, problem)
        clauses = _Schema(program.step(move.name, problem), cx,
                          _Reached(cx.init_dynamic)).clauses_for(move.args)
        assert clauses == precondition_clauses(domain, problem, *move.ident)

    def test_a_forall_over_an_empty_type_binds_no_join(self, monkeypatch):
        bound = []

        class Recording(ground_module._BoundJoin):
            def __init__(self, join, *args):
                bound.append(join)
                super().__init__(join, *args)

        monkeypatch.setattr(ground_module, "_BoundJoin", Recording)
        for case, rocks in (("aliens-1", False), ("aliens-1-turn-4", True)):
            domain, problem = _case(case)
            move = next(a for a in ground(domain, problem).actions
                        if a.name.startswith("AVATAR_ACTION_MOVE"))
            foralls = [part for part in domain_program(domain).step(
                move.name, problem).parts if isinstance(part, _Forall)]
            assert [f.types for f in foralls] == [["rock"]]
            assert any(t == "rock" for _, t in problem.objects) is rocks
            bound.clear()
            assert precondition_clauses(domain, problem, *move.ident)
            assert any(join is foralls[0].join for join in bound) is rocks

    def test_monitor_clauses_unchanged_on_the_c6_episodes(self, monkeypatch):
        """Every step the monitor checks in the acceptance c6 episodes
        (aliens lvl0, seeds 0-9) gets the clauses of a join bound even over
        a type with no object."""
        from vgdl2pddl import agent
        from vgdl2pddl.planner import Mode, SearchConfig
        calls = []  # (arguments, clauses)

        def recording(*call):
            clauses = precondition_clauses(*call)
            calls.append((call, clauses))
            return clauses

        game = compile_game(load_game("aliens"))
        grid = load_level("aliens", 0, game.model)
        with monkeypatch.context() as m:
            m.setattr(agent, "precondition_clauses", recording)
            for seed in range(10):
                agent.run_episode(game, grid, SearchConfig(
                    mode=Mode.GBFS_HADD, time_limit=120), seed=seed, budget=200)
        skipping = _Forall.clauses
        empty = []

        def always_joined(self, cx, reached=None):
            rows = ground_module._BoundJoin(self.join, cx, reached).run()
            if not all(map(cx.universe.__getitem__, self.types)):
                empty.append(rows)
                return []
            return skipping(self, cx, reached)

        monkeypatch.setattr(_Forall, "clauses", always_joined)
        for call, clauses in calls:
            assert precondition_clauses(*call) == clauses, call
        assert empty and not any(empty)


def atom_view(task, rename=None):
    """`task` as atoms, every object renamed by `rename`: its facts, static
    facts, init and goal, and each action's ident with its precondition,
    clause and effect atoms."""
    def named(atom):
        return Atom(atom.predicate, tuple(rename.get(x, x) for x in atom.args))

    def atoms(mask):
        return frozenset(map(named, task.state_atoms(mask)))

    rename = rename or {}
    actions = {(a.name, tuple(rename.get(x, x) for x in a.args)):
               (atoms(a.pos_pre), atoms(a.neg_pre),
                frozenset((atoms(pos), atoms(neg)) for pos, neg in a.clauses),
                atoms(a.add), atoms(a.delete))
               for a in task.actions}
    assert len(actions) == len(task.actions)
    return (frozenset(map(named, task.facts)),
            frozenset(map(named, task.static_facts)), atoms(task.init),
            atoms(task.goal_pos), atoms(task.goal_neg), actions)


class TestInterchangeable:
    def test_every_swap_maps_the_task_onto_itself(self):
        """Swapping any two members of a class `ground` reports fixes the
        task atom by atom: facts, static facts, init, goal, action idents,
        and each action's precondition, clause and effect atoms."""
        game = compile_game(load_game("aliens"))
        tasks = [level_task("aliens", index) for index in (0, 1)]
        tasks += [ground(*_case(case)) for case in sorted(MID_EPISODE)]
        rng = random.Random(23)
        for _ in range(12):
            grid = parse_ldf(random_aliens_level(rng), game.model)
            tasks.append(ground(game.domain, generate_problem(grid, game)[0]))
        tasks += [pool_task()]
        tasks += [pool_task(**asymmetry) for asymmetry in POOL_ASYMMETRIES]
        swaps = 0
        for task in tasks:
            view = atom_view(task)
            for members in task.interchangeable:
                for x, y in itertools.combinations(members, 2):
                    assert atom_view(task, {x: y, y: x}) == view, (x, y)
                    swaps += 1
        assert swaps == 1 + 3 + 1 + 3 + 12 + 1
