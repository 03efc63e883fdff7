"""PDDL reader/printer tests, including the golden collect-resource action."""
import pytest

from vgdl2pddl import pddl
from vgdl2pddl.errors import PddlSyntaxError, UnsupportedConstructError
from vgdl2pddl.pddl import (
    And,
    Atom,
    Forall,
    Not,
    format_plan,
    parse_plan,
    print_domain,
    print_problem,
    read_domain,
    read_problem,
)

# Golden instantiation of the collect-resource interaction template.
COLLECT_ACTION = """\
(:action SHOES_USER_COLLECTRESOURCE
  :parameters(?o1 - shoes ?o2 - user
             ?x ?y ?r ?r_next - num)
  :precondition (and
    (turn-interactions)

    ; Verify objects are different
    (not (= ?o1 ?o2))
    (at ?x ?y ?o1)
    (at ?x ?y ?o2)

    (got-resource-shoes ?r)
    (next ?r ?r_next)
  )
  :effect (and
    ; Remove resource from map
    (not (at ?x ?y ?o1))
    (dead ?o1)

    ; Increase value
    (not (got-resource-shoes ?r))
    (got-resource-shoes ?r_next)
  )
)
"""

MINI_DOMAIN = f"""\
(define (domain mini)
  (:requirements :strips :typing :negative-preconditions :equality)
  (:types
    shoes user - Object
    num
  )
  (:predicates
    (at ?x ?y - num ?o - Object)
    (dead ?o - Object)
    (next ?n1 ?n2 - num)
    (got-resource-shoes ?n - num)
    (turn-interactions)
  )
  {COLLECT_ACTION}
)
"""

MINI_PROBLEM = """\
(define (problem MiniProblem)
  (:domain mini)
  (:objects
    s1 - shoes
    u1 - user
    n0 n1 n2 - num
  )
  (:init
    (at n0 n1 s1)
    (at n0 n1 u1)
    (got-resource-shoes n0)
    (next n0 n1)
    (next n1 n2)
    (turn-interactions)
  )
  (:goal (forall (?o - shoes) (dead ?o)))
)
"""


class TestReader:
    def test_collect_action_shape(self):
        domain = read_domain(MINI_DOMAIN)
        action = domain.actions[0]
        assert action.name == "SHOES_USER_COLLECTRESOURCE"
        assert len(action.params) == 6
        assert action.params[0] == ("?o1", "shoes")
        assert action.params[-1] == ("?r_next", "num")
        assert isinstance(action.precondition, And)
        assert len(action.precondition.parts) == 6
        assert isinstance(action.effect, And)
        assert len(action.effect.parts) == 4
        # the equality guard parses as a negated equality atom
        guard = action.precondition.parts[1]
        assert guard == Not(Atom("=", ("?o1", "?o2")))

    def test_static_predicates_computed_once(self):
        domain = read_domain(MINI_DOMAIN)
        # the effect mentions at, dead and got-resource-shoes
        assert domain.static_predicates == {"next", "turn-interactions"}
        assert domain.static_predicates is domain.static_predicates
        assert domain == read_domain(MINI_DOMAIN)

    def test_types_distinguish_roots(self):
        domain = read_domain(MINI_DOMAIN)
        types = dict(domain.types)
        assert types["shoes"] == "Object"
        assert types["num"] is None

    def test_minimal_empty_domain_round_trips(self):
        text = "(define (domain d))"
        domain = read_domain(text)
        assert domain.name == "d"
        assert read_domain(print_domain(domain)) == domain

    def test_problem(self):
        problem = read_problem(MINI_PROBLEM)
        assert problem.name == "MiniProblem"
        assert problem.domain == "mini"
        assert ("n2", "num") in problem.objects
        assert Atom("at", ("n0", "n1", "s1")) in problem.init
        assert isinstance(problem.goal, Forall)

    # (reader, text, the column of the token or '(' the error names)
    MALFORMED = [
        pytest.param(read_domain, "(define (domain d) (:types a - ))", 30,
                     id="dangling-dash"),
        pytest.param(read_domain, "(define (domain d) foo)", 20,
                     id="section-not-a-list"),
        pytest.param(read_domain, "(define (domain d) ())", 20,
                     id="empty-section"),
        pytest.param(read_domain, "(define (domain d) (:predicates p))", 33,
                     id="predicate-not-a-list"),
        pytest.param(read_domain, "(define (domain d) (:predicates ()))", 33,
                     id="empty-predicate"),
        pytest.param(read_domain, "(define (domain d) (:action))", 20,
                     id="action-without-name"),
        pytest.param(read_domain,
                     "(define (domain d) (:action a :parameters))", 31,
                     id="parameters-without-value"),
        pytest.param(read_domain,
                     "(define (domain d) (:action a :parameters x))", 43,
                     id="parameters-not-a-list"),
        pytest.param(read_domain, "(define (domain d) (:action a "
                     ":parameters (?x) :precondition))", 48,
                     id="precondition-without-value"),
        pytest.param(read_problem, "(define (problem p) (:domain))", 22,
                     id="problem-domain-without-name"),
        pytest.param(read_problem, "(define (problem p) (:goal))", 22,
                     id="problem-goal-without-formula"),
    ]

    @pytest.mark.parametrize("reader,text,column", MALFORMED)
    def test_syntax_error_has_position(self, reader, text, column):
        with pytest.raises(PddlSyntaxError) as exc:
            reader(text)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_unbalanced(self):
        with pytest.raises(PddlSyntaxError):
            read_domain("(define (domain d)")

    @pytest.mark.parametrize("snippet", [
        "(define (domain d) (:functions (cost)))",
        "(define (domain d) (:action a :parameters () "
        ":precondition (exists (?x - t) (p ?x)) :effect (and)))",
        "(define (domain d) (:action a :parameters () "
        ":precondition (and) :effect (when (p) (q))))",
    ])
    def test_unsupported_constructs(self, snippet):
        with pytest.raises(UnsupportedConstructError):
            read_domain(snippet)

    def test_comments_ignored(self):
        text = "; header\n(define (domain d) ; trailing\n)\n"
        assert read_domain(text).name == "d"


class TestRoundTrip:
    def test_domain_print_read_identity(self):
        domain = read_domain(MINI_DOMAIN)
        printed = print_domain(domain)
        assert read_domain(printed) == domain
        # print is a fixed point: print(read(print(x))) == print(x)
        assert print_domain(read_domain(printed)) == printed

    def test_problem_print_read_identity(self):
        problem = read_problem(MINI_PROBLEM)
        printed = print_problem(problem)
        assert read_problem(printed) == problem
        assert print_problem(read_problem(printed)) == printed


class TestPlanText:
    def test_parse_case_insensitive(self):
        text = "(avatar_action_move_down Avatar N3 n4 n5)\n; comment\n\n(END-TURN-SPRITES)\n"
        steps = parse_plan(text)
        assert steps[0] == ("AVATAR_ACTION_MOVE_DOWN", ("avatar", "n3", "n4", "n5"))
        assert steps[1] == ("END-TURN-SPRITES", ())

    def test_format_parse_round_trip(self):
        steps = [("A_B_KILLSPRITE", ("x1", "n0")), ("END-TURN-SPRITES", ())]
        assert parse_plan(format_plan(steps)) == steps

    def test_bad_line(self):
        with pytest.raises(PddlSyntaxError):
            parse_plan("AVATAR_ACTION_NIL avatar\n")


class TestFormulaFormat:
    def test_forall_or(self):
        f = Forall((("?o", "boulder"),),
                   pddl.Or((Atom("dead", ("?o",)), Atom("boulder-moved", ("?o",)))))
        assert pddl.format_formula(f) == \
            "(forall (?o - boulder) (or (dead ?o) (boulder-moved ?o)))"

    def test_typed_group_format(self):
        s = pddl._format_typed((("?x", "num"), ("?y", "num"), ("?o", "Object")))
        assert s == "?x ?y - num ?o - Object"
