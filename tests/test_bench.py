"""Metric and harness tests; formula values frozen from direct evaluation."""
import dataclasses
import math
import time

import pytest

from vgdl2pddl import bench as bench_module
from vgdl2pddl.bench import (
    BUILTIN_PLANNERS,
    PlannerSpec,
    RunRow,
    ScoreBoard,
    domain_stats,
    read_results,
    run_suite,
    score_agile,
    score_coverage,
    score_satisficing,
)
from vgdl2pddl.compiler import compile_game
from vgdl2pddl.games import load_game
from vgdl2pddl.kb import KnowledgeBase
from vgdl2pddl.pddl import Domain
from vgdl2pddl.planner import Mode


class TestAgile:
    def test_boundaries(self):
        assert score_agile(1.0) == 1.0
        assert score_agile(0.2) == 1.0
        assert score_agile(900.0) == 0.0
        assert score_agile(901.0) == 0.0
        assert score_agile(None) == 0.0

    def test_thirty_seconds(self):
        expected = 1.0 - math.log(30.0) / math.log(900.0)
        assert score_agile(30.0) == pytest.approx(expected)
        assert score_agile(30.0) == pytest.approx(0.5)  # log 30 = half log 900

    def test_monotone_decreasing(self):
        times = [1, 2, 5, 30, 100, 500, 899]
        scores = [score_agile(t) for t in times]
        assert scores == sorted(scores, reverse=True)


class TestSatisficing:
    def test_equal_lengths_score_one(self):
        assert score_satisficing(12, 12) == 1.0

    def test_double_length_halves(self):
        assert score_satisficing(24, 12) == 0.5

    def test_unsolved_scores_zero(self):
        assert score_satisficing(None, 12) == 0.0
        assert score_satisficing(12, None) == 0.0


class TestCoverage:
    def test_counts(self):
        assert score_coverage([True] * 10) == 10
        assert score_coverage([False] * 5) == 0
        assert score_coverage([True, True, False]) == 2


class TestDomainStats:
    def test_sokoban_and_zenpuzzle_rows(self):
        s = domain_stats(compile_game(load_game("sokoban")).domain)
        assert (s.types, s.supertypes, s.predicates, s.actions) == (4, 3, 13, 12)
        z = domain_stats(compile_game(load_game("zenpuzzle")).domain)
        assert (z.types, z.supertypes, z.predicates, z.actions) == (5, 2, 15, 8)

    def test_empty_domain(self):
        empty = Domain("toy", (), (), (), ())
        s = domain_stats(empty)
        assert (s.types, s.supertypes, s.predicates, s.actions) == (0, 0, 0, 0)


@dataclasses.dataclass(frozen=True)
class FailingPlanner(PlannerSpec):
    """A built-in planner whose row cannot be made; it pickles, so it fails
    in a worker process too."""

    @property
    def is_blind(self) -> bool:
        raise RuntimeError("row failed")


def row(planner, game, level, solved, length=None, seconds=None, blind=False):
    return RunRow(planner, game, level, solved, length, seconds, blind)


class TestScoreBoard:
    def test_reference_is_min_over_planners(self):
        board = ScoreBoard([
            row("a", "g", 0, True, 20, 1.0),
            row("b", "g", 0, True, 10, 2.0),
        ])
        ref, source = board.reference("g", 0)
        assert ref == 10 and source == "best-found"
        assert board.satisficing("b", "g") == 1.0
        assert board.satisficing("a", "g") == 0.5

    def test_blind_reference_flagged_optimal(self):
        board = ScoreBoard([
            row("bfs", "g", 0, True, 10, 2.0, blind=True),
            row("a", "g", 0, True, 20, 1.0),
        ])
        assert board.reference("g", 0) == (10, "optimal")

    def test_monotonicity_adding_results(self):
        base = [row("a", "g", 0, True, 20, 1.0)]
        board = ScoreBoard(list(base))
        before = board.satisficing("a", "g")
        board2 = ScoreBoard(base + [row("b", "g", 0, True, 12, 1.0)])
        after = board2.satisficing("a", "g")
        assert after <= before

    def test_per_game_sums_bounded_by_level_count(self):
        rows = [row("a", "g", i, True, 10 + i, 0.5) for i in range(10)]
        board = ScoreBoard(rows)
        assert board.satisficing("a", "g") <= 10
        assert board.agile("a", "g") <= 10
        assert board.coverage("a", "g") <= 10


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
    report = run_suite(planners=planners,
                       games=["sokoban", "keymaze"],
                       time_limit=60, out_dir=out)
    return out, report


class TestHarness:

    def test_all_levels_solved(self, suite):
        _, report = suite
        for game in ("sokoban", "keymaze"):
            assert report.board.coverage("gbfs-hadd", game) == 2

    def test_outputs_written(self, suite):
        out, report = suite
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        text = (out / "report.txt").read_text()
        assert "Coverage" in text and "Agile" in text
        assert "sokoban: 4/3/13/12" in text
        assert "static facts" in text

    def test_static_reduction_reported(self, suite):
        _, report = suite
        # 16 walls vs 3 placed objects on the 5x5 level
        assert report.reductions["sokoban"] == pytest.approx(100 * 16 / 19)

    def test_resumable_identical_aggregates(self, suite):
        out, report = suite
        planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
        again = run_suite(planners=planners, games=["sokoban", "keymaze"],
                          time_limit=60, out_dir=out)
        for game in ("sokoban", "keymaze"):
            assert again.board.coverage("gbfs-hadd", game) == \
                report.board.coverage("gbfs-hadd", game)
            assert again.board.satisficing("gbfs-hadd", game) == \
                pytest.approx(report.board.satisficing("gbfs-hadd", game))
        # no duplicate rows were appended
        assert len(again.board.rows) == len(report.board.rows)

    def test_one_template_load_per_suite(self, tmp_path, monkeypatch):
        from vgdl2pddl import compiler
        planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
        games = ["sokoban", "keymaze"]
        with monkeypatch.context() as m:
            # each game compiled on a load of its own
            m.setattr(bench_module, "compile_game",
                      lambda model, kb: compile_game(model))
            alone = run_suite(planners=planners, games=games, time_limit=60,
                              out_dir=tmp_path / "alone")
        made = []

        class Counted(KnowledgeBase):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench_module, "KnowledgeBase", Counted)
        monkeypatch.setattr(compiler, "KnowledgeBase", Counted)
        report = run_suite(planners=planners, games=games, time_limit=60,
                           out_dir=tmp_path / "shared")
        assert len(made) == 1
        assert without_seconds(report.board.rows) == \
            without_seconds(alone.board.rows)

    def test_parallel_workers_match_sequential(self, tmp_path):
        seq = run_suite(games=["sokoban"], time_limit=60, jobs=1,
                        out_dir=tmp_path / "seq")
        par = run_suite(games=["sokoban"], time_limit=60, jobs=2,
                        out_dir=tmp_path / "par")
        assert len(seq.board.rows) == 4
        assert without_seconds(par.board.rows) == \
            without_seconds(seq.board.rows)

    def test_finished_suite_spawns_no_worker(self, suite, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was opened")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out, report = suite
        planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
        again = run_suite(planners=planners, games=["sokoban", "keymaze"],
                          time_limit=60, jobs=2, out_dir=out)
        assert len(again.board.rows) == len(report.board.rows)

    def test_workers_capped_by_jobs_left_and_cores(self, tmp_path,
                                                   monkeypatch):
        import concurrent.futures
        opened = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            opened.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording)
        monkeypatch.setattr(bench_module.os, "cpu_count", lambda: 8)
        planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
        run_suite(planners=planners, games=["sokoban"], time_limit=60,
                  jobs=16, out_dir=tmp_path)
        assert opened == [2]  # two sokoban levels left to run
        monkeypatch.setattr(bench_module.os, "cpu_count", lambda: 1)
        run_suite(planners=planners, games=["keymaze"], time_limit=60,
                  jobs=16, out_dir=tmp_path)
        assert opened == [2]  # one core: the serial loop

    def test_rows_saved_before_a_failing_job(self, tmp_path, monkeypatch):
        """A job that raises loses none of the rows finished before it, so a
        rerun resumes after them."""
        run_one = bench_module._run_one
        calls = []

        def fail_second(*job):
            calls.append(job)
            if len(calls) == 2:
                raise RuntimeError("job failed")
            return run_one(*job)

        monkeypatch.setattr(bench_module, "_run_one", fail_second)
        planners = (PlannerSpec("gbfs-hadd", mode=Mode.GBFS_HADD),)
        with pytest.raises(RuntimeError, match="job failed"):
            run_suite(planners=planners, games=["sokoban"], time_limit=60,
                      out_dir=tmp_path)
        rows = read_results(tmp_path / "results.csv")
        assert [(r.game, r.level) for r in rows] == [("sokoban", 0)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_saved_before_a_failing_planner_of_a_level(self, tmp_path,
                                                           jobs):
        """When the second planner of a level raises, the first planner's
        row of that level is still saved before the suite aborts; from a
        worker, the exception names the worker's traceback as its cause."""
        planners = (BUILTIN_PLANNERS[0],
                    FailingPlanner("failing", mode=Mode.GBFS_HADD))
        with pytest.raises(RuntimeError, match="row failed") as raised:
            run_suite(planners=planners, games=["sokoban"], time_limit=60,
                      jobs=jobs, out_dir=tmp_path)
        rows = read_results(tmp_path / "results.csv")
        assert [r.key() for r in rows] == [("gbfs-hadd", "sokoban", 0)]
        if jobs > 1:
            cause = raised.value.__cause__
            assert isinstance(cause, bench_module.WorkerTraceback)
            assert "is_blind" in str(cause)

    def test_stub_external_planner_scored(self, tmp_path):
        # external adapter wired through the harness with a canned plan
        out = tmp_path / "out"
        from vgdl2pddl.compiler import compile_game
        from vgdl2pddl.games import load_level
        from vgdl2pddl.ground import ground
        from vgdl2pddl.planner import SearchConfig, solve
        from vgdl2pddl.problems import generate_problem
        from vgdl2pddl.pddl import format_plan
        game = compile_game(load_game("sokoban"))
        grid = load_level("sokoban", 0, game.model)
        problem, _ = generate_problem(grid, game)
        task = ground(game.domain, problem)
        plan = solve(task, SearchConfig(mode=Mode.GBFS_HADD)).plan
        canned = tmp_path / "canned_plan.txt"
        canned.write_text(format_plan((a.name, a.args) for a in plan))
        stub = PlannerSpec("stub", cmd=f"cp {canned} {{plan}}")
        report = run_suite(planners=(stub,), games=["sokoban"],
                           time_limit=60, out_dir=out)
        # the canned plan only fits level 0; level 1 must be rejected
        assert report.board.coverage("stub", "sokoban") == 1


def without_seconds(rows):
    return [dataclasses.replace(r, seconds=None) for r in rows]


def timed_ground(monkeypatch):
    """Wrap `bench.ground`: the list it returns gets (problem, seconds) per
    call."""
    real = bench_module.ground
    calls = []

    def timed(domain, problem):
        started = time.perf_counter()
        task = real(domain, problem)
        calls.append((problem, time.perf_counter() - started))
        return task

    monkeypatch.setattr(bench_module, "ground", timed)
    return calls


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """Both built-in planners on sokoban, every grounding timed: (results
    directory, report, grounding calls)."""
    out = tmp_path_factory.mktemp("shared")
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = timed_ground(monkeypatch)
        report = run_suite(games=["sokoban"], time_limit=60, out_dir=out)
    return out, report, calls


class TestSharedGrounding:
    """A suite job grounds its level once, and every built-in planner
    searches that task."""

    def test_one_ground_per_level(self, shared):
        _, report, calls = shared
        assert len(report.board.rows) == 2 * len(BUILTIN_PLANNERS)
        assert len(calls) == 2
        assert calls[0][0] != calls[1][0]  # one call per level

    def test_rows_equal_each_planner_run_alone(self, shared, tmp_path):
        _, report, _ = shared
        alone = []
        for spec in BUILTIN_PLANNERS:
            alone += run_suite(planners=(spec,), games=["sokoban"],
                               time_limit=60,
                               out_dir=tmp_path / spec.name).board.rows
        key = dataclasses.astuple
        assert sorted(without_seconds(report.board.rows), key=key) == \
            sorted(without_seconds(alone), key=key)

    def test_rows_are_charged_their_levels_grounding(self, shared):
        _, report, calls = shared
        # the serial suite grounds the levels in order
        for r in report.board.rows:
            assert r.solved and r.seconds >= calls[r.level][1], r

    def test_resume_runs_only_the_missing_planner(self, shared, tmp_path,
                                                  monkeypatch):
        out, report, _ = shared
        missing = ("blind-bfs", "sokoban", 1)
        lines = (out / "results.csv").read_text().splitlines(keepends=True)
        (tmp_path / "results.csv").write_text("".join(
            line for line in lines if not line.startswith("blind-bfs,sokoban,1,")))
        assert len(read_results(tmp_path / "results.csv")) == 3
        calls = timed_ground(monkeypatch)
        again = run_suite(games=["sokoban"], time_limit=60, out_dir=tmp_path)
        assert len(calls) == 1
        rows = read_results(tmp_path / "results.csv")
        assert [r.key() for r in rows[3:]] == [missing]
        assert without_seconds(sorted(again.board.rows, key=RunRow.key)) == \
            without_seconds(sorted(report.board.rows, key=RunRow.key))

    def test_external_only_level_is_not_grounded(self, tmp_path,
                                                 monkeypatch):
        calls = timed_ground(monkeypatch)
        stub = PlannerSpec("stub", cmd="true")
        report = run_suite(planners=(stub,), games=["sokoban"],
                           time_limit=60, out_dir=tmp_path)
        assert calls == []
        assert [r.solved for r in report.board.rows] == [False, False]
        assert sorted(p.name for p in (tmp_path / "pddl").iterdir()) == \
            ["sokoban.pddl", "sokoban_0.pddl", "sokoban_1.pddl"]
