"""The benchmark's tracer wraps program functions by name: every hook it
names must exist, so a rename or removal fails here, not in a benchmark run.
Likewise a workload pass calls the program's API directly, so one checked
pass of each workload runs here."""
import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def bench(monkeypatch):
    """(perfbench's run module, its tracer module, the program modules)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracer")
    # import_module returns the modules this session already holds; the
    # benchmark's import_program would reload the package instead
    prog = SimpleNamespace(**{m: importlib.import_module(f"vgdl2pddl.{m}")
                              for m in run.MODULES})
    return run, tracing, prog


def test_install_tracer_finds_every_hook(bench):
    run, tracing, prog = bench
    before = {m: dict(vars(module)) for m, module in vars(prog).items()}
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer, prog)
    finally:
        tracer.restore()
    for m, module in vars(prog).items():
        assert all(vars(module)[k] is v for k, v in before[m].items()), m


def test_solve_calls_the_traced_simplify_hook(bench):
    """`per_layer` divides by the `ground.simplify` notes, so a traced run
    must reach `planner.simplify` through `solve`."""
    run, tracing, prog = bench
    game = prog.compiler.compile_game(prog.games.load_game("sokoban"))
    grid = prog.games.load_level("sokoban", 0, game.model)
    problem, _ = prog.problems.generate_problem(grid, game)
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer, prog)
        tracer.enabled = True
        result = prog.planner.solve(prog.ground.ground(game.domain, problem))
    finally:
        tracer.restore()
    assert result.plan
    assert tracer.notes["ground.simplify"]


def test_sokoban_ladder_checked_pass(bench, tmp_path):
    """One checked `sokoban-ladder` pass: `generate_problem` on a grid,
    `ground`, `solve`, `planner.validate` and the engine replay through
    `engine.load` and `agent.engine_action` must all still work as the
    benchmark calls them.  No timing is asserted."""
    _, _, prog = bench
    workloads = importlib.import_module("workloads")
    ladder = workloads.SokobanLadder()
    ladder.setup(prog, seed=1)
    result = ladder.run_pass(prog, tmp_path, check=True)
    assert result.failures == []
    assert result.attempted == 6
    assert result.plan_len_sum == 188


def test_shipped_checked_pass(bench, tmp_path):
    """One checked `shipped` pass: `bench.run_suite`, `bench.read_results` and
    the `bench.generate_problem` hook that the workload patches must still
    work as the benchmark calls them, and every blind-BFS plan must have its
    frozen optimal length.  No timing is asserted."""
    _, _, prog = bench
    workloads = importlib.import_module("workloads")
    shipped = workloads.Shipped()
    shipped.setup(prog, seed=1)
    result = shipped.run_pass(prog, tmp_path, check=True)
    assert result.failures == []
    assert result.attempted == 24
    assert result.plan_len_sum == 1339


def test_episodes_checked_pass(bench, tmp_path):
    """One checked `episodes` pass: `agent.run_episode` on the deterministic
    levels and the seeded aliens episodes must still run as the benchmark
    calls it, with no deterministic level lost, no planner failure and the
    frozen plan lengths.  No timing is asserted."""
    _, _, prog = bench
    workloads = importlib.import_module("workloads")
    episodes = workloads.Episodes()
    episodes.setup(prog, seed=1)
    result = episodes.run_pass(prog, tmp_path, check=True)
    assert result.failures == []
    assert result.attempted == 30
    assert result.plan_len_sum == 2651
