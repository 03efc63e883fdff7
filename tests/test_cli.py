"""CLI tests through click's runner: exit codes, outputs, determinism."""
import pytest
from click.testing import CliRunner

from vgdl2pddl.cli import main
from vgdl2pddl.games import games_dir


@pytest.fixture()
def runner():
    return CliRunner()


def shipped(name, fname):
    return str(games_dir() / name / fname)


class TestCompile:
    def test_compile_writes_both_files(self, runner, tmp_path):
        result = runner.invoke(main, ["compile", shipped("sokoban", "sokoban.txt"),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sokoban.pddl").exists()
        assert (tmp_path / "sokoban.yaml").exists()

    def test_malformed_gdf_exits_one_with_line(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("SpriteSet\n"
                       "    avatar > NoSuchType\n"
                       "LevelMapping\n"
                       "    A > avatar\n"
                       "InteractionSet\n"
                       "TerminationSet\n"
                       "    SpriteCounter stype=avatar limit=0 win=True\n")
        result = runner.invoke(main, ["compile", str(bad), "--out",
                                      str(tmp_path)])
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_bad_kiohm_limit_is_an_error_not_a_traceback(self, runner,
                                                         tmp_path):
        bad = tmp_path / "digger.txt"
        bad.write_text(
            (games_dir() / "digger" / "digger.txt").read_text().replace(
                "limit=2", "limit=x"))
        result = runner.invoke(main, ["compile", str(bad), "--out",
                                      str(tmp_path)])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "bad limit 'x'" in result.output

    def test_recompile_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = runner.invoke(main, ["compile",
                                          shipped("sokoban", "sokoban.txt"),
                                          "--out", str(out)])
            assert result.exit_code == 0
        assert (a / "sokoban.pddl").read_bytes() == \
            (b / "sokoban.pddl").read_bytes()
        assert (a / "sokoban.yaml").read_bytes() == \
            (b / "sokoban.yaml").read_bytes()

    def test_usage_error_is_exit_two(self, runner):
        result = runner.invoke(main, ["compile", "/no/such/file.txt"])
        assert result.exit_code == 2


class TestGenProblem:
    def test_generates_problem(self, runner, tmp_path):
        result = runner.invoke(main, [
            "gen-problem", shipped("sokoban", "sokoban.txt"),
            shipped("sokoban", "sokoban_lvl0.txt"), "--out", str(tmp_path)])
        assert result.exit_code == 0
        text = (tmp_path / "sokoban_lvl0.pddl").read_text()
        assert "(at n2 n2 box_2_2)" in text
        assert "(at n2 n3 avatar)" in text
        assert "(at n1 n1 hole_1_1)" in text

    def test_empty_ldf_fails(self, runner, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        result = runner.invoke(main, [
            "gen-problem", shipped("sokoban", "sokoban.txt"), str(empty),
            "--out", str(tmp_path)])
        assert result.exit_code == 1

    def test_bad_resource_limit_is_an_error_not_a_traceback(self, runner,
                                                            tmp_path):
        bad = tmp_path / "keymaze.txt"
        bad.write_text(
            (games_dir() / "keymaze" / "keymaze.txt").read_text().replace(
                "key > Resource", "key > Resource limit=x"))
        result = runner.invoke(main, [
            "gen-problem", str(bad), shipped("keymaze", "keymaze_lvl0.txt"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert "bad limit 'x'" in result.output

    def test_all_shipped_levels_generate(self, runner, tmp_path):
        for game in ("sokoban", "zenpuzzle", "keymaze", "digger", "rain",
                     "aliens"):
            for idx in (0, 1):
                result = runner.invoke(main, [
                    "gen-problem", shipped(game, f"{game}.txt"),
                    shipped(game, f"{game}_lvl{idx}.txt"),
                    "--out", str(tmp_path)])
                assert result.exit_code == 0, (game, idx, result.output)
                assert (tmp_path / f"{game}_lvl{idx}.pddl").exists()


class TestPlanAndPlay:
    def test_plan_pipeline(self, runner, tmp_path):
        assert runner.invoke(main, ["compile", shipped("sokoban", "sokoban.txt"),
                                    "--out", str(tmp_path)]).exit_code == 0
        assert runner.invoke(main, [
            "gen-problem", shipped("sokoban", "sokoban.txt"),
            shipped("sokoban", "sokoban_lvl0.txt"),
            "--out", str(tmp_path)]).exit_code == 0
        result = runner.invoke(main, [
            "plan", "--domain", str(tmp_path / "sokoban.pddl"),
            "--problem", str(tmp_path / "sokoban_lvl0.pddl"),
            "--mode", "gbfs", "--time", "30"])
        assert result.exit_code == 0, result.output
        assert "AVATAR_ACTION" in result.output
        assert result.output.strip().endswith("(END-TURN-SPRITES)")

    def test_play_sokoban_wins(self, runner, tmp_path):
        trace = tmp_path / "trace.log"
        result = runner.invoke(main, [
            "play", "--gdf", shipped("sokoban", "sokoban.txt"),
            "--ldf", shipped("sokoban", "sokoban_lvl0.txt"),
            "--trace", str(trace)])
        assert result.exit_code == 0, result.output
        assert "outcome=Win" in result.output
        assert "replans=0" in result.output
        assert trace.exists()

    def test_plan_out_creates_its_directory(self, runner, tmp_path):
        for command in (["compile", shipped("sokoban", "sokoban.txt")],
                        ["gen-problem", shipped("sokoban", "sokoban.txt"),
                         shipped("sokoban", "sokoban_lvl0.txt")]):
            assert runner.invoke(
                main, [*command, "--out", str(tmp_path)]).exit_code == 0
        out = tmp_path / "missing" / "deeper" / "plan.txt"
        result = runner.invoke(main, [
            "plan", "--domain", str(tmp_path / "sokoban.pddl"),
            "--problem", str(tmp_path / "sokoban_lvl0.pddl"),
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().strip().endswith("(END-TURN-SPRITES)")

    def test_play_trace_creates_its_directory(self, runner, tmp_path):
        trace = tmp_path / "missing" / "deeper" / "t.log"
        result = runner.invoke(main, [
            "play", "--gdf", shipped("sokoban", "sokoban.txt"),
            "--ldf", shipped("sokoban", "sokoban_lvl0.txt"),
            "--trace", str(trace)])
        assert result.exit_code == 0, result.output
        assert "outcome=Win" in result.output
        assert trace.read_text()

    @pytest.mark.parametrize("goal,message", [
        ("(dne b1)", "undeclared predicate 'dne'"),
        ("(done b1 b1)", "done expects 1 args, got 2"),
    ])
    def test_plan_rejects_a_bad_goal_atom(self, runner, tmp_path, goal,
                                          message):
        domain = tmp_path / "d.pddl"
        domain.write_text("""(define (domain toy)
  (:requirements :strips :typing)
  (:types box)
  (:predicates (done ?b - box))
  (:action FINISH :parameters (?b - box) :precondition (and)
    :effect (done ?b)))""")
        problem = tmp_path / "p.pddl"
        problem.write_text(f"""(define (problem toy1) (:domain toy)
  (:objects b1 - box) (:init) (:goal {goal}))""")
        result = runner.invoke(main, ["plan", "--domain", str(domain),
                                      "--problem", str(problem)])
        assert result.exit_code == 1, result.output
        assert message in result.output

    def test_play_render(self, runner):
        result = runner.invoke(main, [
            "play", "--gdf", shipped("sokoban", "sokoban.txt"),
            "--ldf", shipped("sokoban", "sokoban_lvl0.txt"),
            "--render", "ascii"])
        assert result.exit_code == 0
        assert "wwwww" in result.output


class TestValidateKb:
    def test_pristine_kb_passes(self, runner):
        result = runner.invoke(main, ["validate-kb"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "PASS" in result.output

    def test_mutated_kb_fails(self, runner, tmp_path):
        src = games_dir().parent / "templates"
        kb_dir = tmp_path / "templates"
        kb_dir.mkdir()
        (kb_dir / "checks").mkdir()
        for p in src.glob("*.tmpl"):
            text = p.read_text()
            if p.name == "interaction_killboth.tmpl":
                text = text.replace("(dead ?o2)", "(not (dead ?o2))")
            (kb_dir / p.name).write_text(text)
        for p in (src / "checks").glob("*.yaml"):
            (kb_dir / "checks" / p.name).write_text(p.read_text())
        result = runner.invoke(main, ["validate-kb", "--kb", str(kb_dir)])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "interaction_killboth" in result.output


class TestProjectConfig:
    def test_env_config_supplies_kb_default(self, runner, tmp_path,
                                            monkeypatch):
        src = games_dir().parent / "templates"
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        (kb_dir / "checks").mkdir()
        for p in src.glob("*.tmpl"):
            (kb_dir / p.name).write_text(p.read_text())
        for p in (src / "checks").glob("*.yaml"):
            (kb_dir / "checks" / p.name).write_text(p.read_text())
        cfg = tmp_path / "project.yaml"
        cfg.write_text(f"kb_dir: {kb_dir}\n")
        monkeypatch.setenv("VGDL2PDDL_CONFIG", str(cfg))
        result = runner.invoke(main, ["validate-kb"])
        assert result.exit_code == 0, result.output

    def test_missing_configured_path_rejected(self, runner, tmp_path,
                                              monkeypatch):
        cfg = tmp_path / "project.yaml"
        cfg.write_text("kb_dir: /no/such/dir\n")
        monkeypatch.setenv("VGDL2PDDL_CONFIG", str(cfg))
        result = runner.invoke(main, ["validate-kb"])
        assert result.exit_code == 1


class TestBenchCli:
    def test_bench_subset(self, runner, tmp_path):
        result = runner.invoke(main, [
            "bench", "--games", "sokoban", "--time", "30",
            "--out", str(tmp_path / "bench")])
        assert result.exit_code == 0, result.output
        assert "Coverage" in result.output
        assert (tmp_path / "bench" / "results.csv").exists()
        assert (tmp_path / "bench" / "summary.csv").exists()
        assert (tmp_path / "bench" / "report.txt").exists()


class TestOptionRanges:
    """A search time limit must be positive, `play --budget` and `--jobs`
    at least 1, and each `bench --games` name a game of the suite; a bad
    value is a usage error that names the option, raised before any
    work."""

    PLAN = ["plan", "--domain", shipped("sokoban", "sokoban.txt"),
            "--problem", shipped("sokoban", "sokoban_lvl0.txt")]
    PLAY = ["play", "--gdf", shipped("sokoban", "sokoban.txt"),
            "--ldf", shipped("sokoban", "sokoban_lvl0.txt")]

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5"])
    @pytest.mark.parametrize("command", ["plan", "play"])
    def test_time_must_be_positive(self, runner, command, value):
        args = self.PLAN if command == "plan" else self.PLAY
        result = runner.invoke(main, [*args, "--time", value])
        assert result.exit_code == 2, result.output
        assert "--time" in result.output

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_play_budget_must_be_positive(self, runner, value):
        result = runner.invoke(main, [*self.PLAY, "--budget", value])
        assert result.exit_code == 2, result.output
        assert "--budget" in result.output

    @pytest.mark.parametrize("option,value", [("--time", "0"),
                                              ("--time", "-3"),
                                              ("--jobs", "0"),
                                              ("--jobs", "-2")])
    def test_bench_rejects_before_any_work(self, runner, tmp_path, option,
                                           value):
        out = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--games", "sokoban",
                                      option, value, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert not out.exists()

    @pytest.mark.parametrize("games,name", [("nosuch", "'nosuch'"),
                                            ("sokoban,", "''"),
                                            ("sokoban,,rain", "''"),
                                            ("", "''")])
    def test_bench_rejects_unknown_games_before_any_work(
            self, runner, tmp_path, games, name):
        out = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--games", games,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--games" in result.output
        assert f"no game {name}" in result.output
        assert not out.exists()
