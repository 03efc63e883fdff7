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


class TestPathKinds:
    """Each path parameter declares whether it takes a file or a directory,
    and an input or an output; a path of the wrong kind is a usage error
    that names the parameter, raised before the command writes anything."""

    # the parameter as Click names it, and a command line that gives it
    # FILE where a directory is expected or DIR where a file is; OUT is an
    # output that must not appear
    GDF = shipped("sokoban", "sokoban.txt")
    LDF = shipped("sokoban", "sokoban_lvl0.txt")
    CASES = [
        ("GDF", ["compile", "DIR", "--out", "OUT"]),
        ("--out", ["compile", GDF, "--out", "FILE"]),
        ("GDF", ["gen-problem", "DIR", LDF, "--out", "OUT"]),
        ("LDF", ["gen-problem", GDF, "DIR", "--out", "OUT"]),
        ("--out", ["gen-problem", GDF, LDF, "--out", "FILE"]),
        ("--domain", ["plan", "--domain", "DIR", "--problem", LDF,
                      "--out", "OUT/plan.txt"]),
        ("--problem", ["plan", "--domain", GDF, "--problem", "DIR",
                       "--out", "OUT/plan.txt"]),
        ("--out", ["plan", "--domain", GDF, "--problem", LDF,
                   "--out", "DIR"]),
        ("--gdf", ["play", "--gdf", "DIR", "--ldf", LDF,
                   "--trace", "OUT/t.log"]),
        ("--ldf", ["play", "--gdf", GDF, "--ldf", "DIR",
                   "--trace", "OUT/t.log"]),
        ("--trace", ["play", "--gdf", GDF, "--ldf", LDF, "--trace", "DIR"]),
        ("--suite", ["bench", "--suite", "FILE", "--out", "OUT"]),
        ("--planners", ["bench", "--planners", "DIR", "--out", "OUT"]),
        ("--out", ["bench", "--games", "sokoban", "--out", "FILE"]),
        ("--kb", ["validate-kb", "--kb", "FILE"]),
    ]

    @pytest.mark.parametrize("param,args", CASES,
                             ids=[f"{args[0]} {param}"
                                  for param, args in CASES])
    def test_wrong_kind_is_a_usage_error(self, runner, tmp_path, param,
                                         args):
        out = tmp_path / "out"
        paths = {"FILE": self.GDF, "DIR": str(tmp_path)}
        argv = [paths.get(a, a.replace("OUT", str(out))) for a in args]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{param}'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    # an output path under a file, FILE/x: the parameter and a command line
    # that gives it
    UNDER_A_FILE = [
        ("--out", ["compile", GDF, "--out", "FILE/x"]),
        ("--out", ["gen-problem", GDF, LDF, "--out", "FILE/x"]),
        ("--out", ["bench", "--games", "sokoban", "--out", "FILE/x"]),
        ("--out", ["plan", "--domain", GDF, "--problem", LDF,
                   "--out", "FILE/x/plan.txt"]),
        ("--trace", ["play", "--gdf", GDF, "--ldf", LDF,
                     "--trace", "FILE/x/t.log"]),
    ]

    @pytest.mark.parametrize("param,args", UNDER_A_FILE,
                             ids=[args[0] for _, args in UNDER_A_FILE])
    def test_output_under_a_file_is_a_usage_error(self, runner, tmp_path,
                                                  param, args):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [a.replace("FILE", str(blocker)) for a in args]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{param}'" in result.output
        assert "is under the file" in result.output
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == ""

    def test_validate_kb_rejects_a_file(self, runner):
        result = runner.invoke(main, ["validate-kb", "--kb", self.GDF])
        assert result.exit_code == 2, result.output
        assert "is a file" in result.output
        assert "PASS" not in result.output


class TestDomainErrors:
    """A malformed planners file, command template or configured path is a
    domain error: exit 1 with `error:` and a message that says where, before
    any planner runs."""

    @pytest.mark.parametrize("text,message", [
        pytest.param("foo: 1\n", "no 'planners' list", id="no-list"),
        pytest.param("- name: a\n", "no 'planners' list", id="bare-list"),
        pytest.param("planners:\n  - mode: BlindBFS\n",
                     "planner entry 0 has no name", id="no-name"),
        pytest.param("planners:\n  - name: a\n",
                     "planner 'a' needs exactly one of", id="no-mode-or-cmd"),
        pytest.param("planners:\n  - name: a\n    mode: BlindBFS\n"
                     "    cmd: 'true'\n",
                     "planner 'a' needs exactly one of", id="mode-and-cmd"),
        pytest.param("planners:\n  - name: a\n    mode: Nope\n",
                     "planner 'a': unknown mode 'Nope'", id="unknown-mode"),
        pytest.param("planners:\n  - name: a\n    cmd: 'echo {x}'\n",
                     "planner 'a': command template 'echo {x}' names {x}",
                     id="bad-template"),
        pytest.param("planners: [\n", "planners.yaml: ", id="bad-yaml"),
    ])
    def test_malformed_planners_file(self, runner, tmp_path, text, message):
        planners = tmp_path / "planners.yaml"
        planners.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["bench", "--games", "sokoban",
                                      "--planners", str(planners),
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert message in result.output
        assert str(planners) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("template,message", [
        ("echo {x}", "names {x}"),
        ("echo {}", "bad command template"),
        ("echo {domain", "bad command template"),
    ])
    def test_plan_rejects_a_bad_template(self, runner, tmp_path, template,
                                         message):
        ran = tmp_path / "ran"
        result = runner.invoke(main, [
            "plan", "--domain", shipped("sokoban", "sokoban.txt"),
            "--problem", shipped("sokoban", "sokoban_lvl0.txt"),
            "--cmd", f"touch {ran}; {template}"])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert message in result.output
        assert not ran.exists()

    @pytest.mark.parametrize("command", ["validate-kb", "bench"])
    @pytest.mark.parametrize("text,message", [
        pytest.param("kb_dir: [\n", "while parsing", id="not-yaml"),
        pytest.param("games_dir\n", "got a str", id="bare-text"),
        pytest.param("- kb_dir\n", "got a list", id="list"),
    ])
    def test_malformed_config_file(self, runner, tmp_path, monkeypatch,
                                   command, text, message):
        cfg = tmp_path / "project.yaml"
        cfg.write_text(text)
        monkeypatch.setenv("VGDL2PDDL_CONFIG", str(cfg))
        out = tmp_path / "out"
        argv = [command] if command == "validate-kb" else \
            [command, "--games", "sokoban", "--out", str(out)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert f"error: VGDL2PDDL_CONFIG: {cfg}: " in result.output
        assert message in result.output
        assert "PASS" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("key,kind", [("games_dir", "file"),
                                          ("kb_dir", "file"),
                                          ("planners", "directory"),
                                          ("out_dir", "file")])
    def test_configured_path_of_the_wrong_kind(self, runner, tmp_path,
                                               monkeypatch, key, kind):
        value = tmp_path if kind == "directory" else \
            shipped("sokoban", "sokoban.txt")
        cfg = tmp_path / "project.yaml"
        cfg.write_text(f"{key}: {value}\n")
        monkeypatch.setenv("VGDL2PDDL_CONFIG", str(cfg))
        out = tmp_path / "out"
        command = ["validate-kb"] if key == "kb_dir" else \
            ["bench", "--games", "sokoban", "--out", str(out)]
        result = runner.invoke(main, command)
        assert result.exit_code == 1, result.output
        assert f"error: config {key}:" in result.output
        assert f"is a {kind}" in result.output
        assert not out.exists()
