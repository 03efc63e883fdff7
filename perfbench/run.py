"""Benchmark of the vgdl2pddl pipeline: one workload per run, one process,
one thread.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  The run sets up the workload several times (fresh imports, game
parsing and compiling, input generation) and reports the median as
`setup_s`; then it repeats timed passes until `--seconds` have gone by and
reports medians over the passes.  Every time is scaled to the reference
host speed of `host.py`.  With `--trace 1` the passes alternate
between untraced and traced, and the run reports per-layer metrics from the
spans instead, plus the tracing overhead.  `--workload all` runs every
workload in turn in the same process.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The lines above it hold the provenance
block and every metric by name, unit and sample count; the same report and
the traced run's spans are written under `perfbench/out/`.  Exit codes: 0
correct, 1 a correctness check failed (each failure names its level), 2 the
program could not be found or imported.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import host
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_ROUNDS = 9
MODULES = ("vgdl", "kb", "pddl", "compiler", "problems", "ground", "planner",
           "engine", "agent", "bench", "games")

# metrics reported in the final JSON line, in BENCHMARK.json order
END_TO_END = ("setup_s", "wall_s", "plan_p50_s", "plan_len_sum", "peak_rss_mb")
PER_LAYER = (
    "vgdl.parse_s", "kb.load_s", "compiler.compile_s",
    "compiler.domain_actions", "compiler.domain_bytes",
    "problems.generate_s", "problems.calls", "problems.objects_p50",
    "ground.ground_s", "ground.calls", "ground.actions", "ground.facts",
    "ground.simplify_s", "ground.kept_frac",
    "planner.search_s", "planner.calls", "planner.expanded",
    "planner.generated", "planner.us_per_generated", "trace.overhead_s",
)


# stands in for a metric a failed run could not measure
MISSING = {"value": 0, "unit": "none", "samples": 0}


def import_program() -> SimpleNamespace:
    """Import every module of the program afresh from the checkout."""
    for name in [m for m in sys.modules
                 if m == "vgdl2pddl" or m.startswith("vgdl2pddl.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{m: importlib.import_module(f"vgdl2pddl.{m}")
                              for m in MODULES})
    origin = Path(prog.bench.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vgdl2pddl imported from {origin}, not from {SRC}")
    return prog


def install_tracer(tracer, prog) -> None:
    """Wrap each public function at every module name its callers resolve."""
    w = tracer.wrap
    for owner in (prog.vgdl, prog.games):
        w(owner, "parse_gdf", "vgdl.parse")
        w(owner, "parse_ldf", "vgdl.parse")
    w(prog.bench, "parse_ldf", "vgdl.parse")
    w(prog.kb.KnowledgeBase, "__init__", "kb.load")
    for owner in (prog.compiler, prog.bench):
        w(owner, "compile_game", "compiler.compile")
    for owner in (prog.problems, prog.bench, prog.agent):
        w(owner, "generate_problem", "problems.generate",
          note=lambda res, *a: len(res[0].objects))
    for owner in (prog.ground, prog.bench, prog.agent):
        w(owner, "ground", "ground.ground",
          note=lambda task, *a: (len(task.actions), len(task.facts)))
    w(prog.planner, "simplify", "ground.simplify",
      note=lambda out, task: (len(task.actions), len(out.actions)))
    for owner in (prog.planner, prog.bench, prog.agent):
        w(owner, "solve", "planner.solve",
          note=lambda res, *a: (res.stats.expanded, res.stats.generated))
    w(prog.engine, "step", "engine.step")
    w(prog.agent, "monitor", "agent.monitor")
    w(prog.agent, "run_episode", "agent.run_episode")
    w(prog.bench, "run_suite", "bench.run_suite")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def per_op_median(samples) -> list[float]:
    """Per position, the median over the passes."""
    return [statistics.median(times) for times in zip(*samples)]


def pass_wall(passes) -> float:
    """One pass's scaled time, composed per operation from medians over the
    passes, so a burst of host noise moves one operation's samples, not the
    whole pass."""
    return (sum(per_op_median(p.op_walls for p in passes))
            + statistics.median(p.bench_overhead or 0.0 for p in passes))


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def setup(workload, seed: int, tracer=None):
    """Time SETUP_ROUNDS fresh set-ups, scaled by host readings taken
    between them; with a tracer, one more traced one whose program is the
    one the passes use."""
    rounds, readings = [], [host.reading()]
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        started = time.perf_counter()
        prog = import_program()
        workload.setup(prog, seed)
        rounds.append(time.perf_counter() - started)
        readings.append(host.reading())
    rounds = [t * f for t, f in zip(rounds, host.factors(readings))]
    traced_setup = None  # (span range, scale factor)
    if tracer is not None:
        prog = import_program()
        install_tracer(tracer, prog)
        before = host.reading()
        tracer.enabled = True
        workload.setup(prog, seed)
        tracer.enabled = False
        scale = host.factors([before, host.reading()])[0]
        traced_setup = ((0, len(tracer.spans)), scale)
    return prog, rounds, traced_setup


def measure(workload, prog, seconds: float, tracer=None):
    """Repeat passes until `seconds` have gone by; with a tracer, alternate
    untraced and traced passes, starting untraced."""
    OUT.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        gc.collect()
        first_span = len(tracer.spans) if use_trace else 0
        if use_trace:
            tracer.enabled = True
        result = workload.run_pass(prog, OUT, check=not plain)
        if use_trace:
            tracer.enabled = False
            result.span_range = (first_span, len(tracer.spans))
            traced.append(result)
        else:
            plain.append(result)
        if result.failures:
            break
        if result is not plain[0] and result.signature != plain[0].signature:
            result.failures.append(
                f"{workload.name}: pass {len(plain) + len(traced)} outputs "
                "differ from the first pass")
            break
        enough_turns = sum(len(p.turn_times) for p in plain) >= workload.min_turns
        if (time.perf_counter() - started >= seconds and enough_turns
                and (tracer is None or traced)):
            break
    return plain, traced


def end_to_end(plain, rounds) -> dict:
    plan_times = per_op_median(p.plan_times for p in plain)
    attempted = sum(p.attempted for p in plain)
    failed = sum(len(p.failures) for p in plain)
    out = {
        "setup_s": metric(statistics.median(rounds), "s", len(rounds)),
        "wall_s": metric(pass_wall(plain), "s", len(plain)),
        "plan_p50_s": metric(statistics.median(plan_times) if plan_times
                             else 0.0, "s", len(plan_times)),
        "plan_len_sum": metric(plain[0].plan_len_sum, "count", 1),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "failed_frac": metric(failed / attempted, "ratio", attempted),
    }
    turns = [t for p in plain for t in p.turn_times]
    if turns:
        episodes = sum(p.attempted for p in plain)
        out["turn_p50_ms"] = metric(1e3 * statistics.median(turns), "ms",
                                    len(turns))
        out["turn_p95_ms"] = metric(1e3 * percentile(turns, 0.95), "ms",
                                    len(turns))
        out["win_frac"] = metric(sum(p.wins for p in plain) / episodes,
                                 "ratio", episodes)
    return out


def per_layer(workload, prog, tracer, traced_setup, plain, traced) -> dict:
    n = len(traced)
    self_s, calls = {}, {}
    for p in traced:
        for name, value in tracer.self_times(*p.span_range).items():
            self_s[name] = self_s.get(name, 0.0) + value * p.factor
        for name, value in tracer.counts(*p.span_range).items():
            calls[name] = calls.get(name, 0) + value
    setup_range, setup_scale = traced_setup
    setup_self = {name: value * setup_scale
                  for name, value in tracer.self_times(*setup_range).items()}
    notes = tracer.notes
    grounded = sum(a for a, _ in notes["ground.simplify"])
    kept = sum(k for _, k in notes["ground.simplify"])
    generated = sum(g for _, g in notes["planner.solve"])
    objects = notes["problems.generate"]
    out = {
        "vgdl.parse_s": metric(setup_self["vgdl.parse"], "s", 1),
        "kb.load_s": metric(setup_self["kb.load"], "s", 1),
        "compiler.compile_s": metric(setup_self["compiler.compile"], "s", 1),
    }
    out.update({k: metric(v, "count", 1)
                for k, v in workload.domain_counts(prog).items()})
    out.update({
        "problems.generate_s": metric(self_s.get("problems.generate", 0.0) / n,
                                      "s", n),
        "problems.calls": metric(calls.get("problems.generate", 0) / n,
                                 "count", n),
        "problems.objects_p50": metric(statistics.median(objects), "count",
                                       len(objects)),
        "ground.ground_s": metric(self_s.get("ground.ground", 0.0) / n, "s", n),
        "ground.calls": metric(calls.get("ground.ground", 0) / n, "count", n),
        "ground.actions": metric(sum(a for a, _ in notes["ground.ground"]) / n,
                                 "count", n),
        "ground.facts": metric(sum(f for _, f in notes["ground.ground"]) / n,
                               "count", n),
        "ground.simplify_s": metric(self_s.get("ground.simplify", 0.0) / n,
                                    "s", n),
        "ground.kept_frac": metric(kept / grounded, "ratio",
                                   len(notes["ground.simplify"])),
        "planner.search_s": metric(self_s.get("planner.solve", 0.0) / n, "s", n),
        "planner.calls": metric(calls.get("planner.solve", 0) / n, "count", n),
        "planner.expanded": metric(
            sum(e for e, _ in notes["planner.solve"]) / n, "count", n),
        "planner.generated": metric(generated / n, "count", n),
        "planner.us_per_generated": metric(
            1e6 * self_s.get("planner.solve", 0.0) / max(generated, 1),
            "us", len(notes["planner.solve"])),
        "trace.overhead_s": metric(
            pass_wall(traced) - pass_wall(plain), "s", n),
    })
    if "agent.run_episode" in calls:
        episodes = sum(p.attempted for p in traced)
        out.update({
            "engine.step_s": metric(self_s.get("engine.step", 0.0) / n, "s", n),
            "engine.steps": metric(calls.get("engine.step", 0) / n, "count", n),
            "agent.monitor_s": metric(self_s.get("agent.monitor", 0.0) / n,
                                      "s", n),
            "agent.monitor_calls": metric(calls.get("agent.monitor", 0) / n,
                                          "count", n),
            "agent.plans": metric(calls.get("planner.solve", 0) / n, "count", n),
            "agent.replans": metric(sum(p.replans for p in traced) / n,
                                    "count", n),
            "agent.replan_episode_frac": metric(
                sum(p.replan_episodes for p in traced) / episodes, "ratio",
                episodes),
            "agent.loop_self_s": metric(self_s["agent.run_episode"] / n, "s", n),
        })
    overheads = [p.bench_overhead for p in plain + traced
                 if p.bench_overhead is not None]
    if overheads:
        out["bench.overhead_s"] = metric(statistics.median(overheads), "s",
                                         len(overheads))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    prog, rounds, traced_setup = setup(workload, seed, tracer)
    try:
        plain, traced = measure(workload, prog, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    failures = [f for p in plain + traced for f in p.failures]
    metrics = end_to_end(plain, rounds)
    if trace and traced:
        metrics.update(per_layer(workload, prog, tracer, traced_setup, plain,
                                 traced))
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
    walls = {"untraced": [p.raw_wall for p in plain],
             "traced": [p.raw_wall for p in traced]}
    factors = [f for p in plain + traced for f in host.factors(p.readings)]
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "inputs_hash": workload.digest(),
        "passes": {k: len(v) for k, v in walls.items()},
        "raw_pass_walls_s": walls, "scaled_setup_rounds_s": rounds,
        "host_ref_ms": host.REF_MS,
        "host_factor_median": statistics.median(factors) if factors else None,
        "host_factor_range": [min(factors), max(factors)] if factors else None,
        "tracing_overhead_s": metrics.get("trace.overhead_s",
                                          MISSING)["value"] if trace else None,
    }
    attempted = sum(p.attempted for p in plain + traced)
    return {"provenance": provenance, "metrics": metrics,
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["shipped", "sokoban-ladder", "episodes", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vgdl2pddl" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    names = (["shipped", "sokoban-ladder", "episodes"]
             if args.workload == "all" else [args.workload])
    status = 0
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        print("provenance: " + json.dumps(report["provenance"]))
        for key, m in report["metrics"].items():
            print(f"  {name} {key} = {m['value']!r} {m['unit']} "
                  f"(n={m['samples']})")
        for failure in report["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        keys = PER_LAYER if args.trace else END_TO_END
        correct = not report["failures"]
        status = status or (0 if correct else 1)
        print(json.dumps({
            "correct": correct,
            "attempted": report["attempted"],
            "failed": len(report["failures"]),
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k in keys
                        for m in [report["metrics"].get(k, MISSING)]},
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
