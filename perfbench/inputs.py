"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here from the workload seed,
so the same seed always gives the same inputs, and `inputs_hash` lets two
commits show that they ran identical inputs.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

# Sokoban ladder rungs: (grid side, boxes), LEVELS_PER_RUNG levels each.  Every level is
# an open room fenced by walls.  Boxes and holes stay off the wall-adjacent
# ring, so every box can be pushed in all four directions and every level is
# solvable by construction; nothing is filtered on planner results.  Every
# level is one motif -- each box in line with its own hole, PUSH cells apart,
# lanes two rows apart, the avatar starting diagonally past the first box on
# its hole side -- placed at a seeded offset and in one of the eight
# orientations of the square.  So seeds change where things are, not how
# hard the level is, and the ladder times the planner rather than the luck
# of the draw (random placements differ by up to 10x in GBFS time).
LADDER_RUNGS = ((8, 2), (10, 1), (12, 1))
LEVELS_PER_RUNG = 2
PUSH = 3

# Episodes: every shipped deterministic level once, and both aliens levels
# over engine seeds 0-9.  The engine seeds are fixed rather than drawn from
# the workload seed: how many times the agent replans, and with it the time
# of a pass, depends on the engine seed, and five seed-derived draws gave
# passes of 7.6 s to 22.7 s on the same code.
ALIENS_ENGINE_SEEDS = tuple(range(10))
DETERMINISTIC_GAMES = ("digger", "keymaze", "rain", "sokoban", "zenpuzzle")
STOCHASTIC_GAME = "aliens"


def sokoban_level(rng: random.Random, side: int, boxes: int) -> str:
    lo, hi = 2, side - 3  # box and hole cells stay off the ring
    x0 = rng.randint(lo, hi - PUSH)
    y0 = rng.randint(lo, hi - 2 * (boxes - 1))
    cells = {}
    for i in range(boxes):
        cells[(x0, y0 + 2 * i)] = "b"
        cells[(x0 + PUSH, y0 + 2 * i)] = "h"
    cells[(x0 + 1, y0 + 1 if y0 + 1 <= hi else y0 - 1)] = "A"
    flip_x, flip_y, swap = (rng.random() < 0.5 for _ in range(3))
    grid = [["w" if x in (0, side - 1) or y in (0, side - 1) else " "
             for x in range(side)] for y in range(side)]
    for (x, y), char in cells.items():
        if flip_x:
            x = side - 1 - x
        if flip_y:
            y = side - 1 - y
        if swap:
            x, y = y, x
        grid[y][x] = char
    return "\n".join("".join(row) for row in grid) + "\n"


def ladder_levels(seed: int) -> list[tuple[str, str]]:
    """(label, LDF text) for every rung of the ladder, smallest first."""
    rng = random.Random(f"sokoban-ladder:{seed}")
    return [(f"{side}x{side}-b{boxes}-{i}", sokoban_level(rng, side, boxes))
            for side, boxes in LADDER_RUNGS for i in range(LEVELS_PER_RUNG)]


def shipped_files(games_dir: Path) -> list[tuple[str, str]]:
    """(relative path, text) of every shipped game and level file."""
    return [(str(p.relative_to(games_dir)), p.read_text())
            for p in sorted(games_dir.glob("*/*.txt"))]


def inputs_hash(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
