"""Seeded inputs for the benchmark workloads.

Everything here is plain data (DSL text, complex points, sizes) made from
the workload seed; the program under test only ever sees that data, and the
same seed gives the same inputs on every commit.
"""

from __future__ import annotations

import cmath
import math
import random

# tree_roots: (r, n) of the leaf-joined trees whose roots are located.
TREE_SIZES = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)] \
    + [(4, n) for n in range(2, 4)]
ROOT_TOL = 1e-8

# sp_sweep: seeded e-only expressions per leaf count, plus a fixed catalogue
# of e/W expressions.  A W job costs from 1 ms to seconds depending on how
# its repeated roots fall, so a few dozen seeded W graphs would make the
# pass time swing by 20% between seeds; the catalogue is drawn once, with
# its own constant seed, over strata of leaf count and W-leaf count.  The
# seeded e-only part still moves with the seed: about 1 in 45 of its 12-leaf
# graphs takes 0.3-0.5 s, the rest under 0.08 s.  Four W graphs per stratum
# keep that swing to a few percent of the pass.
SP_E_LEAVES = range(2, 13)
SP_E_PER_LEAVES = 18
SP_W_STRATA = [(leaves, w) for leaves in range(2, 9) for w in range(1, min(leaves, 3) + 1)]
SP_W_PER_STRATUM = 4
SP_SERIES_BIAS = 0.62

# big_graphs: fixed families plus random e-only graphs near these sizes.
BIG_TREES = [(2, 5), (2, 6), (2, 7), (3, 3), (3, 4)]
BIG_W_CYCLES = [4, 8, 16]
BIG_RANDOM_VERTICES = [60, 90, 120, 150]
BIG_RANDOM_SLACK = 3
RING = [1.0 + 2.5 * cmath.exp(2j * math.pi * (k + 0.5) / 64) for k in range(64)]

# region_grid: the closure points, the boundary sweep and the certify batch.
GRID_RESOLUTION = 256
GRID_POINTS = [(1 + 2.2 * cmath.exp(1j * math.pi / 12), 3),
               (1 + 2.2 * cmath.exp(1j * math.pi / 6), 3),
               (1 + 2.2 * cmath.exp(1j * math.pi / 3), 3),
               (1 + 3.4 * cmath.exp(1j * math.pi / 5), 4),
               (1.1 + 0j, 3)]
BOUNDARY_THETA_STEPS = 64
CERTIFY_BATCH = 120


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


def random_expression(rng: random.Random, leaves: int, bases: tuple[str, ...],
                      series_bias: float) -> tuple[str, int]:
    """Random SP expression with exactly `leaves` leaves, and its vertex count."""
    if leaves <= 1:
        base = rng.choice(bases)
        return base, 4 if base == "W" else 2
    kind = "S" if rng.random() < series_bias else "P"
    pieces = rng.randint(2, min(3, leaves))
    cuts = sorted(rng.sample(range(1, leaves), pieces - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, leaves])]
    parts = [random_expression(rng, size, bases, series_bias) for size in sizes]
    shared = (pieces - 1) * (1 if kind == "S" else 2)
    return (f"{kind}({','.join(text for text, _ in parts)})",
            sum(v for _, v in parts) - shared)


def _with_w_leaves(rng: random.Random, leaves: int, w_count: int) -> str:
    """Random e-only shape with `w_count` of its leaves turned into W."""
    text, _ = random_expression(rng, leaves, ("e",), SP_SERIES_BIAS)
    slots = [i for i, ch in enumerate(text) if ch == "e"]
    chosen = set(rng.sample(slots, w_count))
    return "".join("W" if i in chosen else ch for i, ch in enumerate(text))


def leaf_joined_tree_text(r: int, n: int) -> str:
    expr = "P(" + ",".join(["e"] * r) + ")"
    for _ in range(n - 1):
        expr = "P(" + ",".join([f"S(e,{expr})"] * r) + ")"
    return expr


def sp_sweep_inputs(seed: int) -> list[str]:
    rng = _rng(seed, "sp_sweep")
    texts = [random_expression(rng, leaves, ("e",), SP_SERIES_BIAS)[0]
             for leaves in SP_E_LEAVES for _ in range(SP_E_PER_LEAVES)]
    texts += sp_w_catalogue()
    rng.shuffle(texts)
    return texts


def sp_w_catalogue() -> list[str]:
    rng = random.Random("sp_sweep:w-catalogue")
    return [_with_w_leaves(rng, leaves, w)
            for leaves, w in SP_W_STRATA for _ in range(SP_W_PER_STRATUM)]


def big_graphs_inputs(seed: int) -> list[str]:
    rng = _rng(seed, "big_graphs")
    texts = [leaf_joined_tree_text(r, n) for r, n in BIG_TREES]
    texts += [f"P(e,W^><{k})" for k in BIG_W_CYCLES]
    for target in BIG_RANDOM_VERTICES:
        leaves = round(1.6 * target)
        while True:
            text, vertices = random_expression(rng, leaves, ("e",), SP_SERIES_BIAS)
            if abs(vertices - target) <= BIG_RANDOM_SLACK:
                break
        texts.append(text)
    rng.shuffle(texts)
    return texts


def certify_batch(seed: int) -> list[tuple[complex, int, str]]:
    """Seeded (q, lambda, mode) triples spread over both sides of the thresholds."""
    rng = _rng(seed, "certify")
    out = []
    for _ in range(CERTIFY_BATCH):
        offset = rng.uniform(1.05, 6.0)
        q = 1 + offset * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        out.append((q, rng.randint(2, 8), rng.choice(("chromatic", "antiferro", "wheatstone"))))
    return out


def order(seed: int, workload: str, items: list) -> list:
    """Seeded job order for the workloads whose inputs are fixed."""
    items = list(items)
    _rng(seed, workload).shuffle(items)
    return items
