"""Deterministic synthetic transmission grids for the benchmark.

A grid is a geographic spanning tree plus local chords, the shape Birchfield
et al. report for real transmission networks ("Grid structural
characteristics as validation criteria for synthetic networks", IEEE TPWRS
2017): buses are scattered uniformly over a square whose area grows with the
bus count, a minimum spanning tree over their distances gives the backbone,
and about a quarter as many chords as buses join each chosen bus to one of
its nearest neighbours, for a mean degree near 2.5.  Reactance grows with
line length.  About one bus in ten holds a machine; loads are light, so
angle spreads stay far below 90 degrees and Newton-Raphson converges in a
few iterations.

Only ``random.Random`` seeded with a string and fixed rounding are used, so
the same (n_bus, seed) gives the same case-file bytes from run to run.
"""

from __future__ import annotations

import json
import math
import random

CHORD_FRACTION = 0.25
MACHINE_FRACTION = 0.10
NEAREST = 4


def _r6(x: float) -> float:
    return round(x, 6)


def _spanning_tree(pts):
    """Prim's minimum spanning tree over Euclidean distances, O(n^2)."""
    n = len(pts)
    best = [math.inf] * n
    link = [-1] * n
    in_tree = [False] * n
    best[0] = 0.0
    edges = []
    for _ in range(n):
        u = min((i for i in range(n) if not in_tree[i]), key=best.__getitem__)
        in_tree[u] = True
        if link[u] >= 0:
            edges.append((link[u], u))
        ux, uy = pts[u]
        for v in range(n):
            if not in_tree[v]:
                d = math.hypot(pts[v][0] - ux, pts[v][1] - uy)
                if d < best[v]:
                    best[v] = d
                    link[v] = u
    return edges


def generate_case(n_bus: int, seed: int) -> dict:
    """Case document (the JSON schema of gridgfv.case_model) for one grid."""
    if n_bus < 10:
        raise ValueError("n_bus must be at least 10")
    rng = random.Random(f"synthgrid:{n_bus}:{seed}")
    side = math.sqrt(n_bus)
    pts = [(rng.random() * side, rng.random() * side) for _ in range(n_bus)]

    def dist(a, b):
        return math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])

    edges = _spanning_tree(pts)
    adjacent = {frozenset(e) for e in edges}
    n_chords = round(CHORD_FRACTION * n_bus)
    attempts = 0
    while n_chords and attempts < 20 * n_bus:
        attempts += 1
        a = rng.randrange(n_bus)
        near = sorted((b for b in range(n_bus) if b != a), key=lambda b: dist(a, b))
        b = near[rng.randrange(NEAREST)]
        if frozenset((a, b)) in adjacent:
            continue
        adjacent.add(frozenset((a, b)))
        edges.append((a, b))
        n_chords -= 1

    n_gen = max(2, round(MACHINE_FRACTION * n_bus))
    gen_pos = sorted(rng.sample(range(n_bus), n_gen))
    ratings = {g: rng.choice((100.0, 200.0, 300.0, 500.0)) for g in gen_pos}
    slack = max(gen_pos, key=lambda g: (ratings[g], -g))

    buses = []
    total_load = 0.0
    for i in range(n_bus):
        if i in ratings:
            kind = "slack" if i == slack else "pv"
            buses.append({"id": i + 1, "kind": kind,
                          "v_set": _r6(1.0 + 0.04 * rng.random())})
        else:
            p = _r6(0.02 + 0.06 * rng.random())
            q = _r6(p * (0.2 + 0.2 * rng.random()))
            total_load += p
            buses.append({"id": i + 1, "kind": "pq", "p_load": p, "q_load": q})

    branches = []
    for a, b in edges:
        x = 0.005 + 0.015 * dist(a, b)
        branches.append({
            "from_bus": a + 1,
            "to_bus": b + 1,
            "r": _r6(x / (4.0 + 6.0 * rng.random())),
            "x": _r6(x),
            "b_ch": _r6(0.01 * rng.random()),
        })

    pv_rating = sum(r for g, r in ratings.items() if g != slack)
    generators = []
    for g in gen_pos:
        p_gen = 0.0 if g == slack else 0.8 * total_load * ratings[g] / pv_rating
        generators.append({
            "bus": g + 1,
            "p_gen": _r6(p_gen),
            "h": _r6(3.0 + 6.0 * rng.random()),
            "d": _r6(1.0 + 2.0 * rng.random()),
            "xd_p": _r6(0.2 + 0.15 * rng.random()),
            "mva_base": ratings[g],
        })
    return {"base_mva": 100.0, "buses": buses, "branches": branches,
            "generators": generators}


def case_bytes(n_bus: int, seed: int) -> bytes:
    return (json.dumps(generate_case(n_bus, seed), indent=1) + "\n").encode()
