"""Benchmark inputs: polytope documents, direction documents and the
independently known answer for each instance.

Nothing here imports polyillum.  Family vertices come from the product
formula, small instances from brute-force vertex enumeration in
checker.py, and verdicts from the known answers (families) or the
brute-force tests in checker.py (planar and R^3 instances).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Optional

import checker

F = Fraction
_MASK = (1 << 64) - 1

HEXAGON = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
SQUARE_PYRAMID = [(0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
# Not strongly monotypic, yet `skeleton` returns a skeleton for it.
SET_N = [(1, 1, 1), (1, 1, -1), (0, -1, -1), (-1, 1, -1), (-1, 0, 1)]


@dataclass
class Instance:
    name: str
    dim: int
    facets: list            # [(normal, offset)] as Fraction tuples / Fractions
    vertices: list          # sorted, as the program lists them
    sm: bool
    mono: bool
    q: Optional[int] = None
    min_illumination: Optional[int] = None
    normals: tuple = field(init=False)
    normal_index: set = field(init=False)

    def __post_init__(self):
        self.normals = tuple(n for n, _ in self.facets)
        self.normal_index = set(self.normals)

    def doc(self) -> dict:
        return {"dim": self.dim,
                "facets": [{"normal": checker.text(n), "offset": str(h)}
                           for n, h in self.facets]}


def _vec(entries) -> tuple:
    return tuple(F(e) for e in entries)


def splitmix64(seed: int):
    """The offset stream of `polyillum gen --randomize-offsets --seed`."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def product_normals(dims) -> list[tuple]:
    """Normals of a product of simplices: per factor of dimension d, the
    unit vectors e_i of its coordinates and minus their sum."""
    total = sum(dims)
    normals, start = [], 0
    for d in dims:
        block = range(start, start + d)
        normals += [_vec(int(j == i) for j in range(total)) for i in block]
        normals.append(_vec(-int(j in block) for j in range(total)))
        start += d
    return normals


def product_of_simplices(name: str, dims, offset_seed: Optional[int] = None) -> Instance:
    """box n = dims [1]*n, simplex n = [n].  Offsets are 1, or drawn as
    (16 + z mod 17)/16 per normal in the program's canonical (descending
    lexicographic) normal order, the rule of `gen --randomize-offsets`;
    any positive offsets give a valid product of simplices."""
    normals = sorted(product_normals(dims), reverse=True)
    if offset_seed is None:
        offsets = [F(1)] * len(normals)
    else:
        stream = splitmix64(offset_seed)
        offsets = [F(16 + next(stream) % 17, 16) for _ in normals]
    h = dict(zip(normals, offsets))
    # Vertices: per factor, either every coordinate at its upper bound, or
    # one coordinate pushed down onto the factor's slanted facet.
    factors, start = [], 0
    for d in dims:
        block = list(range(start, start + d))
        unit = [next(n for n in normals if n[i] == 1 and sum(n) == 1) for i in block]
        upper = [h[u] for u in unit]
        slant = h[next(n for n in normals if all(n[i] == -1 for i in block))]
        choices = [tuple(upper)]
        for k in range(d):
            pt = list(upper)
            pt[k] = -slant - sum(upper) + upper[k]
            choices.append(tuple(pt))
        factors.append(choices)
        start += d
    vertices = sorted(tuple(c for part in combo for c in part) for combo in product(*factors))
    q = len(vertices)
    return Instance(name, sum(dims), list(zip(normals, offsets)), vertices,
                    sm=True, mono=True, q=q, min_illumination=q)


def small_instance(name: str, normals, *, q=None, min_illumination=None) -> Instance:
    """A planar or R^3 instance with unit offsets; vertices and verdicts by
    brute force."""
    dim = len(normals[0])
    vs = [_vec(n) for n in normals]
    facets = [(n, F(1)) for n in sorted(vs, reverse=True)]
    return Instance(name, dim, facets, checker.enumerate_vertices(dim, facets),
                    sm=checker.strongly_monotypic(vs, dim),
                    mono=checker.monotypic(vs, dim),
                    q=q, min_illumination=min_illumination)


def _known(inst: Instance, sm: bool, mono: bool, vertices: int) -> Instance:
    """Cross-check the brute force against the known answer (README.md)."""
    if (inst.sm, inst.mono, len(inst.vertices)) != (sm, mono, vertices):
        raise RuntimeError(f"brute force disagrees with the known answer for {inst.name}")
    return inst


def hexagon() -> Instance:
    return _known(small_instance("hexagon", HEXAGON, min_illumination=3), True, True, 6)


def square_pyramid() -> Instance:
    return _known(small_instance("square_pyramid", SQUARE_PYRAMID, min_illumination=5),
                  False, False, 5)


def set_n() -> Instance:
    return _known(small_instance("N", SET_N), False, False, 6)


def _primitive(v) -> tuple:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def random_r3_sets(draw_seed: str, count: int) -> list[Instance]:
    """`count` valid random normal sets in R^3: 5-7 normals with entries in
    -2..2, unit offsets.  A draw is kept only if its normals are nonzero,
    no two are positive multiples of each other, they positively span R^3
    (so the unit-offset polytope is bounded with the origin inside), and
    every facet is irredundant."""
    rng = random.Random(draw_seed)
    out = []
    while len(out) < count:
        m = rng.randint(5, 7)
        normals = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(m)]
        if any(n == (0, 0, 0) for n in normals):
            continue
        if len({_primitive(n) for n in normals}) < m:
            continue
        vs = [_vec(n) for n in normals]
        if not checker.positively_spanning_r3(vs):
            continue
        facets = [(n, F(1)) for n in vs]
        if not checker.irredundant(3, facets, checker.enumerate_vertices(3, facets)):
            continue
        out.append(small_instance(f"r3-{len(out)}", normals))
    return out


def verify_directions(inst: Instance, rng: random.Random) -> tuple[dict, dict]:
    """A passing direction set (every vertex as its own direction, in a
    seeded order, epsilon 1/2) and a failing one (one direction dropped).
    With the origin interior, x - x/2 is strictly inside; for a product of
    simplices no other vertex has positive product with all normals tight
    at x, so the dropped vertex is the only one left unlit."""
    order = list(inst.vertices)
    rng.shuffle(order)
    dropped = rng.randrange(len(order))
    passing = {"epsilon": "1/2", "directions": [checker.text(v) for v in order]}
    failing = {"epsilon": "1/2",
               "directions": [checker.text(v) for i, v in enumerate(order) if i != dropped]}
    return passing, failing
