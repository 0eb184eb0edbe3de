"""Independent checker for the benchmark's operations.

It never imports polyillum: every answer it compares against is computed
here from the input document with plain int / Fraction arithmetic, or is
one of the known answers listed in README.md.  Each `check_*` function
takes the instance, the exit code and the parsed JSON payload of one CLI
operation and returns None when the output is correct, or a one-line
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Vec = tuple


class CheckError(Exception):
    """The payload is malformed or contradicts the independent answer."""


# -- exact arithmetic ---------------------------------------------------------

def rat(text) -> Fraction:
    """A rational literal "p" or "p/q" exactly as the CLI writes it."""
    if not isinstance(text, str):
        raise CheckError(f"rational is not a string: {text!r}")
    p, _, q = text.partition("/")
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"bad rational literal {text!r}")


def vec(items) -> Vec:
    if not isinstance(items, list):
        raise CheckError(f"vector is not a list: {items!r}")
    return tuple(rat(s) for s in items)


def text(v: Sequence[Fraction]) -> list[str]:
    return [str(Fraction(x)) for x in v]


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place) and its pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(vectors: Sequence[Vec]) -> int:
    if not vectors:
        return 0
    return len(_reduce([[Fraction(x) for x in v] for v in vectors])[1])


def express(target: Vec, basis: Sequence[Vec]) -> Optional[Vec]:
    """Coefficients c with sum(c_i * basis_i) == target for linearly
    independent basis vectors, or None if target is outside their span."""
    k = len(basis)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(target[i])]
            for i in range(len(target))]
    rows, pivots = _reduce(rows)
    if pivots != list(range(k)):
        return None  # dependent basis, or target outside the span (pivot at k)
    return tuple(rows[i][k] for i in range(k))


def solve_square(rows: Sequence[Vec], rhs: Sequence[Fraction]) -> Optional[Vec]:
    """The x with <rows_i, x> == rhs_i, or None when the system is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    aug, pivots = _reduce(aug)
    if pivots != list(range(n)):
        return None
    return tuple(aug[i][n] for i in range(n))


def dependence(vectors: Sequence[Vec]) -> Optional[Vec]:
    """The unique (up to scale) linear dependence of vectors of rank
    len(vectors) - 1, or None when there is no such unique dependence."""
    k = len(vectors)
    rows = [[Fraction(v[i]) for v in vectors] for i in range(len(vectors[0]))]
    rows, pivots = _reduce(rows)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    mu = [Fraction(0)] * k
    mu[free] = Fraction(1)
    for r, c in enumerate(pivots):
        mu[c] = -rows[r][free]
    return tuple(mu)


def in_cone(x: Vec, generators: Sequence[Vec]) -> bool:
    """x in the positive hull of the generators, by Caratheodory: x lies in
    the positive hull of some linearly independent subset, so it suffices
    to try every independent subset of maximal size."""
    r = rank(generators)
    if r == 0:
        return all(c == 0 for c in x)
    for subset in combinations(generators, r):
        coefficients = express(x, subset)
        if coefficients is not None and all(c >= 0 for c in coefficients):
            return True
    return False


# -- normal-set predicates -----------------------------------------------------

def is_conical(subset: Sequence[Vec], dim: int) -> bool:
    """Conical position of an (n+1)-subset: strictly separated from the
    origin with no element in the positive hull of the others.

    For rank n the dependence is unique, the set is separated iff it has
    coefficients of both signs, and an element is in the positive hull of
    the others iff it is the only one of its sign; so the subset is in
    conical position iff the dependence has at least two positive and two
    negative coefficients.  A subset of lower rank lies in a subspace of
    dimension at most 2 when n <= 3, where a pointed cone has at most two
    extreme rays, so it never is.
    """
    if len(subset) != dim + 1:
        raise CheckError(f"certificate has {len(subset)} normals, expected {dim + 1}")
    mu = dependence(subset)
    if mu is None:
        if dim > 3:
            raise CheckError("lower-rank conical test is implemented for n <= 3 only")
        return False
    return sum(c > 0 for c in mu) >= 2 and sum(c < 0 for c in mu) >= 2


def conical_subsets(normals: Sequence[Vec], dim: int) -> list[tuple[Vec, ...]]:
    return [s for s in combinations(normals, dim + 1) if is_conical(s, dim)]


def strongly_monotypic(normals: Sequence[Vec], dim: int) -> bool:
    """No (n+1)-subset in conical position (brute force)."""
    return not conical_subsets(normals, dim)


def uncaptured(subset: Sequence[Vec], normals: Sequence[Vec]) -> bool:
    """No further normal lies in the positive hull of the subset."""
    return not any(in_cone(m, subset) for m in normals if m not in subset)


def monotypic(normals: Sequence[Vec], dim: int) -> bool:
    """Every conical (n+1)-subset captures a further normal in its positive
    hull (brute force, Cramer solves over its n-subsets)."""
    return not any(uncaptured(s, normals) for s in conical_subsets(normals, dim))


def positively_spanning_r3(normals: Sequence[Vec]) -> bool:
    """pos(normals) == R^3.  If the normals span R^3 but lie in a closed
    half-space, the dual cone has an extreme ray orthogonal to two
    independent normals, so trying the cross product of every independent
    pair decides it."""
    if rank(normals) < 3:
        return False
    for a, b in combinations(normals, 2):
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if c == (0, 0, 0):
            continue
        signs = {(dot(c, m) > 0) - (dot(c, m) < 0) for m in normals}
        if 1 not in signs or -1 not in signs:
            return False
    return True


def enumerate_vertices(dim: int, facets) -> list[Vec]:
    """All vertices by brute force over n-subsets of the facets."""
    points = set()
    for subset in combinations(facets, dim):
        x = solve_square([n for n, _ in subset], [h for _, h in subset])
        if x is not None and all(dot(n, x) <= h for n, h in facets):
            points.add(x)
    return sorted(points)


def irredundant(dim: int, facets, vertices: Sequence[Vec]) -> bool:
    """Every facet inequality is tight on an (n-1)-dimensional face."""
    for n, h in facets:
        tight = [x for x in vertices if dot(n, x) == h]
        if not tight or rank([tuple(a - b for a, b in zip(p, tight[0]))
                              for p in tight[1:]]) != dim - 1:
            return False
    return True


def tight_normals(facets, x: Vec) -> list[Vec]:
    return [n for n, h in facets if dot(n, x) == h]


def illuminates(facets, x: Vec, v: Vec) -> bool:
    """v illuminates vertex x iff <n, v> > 0 for every normal tight at x."""
    return all(dot(n, v) > 0 for n in tight_normals(facets, x))


def strictly_inside(facets, y: Vec) -> bool:
    return all(dot(n, y) < h for n, h in facets)


# -- per-command checks ------------------------------------------------------------

def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def _normal_list(inst, items) -> list[Vec]:
    vectors = [vec(v) for v in items]
    for v in vectors:
        _require(v in inst.normal_index, f"{text(v)} is not a normal of {inst.name}")
    _require(len(set(vectors)) == len(vectors), "a normal is listed twice")
    return vectors


def _conical_certificate(inst, items) -> tuple[Vec, ...]:
    subset = tuple(_normal_list(inst, items))
    _require(is_conical(subset, inst.dim), "certificate is not in conical position")
    return subset


def _vertex_list(inst, items) -> list[Vec]:
    points = [vec(v) for v in items]
    _require(sorted(points) == inst.vertices,
             f"vertex list differs from the {len(inst.vertices)} vertices of {inst.name}")
    return points


def _classify(inst, code, payload):
    _require(payload.get("strongly_monotypic") is inst.sm, "strong monotypy verdict is wrong")
    _require(payload.get("monotypic") is inst.mono, "monotypy verdict is wrong")
    _require(code == (0 if inst.sm else 1), f"exit code {code}")
    certs = payload.get("certificates", {})
    expected = set()
    if not inst.sm:
        expected.add("conical_subset")
        _conical_certificate(inst, certs.get("conical_subset"))
    if not inst.mono:
        expected |= {"uncaptured_conical_subset", "intersecting_primitive_subsets"}
        subset = _conical_certificate(inst, certs.get("uncaptured_conical_subset"))
        _require(uncaptured(subset, inst.normals), "conical subset captures a normal")
        mss = certs.get("intersecting_primitive_subsets", {})
        v1 = _normal_list(inst, mss.get("subset_1"))
        v2 = _normal_list(inst, mss.get("subset_2"))
        point = vec(mss.get("common_point"))
        _require(not set(v1) & set(v2), "MSS subsets are not disjoint")
        _require(any(c != 0 for c in point), "MSS common point is the origin")
        for subset in (v1, v2):
            _require(rank(subset) == len(subset), "MSS subset is not independent")
            c = express(point, subset)
            _require(c is not None and all(x >= 0 for x in c),
                     "MSS common point is outside a positive hull")
    _require(set(certs) == expected, f"certificates {sorted(certs)} != {sorted(expected)}")


def _fan(inst, code, payload):
    _require(code == 0, f"exit code {code}")
    _require(payload.get("unique") is True, "fan is not reported unique")
    _require(payload.get("primitive_basis_count") == len(inst.vertices),
             "primitive basis count differs from the vertex count")
    cones = payload["cones"]
    _vertex_list(inst, [c["vertex"] for c in cones])
    for cone in cones:
        x = vec(cone["vertex"])
        _require(set(_normal_list(inst, cone["generators"]))
                 == set(tight_normals(inst.facets, x)),
                 f"cone at {text(x)} is not generated by its tight normals")


def _oracle(inst, code, payload):
    _require(code == 0, f"exit code {code}")
    k = payload.get("min_illumination_number")
    _require(k == inst.min_illumination, f"minimum {k} != {inst.min_illumination}")
    directions = [vec(v) for v in payload["directions"]]
    _require(len(directions) == k, "direction count differs from the minimum")
    for x in inst.vertices:
        _require(any(illuminates(inst.facets, x, v) for v in directions),
                 f"vertex {text(x)} is not illuminated")


def check_illumination(inst, payload) -> None:
    """The returned directions illuminate every vertex with the returned
    epsilon, judged against the input document's own facets."""
    directions = [vec(v) for v in payload["directions"]]
    eps = rat(payload["epsilon"])
    _require(eps > 0, "epsilon is not positive")
    _require(len(directions) <= 2 ** inst.dim, "more than 2^n directions")
    if inst.q is not None:
        _require(len(directions) == inst.q, f"{len(directions)} directions, q = {inst.q}")
    _require([vec(v) for v in payload["scaled_directions"]]
             == [tuple(eps * c for c in v) for v in directions],
             "scaled directions are not epsilon times the directions")
    assignment = payload["assignment"]
    _vertex_list(inst, [a["vertex"] for a in assignment])
    for a in assignment:
        x, v = vec(a["vertex"]), directions[a["direction"]]
        _require(illuminates(inst.facets, x, v),
                 f"a tight normal at {text(x)} has non-positive product with its direction")
        _require(strictly_inside(inst.facets, tuple(c - eps * d for c, d in zip(x, v))),
                 f"x - eps*v is not strictly inside at vertex {text(x)}")


def _illuminate(inst, code, payload):
    if not inst.sm:
        _require(code == 1, f"exit code {code} on a set that is not strongly monotypic")
        _conical_certificate(inst, payload.get("certificate"))
        return
    _require(code == 0, f"exit code {code}")
    check_illumination(inst, payload)
    if "report" in payload:
        _require(payload.get("verified") is True, "illumination not reported verified")
        _require([(r["vertex"], r["direction"], r["directional_ok"], r["interior_ok"])
                  for r in payload["report"]]
                 == [(a["vertex"], a["direction"], True, True)
                     for a in payload["assignment"]],
                 "report does not match the assignment")


def check_skeleton(inst, payload) -> None:
    """Disjoint parts of normals, each a simplex with the origin in its
    relative interior, whose spans sum directly to R^n."""
    _require(inst.sm, f"skeleton returned for {inst.name}, which is not strongly monotypic")
    parts = [_normal_list(inst, p) for p in payload["parts"]]
    basis = _normal_list(inst, payload["basis"])
    _require(len(basis) == inst.dim and rank(basis) == inst.dim, "basis is not a basis")
    seen: set = set()
    for part, support in zip(parts, payload["part_supports"]):
        _require(not seen & set(part), "parts are not disjoint")
        seen |= set(part)
        _require(part[:-1] == [basis[i] for i in support], "part does not match its support")
        mu = dependence(part)
        _require(mu is not None and (all(c > 0 for c in mu) or all(c < 0 for c in mu)),
                 "origin is not in the relative interior of a part")
    sizes = [len(p) for p in parts]
    _require(rank([v for p in parts for v in p]) == inst.dim == sum(s - 1 for s in sizes),
             "part spans do not sum directly to the space")
    q = 1
    for s in sizes:
        q *= s
    _require(payload["part_sizes"] == sizes and payload["product_of_part_sizes"] == q,
             "part sizes are misreported")
    _require(q <= 2 ** inst.dim, "part size product exceeds 2^n")


def _skeleton(inst, code, payload):
    if not inst.sm:
        if code == 0:
            check_skeleton(inst, payload)  # raises: the set is not strongly monotypic
        _require(code == 1, f"exit code {code}")
        _conical_certificate(inst, payload.get("certificate"))
        return
    _require(code == 0, f"exit code {code}")
    check_skeleton(inst, payload)


def _verify(inst, code, payload, directions_doc):
    directions = [vec(v) for v in directions_doc["directions"]]
    eps = rat(directions_doc["epsilon"])
    report = payload["report"]
    _vertex_list(inst, [r["vertex"] for r in report])
    all_ok = True
    for r in report:
        x, j = vec(r["vertex"]), r["direction"]
        if j is None:
            _require(not any(illuminates(inst.facets, x, v) for v in directions),
                     f"vertex {text(x)} reported unlit but a direction illuminates it")
            ok = False
        else:
            v = directions[j]
            ok = (illuminates(inst.facets, x, v) and strictly_inside(
                inst.facets, tuple(c - eps * d for c, d in zip(x, v))))
            _require(ok, f"direction {j} does not illuminate vertex {text(x)}")
        _require(r["directional_ok"] is ok and r["interior_ok"] is ok,
                 f"report flags at {text(x)} are wrong")
        all_ok = all_ok and ok
    _require(payload.get("verified") is all_ok, "verified flag is wrong")
    _require(code == (0 if all_ok else 1), f"exit code {code}")


_CHECKS = {"classify": _classify, "fan": _fan, "oracle": _oracle,
           "illuminate": _illuminate, "skeleton": _skeleton}


def check(op, code, payload) -> Optional[str]:
    """None when the operation's output is correct, else the reason."""
    if code not in (0, 1, 2, 3):
        return f"undocumented exit code {code}"
    try:
        if op.command == "verify":
            _verify(op.instance, code, payload, op.directions_doc)
        else:
            _CHECKS[op.command](op.instance, code, payload)
    except CheckError as err:
        return str(err)
    except (KeyError, IndexError, TypeError, AttributeError) as err:
        return f"malformed payload: {type(err).__name__}: {err}"
    return None
