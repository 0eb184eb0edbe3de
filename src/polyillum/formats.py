"""JSON document formats: polytopes, direction files, skeletons,
illumination sets, verdicts and certificates.

Rationals travel as strings ("p" or "p/q"), never floats, so documents
round-trip bit-exactly and stay language-neutral. A document repeats few
distinct literals (a box's normals are 0 and +-1), so each parser keeps
one dict, local to its call, from a literal to its `Fraction`, and parses
each distinct literal once; the first bad literal in document order still
raises its `InputError`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .kernel import Vec, format_rational, parse_rational
from .polytope import HPolytope


def vector_to_strings(v: Vec) -> list[str]:
    return [format_rational(x) for x in v]


def _rational(text, parsed: dict[str, Fraction]) -> Fraction:
    """`parse_rational(text)`, made once per distinct string in `parsed`. A
    value that is not a string, unhashable perhaps, goes straight to
    `parse_rational`, which rejects it."""
    if not isinstance(text, str):
        return parse_rational(text)
    if (x := parsed.get(text)) is None:
        x = parsed[text] = parse_rational(text)
    return x


def _vector(items, parsed: dict[str, Fraction]) -> Vec:
    if not isinstance(items, list):
        raise InputError(f"a vector must be a JSON list, got {type(items).__name__}")
    return tuple(_rational(s, parsed) for s in items)


def polytope_to_doc(P: HPolytope) -> dict:
    return {
        "dim": P.dim,
        "facets": [{"normal": vector_to_strings(n), "offset": format_rational(h)}
                   for n, h in zip(P.normal_set.normals, P.offsets)],
    }


def doc_to_polytope(doc) -> HPolytope:
    if not isinstance(doc, dict):
        raise InputError("polytope document must be a JSON object")
    try:
        dim = doc["dim"]
        facets = doc["facets"]
    except KeyError as err:
        raise InputError(f"polytope document needs 'dim' and 'facets': {err}")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"'dim' must be a JSON integer, got {type(dim).__name__}")
    if not isinstance(facets, list) or not facets:
        raise InputError("'facets' must be a nonempty list")
    pairs, parsed = [], {}
    for i, facet in enumerate(facets):
        try:
            normal = _vector(facet["normal"], parsed)
            offset = _rational(facet["offset"], parsed)
        except (KeyError, TypeError) as err:
            raise InputError(f"facet {i} is malformed: {err}", facet_index=i)
        except InputError as err:
            raise InputError(f"facet {i}: {err}", facet_index=i)
        pairs.append((normal, offset))
    return HPolytope.from_facets(dim, pairs)


def _load_json(text: str):
    # ValueError covers decoding errors and integers beyond Python's
    # string-conversion limit; RecursionError, nesting too deep to decode.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise InputError(f"invalid JSON: {err}")


def parse_polytope(text: str) -> HPolytope:
    return doc_to_polytope(_load_json(text))


def parse_directions(text: str):
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InputError("directions document must be a JSON object")
    parsed = {}
    try:
        epsilon = _rational(doc["epsilon"], parsed)
        items = doc["directions"]
    except KeyError as err:
        raise InputError(f"directions document needs 'epsilon' and 'directions': {err}")
    if not isinstance(items, list):
        raise InputError(f"'directions' must be a JSON list, got {type(items).__name__}")
    directions = [_vector(v, parsed) for v in items]
    if not directions:
        raise InputError("directions list is empty")
    return directions, epsilon


def skeleton_to_doc(skeleton) -> dict:
    return {
        "basis": [vector_to_strings(b) for b in skeleton.basis],
        "parts": [[vector_to_strings(x) for x in part] for part in skeleton.parts],
        "part_supports": [list(s) for s in skeleton.part_supports],
        "part_sizes": [len(part) for part in skeleton.parts],
        "product_of_part_sizes": skeleton.product_of_part_sizes,
    }


def illumination_to_doc(P: HPolytope, ill) -> dict:
    return {
        "directions": [vector_to_strings(v) for v in ill.directions],
        "epsilon": format_rational(ill.epsilon),
        "delta": format_rational(ill.delta),
        "scaled_directions": [vector_to_strings(v) for v in ill.scaled],
        "assignment": [
            {"vertex": vector_to_strings(v.point), "direction": j}
            for v, j in zip(P.vertices, ill.assignment)
        ],
    }


def reports_to_doc(reports) -> list:
    return [
        {
            "vertex": vector_to_strings(r.point),
            "direction": r.direction_index,
            "directional_ok": r.directional_ok,
            "interior_ok": r.interior_ok,
        }
        for r in reports
    ]


def certificate_to_doc(certificate) -> list:
    return [vector_to_strings(v) for v in certificate]


def dump(payload, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(payload, indent=2)
    return json.dumps(payload, separators=(",", ":"))
