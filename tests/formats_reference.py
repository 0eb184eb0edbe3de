"""The document parsers literal by literal: one `parse_rational` call, and
one `Fraction`, per literal in the document, with no dict of literals.
`polyillum.formats` parses each distinct literal of a document once and
must agree with these on every value and every error."""

from __future__ import annotations

from polyillum.errors import InputError
from polyillum.formats import _load_json
from polyillum.kernel import Vec, parse_rational
from polyillum.polytope import HPolytope


def strings_to_vector(items: list[str]) -> Vec:
    if not isinstance(items, list):
        raise InputError(f"a vector must be a JSON list, got {type(items).__name__}")
    return tuple(parse_rational(s) for s in items)


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
    parsed = []
    for i, facet in enumerate(facets):
        try:
            normal = strings_to_vector(facet["normal"])
            offset = parse_rational(facet["offset"])
        except (KeyError, TypeError) as err:
            raise InputError(f"facet {i} is malformed: {err}", facet_index=i)
        except InputError as err:
            raise InputError(f"facet {i}: {err}", facet_index=i)
        parsed.append((normal, offset))
    return HPolytope.from_facets(dim, parsed)


def parse_polytope(text: str) -> HPolytope:
    return doc_to_polytope(_load_json(text))


def parse_directions(text: str):
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InputError("directions document must be a JSON object")
    try:
        epsilon = parse_rational(doc["epsilon"])
        items = doc["directions"]
    except KeyError as err:
        raise InputError(f"directions document needs 'epsilon' and 'directions': {err}")
    if not isinstance(items, list):
        raise InputError(f"'directions' must be a JSON list, got {type(items).__name__}")
    directions = [strings_to_vector(v) for v in items]
    if not directions:
        raise InputError("directions list is empty")
    return directions, epsilon
