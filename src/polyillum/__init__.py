"""Exact-arithmetic toolkit for monotypic polytope classification,
skeleton decomposition of normal sets, and explicit illumination sets of
at most 2^n directions, cross-checked by a brute-force minimum-cover
oracle."""

from .classify import (ClassificationVerdict, check_monotypy,
                       check_monotypy_mss, check_strong_monotypy,
                       classify_normal_set)
from .errors import (AssignmentError, GeometryError,
                     InputError, InternalInvariantError,
                     NotStronglyMonotypicError, ScaleLimitError)
from .fan import FanCone, enumerate_primitive_bases, normal_fan, verify_fan_uniqueness
from .generators import SplitMix64, generate, randomize_offsets
from .illuminate import (IlluminationSet, build_illumination_set,
                         compute_delta, compute_epsilon, verify_directions,
                         verify_illumination)
from .kernel import Vec, dot, parse_rational, vec
from .oracle import min_illumination_number
from .polytope import HPolytope, NormalSet, Vertex
from .position import cone_membership, is_conical_position, is_primitive, separator
from .skeleton import Skeleton, extract_skeleton, refine_basis, verify_skeleton

__version__ = "0.1.0"
