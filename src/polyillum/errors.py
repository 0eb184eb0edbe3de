"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 2, certificate-carrying
verdict failures -> 1, InternalInvariantError -> 3.
"""


class GeometryError(Exception):
    pass


class InputError(GeometryError):
    """Invalid or rejected input (bad literals, unbounded systems, guards)."""

    def __init__(self, message, *, facet_index=None, witness=None):
        super().__init__(message)
        self.facet_index = facet_index
        self.witness = witness


class ScaleLimitError(InputError):
    """Instance exceeds the exhaustive-enumeration guard."""


class NotStronglyMonotypicError(GeometryError):
    """Raised where a construction requires strong monotypy.

    `certificate` is a tuple of normals in conical position (re-checkable
    with position.is_conical_position).
    """

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


class InternalInvariantError(GeometryError):
    """A claim the construction relies on failed to re-verify.

    Never the caller's fault: either a bug or a falsification alarm.
    """


class AssignmentError(InternalInvariantError):
    """No constructed cone contains some vertex's tight normals."""
