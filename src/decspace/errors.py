"""Exception types shared across the package."""


class DecspaceError(Exception):
    """Base class for all library errors."""


class TargetMismatch(DecspaceError):
    pass


class ObjectNotFound(DecspaceError):
    pass


class NonCommutingSquare(DecspaceError):
    pass


class NotComposable(DecspaceError):
    pass


class NotActive(DecspaceError):
    pass


class NotInert(DecspaceError):
    pass


class LevelOutOfRange(DecspaceError):
    pass


class TruncationMismatch(DecspaceError):
    pass


class GradeOverflow(DecspaceError):
    pass


class MonoidalStructureMissing(DecspaceError):
    pass


class UnsupportedField(DecspaceError):
    pass


class CanonicalizationMissing(DecspaceError):
    pass


class NotAPoset(DecspaceError):
    pass


class InvalidCategory(DecspaceError):
    pass


class UnknownKey(DecspaceError):
    pass
