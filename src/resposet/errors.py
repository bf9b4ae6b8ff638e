"""Exception hierarchy shared by all modules."""


class StructureError(Exception):
    """Base class of every error an input can cause: bad labels, orders, maps, parameters or documents."""


class UnknownLabel(StructureError):
    pass


class DuplicateLabel(StructureError):
    pass


class ReservedLabel(StructureError):
    pass


class SelfCover(StructureError):
    pass


class CycleDetected(StructureError):
    pass


class NoBottom(StructureError):
    pass


class Unbounded(StructureError):
    pass


class NotALattice(StructureError):
    pass


class InvalidInvolution(StructureError):
    pass


class ModeUnsatisfiable(StructureError):
    pass


class NTooSmall(StructureError):
    pass


class LimitZero(StructureError):
    pass


class CarrierTooLarge(StructureError):
    """A carrier would exceed constructions.MAX_CARRIER or miner.MAX_CARRIER elements."""


class MalformedDocument(StructureError):
    pass


class SchemaViolation(StructureError):
    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class InvariantViolation(Exception):
    """A package fault, never bad input, and so never a StructureError.

    Raised when the package's own result breaks a proven invariant, such as
    a construction that fails its own verification.
    """
