"""Exception hierarchy shared across the package."""


class CyclelinkError(Exception):
    """Base class for all package errors."""


class GraphError(CyclelinkError, ValueError):
    """Bad vertex ids, malformed edges, or violated preconditions."""


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the byte offset of the failure."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class UnsupportedError(CyclelinkError):
    """Request exceeds an engine limit (e.g. too many roots)."""


class ResourceGuardError(CyclelinkError):
    """Enumeration would be too large to finish; refused up front."""


class NotMassedError(CyclelinkError):
    """Solver precondition failed; carries the offending MassedReport."""

    def __init__(self, report):
        super().__init__("instance is not 5-massed")
        self.report = report


class GenerationError(CyclelinkError):
    """Extremal generator could not realize or validate a spec."""


class CertificateError(CyclelinkError):
    """An emitted model or certificate failed its own re-check."""


class FalsifierError(CyclelinkError):
    """Exhaustive search found neither a model nor an extremal certificate
    on a 5-massed instance.  Carries a replayable artifact."""

    def __init__(self, artifact):
        super().__init__("falsifier: no model and no extremal certificate")
        self.artifact = artifact
