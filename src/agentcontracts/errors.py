"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`ContractError`,
so callers embedding the monitor can catch one type at the boundary.
"""

from __future__ import annotations

from typing import Optional

from .records import record


@record
class SourceSpan:
    """Position of a diagnostic inside a DSL document (1-based)."""

    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ContractError(Exception):
    """Base class for all library errors."""


class DslSyntaxError(ContractError):
    """The document is not well-formed YAML (or not decodable UTF-8)."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(message)
        self.span = span


class SchemaError(ContractError):
    """A document field is missing, unknown, or of the wrong type/range."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None, field: Optional[str] = None):
        super().__init__(message)
        self.span = span
        self.field = field


class SemanticError(ContractError):
    """Structurally valid document with broken cross-references
    (dangling recovery reference, cyclic fallback chain, ...)."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(message)
        self.span = span


class ExprSyntaxError(ContractError):
    """The expression source does not parse."""


class ForbiddenConstruct(ContractError):
    """The expression uses a construct outside the whitelisted grammar
    (calls beyond len/abs/min/max, loops, definitions, imports, ...)."""


class FieldResolutionError(ContractError):
    """A referenced field path does not resolve to a value."""

    def __init__(self, path: str):
        super().__init__(f"field path {path!r} does not resolve")
        self.path = path


class TypeMismatch(ContractError):
    """An operator was applied to operands of the wrong kind."""


class DimensionMismatch(ContractError):
    """Two distributions do not share a support size."""


class NotNormalized(ContractError):
    """A probability vector does not sum to 1 within tolerance."""


class EmptyInput(ContractError):
    """An operation requiring at least one sample received none."""


class ZeroBaseline(ContractError):
    """Stress resilience is undefined for a zero-compliance baseline."""


class ZeroSeverity(ContractError):
    """Violation events must carry severity in (0, 1]."""


class SessionTerminated(ContractError):
    """A step was submitted to a closed session: one closed by
    terminate_session, by a recovery hook or a listener that failed, or by
    finalize (which also refuses a second finalize)."""


class TraceTooShort(ContractError):
    """A session was finalized with a trace of fewer steps than the
    monitor ran."""


class BadHookReturn(ContractError):
    """A recovery hook returned neither None nor a (state, action) pair."""


class RecoveryHookError(ContractError):
    """A recovery hook raised; the hook's exception is the cause."""


class ListenerError(ContractError):
    """A monitor event listener raised; the listener's exception is the
    cause."""


class EmptyEnsemble(ContractError):
    """A probabilistic verdict was requested over zero usable sessions."""


class InvalidStep(ContractError):
    """Simulation step size or horizon is not positive / consistent."""


class AlreadyDecided(ContractError):
    """A sequential test state was updated after reaching a decision."""


class BadBoundaries(ContractError):
    """Stage boundary indices are out of range or not increasing."""


class InsufficientSamples(ContractError):
    """A semantic composition check was invoked with no witness states."""


class FormatError(ContractError):
    """A scenario or data file does not match its documented format."""


class DanglingConstraintRef(ContractError):
    """A scenario references a constraint absent from its contract."""
