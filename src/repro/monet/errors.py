"""Exception hierarchy for the Monet substitute.

Every error raised by the physical layer derives from :class:`MonetError`
so that callers (the Moa executor, the Mirror facade) can catch physical
failures without masking programming errors.
"""


class MonetError(Exception):
    """Base class for all errors raised by the Monet substitute."""


class AtomError(MonetError):
    """Invalid atom type name, value coercion failure, or NIL misuse."""


class BATError(MonetError):
    """Structural BAT violation: mismatched column lengths, bad access."""


class KernelError(MonetError):
    """Operator-level failure: type mismatch between operands, bad args."""


class BBPError(MonetError):
    """BAT buffer pool failure: unknown name, duplicate registration,
    persistence I/O problems."""


class MutationError(MonetError):
    """Base of the unified mutation-API error vocabulary.

    Every failure on the write path -- ``insert``/``update``/``delete``
    through :class:`~repro.core.mirror.Transaction`, the pool-level
    ``append``/``delete``/``update``, and the wire mutation ops -- raises
    a :class:`MutationError` subclass, replacing the historical mix of
    ``ValueError``/``BBPError``/``KernelError``/``MILRuntimeError``.
    """


class UnknownMutationTarget(MutationError):
    """Mutation names a BAT or collection the catalog does not know."""


class InvalidMutationBatch(MutationError):
    """Malformed payload: bad pairs/tails shape, wrong arity, values
    that do not coerce to the target atom type."""


class InvalidPositions(MutationError):
    """Delete/update positions are out of range, unsorted after
    normalization, or misaligned with the supplied values."""


class TransactionError(MutationError):
    """Transaction protocol violation: commit/abort on a closed
    transaction, nested ``begin`` on a session, mutating through an
    aborted handle."""


class MILError(MonetError):
    """MIL front-end failure: lexing, parsing, or runtime evaluation."""


class MILSyntaxError(MILError):
    """Raised by the MIL lexer/parser with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class MILRuntimeError(MILError):
    """Raised by the MIL interpreter while evaluating a program."""


class MILCancelled(MILRuntimeError):
    """Raised by a cancellation/deadline checkpoint to stop a running
    plan between statements (see :meth:`MILInterpreter.run_program`).
    The service layer maps this onto its ``timeout``/``cancelled`` wire
    errors; ``reason`` distinguishes the two."""

    def __init__(self, message: str, reason: str = "cancelled"):
        super().__init__(message)
        self.reason = reason
