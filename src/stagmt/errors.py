"""Exception hierarchy shared across the package.

Every error carries a stable ``code`` string used by the CLI's structured
output mode.
"""


class StagError(Exception):
    code = "error"


class InternalError(StagError):
    """A consistency check inside the package failed; this is a bug."""

    code = "internal-error"


# --- grammar files ---------------------------------------------------------

class GrammarError(StagError):
    code = "grammar-error"


class GrammarSyntaxError(GrammarError):
    """The grammar file is not well-formed structured text."""

    code = "syntax-error"


class GrammarSchemaError(GrammarError):
    """Well-formed text, but a field, kind, or address is not acceptable."""

    code = "schema-error"

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class GrammarValidationError(GrammarError):
    """One or more pairs violate the grammar model invariants."""

    code = "validation-error"

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid grammar: {lines}")


class DuplicatePairNameError(GrammarError):
    code = "duplicate-name"


class NoStartPairError(GrammarError):
    code = "no-start-pair"


# --- tokenization ----------------------------------------------------------

class TokenizationError(StagError):
    code = "tokenize-error"


class EmptyInputError(TokenizationError):
    code = "empty-input"


class UnknownParticleError(TokenizationError):
    code = "unknown-particle"


# --- parsing ---------------------------------------------------------------

class ParseError(StagError):
    code = "parse-error"


class NoParseError(ParseError):
    code = "no-parse"


class LexicalGapError(ParseError):
    code = "lexical-gap"

    def __init__(self, stem):
        super().__init__(f"no pair is anchored on {stem!r}")
        self.stem = stem


class LimitExceededError(ParseError):
    """The input is beyond a fixed limit: past the parser's caps on chart
    items, root instance trees or one instance tree's groupings, or too
    many words to try every order of."""

    code = "limit-exceeded"


# --- tree composition ------------------------------------------------------

class CompositionError(StagError):
    code = "composition-error"


class NotASlotError(CompositionError):
    code = "not-a-slot"


class CategoryMismatchError(CompositionError):
    code = "category-mismatch"


class NAViolationError(CompositionError):
    code = "na-violation"


class DoubleAdjunctionError(CompositionError):
    code = "double-adjunction"


class IllegalAttachmentError(CompositionError):
    code = "illegal-attachment"


class ObligatoryAdjunctionError(CompositionError):
    code = "oa-unsatisfied"


class UnfilledSlotError(CompositionError):
    code = "unfilled-slot"

    def __init__(self, address, category=None):
        at = f" at {address}" if address is not None else ""
        cat = f" ({category})" if category else ""
        super().__init__(f"substitution slot{cat} left unfilled{at}")
        self.address = address
        self.category = category


# --- transfer --------------------------------------------------------------

class TransferError(StagError):
    code = "transfer-error"


class UntranslatableAttachmentError(TransferError):
    code = "untranslatable-attachment"


class DanglingUseError(TransferError):
    code = "dangling-use"


# --- oracle ----------------------------------------------------------------

class OracleBoundError(StagError):
    code = "bound-exceeded"
