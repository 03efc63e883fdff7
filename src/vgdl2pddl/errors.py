"""Exception hierarchy for the whole toolchain.

Every error raised on user input derives from Vgdl2PddlError so the CLI can
map them to exit code 1; anything else is a bug.
"""


class Vgdl2PddlError(Exception):
    """Base class for all domain errors."""


# -- GDF / LDF parsing -------------------------------------------------------

class GdfError(Vgdl2PddlError):
    """Base for game-description parse errors. Carries an optional line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingSectionError(GdfError):
    pass


class IndentError(GdfError):
    pass


class UnknownSpriteTypeError(GdfError):
    pass


class UnknownInteractionTypeError(GdfError):
    pass


class DanglingReferenceError(GdfError):
    pass


class RaggedGridError(GdfError):
    pass


class UnmappedCharacterError(GdfError):
    pass


# -- knowledge base ----------------------------------------------------------

class UnknownTemplateError(Vgdl2PddlError):
    pass


class UnboundPlaceholderError(Vgdl2PddlError):
    pass


class TemplateFormatError(Vgdl2PddlError):
    pass


# -- compiler ----------------------------------------------------------------

class DuplicateActionNameError(Vgdl2PddlError):
    pass


class UnsupportedGoalError(Vgdl2PddlError):
    pass


# -- PDDL core ---------------------------------------------------------------

class PddlSyntaxError(Vgdl2PddlError):
    """Syntax error with 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class UnsupportedConstructError(PddlSyntaxError):
    pass


class TypeMismatchError(Vgdl2PddlError):
    pass


class NotApplicableError(Vgdl2PddlError):
    pass


# -- problem generation ------------------------------------------------------

class NoAvatarError(Vgdl2PddlError):
    pass


class MultipleAvatarsError(NoAvatarError):
    """Avatar-uniqueness violation; same family as NoAvatar."""


class CellConflictError(Vgdl2PddlError):
    pass


# -- engine / agent ----------------------------------------------------------

class IllegalActionError(Vgdl2PddlError):
    pass


# -- external planner adapter -------------------------------------------------

class SpawnError(Vgdl2PddlError):
    pass


class PlanParseError(Vgdl2PddlError):
    pass


class ValidationFailedError(Vgdl2PddlError):
    pass


class PlannerConfigError(Vgdl2PddlError):
    """A planners file or command template that names no usable planner."""
