"""Exception hierarchy for the ISA layer."""


class IsaError(Exception):
    """Base class for all ISA-level errors."""


class ProgramError(IsaError):
    """Raised when a :class:`~repro.isa.program.Program` is malformed."""
