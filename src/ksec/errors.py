"""Exception types shared across the package."""


class KsecError(Exception):
    """Base class for all errors raised by this package."""


class NotAForest(KsecError):
    pass


class NotATree(KsecError):
    pass


class NotAPartition(KsecError):
    pass


class MOutOfRange(KsecError):
    pass


class KOutOfRange(KsecError):
    pass


class KNotPowerOfTwo(KsecError):
    pass


class SizesDontSum(KsecError):
    pass


class RedundantDecomposition(KsecError):
    pass


class NotATreeDecomposition(KsecError):
    """The decomposition tree itself is malformed (not a tree, bad ids)."""


class TooLarge(KsecError):
    """Instance exceeds a configured enumeration cap."""


class WidthTooLarge(KsecError):
    """Decomposition width exceeds the configured DP state limit."""


class ResourceLimit(KsecError):
    """A memory guard tripped (see KSEC_MAX_MEM_MB)."""


class FormatError(KsecError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class InvariantViolation(KsecError):
    """An internal postcondition failed.  Never expected on valid inputs."""
