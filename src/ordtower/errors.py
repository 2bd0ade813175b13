"""Exception types shared across the package.

Every error carries a short ``kind`` slug used by the CLI when printing
``error: <kind>: <detail>`` lines.
"""


class OrdTowerError(Exception):
    kind = "error"


class OrdinalSyntaxError(OrdTowerError):
    """Malformed ordinal literal; ``position`` is the 0-based offset of the fault."""

    kind = "syntax"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotALimitError(OrdTowerError):
    kind = "not-a-limit"


class DomainError(OrdTowerError):
    # argument outside an operation's stated precondition
    kind = "domain"


class CapExceededError(OrdTowerError):
    kind = "cap-exceeded"


class GuardExceededError(OrdTowerError):
    # a tractability guard (set size, ground size) was hit
    kind = "guard"


class IterationCeilingError(OrdTowerError):
    kind = "ceiling"
