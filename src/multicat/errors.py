"""Exception types shared across the package."""


class MulticatError(Exception):
    """Base class for all multicat errors."""


class NotStrictlyIncreasing(MulticatError):
    def __init__(self, entries, position):
        self.entries = tuple(entries)
        self.position = position
        super().__init__(
            f"entries {self.entries} not strictly increasing at position {position}"
        )


class NonPositiveEntry(MulticatError):
    def __init__(self, entries, position):
        self.entries = tuple(entries)
        self.position = position
        super().__init__(
            f"entry at position {position} of {self.entries} is not >= 1"
        )


class EntryAbsent(MulticatError):
    def __init__(self, color, entry):
        self.color = color
        self.entry = entry
        super().__init__(f"direction {entry} is not an entry of color {color}")


class EntryPresent(MulticatError):
    def __init__(self, color, entry):
        self.color = color
        self.entry = entry
        super().__init__(f"direction {entry} is already an entry of color {color}")


class KOutOfRange(MulticatError):
    def __init__(self, color, k):
        self.color = color
        self.k = k
        super().__init__(f"k={k} out of range for color {color}")


class UnknownCell(MulticatError):
    def __init__(self, color, cell):
        self.color = color
        self.cell = cell
        super().__init__(f"no cell {cell!r} at color {color}")


class NotComposable(MulticatError):
    def __init__(self, color, direction, a, b, face_a, face_b):
        self.color = color
        self.direction = direction
        self.a = a
        self.b = b
        self.face_a = face_a
        self.face_b = face_b
        super().__init__(
            f"{a!r} and {b!r} not composable in direction {direction} at color "
            f"{color}: s({a!r})={face_a!r} but t({b!r})={face_b!r}"
        )


class InvalidBase(MulticatError):
    """The input structure fails its own validation."""


class BoundMismatch(MulticatError):
    """Two structures were built at incompatible bounds."""


class BoundsTooSmall(MulticatError):
    """A required cell or table entry cannot be represented at these bounds."""


class BudgetExceeded(MulticatError):
    """A phase of a construction asked for more work than its budget had left."""

    def __init__(self, phase, used, requested, limit):
        self.phase = phase
        self.used = used
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"{phase} exceeded the work budget of {limit}: {used} used, {requested} more requested"
        )


class TermNotMaterialized(MulticatError):
    """A term queried for equality was never built into the presentation."""


class ParseError(MulticatError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
