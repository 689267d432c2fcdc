"""Exception types shared across the library."""


class L0LimitsError(Exception):
    """Base class for all library errors.

    ``atom`` names the atom an error was located at, when it was raised
    for a value at one atom of a morphism (see :meth:`at_atom`).
    """

    atom = None

    def at_atom(self, atom: str) -> "L0LimitsError":
        """This error, located at ``atom`` and its message prefixed with it."""
        self.atom = atom
        self.args = (f"at atom {atom!r}: {self.args[0]}",)
        return self


class SpaceMismatchError(L0LimitsError):
    """Operands live over different base spaces."""


class ShapeMismatchError(L0LimitsError):
    """Dimension or shape incompatibility between operands."""


class UnsupportedNormError(L0LimitsError):
    """A norm construction falls outside the supported closed family."""


class NonFiniteError(L0LimitsError, ValueError):
    """An input value is NaN or infinite."""


class KernelLimitError(L0LimitsError):
    """No exact kernel evaluates an operator norm.

    ``atom`` names the atom the norm was evaluated at, when the error was
    raised for a morphism rather than for a bare matrix.
    """


class DimensionCapError(KernelLimitError):
    """Vertex enumeration requested beyond the supported dimension cap."""


class BracketTooWideError(KernelLimitError):
    """An operator-norm bracket could not be certified to tolerance."""

    def __init__(self, lower: float, upper: float, message: str = ""):
        # Plain floats, so that numpy scalars print as numbers in the message.
        self.lower = float(lower)
        self.upper = float(upper)
        detail = message or "operator norm bracket too wide"
        super().__init__(f"{detail}: [{self.lower!r}, {self.upper!r}]")


class ValidationError(L0LimitsError):
    """A system, morphism or factorization violates its laws."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class DocumentError(L0LimitsError):
    """A harness document is malformed; carries a path into the document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
