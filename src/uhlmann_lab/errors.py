"""Exception types, and the size and file-field checks, shared across the package."""


class UhlmannLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(UhlmannLabError, ValueError):
    """Operands whose register dimensions do not line up."""


class DimensionCapError(UhlmannLabError, ValueError):
    """Requested object exceeds the desk-scale dimension caps.

    Carries the offending size so reports can name it.
    """

    def __init__(self, size: int, cap: int, what: str = "object"):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} dimension {size} exceeds cap {cap}")


class InvalidInstance(UhlmannLabError, ValueError):
    """Malformed Uhlmann instance (the zero-isometry convention)."""


class NotPositive(UhlmannLabError, ValueError):
    """Matrix fails positive-semidefiniteness beyond tolerance."""


# Hard caps for dense simulation.
DENSITY_DIM_CAP = 4096        # total dimension of any density operator
PURE_AMPLITUDE_CAP = 2 ** 20  # length of any state vector


def check_density_cap(dim: int, what: str = "density operator") -> None:
    if dim > DENSITY_DIM_CAP:
        raise DimensionCapError(dim, DENSITY_DIM_CAP, what)


def check_matrix_cap(entries: int, what: str = "matrix") -> None:
    """A dense matrix may hold as many entries as a density operator at the cap."""
    if entries > DENSITY_DIM_CAP ** 2:
        raise DimensionCapError(entries, DENSITY_DIM_CAP ** 2, what)


def check_pure_cap(dim: int, what: str = "state vector") -> None:
    if dim > PURE_AMPLITUDE_CAP:
        raise DimensionCapError(dim, PURE_AMPLITUDE_CAP, what)


def check_object(value, what: str) -> dict:
    """``value`` if it is a JSON object (a dict): a file's nested document."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object")
    return value


def check_int(value, what: str) -> int:
    """``value`` if it is an int, bool excluded: a file's integer field."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value
