"""Exception hierarchy shared across the package."""


class RQLabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(RQLabError):
    """Invalid user-supplied configuration (CLI exit code 1)."""


class SolverError(RQLabError):
    """Numerical failure in spectrum scanning or eigenfunction extraction."""


class ScanExhaustedError(SolverError):
    """The scan ran out of grid before ``count`` eigenvalues; keeps those it found."""

    def __init__(self, spec, eigenvalues: tuple[float, ...], count: int, ceiling: float):
        try:
            Lambda = ceiling ** (2 * spec.p)
        except OverflowError:
            Lambda = float("inf")
        super().__init__(f"found only {len(eigenvalues)} of {count} eigenvalues for "
                         f"{spec.label()} below lambda={ceiling} (Lambda={Lambda:.6g})")
        self.eigenvalues, self.ceiling = eigenvalues, ceiling


class DegenerateSystemError(SolverError):
    """Boundary-condition matrix has an identically vanishing row."""


class NonSimpleEigenvalueError(SolverError):
    """Two near-zero singular values of the reduced matrix: eigenvalue looks multiple."""


class RitzConditioningError(SolverError):
    """A mass pivot of the exact Ritz reduction is not positive: the assembly is broken."""


class IdentityViolationError(RQLabError):
    """An identity check failed (CLI exit code 3)."""
