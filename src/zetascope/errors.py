"""Exception and warning types shared across the package."""


class ZetascopeError(Exception):
    """Base class for all package-specific failures."""


class EmptyBlockError(ZetascopeError):
    """A prime block [U_j, U_j + V) contains no prime: U0 is too small."""

    def __init__(self, index, lo, hi):
        self.index = index
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"block {index} is empty: no prime in [{lo}, {hi}); enlarge u0"
        )


class ThinBlockWarning(UserWarning):
    """A prime block has fewer than three primes.

    The full-disk reachability guarantee for the block value set needs at
    least three primes; with one or two the attainable set may be an
    annulus and the phase solve can legitimately fail.
    """


class DegenerateNodesError(ZetascopeError):
    """Two interpolation nodes coincide within machine tolerance."""


class UnreachableError(ZetascopeError):
    """Requested value lies outside the disk spanned by the given radii."""


class InfeasiblePartitionError(ZetascopeError):
    """The target magnitude is below 2 r_max - R, which no phases reach:
    the largest radius outweighs the sum of the others by more than it."""


class ResidualExceededError(ZetascopeError):
    """Final verification residual is not below the requested tolerance."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class PoleAtOneError(ZetascopeError):
    """Evaluation requested at (or too close to) the pole s = 1."""


class ToleranceUnreachableError(ZetascopeError):
    """The evaluator cannot certify the requested tolerance."""


class PathThroughZeroError(ZetascopeError):
    """Branch tracking detected a zero on or next to the tracking path."""


class BoundaryZeroError(ZetascopeError):
    """A rectangle boundary passes too close to a zero (or the pole)."""


class InsufficientZerosError(ZetascopeError):
    """Supplied zero ordinates do not cover the required window."""


class QuadratureFailureError(ZetascopeError):
    """Estimated quadrature error is above the allowed bound."""


class NoConvergenceError(ZetascopeError):
    """Node doubling did not stabilise the quadrature result."""


class ZeroConstantTermError(ZetascopeError):
    """The zeta-value scan requires a nonzero constant target b_0."""


class NoHitsError(ZetascopeError):
    """A scan completed without producing any hit."""


class WindowConstraintError(ZetascopeError):
    """Scan window violates T^nu <= H <= T."""

    def __init__(self, t, h, nu, h_min):
        self.t = t
        self.h = h
        self.nu = nu
        self.h_min = h_min
        super().__init__(
            f"window [T, T+H] with T={t:g}, H={h:g} violates T^nu <= H <= T "
            f"for nu={nu:g}: minimum H is T^nu = {h_min:.6g}"
        )
