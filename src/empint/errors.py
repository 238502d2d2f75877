"""Exception taxonomy shared across the package.

Every error raised on a violated precondition has its own class so callers
(and the command line driver) can react to the exact failure mode instead
of string-matching messages.
"""


class EmpintError(Exception):
    """Base class for all package-specific errors."""


# -- input ------------------------------------------------------------------

class MalformedInput(EmpintError):
    """A value read from a document or a command line flag is not of the
    expected kind: a scalar string that is not a rational, a kernel value
    that is not finite, a kernel arity that is not a non-negative integer,
    or a config that is unreadable, lacks a field, has an unknown key or
    holds an out-of-schema value.  The CLI exits 2 on it."""


# -- measure spaces ---------------------------------------------------------

class EmptySpace(EmpintError):
    """The atom list is empty."""


class EmptySample(EmpintError):
    """A statistic scaled by a power of the sample size was asked of an
    empty sample."""


class WeightsNotNormalized(EmpintError):
    """Atom weights do not sum to one (exactly, or within float tolerance)."""


class NonfiniteWeight(EmpintError):
    """An atom weight is NaN or infinite."""


class NegativeWeight(EmpintError):
    """An atom weight is negative."""


class EnumerationTooLarge(EmpintError):
    """An exhaustive enumeration would exceed the configured cap."""


# -- kernels ----------------------------------------------------------------

class SpaceMismatch(EmpintError):
    """Two kernels (or a kernel and a sample) live on different spaces."""


class NoSuchAxis(EmpintError):
    """An axis label is not present in the kernel."""


class ArityMismatch(EmpintError):
    """A kernel has the wrong number of arguments for the operation."""


class NotCanonical(EmpintError):
    """A kernel fails the vanishing-marginals requirement."""


# -- diagrams ---------------------------------------------------------------

class InvalidClass(EmpintError):
    """Contraction class parameters violate 0 <= p <= l <= min(k1, k2)."""


class InvalidDiagram(EmpintError):
    """Edge set or coloring violates the diagram constraints."""


# -- dominance certificates -------------------------------------------------

class BlockMismatch(EmpintError):
    """Certificate blocks do not partition the kernel's axis labels."""


class SigmaMismatch(EmpintError):
    """Two certificates that must share a variance budget do not."""


class RankTooSmall(EmpintError):
    """The requested contraction would push the certificate rank below one."""


# -- tail and moment bounds -------------------------------------------------

class NonpositiveX(EmpintError):
    """Tail bounds are only defined for positive levels x."""


class BadM(EmpintError):
    """Moment order must be a power of two for the recursion-based bounds."""


class RegimeViolation(EmpintError):
    """A side condition such as k*M <= n fails."""


# -- Monte Carlo ------------------------------------------------------------

class NegativeSeed(EmpintError):
    """A seed or replicate key is negative."""


class InsufficientTailData(EmpintError):
    """Too few grid points with nonzero exceedance to fit constants."""


# -- verify -----------------------------------------------------------------

class WorkerFailed(EmpintError):
    """A verify worker could not be forked, or ended without handing back
    readable results: it died, exited early, or wrote bytes that do not
    unpickle.  A suite that raises is not one: its result records the raise
    as a failed check."""
