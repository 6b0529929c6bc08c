"""Default bounds of the hermite sweep: ``run_suite`` checks them without
importing the oscillator realization.  Like the rest of the package, this
module needs nothing beyond the standard library."""

DEFAULT_DIM = 64
DEFAULT_MAX_N = 8  # the hermite sweep's default highest order


def min_dim(max_n: int) -> int:
    """The least dim at which every hermite check up to order max_n runs.

    It is what a dim x dim truncation would need for the symbolic bridge:
    {q,H}_n has margin 2n + 1, and three exact columns beyond it.  The
    verdicts compare every column at once and read no dim; each record
    still checks and carries it, so its params stay as they are.  At n = 0
    this is also build_operators' 4.
    """
    return (2 * max_n + 1) + 3
