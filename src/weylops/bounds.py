"""Default bounds of the hermite sweep: ``run_suite`` checks them without
importing the oscillator realization.  Like the rest of the package, this
module needs nothing beyond the standard library."""

DEFAULT_DIM = 64
DEFAULT_TOL = 1e-9
DEFAULT_MAX_N = 8  # the hermite sweep's default highest order


def min_dim(max_n: int) -> int:
    """The least dim at which every hermite check up to order max_n runs.

    The symbolic bridge is the tightest: {q,H}_n has margin 2n + 1 and needs
    three exact columns beyond it.  At n = 0 this is also build_operators' 4.
    """
    return (2 * max_n + 1) + 3
