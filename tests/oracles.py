"""Scalar golden section: the reference that the package's minimizers once matched bit for bit.

The package dropped golden section for exact minimizers; the tests keep this
copy so that the earlier results stay reproducible as oracles.
"""

_INV_GOLDEN = (5 ** 0.5 - 1) / 2


def scalar_golden_section_min(f, lo, hi, tol):
    """Minimize a unimodal f on [lo, hi] until the bracket is at most tol wide, or a
    step leaves its width unchanged (a few ulps wide); the midpoint and f there."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        width = hi - lo
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        if not hi - lo < width:  # a few ulps wide: no step can shrink it
            break
    x = 0.5 * (lo + hi)
    return x, f(x)
