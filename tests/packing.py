"""Hand-built laws on the sampling separation's space: (b, x) outcomes
packed into `GammaLaw` keys, node j's output bit at key bit j."""
import numpy as np

from qlocal.distributions import GammaLaw


def gamma_key(d, b, x) -> int:
    assert len(b) == 3 and len(x) == 3 * d
    return sum(bit << j for j, bit in enumerate(tuple(x) + tuple(b)))


def gamma_law(d, entries) -> GammaLaw:
    """The law of {(b, x): probability}, keys sorted."""
    packed = sorted((gamma_key(d, b, x), p) for (b, x), p in entries.items())
    return GammaLaw(d, np.array([k for k, _ in packed], dtype=np.int64),
                    [p for _, p in packed])
