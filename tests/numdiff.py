"""Central differences, the reference the tests hold analytic partials to."""

import numpy as np


def central_difference(fun, z):
    """Central differences of ``fun`` at ``z`` of shape (..., n), stacked along
    a new last axis: d fun(z)[..., *out] / d z[..., b] at [..., *out, b].

    The step of coordinate b is h = 1e-6 * max(1, |z_b|), per batch element;
    a zero-width ``z`` gives an empty last axis.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] == 0:
        return np.zeros(np.shape(fun(z)) + (0,))
    cols = []
    for b in range(z.shape[-1]):
        h = 1e-6 * np.maximum(1.0, np.abs(z[..., b]))
        zp = z.copy()
        zp[..., b] = z[..., b] + h
        zm = z.copy()
        zm[..., b] = z[..., b] - h
        diff = np.asarray(fun(zp) - fun(zm))
        cols.append(diff / (2.0 * h).reshape(h.shape + (1,) * (diff.ndim - h.ndim)))
    return np.stack(cols, axis=-1)
