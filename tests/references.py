"""Independent references that the tests compare the library against."""

import numpy as np

from framescale import simplex
from framescale.fmap import outer_svec_rows, svec


def identity_in_outer_hull(frame) -> bool:
    """Scalability via the raw matrix formulation: is some positive
    multiple of the identity a convex combination of the outer products?

    Solved as a feasibility LP over vectorized symmetric matrices, an
    independent route for cross-checking the transform-based decision.
    Zero columns are left out, as ``decide`` carries them with weight 0.
    """
    active = [k for k in range(frame.m) if np.any(frame.column(k) != 0.0)]
    rows = outer_svec_rows(frame, active)  # one row per column of the frame
    ident = svec(np.eye(frame.n))
    k = len(active)
    a = np.zeros((ident.size + 1, k + 1))
    a[:ident.size, :k] = rows.T
    a[:ident.size, k] = -ident
    a[ident.size, :k] = 1.0
    b = np.zeros(ident.size + 1)
    b[-1] = 1.0
    res = simplex.solve_lp(a, b, np.zeros(k + 1))
    return res.status == simplex.OPTIMAL
