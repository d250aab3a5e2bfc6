"""
Carving scaling weights down to a small support
===============================================

Any verified scaling weights can be pushed onto at most dim span of the
outer products phi_k phi_k^T many columns, which is never more than
N(N+1)/2.  The reduction moves the given weights along the kernel of
the weight polytope {u >= 0 : F u = 0, sum u = 1} on their support,
zeroing one weight per step, until it reaches a vertex, whose columns are
few enough by Caratheodory's theorem.  No LP runs, and the new support is
a subset of the old one.
"""

import numpy as np

import framescale as fs

# Six unit vectors: three rotated copies of the standard basis of R^2.
cols = []
for ang in (0.0, np.pi / 6, np.pi / 3):
    rot = np.array([[np.cos(ang), -np.sin(ang)],
                    [np.sin(ang), np.cos(ang)]])
    cols.extend(rot.T)
frame = fs.build_frame(2, cols)

# Uniform weights are tight by construction (each copy contributes I).
uniform = fs.make_weights(frame, np.full(6, 1 / 6))
print("uniform support:", uniform.support, "residual:", uniform.residual)

reduced = fs.caratheodory_reduce(frame, uniform)
print("reduced support:", reduced.support)
print("reduced weights:", reduced.u)
print("residual:", reduced.residual, "<= tol * alpha:",
      reduced.residual <= 1e-8 * reduced.alpha)

bound = fs.outer_dims(frame).linear_dim
print("dim span of outer products:", bound, ">= support:",
      len(reduced.support))

# The scalability index search starts from this reduced support.
print("\nindex:", fs.scalability_index(frame).index)
