"""Tight-frame rescalability: decisions, certificates, and probes.

The package answers one question in several refinements: given a finite
frame for R^N, can its vectors be rescaled by nonnegative numbers so the
result is a tight frame?  Positive answers come with verified weights,
negative ones with a verified separating direction; subset queries,
support reduction and perturbation witnesses build on the same core.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, DimensionMismatch, DimensionTooSmall,
                     FrameFileError, FrameScaleError, HypothesisViolated,
                     Infeasible, LPNumericalFailure, NotAFrame, NotOrthogonal,
                     NotStrictlyScalable, NumericalStall, TooLarge,
                     WitnessVerificationFailed, ZeroColumn)
from .frames import (Frame, FrameBounds, ScalingWeights, Tightness,
                     apply_orthogonal, apply_scaling, build_frame,
                     frame_bounds, is_tight, make_weights, numerical_rank,
                     weights_residual)
from .fmap import (FImage, OuterProductSet, QuadForm, f_frame_rank, f_image,
                   f_vector, outer_dims, pair_index, q_matrix, svec,
                   target_dim)
from .feasibility import (ConeFlags, Separator, SignWitness, Verdict,
                          cone_pointed, decide, exact_oracle,
                          separator_from_sign, separator_search,
                          sign_quick_reject, weight_recovery)
from .subsets import (ScalabilityIndex, SubsetVerdict, caratheodory_reduce,
                      is_m_scalable, orthogonal_subbasis, scalability_index)
from .topology import (ClosednessProbe, DimensionProbe, PerturbationWitness,
                       closedness_probe, generic_dimension_probe,
                       nonscalable_witness, random_frame, separation_radius)

__all__ = [name for name in dir() if not name.startswith("_")]
