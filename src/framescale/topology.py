"""Probes of how scalable frames sit inside the space of all frames.

Scalable frames with few vectors are brittle: when the outer products of a
scalable frame are linearly independent and there are fewer than N(N+1)/2
of them, an arbitrarily small push of one positively-weighted column in a
generic direction lands outside the scalable set, and this module
constructs that push as a verified witness.  Non-scalable frames are the
opposite: a positive separator margin survives a computable perturbation
radius, which the closedness probe demonstrates by sampling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, WitnessVerificationFailed
from .feasibility import (DEFAULT_STRICT_THRESHOLD, EXACT_CAP, Separator,
                          Verdict, decide, separator_search)
from .fmap import f_image, outer_svec_rows, svec
from .frames import Frame, build_frame, numerical_rank

logger = logging.getLogger(__name__)

DIRECTION_ATTEMPTS = 100
DELTA_HALVINGS = 80


def random_frame(n: int, m: int, seed=None, rng=None) -> Frame:
    """Frame with i.i.d. standard normal entries; deterministic per seed.

    Resampled until the matrix has full rank (which essentially never
    triggers for continuous entries).
    """
    if not 1 <= n <= m:
        raise ValueError(f"need m >= n >= 1, got n={n}, m={m}")
    if rng is None:
        rng = np.random.default_rng(seed)
    while True:
        mat = rng.standard_normal((n, m))
        if numerical_rank(mat) == n:
            return build_frame(n, mat.T)


@dataclass(frozen=True)
class DimensionProbe:
    fraction: float
    trials: int
    target: int            # min(m, n(n+1)/2)
    failures: tuple        # trial indices that missed the target


def generic_dimension_probe(n: int, m: int, trials: int,
                            seed=None) -> DimensionProbe:
    """Fraction of random frames whose outer products span the maximal
    possible dimension min(m, n(n+1)/2).  Failures are logged with the
    seed and trial index."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    target = min(m, n * (n + 1) // 2)
    failures = []
    for trial in range(trials):
        frame = random_frame(n, m, rng=rng)
        rank = numerical_rank(outer_svec_rows(frame))
        if rank != target:
            logger.warning("dimension probe miss: seed=%r trial=%d rank=%d "
                           "target=%d", seed, trial, rank, target)
            failures.append(trial)
    fraction = (trials - len(failures)) / trials
    return DimensionProbe(fraction=fraction, trials=trials, target=target,
                          failures=tuple(failures))


@dataclass(frozen=True)
class PerturbationWitness:
    base: Frame
    direction: np.ndarray   # unit vector whose outer product leaves the span
    delta: float
    column: int             # the perturbed (positively weighted) column
    perturbed: Frame
    s_matrix: np.ndarray    # exact change of the perturbed outer product
    verdict: Verdict        # non-scalable verdict on the perturbed frame

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.perturbed.matrix - self.base.matrix))


def nonscalable_witness(frame: Frame, epsilon: float, seed=None, *,
                        mode: str = "float",
                        strict_threshold: float = DEFAULT_STRICT_THRESHOLD
                        ) -> PerturbationWitness:
    """A non-scalable frame within ``epsilon`` of a scalable one.

    Requires the constructive regime: the base frame is scalable, has
    fewer than N(N+1)/2 columns, its outer products are linearly
    independent, and some verified weight is positive (that column gets
    perturbed).  The direction is sampled until its outer product leaves
    the span of the frame's outer products; the step is then halved until
    the induced symmetric update also leaves that span, which makes any
    rescaling of the perturbed frame contradict the base weights.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, m = frame.n, frame.m
    base_verdict = decide(frame, mode=mode)
    if not base_verdict.scalable:
        raise HypothesisViolated("base frame is not scalable")
    if not m < n * (n + 1) // 2:
        raise HypothesisViolated(
            f"need M < N(N+1)/2 = {n * (n + 1) // 2}, got M = {m}")
    rows = outer_svec_rows(frame)
    if numerical_rank(rows) != m:
        raise HypothesisViolated("outer products are linearly dependent")
    weights = base_verdict.certificate
    carried = np.flatnonzero(weights.u > strict_threshold)
    if carried.size == 0:
        raise HypothesisViolated("no column carries positive weight")
    column = int(carried[0])

    rng = np.random.default_rng(seed)
    direction = None
    for _ in range(DIRECTION_ATTEMPTS):
        cand = rng.standard_normal(n)
        cand /= np.linalg.norm(cand)
        stacked = np.vstack([rows, svec(np.outer(cand, cand))])
        if numerical_rank(stacked) == m + 1:
            direction = cand
            break
    if direction is None:
        raise WitnessVerificationFailed(
            "no direction outside the outer-product span after "
            f"{DIRECTION_ATTEMPTS} samples")

    phi = frame.column(column)
    delta = epsilon / 2.0
    for _ in range(DELTA_HALVINGS):
        s_matrix = delta * (np.outer(phi, direction)
                            + np.outer(direction, phi)) \
            + delta ** 2 * np.outer(direction, direction)
        if numerical_rank(np.vstack([rows, svec(s_matrix)])) == m + 1:
            break
        delta /= 2.0
    else:
        raise WitnessVerificationFailed(
            "the symmetric update never left the span")

    matrix = frame.matrix.copy()
    matrix[:, column] += delta * direction
    perturbed = build_frame(n, matrix.T)
    verdict = decide(perturbed, mode=mode)
    if verdict.scalable and mode == "float" and m <= EXACT_CAP:
        verdict = decide(perturbed, mode="exact")
    if verdict.scalable:
        raise WitnessVerificationFailed(
            "perturbed frame still decides scalable; this is a bug")
    return PerturbationWitness(base=frame, direction=direction, delta=delta,
                               column=column, perturbed=perturbed,
                               s_matrix=s_matrix, verdict=verdict)


def separation_radius(frame: Frame, separator: Separator) -> float:
    """Radius around a non-scalable frame certified to stay non-scalable.

    From the mean value bound |F(y) - F(x)| <= sqrt(5(N-1)) max(|x|,|y|)
    |y - x|, every frame within the returned Frobenius distance keeps all
    margins of the given separator positive (and stays full rank).
    """
    margin = separator.margin
    if margin <= 0:
        raise ValueError("separator margin must be positive")
    n = frame.n
    growth = np.sqrt(5.0 * (n - 1)) * float(np.linalg.norm(separator.h))
    reach = float(np.max(frame.norms()))
    # Largest r with r (reach + r) growth < margin.
    r = (-reach + np.sqrt(reach ** 2 + 4.0 * margin / growth)) / 2.0
    smin = np.linalg.svd(frame.matrix, compute_uv=False)[-1]
    return float(min(r, smin / 2.0))


@dataclass(frozen=True)
class ClosednessProbe:
    radius: float
    samples: int
    fraction_nonscalable: float
    margin: float


def closedness_probe(frame: Frame, seed=None, samples: int = 100,
                     mode: str = "float") -> ClosednessProbe:
    """Sample perturbations of a non-scalable frame at half the certified
    radius and report the fraction still deciding non-scalable (which the
    radius guarantees to be all of them).  The radius grows with the
    margin, so it comes from the max-margin separator of
    ``separator_search`` rather than from the verdict's certificate."""
    if decide(frame, mode=mode).scalable:
        raise ValueError("frame is scalable; no separation radius exists")
    if frame.degenerate:
        raise ValueError("closedness probe needs a nondegenerate frame")
    fi = f_image(frame)
    _, h = separator_search(fi)
    separator = Separator(h=h, margin=float(np.min(h @ fi.matrix)),
                          indices=tuple(range(frame.m)))
    radius = separation_radius(frame, separator)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(samples):
        bump = rng.standard_normal(frame.matrix.shape)
        bump *= (radius / 2.0) / np.linalg.norm(bump)
        nearby = build_frame(frame.n, (frame.matrix + bump).T)
        if not decide(nearby, mode=mode).scalable:
            hits += 1
    return ClosednessProbe(radius=radius, samples=samples,
                           fraction_nonscalable=hits / samples,
                           margin=separator.margin)
