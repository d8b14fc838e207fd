"""Measures on the triangular chart, Monte-Carlo engines, and the divergence probe.

Coordinates on the group are (r1, r2, r) with Lebesgue reference measure
ds = dr1 dr2 d(Re r) d(Im r).  Right translation s -> s s0 has constant
Jacobian pi(s0) = r1(s0)^3 r2(s0), so the right Haar measure is
pi(s)^-1 ds.  The working almost-invariant measure is |s|^-4 ds, which in
polar coordinates s = r w (|w| = 1) reads r^-1 dr dw.

A measure is its density against ds, a function of the points, as an
integrand F is.  Monte-Carlo integrals are importance sampled: a sampler
maps a (4, n) array of uniforms to n points and gives its own density
relative to ds, and the estimate of  integral F d(measure)  over the
sampler's support is the mean of F * measure / density over the points.
Points are ``TriangularS`` batches, and every density, sampler and chart
function here takes one element or a batch.  All three engines
(``integrate_mc``, ``divergence_probe`` and ``representation.gram_matrix``) and C04's translated-box count run one
Monte-Carlo pass, ``mc_sum``, which rejects fewer than 1000 samples and
more than ``MAX_SAMPLES``.

The pass is randomized quasi-Monte Carlo: its n points form ``REPLICATES``
replicates of sizes that differ by at most one, and each replicate is the
prefix of its size of the one Halton table, ``points._halton``, split into
blocks of at most ``BLOCK`` points.  Block b of the pass takes one uniform
shift in [0, 1)^4 from its own generator,
``SeedSequence(entropy, spawn_key=(b,))``, with the entropy drawn once per
pass from the caller's rng, and its uniforms are its Halton points plus
that shift, mod 1 (Cranley & Patterson, "Randomization of number theoretic
methods for multiple integration", 1976).  So every point is uniform and
the replicates are independent: ``mc_estimate`` takes the mean over all n
points, and its standard error from the spread of the replicate means
(L'Ecuyer & Lemieux, "Recent advances in randomized quasi-Monte Carlo
methods", 2002), which follows Student's t with ``REPLICATES`` - 1 degrees
of freedom.  No sum of squares is formed, so a constant offset in the
integrand leaves the error as it is.

Each block is one task of ``run_blocks``, spread over one worker per usable
core (``WORKERS``, the calling thread being one of them; the pool is made
on first use).  A task computes densities, weights and integrands on its
points and reduces them to one partial row of first moments (a sum, a
``bincount`` or a small matmul), and the caller adds the rows of each
replicate in block order.  Apart from the Halton table, no array of more
than one block is made.  So every estimate and report depends only on the
seed and ``BLOCK``: it is bit-identical at any worker count.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import TriangularS, as_generator
from .matrices import U22Error
from .points import _halton

__all__ = [
    "NonFinite",
    "haar_measure",
    "nu_measure",
    "truncated_nu",
    "OMEGA_PATCH_MASS",
    "modulus_pi",
    "singular_values",
    "rn_derivative_right",
    "nu_derivative_band",
    "right_translation_jacobian_fd",
    "PolarShellSampler",
    "LogNormalSampler",
    "BoxSampler",
    "IntegralEstimate",
    "mc_estimate",
    "BLOCK",
    "REPLICATES",
    "MAX_SAMPLES",
    "half_angle_cis",
    "run_blocks",
    "mc_sum",
    "require_finite",
    "integrate_mc",
    "DivergenceVerdict",
    "divergence_probe",
]

# Area of the unit-sphere patch {|x| = 1, x1 > 0, x2 > 0} in R^4:
# one quarter of the full 3-sphere area 2 pi^2.
OMEGA_PATCH_MASS = math.pi**2 / 2.0

# Defaults for the radial cutoff of the polar importance sampler; integrands
# in this package carry exp(-|s|) decay, so 30 is far past their support.
DEFAULT_R_MIN = 1e-4
DEFAULT_R_MAX = 30.0

LOGNORMAL_TAU = 1.2  # LogNormalSampler: deviation of log r1 and log r2
LOGNORMAL_SIGMA_R = 1.2  # and of Re r and Im r
FD_STEP = 1e-6  # central-difference step of right_translation_jacobian_fd

# Points per block at most: each block is one task, shifted by its own
# stream and reduced to one row, and the rows are added in block order, so
# BLOCK is part of the estimator.
BLOCK = 1 << 14
# Independent replicates of every Monte-Carlo pass: its standard error has
# REPLICATES - 1 degrees of freedom, and P(|t| > 3) is 0.90 % at 16.
REPLICATES = 16
# Points per pass at most: the Halton table of a pass has one column per
# point of its largest replicate, so 2^28 points make a table of 2^24
# columns, 512 MiB.
MAX_SAMPLES = 1 << 28
# run_blocks threads, the caller included; no result depends on it
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Divergence-probe thresholds.
CONVERGED_REL_TAIL = 0.01  # last increment / total below this -> convergent
SLOPE_SIGNIFICANCE = 5.0  # slope must exceed this many standard errors
LINEAR_R2_MIN = 0.99  # linear fit quality required for log divergence
POWER_GROWTH_RATIO = 2.0  # growing increments beyond this -> power divergence


class NonFinite(U22Error):
    """A Monte-Carlo sample evaluated to NaN or infinity."""


def haar_measure(pts: TriangularS) -> np.ndarray:
    """The density of the right-invariant measure pi(s)^-1 ds, pi(s) = r1^3 r2."""
    return 1.0 / (pts.r1**3 * pts.r2)


def nu_measure(pts: TriangularS) -> np.ndarray:
    """The density of the almost-invariant measure |s|^-4 ds."""
    return pts.norm() ** -4.0


def truncated_nu(r_min: float) -> Callable[[TriangularS], np.ndarray]:
    """The density of the control measure: |s|^-4 ds cut off below radius r_min."""

    def density(pts: TriangularS) -> np.ndarray:
        norms = pts.norm()
        return np.where(norms >= r_min, norms**-4.0, 0.0)

    return density


# ---------------------------------------------------------------------------
# chart functions


def modulus_pi(s: TriangularS) -> float:
    """The translation Jacobian pi(s) = r1^3 r2; multiplicative."""
    return s.r1**3 * s.r2


def singular_values(s: TriangularS) -> tuple[float, float]:
    """(smallest, largest) singular value of the 2x2 matrix of s."""
    vals = np.linalg.svd(s.matrix(), compute_uv=False)
    return float(vals[-1]), float(vals[0])


def rn_derivative_right(measure, s: TriangularS, s0: TriangularS):
    """Density of the right-translated measure against the original at s
    (one element or a batch).

    Equals density(s s0) * pi(s0) / density(s); for the Haar measure it is
    identically 1, and for |s|^-4 ds it is pi(s0) (|s| / |s s0|)^4.  Where
    density(s) = 0, as for ``truncated_nu`` inside its cutoff, the ratio is
    undefined and NumPy gives inf or nan with a ``RuntimeWarning``.
    """
    return measure(s.multiply(s0)) * modulus_pi(s0) / measure(s)


def nu_derivative_band(s0: TriangularS) -> tuple[float, float]:
    """Analytic bounds [pi(s0)/smax^4, pi(s0)/smin^4] for the |s|^-4 measure."""
    smin, smax = singular_values(s0)
    p = modulus_pi(s0)
    return p / smax**4, p / smin**4


def right_translation_jacobian_fd(s: TriangularS, s0: TriangularS) -> float:
    """Jacobian determinant of s -> s s0 by central differences (oracle use):
    the eight points s +- h e_j of the chart (r1, r2, Re r, Im r) are one
    stack, translated by one ``multiply``."""
    base = np.array([s.r1, s.r2, s.r.real, s.r.imag])
    step = FD_STEP * np.eye(4)
    chart = np.concatenate([base + step, base - step])
    out = TriangularS(chart[:, 0], chart[:, 1], np.ascontiguousarray(chart[:, 2:]).view(complex)[:, 0]).multiply(s0)
    moved = np.stack([out.r1, out.r2, out.r.real, out.r.imag], axis=-1)
    return float(np.linalg.det(((moved[:4] - moved[4:]) / (2.0 * FD_STEP)).T))


def half_angle_cis(t) -> np.ndarray:
    """cos(theta) + i sin(theta) from t = tan(theta / 2), as
    ((1 - t^2) + 2 i t) / (1 + t^2), within 2 ulp of the pair: one tangent
    in place of a cosine and a sine, each of which costs NumPy several
    times as much on AVX2 hardware."""
    t = np.asarray(t, dtype=float)
    square = t * t
    denominator = 1.0 + square
    out = np.empty(t.shape, dtype=complex)
    np.divide(1.0 - square, denominator, out=out.real)
    np.divide(2.0 * t, denominator, out=out.imag)
    return out


# ---------------------------------------------------------------------------
# samplers: each maps uniforms to points; the two that importance sample
# also give their own density against Lebesgue ds


@dataclass(frozen=True)
class PolarShellSampler:
    """Log-uniform radius on [r_min, r_max], uniform direction on the patch.

    The radius is r_min (r_max/r_min)^u0, and the direction
    x = (x1 + i x2, x3 + i x4) comes in Hopf coordinates from three
    uniforms: |x1 + i x2|^2 = u1, arg(x1 + i x2) = (pi/2) u2 and
    arg(x3 + i x4) = 2 pi (u3 - 1/2), which is uniform on the unit sphere
    restricted to the patch x1, x2 > 0 (Marsaglia, "Choosing a point from
    the surface of a sphere", 1972).  Each cos/sin pair comes from a
    half-angle tangent.  The uniforms lie in the open interval (0, 1), so
    r1 > 0 and r2 > 0 hold exactly.  The Lebesgue density is
    |s|^-4 / (log(r_max/r_min) * patch_mass) inside the annulus.
    """

    r_min: float = DEFAULT_R_MIN
    r_max: float = DEFAULT_R_MAX

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise U22Error("need 0 < r_min < r_max")

    @property
    def log_ratio(self) -> float:
        return math.log(self.r_max / self.r_min)

    def sample(self, n: int, u: np.ndarray) -> TriangularS:
        """The n points of the uniforms u, a (4, n) array in (0, 1)."""
        radii = self.r_min * np.exp(self.log_ratio * u[0])
        first = radii * np.sqrt(u[1])  # |x1 + i x2|, scaled to the radius
        turn = half_angle_cis(np.tan(math.pi / 4 * u[2]))
        r = half_angle_cis(np.tan(math.pi * (u[3] - 0.5)))
        r *= radii * np.sqrt(1.0 - u[1])
        return TriangularS(first * turn.real, first * turn.imag, r)

    def density(self, pts: TriangularS) -> np.ndarray:
        norms = pts.norm()
        inside = (norms >= self.r_min) & (norms <= self.r_max)
        return np.where(inside, norms**-4.0 / (self.log_ratio * OMEGA_PATCH_MASS), 0.0)


class LogNormalSampler:
    """Independent lognormal diagonal coordinates and Gaussian off-diagonal,
    all centred; the spreads are ``LOGNORMAL_TAU`` and ``LOGNORMAL_SIGMA_R``.

    The four normals come from the uniform pairs (u0, u1) and (u2, u3) by
    the Box-Muller transform: a pair of normals is sqrt(-2 log u) times the
    cos/sin pair of the angle 2 pi (u' - 1/2), taken from a half-angle
    tangent (Box & Muller, "A note on the generation of random normal
    deviates", 1958).
    """

    def sample(self, n: int, u: np.ndarray) -> TriangularS:
        """The n points of the uniforms u, a (4, n) array in (0, 1)."""
        diagonal = np.sqrt(-2.0 * np.log(u[0])) * half_angle_cis(np.tan(math.pi * (u[1] - 0.5)))
        off_diagonal = np.sqrt(-2.0 * np.log(u[2])) * half_angle_cis(np.tan(math.pi * (u[3] - 0.5)))
        return TriangularS(
            np.exp(LOGNORMAL_TAU * diagonal.real),
            np.exp(LOGNORMAL_TAU * diagonal.imag),
            LOGNORMAL_SIGMA_R * off_diagonal,
        )

    def density(self, pts: TriangularS) -> np.ndarray:
        t1 = np.log(pts.r1) / LOGNORMAL_TAU
        t2 = np.log(pts.r2) / LOGNORMAL_TAU
        d1 = np.exp(-0.5 * t1**2) / (pts.r1 * LOGNORMAL_TAU * math.sqrt(2 * math.pi))
        d2 = np.exp(-0.5 * t2**2) / (pts.r2 * LOGNORMAL_TAU * math.sqrt(2 * math.pi))
        dre = np.exp(-0.5 * (pts.r.real / LOGNORMAL_SIGMA_R) ** 2) / (
            LOGNORMAL_SIGMA_R * math.sqrt(2 * math.pi)
        )
        dim = np.exp(-0.5 * (pts.r.imag / LOGNORMAL_SIGMA_R) ** 2) / (
            LOGNORMAL_SIGMA_R * math.sqrt(2 * math.pi)
        )
        return d1 * d2 * dre * dim


@dataclass(frozen=True)
class BoxSampler:
    """Uniform sampler on the axis-aligned box between the corners ``lo`` and
    ``hi``, each a 4-tuple in chart coordinates (r1, r2, Re r, Im r); the box
    must lie in the chart, r1, r2 > 0."""

    lo: tuple
    hi: tuple

    @property
    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in zip(self.lo, self.hi))

    def sample(self, n: int, u: np.ndarray) -> TriangularS:
        """The n points lo + (hi - lo) u, per coordinate, of the uniforms u,
        a (4, n) array in (0, 1)."""
        lo, hi = np.array(self.lo)[:, None], np.array(self.hi)[:, None]
        v = lo + (hi - lo) * u
        return TriangularS(v[0], v[1], v[2] + 1j * v[3])

    def contains(self, pts: TriangularS) -> np.ndarray:
        """Membership of each point in the closed box."""
        inside = True
        for x, lo, hi in zip((pts.r1, pts.r2, pts.r.real, pts.r.imag), self.lo, self.hi):
            inside = inside & (x >= lo) & (x <= hi)
        return inside


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class IntegralEstimate:
    """A Monte-Carlo estimate with its standard error."""

    value: complex
    std_error: float
    sample_count: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")

    @property
    def real(self) -> float:
        return float(np.real(self.value))


def _replicate_sizes(n: int) -> np.ndarray:
    """The sizes of the replicates of an n-point pass: n // REPLICATES, one
    more for the first n % REPLICATES."""
    return n // REPLICATES + (np.arange(REPLICATES) < n % REPLICATES)


def mc_estimate(sums, n: int):
    """(mean, standard error of the mean) of an n-point pass from the sums of
    its replicates, ``mc_sum``'s result: one row per replicate on the leading
    axis, elementwise on the others.

    The mean is over all n points, and the error is the spread of the
    replicate means over sqrt(REPLICATES).
    """
    sums = np.asarray(sums)
    means = sums / _replicate_sizes(n).reshape((-1,) + (1,) * (sums.ndim - 1))
    spread = np.sum(np.abs(means - means.mean(axis=0)) ** 2, axis=0) / (REPLICATES - 1)
    return sums.sum(axis=0) / n, np.sqrt(spread / REPLICATES)


@functools.cache
def _executor():
    """The pool of ``run_blocks``, made on first use with ``WORKERS - 1``
    threads: the caller is the other worker.  A cap, because each thread
    keeps a heap of its own."""
    from concurrent.futures import ThreadPoolExecutor  # not an import-time cost

    return ThreadPoolExecutor(max(WORKERS - 1, 1), thread_name_prefix="u22lab-blocks")


def run_blocks(count: int, task: Callable[[int], object]) -> list:
    """``[task(0), ..., task(count - 1)]``, one task per block.

    The tasks are split into one contiguous run per worker, up to
    ``WORKERS``; the caller takes the first run and pool threads the others,
    each under a copy of the caller's context, so ``np.errstate`` holds in
    every worker.  An exception raised in a worker reaches the caller as it
    was raised, after every worker has stopped.  A task writes only its own
    slice of any output, and returns what it allocated itself only when it
    is small: an array a pool thread allocated and the caller frees stays
    in that thread's heap and raises the process's resident size.
    """
    results = [None] * count

    def run(first: int, last: int):
        for i in range(first, last):
            results[i] = task(i)

    workers = max(1, min(WORKERS, count))
    bounds = [count * w // workers for w in range(workers + 1)]
    futures = [_executor().submit(contextvars.copy_context().run, run, bounds[w], bounds[w + 1])
               for w in range(1, workers)]
    try:
        run(bounds[0], bounds[1])
    finally:  # no worker may still write once the outputs are returned or dropped
        for future in futures:
            future.exception()
    for future in futures:
        future.result()
    return results


def _shifted(halton: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """frac(halton + shift), per row, on the open grid (k + 1/2) 2^-52, so
    that no sampler meets 0 or 1.  The carry is taken off before scaling:
    for a sum in [1, 2) both the difference and its scaled value are exact."""
    u = halton + shift[:, None]
    u -= u >= 1.0
    u *= 2.0**52
    np.floor(u, out=u)
    u += 0.5
    u *= 2.0**-52
    return u


@functools.cache
def _warm_heap() -> None:
    """Free one untouched 8 MiB array, once per process.  glibc frees it as
    an mmapped chunk and raises its dynamic mmap threshold above that size,
    so the passes' multi-MB temporaries come from the heap and are reused,
    not mapped and faulted in anew on every pass.  Untouched, the array
    costs one page fault, for the allocator's header."""
    np.empty(1 << 20)


def mc_sum(sampler, n: int, rng, partial: Callable[[TriangularS], object]) -> np.ndarray:
    """The Monte-Carlo pass: ``n`` points from ``sampler``, in ``REPLICATES``
    replicates of shifted Halton points, and per replicate the sum of
    ``partial(points)`` over its blocks, added in block order: one row per
    replicate, for ``mc_estimate``.

    The entropy of the pass is drawn once from ``rng``, and block b, counted
    from the start of the pass, draws its shift inside its task from its own
    generator, ``SeedSequence(entropy, spawn_key=(b,))``: independent
    streams keyed by block, as in Salmon et al., "Parallel random numbers:
    as easy as 1, 2, 3" (SC 2011).  The task hands the points it drew
    straight to ``partial``, and one ``run_blocks`` call runs every block of
    the pass.  The first pass of the process warms the heap
    (``_warm_heap``).  The one sample-count guard of every Monte-Carlo
    pass: fewer than 1000 points, or more than ``MAX_SAMPLES``, is a
    ``U22Error``, raised before anything is drawn.
    """
    if n < 1000:
        raise U22Error(f"need at least 1000 samples, got {n}")
    if n > MAX_SAMPLES:
        raise U22Error(f"need at most {MAX_SAMPLES} samples (2^28), got {n}")
    _warm_heap()
    entropy = as_generator(rng).integers(1 << 32, size=4).tolist()
    sizes = _replicate_sizes(n).tolist()
    # the blocks of the pass in order: (replicate, Halton indices lo .. hi - 1)
    blocks = [(j, lo, min(lo + BLOCK, size)) for j, size in enumerate(sizes) for lo in range(0, size, BLOCK)]
    halton = _halton(max(BLOCK, 1 << (sizes[0] - 1).bit_length()))

    def task(b: int):
        _, lo, hi = blocks[b]
        shift = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(b,))).random(4)
        return partial(sampler.sample(hi - lo, _shifted(halton[:, lo:hi], shift)))

    sums = [0] * REPLICATES
    for (j, _, _), row in zip(blocks, run_blocks(len(blocks), task)):
        sums[j] = sums[j] + row
    return np.array(sums)


def require_finite(contrib: np.ndarray) -> np.ndarray:
    """Return ``contrib`` unchanged, or raise NonFinite on a NaN or infinity."""
    if not np.all(np.isfinite(contrib.view(float))):
        raise NonFinite("integrand produced a non-finite sample")
    return contrib


def integrate_mc(
    integrand,
    measure,
    sampler,
    n: int,
    rng,
    mode: str = "square",
) -> IntegralEstimate:
    """Importance-sampled integral over the sampler's support of
    ``integrand``, a function of the points, against ``measure``, a density.

    ``mode="square"`` estimates the squared-modulus integral of the
    integrand; ``mode="plain"`` integrates the (possibly complex) values.
    Each block of points gives its sum.
    """
    if mode not in ("square", "plain"):
        raise ValueError(f"unknown mode {mode!r}")

    def partial(view: TriangularS) -> np.ndarray:
        values = integrand(view)
        if mode == "square":
            values = np.abs(values) ** 2
        return require_finite(values * (measure(view) / sampler.density(view))).sum()

    mean, std_error = mc_estimate(mc_sum(sampler, n, rng, partial), n)
    mean = complex(mean)
    return IntegralEstimate(mean.real if mean.imag == 0.0 else mean, float(std_error), n)


# ---------------------------------------------------------------------------
# divergence probe


@dataclass(frozen=True)
class DivergenceVerdict:
    """Classification of the small-radius behavior of a squared-norm integral."""

    classification: str  # convergent | log-divergent | power-divergent | inconclusive
    slope: float
    slope_stderr: float
    r_squared: float
    fit_rms: float
    eps_ladder: tuple
    estimates: tuple  # (value, stderr) per ladder rung
    reason: str | None = None

    @property
    def is_divergent(self) -> bool:
        return self.classification in ("log-divergent", "power-divergent")


def _linear_fit(x: np.ndarray, y: np.ndarray):
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    rms = math.sqrt(ss_res / max(n - 2, 1))
    se_slope = rms / math.sqrt(sxx)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, se_slope, r2, rms


def divergence_probe(integrand, measures, eps_sequence, r_max: float, samples: int, rng) -> tuple:
    """Classify I(eps) = integral of |F|^2 d(measure) over radius > eps.

    ``integrand`` gives the values of F at a batch of points, optionally
    with a leading axis of one entry per integrand; every integrand is
    probed under every one of the sequence ``measures`` (densities) on one shared
    sample stream.  The result holds one row of verdicts (one per measure)
    per integrand, a single row when the values have no leading axis.

    One nested sample on [min(eps), r_max] serves every ladder rung, so the
    increments between rungs are exact nonnegative shell sums (a point's
    shell is the count of cutoffs at or below its radius, and the shells
    are summed per block by ``bincount``), and each rung's
    standard error comes from its replicate sums.  The rules:

    * the relative tail increment below ``CONVERGED_REL_TAIL`` -> convergent;
    * else a linear fit of I against log(1/eps) with slope above
      ``SLOPE_SIGNIFICANCE`` standard errors, fit R^2 above
      ``LINEAR_R2_MIN``, and non-growing increments -> log-divergent;
    * else increments growing by more than ``POWER_GROWTH_RATIO``
      -> power-divergent;
    * otherwise inconclusive (reason reported, never raised).
    """
    eps = np.array(sorted(set(float(e) for e in eps_sequence), reverse=True))
    if len(eps) < 5:
        raise U22Error("need a decreasing ladder of at least 5 cutoffs")
    if eps[0] >= r_max or eps[-1] <= 0:
        raise U22Error("ladder must lie strictly inside (0, r_max)")
    sampler = PolarShellSampler(float(eps[-1]), float(r_max))
    ascending = eps[::-1]
    shells = len(eps) + 1  # shell k holds radii in [ascending[k-1], ascending[k])

    def partial(view: TriangularS) -> np.ndarray:
        density = sampler.density(view)
        weights = [measure(view) / density for measure in measures]
        shell = np.count_nonzero(ascending[:, None] <= view.norm(), axis=0)
        values = np.reshape(integrand(view), (-1, view.size))
        out = np.empty((len(values), len(measures), shells))
        for i, row in enumerate(values):
            squared = np.abs(row) ** 2
            for j, w in enumerate(weights):
                out[i, j] = np.bincount(shell, require_finite(squared * w), shells)
        return out

    sums = mc_sum(sampler, samples, rng, partial)
    # rung k (cutoff eps[k]) sums shells shells-1-k .. shells-1
    rungs = np.cumsum(sums[..., ::-1], axis=-1)[..., :-1]
    values, stderrs = mc_estimate(rungs, samples)
    return tuple(tuple(_classify(eps, v, se) for v, se in zip(*row)) for row in zip(values, stderrs))


def _classify(eps: np.ndarray, values: np.ndarray, stderrs: np.ndarray) -> DivergenceVerdict:
    """Verdict from the rung means of |F|^2 and their standard errors."""
    estimates = tuple((float(v), float(se)) for v, se in zip(values, stderrs))

    x = np.log(1.0 / eps)
    slope, se_slope, r2, rms = _linear_fit(x, values)
    increments = np.diff(values)
    tiny = 1e-300
    rel_tail = increments[-1] / max(abs(values[-1]), tiny)
    growth = increments[-1] / max(increments[0], tiny)

    if rel_tail < CONVERGED_REL_TAIL:
        cls, reason = "convergent", None
    elif slope > SLOPE_SIGNIFICANCE * se_slope and r2 > LINEAR_R2_MIN and growth < POWER_GROWTH_RATIO:
        cls, reason = "log-divergent", None
    elif growth > POWER_GROWTH_RATIO:
        cls, reason = "power-divergent", None
    else:
        cls = "inconclusive"
        reason = (
            f"tail {rel_tail:.3g}, slope {slope:.3g} (se {se_slope:.3g}), "
            f"R2 {r2:.4f}, growth {growth:.3g}"
        )
    return DivergenceVerdict(
        cls, slope, se_slope, r2, rms, tuple(float(e) for e in eps), estimates, reason
    )
