"""Coarse-to-fine trace refinement with a lognormal generator.

Section V-B of the paper: "We sampled the CPU utilization every 5 min for a
day while synthesizing fine-grained samples per 5 sec with a lognormal
random number generator [Benson et al.], whose mean is the same as the
collected value for the corresponding 5-minute sample rate."

:func:`synthesize_fine_grained` implements exactly that: each coarse sample
``m`` is expanded into ``coarse_period / fine_period`` lognormal draws with
mean ``m``; the shape parameter ``sigma`` controls burstiness (Benson et
al. report lognormal-distributed data-center loads, so this is the
paper-faithful choice of family).

RNG stream layouts
------------------
The functions here are seeded-deterministic, which makes the *order* in
which random numbers are consumed part of their contract: two
implementations that draw the same distribution in a different order
produce different (equally valid) populations from the same seed.  That
order is therefore versioned explicitly via ``stream_layout``:

``"v1"`` (legacy)
    One ``Generator.lognormal(size=factor)`` call per coarse window, VM
    by VM, skipping zero-mean windows.  Byte-identical to every release
    before the layout was introduced — experiment fingerprints, the
    sweep runner's builder memoization, and any archived populations
    built from a seed reproduce exactly under this layout.

``"v2"`` (vectorized)
    One ``Generator.standard_normal`` block per call covering every
    (VM, window, fine-sample) cell — including zero-mean windows, whose
    samples scale to exactly zero — then a closed-form lognormal
    transform applied in place.
    Population refinement becomes a handful of array kernels instead of
    ``num_vms * num_windows`` Python-level RNG calls (~10x at Table-II
    scale, more at N=1000).  Same distribution, different stream, so a
    given seed yields a *different* (still deterministic) population
    than v1.

Both layouts are seeded-deterministic; pick per population, not per VM:
under v2 the draws of all VMs come from one block, so refining a subset
of VMs yields different samples than slicing a refined full population.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.traces.trace import TraceSet, UtilizationTrace

__all__ = [
    "STREAM_LAYOUTS",
    "synthesize_fine_grained",
    "synthesize_population",
    "refine_trace",
    "refine_trace_set",
]

#: Recognised RNG stream layouts (see module docstring).
STREAM_LAYOUTS = ("v1", "v2")


def _validate_layout(stream_layout: str) -> None:
    if stream_layout not in STREAM_LAYOUTS:
        raise ValueError(
            f"unknown stream_layout {stream_layout!r}; expected one of {STREAM_LAYOUTS}"
        )


def _expansion_factor(coarse_period_s: float, fine_period_s: float) -> int:
    ratio = coarse_period_s / fine_period_s
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(
            f"coarse period {coarse_period_s}s must be an integer multiple "
            f"of fine period {fine_period_s}s"
        )
    return factor


def synthesize_fine_grained(
    coarse_means: Sequence[float] | np.ndarray,
    coarse_period_s: float,
    fine_period_s: float,
    sigma: float = 0.35,
    rng: np.random.Generator | None = None,
    match_means_exactly: bool = False,
    stream_layout: str = "v1",
) -> np.ndarray:
    """Expand coarse window means into fine-grained lognormal samples.

    Parameters
    ----------
    coarse_means:
        One mean utilization per coarse window (e.g. per 5 minutes).
    coarse_period_s, fine_period_s:
        Window lengths; the ratio must be a positive integer (e.g.
        300 s / 5 s = 60 fine samples per coarse window).
    sigma:
        Log-space standard deviation of the lognormal draws.  ``0``
        degenerates to a step-wise constant signal.
    rng:
        Numpy random generator; a fresh default generator is used when
        omitted (pass one for reproducibility — every experiment does).
    match_means_exactly:
        When True, each window is rescaled post-hoc so its empirical mean
        equals the coarse value exactly instead of only in expectation.
        Useful for tests; the default keeps the natural sampling noise.
    stream_layout:
        RNG stream version, ``"v1"`` (legacy per-window draws) or
        ``"v2"`` (one batched draw); see the module docstring.

    Returns
    -------
    numpy.ndarray
        ``len(coarse_means) * ratio`` fine-grained samples.
    """
    _validate_layout(stream_layout)
    means = np.asarray(coarse_means, dtype=float)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("coarse_means must be a non-empty 1-D sequence")
    if stream_layout == "v2":
        return synthesize_population(
            means[None, :],
            coarse_period_s,
            fine_period_s,
            sigma=sigma,
            rng=rng,
            match_means_exactly=match_means_exactly,
        )[0]

    if np.any(means < 0) or not np.all(np.isfinite(means)):
        raise ValueError("coarse means must be finite and non-negative")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    factor = _expansion_factor(coarse_period_s, fine_period_s)
    if rng is None:
        rng = np.random.default_rng()

    if sigma == 0.0:
        return np.repeat(means, factor)

    # A lognormal with log-space parameters (mu, sigma) has mean
    # exp(mu + sigma^2 / 2); solving for mu pins the distribution mean to
    # the coarse sample, as the paper requires.
    mu_shift = sigma * sigma / 2.0
    fine = np.empty(means.size * factor, dtype=float)
    for i, m in enumerate(means):
        block = slice(i * factor, (i + 1) * factor)
        if m <= 0.0:
            fine[block] = 0.0
            continue
        mu = math.log(m) - mu_shift
        draws = rng.lognormal(mean=mu, sigma=sigma, size=factor)
        if match_means_exactly:
            empirical = draws.mean()
            if empirical > 0:
                draws = draws * (m / empirical)
        fine[block] = draws
    return fine


def synthesize_population(
    coarse_matrix: np.ndarray,
    coarse_period_s: float,
    fine_period_s: float,
    sigma: float = 0.35,
    rng: np.random.Generator | None = None,
    match_means_exactly: bool = False,
) -> np.ndarray:
    """Refine a whole ``(num_vms, num_windows)`` mean matrix at once.

    The v2 stream-layout kernel: one ``standard_normal`` block covering
    every (VM, window, fine-sample) cell, then the closed-form lognormal
    transform ``m * exp(-sigma^2/2) * exp(sigma * z)`` applied in place —
    the same distribution :func:`synthesize_fine_grained` draws window by
    window, produced by array ops with no per-VM Python loop.  Folding
    the mean into a multiplicative factor (computed on the small coarse
    matrix) makes zero-mean windows exactly zero with no masking, while
    every cell still consumes its draw, so the stream position of every
    sample is a pure function of the matrix geometry.

    Returns a ``(num_vms, num_windows * factor)`` fine-grained matrix.
    """
    means = np.asarray(coarse_matrix, dtype=float)
    if means.ndim != 2 or means.size == 0:
        raise ValueError("coarse_matrix must be a non-empty 2-D array")
    if np.any(means < 0) or not np.all(np.isfinite(means)):
        raise ValueError("coarse means must be finite and non-negative")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    factor = _expansion_factor(coarse_period_s, fine_period_s)
    if rng is None:
        rng = np.random.default_rng()

    if sigma == 0.0:
        return np.repeat(means, factor, axis=1)

    num_vms, num_windows = means.shape
    fine = rng.standard_normal(size=(num_vms, num_windows * factor))
    np.multiply(fine, sigma, out=fine)
    np.exp(fine, out=fine)
    # E[exp(sigma z)] = exp(sigma^2/2), so scaling by m * exp(-sigma^2/2)
    # pins each window's distribution mean to its coarse sample.  The
    # scale is broadcast over a per-window view, so the fine matrix is
    # the only full-size buffer.
    blocks = fine.reshape(num_vms, num_windows, factor)
    scale = means * math.exp(-sigma * sigma / 2.0)
    np.multiply(blocks, scale[:, :, None], out=blocks)
    if match_means_exactly:
        empirical = blocks.mean(axis=2)
        rescale = np.divide(
            means, empirical, out=np.ones_like(means), where=empirical > 0
        )
        np.multiply(blocks, rescale[:, :, None], out=blocks)
    return fine


def refine_trace(
    trace: UtilizationTrace,
    fine_period_s: float,
    sigma: float = 0.35,
    rng: np.random.Generator | None = None,
    cap: float | None = None,
    stream_layout: str = "v1",
) -> UtilizationTrace:
    """Refine one coarse trace into a fine-grained :class:`UtilizationTrace`.

    ``cap`` optionally clips the synthesized samples (a VM cannot demand
    more cores than it owns); clipping slightly lowers the realised mean,
    which mirrors what a saturating VM looks like in real monitoring data.
    """
    fine = synthesize_fine_grained(
        trace.samples,
        trace.period_s,
        fine_period_s,
        sigma=sigma,
        rng=rng,
        stream_layout=stream_layout,
    )
    if cap is not None:
        fine = np.minimum(fine, cap)
    return UtilizationTrace(fine, fine_period_s, trace.name)


def refine_trace_set(
    traces: TraceSet,
    fine_period_s: float,
    sigma: float = 0.35,
    rng: np.random.Generator | None = None,
    cap: float | None = None,
    stream_layout: str = "v1",
) -> TraceSet:
    """Refine every member of a :class:`TraceSet` (shared ``rng`` stream).

    Under ``stream_layout="v1"`` this is the legacy VM-by-VM loop
    (byte-identical populations for a given seed); ``"v2"`` refines the
    whole population through :func:`synthesize_population` in one batched
    draw — same distribution, different (versioned) RNG stream, and about
    an order of magnitude faster at Table-II scale.
    """
    _validate_layout(stream_layout)
    if rng is None:
        rng = np.random.default_rng()
    if stream_layout == "v2":
        fine = synthesize_population(
            traces.matrix, traces.period_s, fine_period_s, sigma=sigma, rng=rng
        )
        if cap is not None:
            np.minimum(fine, cap, out=fine)
        fine.flags.writeable = False
        return TraceSet.from_matrix(fine, traces.names, fine_period_s)
    return TraceSet(
        refine_trace(trace, fine_period_s, sigma=sigma, rng=rng, cap=cap)
        for trace in traces
    )
