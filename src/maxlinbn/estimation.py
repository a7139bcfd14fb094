"""Estimation of edge weights and structure from observed samples.

The workhorse statistic is the ratio ``Y_ij = X_i / X_j``.  On the support
cone of the model every ratio is bounded below by the coefficient ``b_ij``,
and the bound is attained with positive probability exactly when ``j`` is
an ancestor of ``i`` - the ratio distribution has an atom at ``b_ij``.
Minima of observed ratios therefore recover coefficients exactly (up to
floating-point rounding of the ratios themselves) once the atom has been
hit, which happens at an exponential rate in the sample size.

Every minimum ratio comes from one kernel, ``_min_ratios``: it walks the
transposed sample one source row ``u`` at a time and takes the minimum of
the ``(k, n)`` block of ratios ``x_v / x_u`` over the ``k`` targets ``v`` a
pair pattern asks for, so memory stays about 2 * n * d floats.
``ratio_statistics`` asks for every ordered pair, ``gmle_edge_weights``
for the edges and ``ancestor_ratio_coefficients`` for the ancestor pairs.

``generalized_likelihood_ratio`` scores two candidate weights for the
two-vertex chain against an observation via the density of one candidate
distribution with respect to the sum of both, a function of the observed
ratio ``x2 / x1`` alone.  ``glr_two_node_sample`` scores a sample by the
product of these pointwise scores; the minimum-ratio estimate dominates
every alternative under it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    NonPositiveInput,
    NonPositiveSample,
)
from .graph import Dag
from .model import minimal_dag
from .tropical import closure, values_close

#: Relative tolerance for deciding that two observed ratios hit the same atom.
DEFAULT_ATOM_RTOL = 1e-9


def _validate_sample(x, d: int | None = None, min_n: int = 1) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"sample must be an (n, d) matrix, got shape {a.shape}")
    if a.shape[0] < min_n:
        raise EmptySample(f"need at least {min_n} observations, got {a.shape[0]}")
    if d is not None and a.shape[1] != d:
        raise DimensionMismatch(f"sample has {a.shape[1]} columns, graph has d={d}")
    if not np.all(a > 0) or not np.all(np.isfinite(a)):
        raise NonPositiveSample("sample entries must be strictly positive and finite")
    return a


@dataclass(frozen=True)
class RatioStatistics:
    """Per ordered pair ``(i, j)``: the minimal observed ratio ``x_i / x_j``
    and how many observations attain it within the atom tolerance.

    ``min_ratio[i-1, j-1]`` and ``multiplicity[i-1, j-1]``; diagonals are 1
    and the observation count.
    """

    min_ratio: np.ndarray
    multiplicity: np.ndarray


def _min_ratios(
    a: np.ndarray, pairs: np.ndarray, atom_rtol: float | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Minimal observed ratio ``x_v / x_u`` for every pair with
    ``pairs[v-1, u-1]`` set, over the rows of the validated sample ``a``.

    Returns the ``(d, d)`` minima (1 on the diagonal, 0 at pairs not asked
    for) and, when ``atom_rtol`` is given, how many observations attain
    each minimum: those with ``y * (1 - atom_rtol) <= min`` (``n`` on the
    diagonal, 0 at pairs not asked for); otherwise ``None``.  Both are read
    from one ``(k, n)`` block of ratios per source column, whose rows are
    rows of the transposed sample ``at``, a C-contiguous ``(d, n)`` copy
    (a view when ``a`` is Fortran-ordered): gathering and reducing whole
    rows is faster than gathering strided columns.  Memory is about
    ``2 * n * d`` floats, the copy and the widest block.

    Every block is a view of one buffer as wide as the widest block, and
    every result lands in a preallocated slice of a per-pair vector; the
    only allocations per source are numpy's transient reduction buffers
    (the iteration buffer, about 64 KB, and small iterator blocks of each
    ``np.min`` and ``np.sum``), freed when the reduction returns.  numpy
    keeps freed buffers under 1 KiB for reuse, and per-source arrays of
    ``k`` entries would pin one such buffer per distinct ``k`` wherever the
    heap had room, splitting the free space that larger arrays reuse.
    """
    n, d = a.shape
    at = np.ascontiguousarray(a.T)
    # the pairs, grouped by source; contiguous, so np.take copies no index
    sources, targets = np.divmod(np.flatnonzero(pairs.T), d)
    bounds = np.searchsorted(sources, np.arange(d + 1))
    width = int(np.diff(bounds).max(initial=0))
    pair_min = np.empty(sources.size)
    pair_mult = None if atom_rtol is None else np.empty(sources.size, dtype=np.intp)
    ratios = np.empty(n * width)
    attained = None if atom_rtol is None else np.empty(n * width, dtype=bool)
    for u in range(d):
        lo, hi = bounds[u], bounds[u + 1]
        if lo == hi:
            continue
        block = ratios[: n * (hi - lo)].reshape(hi - lo, n)
        # "clip" writes straight into the block; the indices are in range
        np.take(at, targets[lo:hi], axis=0, out=block, mode="clip")
        block /= at[u]
        m = np.min(block, axis=1, out=pair_min[lo:hi])
        if pair_mult is not None:
            block *= 1.0 - atom_rtol
            hits = np.less_equal(
                block, m[:, None], out=attained[: block.size].reshape(block.shape)
            )
            np.sum(hits, axis=1, out=pair_mult[lo:hi])
    mins = np.eye(d)
    mins[targets, sources] = pair_min
    if pair_mult is None:
        return mins, None
    mult = np.diag(np.full(d, n))
    mult[targets, sources] = pair_mult
    return mins, mult


def ratio_statistics(x, atom_rtol: float = DEFAULT_ATOM_RTOL) -> RatioStatistics:
    """Minimum and its multiplicity for every pairwise ratio column.

    An observation counts toward the multiplicity when its ratio ``y``
    satisfies ``y * (1 - atom_rtol) <= min``.  ``atom_rtol`` must lie in
    ``[0, 1)``.  Memory is O(n * d): the ratios are formed one source
    column at a time, never as an ``(n, d, d)`` tensor.
    """
    if not 0.0 <= atom_rtol < 1.0:
        raise ValueError(f"atom_rtol must be finite and in [0, 1), got {atom_rtol}")
    a = _validate_sample(x)
    d = a.shape[1]
    mins, mult = _min_ratios(a, ~np.eye(d, dtype=bool), atom_rtol)
    return RatioStatistics(min_ratio=mins, multiplicity=mult)


def gmle_edge_weights(g: Dag, x) -> np.ndarray:
    """Generalized maximum-likelihood estimate of the edge-weight matrix.

    For each edge ``j -> i`` the estimate is the minimal observed ratio
    ``x_i / x_j``; the diagonal is 1, non-edges are 0.
    """
    a = _validate_sample(x, g.d)
    edges = np.array(list(g.edges), dtype=int).reshape(-1, 2) - 1
    pairs = np.zeros((g.d, g.d), dtype=bool)
    pairs[edges[:, 1], edges[:, 0]] = True
    return _min_ratios(a, pairs)[0]


def gmle_coefficients(g: Dag, x) -> np.ndarray:
    """Coefficient-matrix estimate: max-times closure of the edge GMLE."""
    return closure(gmle_edge_weights(g, x))


def ancestor_ratio_coefficients(g: Dag, x) -> np.ndarray:
    """Alternative coefficient estimate from direct ancestor ratios.

    ``b~_ij`` is the minimal observed ratio ``x_i / x_j`` for every ancestor
    ``j`` of ``i`` (not only parents).  Never below the closure of the edge
    GMLE, since a direct ratio minimum is attained by one observation while
    the closure may combine minima from different observations.
    """
    a = _validate_sample(x, g.d)
    return _min_ratios(a, g.reach & ~np.eye(g.d, dtype=bool))[0]


def _statistics(x, atom_rtol: float) -> RatioStatistics:
    """Ratio statistics of ``x``, a sample or already its statistics,
    checked to come from at least two observations."""
    if not isinstance(x, RatioStatistics):
        return ratio_statistics(_validate_sample(x, min_n=2), atom_rtol)
    mult = x.multiplicity
    if mult.size and mult[0, 0] < 2:
        raise EmptySample(f"need at least 2 observations, got {int(mult[0, 0])}")
    return x


def identify_coefficients(x, atom_rtol: float = DEFAULT_ATOM_RTOL) -> np.ndarray:
    """Coefficient matrix from a sample alone, without knowing the DAG.

    A pair ``(i, j)`` receives the minimal observed ratio ``x_i / x_j``
    when that minimum recurs (is attained by at least two observations
    within ``atom_rtol``), which indicates an atom and hence that ``j`` is
    an ancestor of ``i``; otherwise 0.  Diagonal is 1.

    ``x`` is an ``(n, d)`` sample or the :class:`RatioStatistics` of one;
    statistics are used as given, with the tolerance they were computed
    with.
    """
    stats = _statistics(x, atom_rtol)
    out = np.where(stats.multiplicity >= 2, stats.min_ratio, 0.0)
    np.fill_diagonal(out, 1.0)
    return out


def identify_structure(
    x, atom_rtol: float = DEFAULT_ATOM_RTOL
) -> tuple[Dag, dict[tuple[int, int], float]]:
    """Minimal DAG and edge weights identified from a sample alone.

    Runs :func:`identify_coefficients` (so ``x`` may also be the sample's
    :class:`RatioStatistics`) and reduces the result to its edge-minimal
    DAG.  At small sample sizes the detected sign pattern may not be the
    reachability relation of any DAG; that raises
    :class:`InvalidCoefficientMatrix` rather than being repaired silently.
    """
    return minimal_dag(identify_coefficients(x, atom_rtol))


@dataclass(frozen=True)
class GlrVerdict:
    """The two generalized likelihood ratios of a candidate pair."""

    rho_forward: float
    rho_backward: float


def _glr_ratios(y, c: float, c_star: float) -> tuple[np.ndarray, np.ndarray]:
    """``rho(c, c_star)`` and ``rho(c_star, c)`` for candidates
    ``c >= c_star`` at each observed ratio ``y = x2 / x1``, by the cases
    that :func:`generalized_likelihood_ratio` lists."""
    on = values_close(y, c)
    above = (y > c) & ~on
    if values_close(c, c_star):
        rho = np.where(above | on, 0.5, 0.0)
        return rho, rho
    between = ~(on | above) & ((y > c_star) | values_close(y, c_star))
    return np.select([on, above], [1.0, 0.5]), np.select([above, between], [0.5, 1.0])


def generalized_likelihood_ratio(
    c: float, c_star: float, x: tuple[float, float]
) -> GlrVerdict:
    """Both generalized likelihood ratios for one observation
    ``x = (x1, x2)`` of the two-vertex chain ``1 -> 2``, for candidate
    weights ``c >= c_star > 0``.

    Each is the density of one candidate with respect to the sum of both,
    piecewise constant in the observed ratio ``y = x2 / x1``:

    * ``rho(c, c_star)``: 1/2 above ``c``, 1 on it, 0 below;
    * ``rho(c_star, c)``: 1/2 above ``c``, 0 on it, 1 on ``[c_star, c)``,
      0 below;
    * equal candidates: both ratios are ``1/2`` iff ``y >= c``.

    Equalities are decided by :func:`~maxlinbn.tropical.values_close`.
    """
    x1, x2 = float(x[0]), float(x[1])
    if not all(0 < t < np.inf for t in (c, c_star, x1, x2)):
        raise NonPositiveInput(
            "weights and observation coordinates must be positive and finite,"
            f" got c={c}, c_star={c_star}, x=({x1}, {x2})"
        )
    if c < c_star and not values_close(c, c_star):
        raise ValueError(f"candidates must be ordered c >= c_star, got {c} < {c_star}")
    fwd, bwd = _glr_ratios(np.float64(x2 / x1), c, c_star)
    return GlrVerdict(float(fwd), float(bwd))


def glr_two_node_sample(c: float, x) -> tuple[float, float, float]:
    """Sample-level generalized likelihood ratios for the two-vertex chain.

    Compares the minimum-ratio estimate ``c_hat = min x2/x1`` against an
    arbitrary candidate ``c`` over a whole sample.  The sample ratio of two
    candidates is the product over the observations of the pointwise ratio
    of :func:`generalized_likelihood_ratio`.  Since no observed ratio lies
    below ``c_hat``, with ``n_plus(t)`` the number of observations whose
    ratio strictly exceeds ``t``:

    * ``rho(c_hat, c)`` is 0 if ``c > c_hat`` and ``c`` equals some observed
      ratio, ``2**-n_plus(c)`` if ``c > c_hat`` otherwise, ``2**-n`` at
      ``c == c_hat``, and ``2**-n_plus(c_hat)`` if ``c < c_hat``;
    * ``rho(c, c_hat)`` is ``2**-n`` at ``c == c_hat`` and 0 elsewhere.

    Equalities, the one behind "strictly" included, are decided by
    :func:`~maxlinbn.tropical.values_close`.  Returns ``(rho_hat_vs_c,
    rho_c_vs_hat, c_hat)``; the first never falls below the second, which
    is what makes ``c_hat`` the estimate of choice.
    """
    if not 0 < c < np.inf:
        raise NonPositiveInput(f"candidate weight must be positive and finite, got {c}")
    a = _validate_sample(x)
    if a.shape[1] != 2:
        raise DimensionMismatch(f"need a two-column sample, got {a.shape[1]} columns")
    y = a[:, 1] / a[:, 0]
    c_hat = float(y.min())
    if c >= c_hat:
        c_vs_hat, hat_vs_c = _glr_ratios(y, c, c_hat)
    else:
        hat_vs_c, c_vs_hat = _glr_ratios(y, c_hat, c)
    rho_fwd, rho_bwd = float(np.prod(hat_vs_c)), float(np.prod(c_vs_hat))
    assert rho_fwd >= rho_bwd
    return rho_fwd, rho_bwd, c_hat
