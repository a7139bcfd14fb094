"""Recursive max-linear structural equation models on DAGs.

A model assigns every edge ``u -> v`` a positive weight ``c_vu``; the value
at a vertex is the maximum of its weighted parent values and its own noise,
``X_v = max(max_u c_vu * X_u, Z_v)``.  Eliminating the recursion expresses
each ``X_v`` as a max-linear combination of the noise variables with the
coefficient matrix ``B = closure(C)``: ``X = B (x) Z`` rowwise.  Sampling
evaluates the recursion itself, along the well-ordering, with the same
sweep that computes the closure.

The distribution of ``X`` determines ``B`` but not the DAG: several DAGs
and weight choices induce the same ``B``.  :func:`minimal_dag` recovers the
unique edge-minimal representative, :func:`admissible_weights` describes
all weights a given compatible DAG may carry, and :func:`marginal_rows`
gives the coefficient rows of a sub-vector of the model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    ExtraneousWeight,
    IncompatibleDag,
    InvalidCoefficientMatrix,
    MaxLinError,
    MissingEdgeWeight,
    NonPositiveWeight,
    VertexOutOfRange,
)
from .graph import Dag, Edge
from .tropical import DEFAULT_RTOL, _sweep, closure, values_close


class WeightKind(enum.Enum):
    """How a coefficient matrix constrains one edge weight."""

    FIXED = "fixed"
    OPEN_INTERVAL = "open_interval"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution for sampling: family, parameters, and seed.

    Both families are continuous with support ``(0, inf)``.  ``frechet``
    has CDF ``exp(-x**-alpha)``; ``lognormal`` is ``exp(Normal(mu, sigma))``.
    Parameters must be finite; ``alpha`` and ``sigma`` must be positive.
    """

    family: str
    params: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.family == "frechet":
            names = ("alpha",)
        elif self.family == "lognormal":
            names = ("mu", "sigma")
        else:
            raise ValueError(f"unknown noise family {self.family!r}")
        for name, value in zip(names, self.params, strict=True):
            if not np.isfinite(value):
                raise MaxLinError(f"{self.family} {name} must be finite, got {value}")
        if not self.params[-1] > 0:
            raise NonPositiveWeight(
                f"{self.family} {names[-1]} must be positive, got {self.params[-1]}"
            )

    @classmethod
    def frechet(cls, alpha: float, seed: int) -> "NoiseSpec":
        return cls("frechet", (float(alpha),), int(seed))

    @classmethod
    def lognormal(cls, mu: float, sigma: float, seed: int) -> "NoiseSpec":
        return cls("lognormal", (float(mu), float(sigma)), int(seed))

    def _draw_row(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill one noise row from its substream's generator."""
        if self.family == "frechet":
            rng.random(out=out)
        else:
            mu, sigma = self.params
            out[:] = rng.lognormal(mu, sigma, out.size)

    def _finish(self, z: np.ndarray) -> None:
        """Map the rows drawn by ``_draw_row`` to noise values, in place."""
        if self.family == "frechet":
            (alpha,) = self.params
            # rng.random() can return exactly 0; nudge into the open interval
            np.maximum(z, np.nextafter(0.0, 1.0), out=z)
            np.log(z, out=z)
            np.negative(z, out=z)
            # ``**=``, not np.power: like ``**`` it takes numpy's reciprocal
            # shortcut at alpha = 1
            z **= -1.0 / alpha


def assemble_weight_matrix(g: Dag, weights: Mapping[Edge, float]) -> np.ndarray:
    """Edge-weight matrix with unit diagonal from a per-edge weight mapping.

    Every edge of ``g`` must carry a strictly positive weight and no weight
    may refer to a non-edge.
    """
    extra = set(weights) - g.edges
    if extra:
        raise ExtraneousWeight(f"weights given for non-edges {sorted(extra)}")
    missing = g.edges - set(weights)
    if missing:
        raise MissingEdgeWeight(f"edges without weights: {sorted(missing)}")
    C = np.eye(g.d)
    for (u, v), w in weights.items():
        w = float(w)
        if not w > 0:
            raise NonPositiveWeight(f"weight for edge ({u}, {v}) must be > 0, got {w}")
        C[v - 1, u - 1] = w
    return C


class MaxLinearModel:
    """A DAG together with positive edge weights and the derived coefficients.

    Parameters
    ----------
    graph : Dag
    weights : mapping (u, v) -> float
        Strictly positive weight for every edge of ``graph``.

    Attributes
    ----------
    C : ndarray
        Edge-weight matrix, unit diagonal, ``C[v-1, u-1] = c_vu``.
    B : ndarray
        Max-times closure of ``C`` (read-only, cached).
    """

    __slots__ = ("graph", "C", "B")

    def __init__(self, graph: Dag, weights: Mapping[Edge, float]):
        self.graph = graph
        self.C = assemble_weight_matrix(graph, weights)
        self.B = closure(self.C)
        self.C.flags.writeable = False
        self.B.flags.writeable = False

    @property
    def d(self) -> int:
        return self.graph.d

    def edge_weights(self) -> dict[Edge, float]:
        return {(u, v): float(self.C[v - 1, u - 1]) for u, v in sorted(self.graph.edges)}

    def sample(self, n: int, noise: NoiseSpec) -> np.ndarray:
        """Draw ``n`` observations as rows of an ``(n, d)`` matrix.

        Observation ``nu`` uses the dedicated random substream seeded by
        ``(noise.seed, nu)``, so the output is reproducible and independent
        of any batching or parallel schedule.  Each row is the noise row of
        :func:`noise_matrix` pushed through the recursion
        ``X_v = max(Z_v, max_u c_vu X_u)`` along the well-ordering, so it
        satisfies the recursion exactly, with no rounding beyond the one
        product per edge.
        """
        if n < 1:
            raise ValueError(f"need n >= 1 observations, got {n}")
        z = noise_matrix(noise, n, self.d)
        return propagate(self.C, z)

    def __repr__(self) -> str:
        return f"MaxLinearModel({self.graph!r}, {self.edge_weights()!r})"


def noise_matrix(noise: NoiseSpec, n: int, d: int) -> np.ndarray:
    """The ``(n, d)`` noise draw underlying :meth:`MaxLinearModel.sample`.

    Row ``nu`` comes from its own substream: a PCG64 generator seeded with
    ``SeedSequence((noise.seed % 2**64, nu))``, so every row equals
    ``default_rng((noise.seed % 2**64, nu))``'s draw of ``d`` values and
    does not depend on ``n``.  The seeds of the rows are hashed with
    vectorised integer arithmetic (:func:`_substream_states`) and loaded,
    row by row, into a single reused generator.

    Raises :class:`MaxLinError` when a draw overflows to ``inf`` or
    underflows to 0: the parameters then give no sample in ``(0, inf)``.
    """
    z = np.empty((n, d))
    states = _substream_states(noise.seed, np.arange(n, dtype=np.uint64))
    bitgen = np.random.PCG64(0)  # the seed is never used: each row sets the state
    rng = np.random.Generator(bitgen)
    for row, (state, inc) in zip(z, states):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        noise._draw_row(rng, row)
    with np.errstate(over="ignore", under="ignore"):
        noise._finish(z)
    if z.size and not (z.min() > 0 and z.max() < np.inf):
        raise MaxLinError(f"{noise!r} draws values outside (0, inf)")
    return z


# numpy's SeedSequence (O'Neill's seed_seq hash on 32-bit words) and PCG64
# seeding, as in numpy/random/bit_generator.pyx and pcg64.h.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_BLOCK = 1024


def _hashmix(init: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant, on uint32 arrays."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _substream_states(seed: int, nu: np.ndarray) -> Iterator[tuple[int, int]]:
    """Yield the PCG64 ``(state, inc)`` of ``default_rng((seed % 2**64, v))``
    for every ``v`` in ``nu`` (integers in ``[0, 2**64)``).

    The entropy is the 32-bit words of ``seed % 2**64`` and then of ``v``,
    low word first, padded with zeros to the pool size of four; a zero high
    word of ``v`` is that padding, so ``v >= 2**32`` needs no special case.
    SeedSequence hashes the entropy into the pool, mixes every pool word
    into every other, and ``generate_state(4, uint64)`` hashes the pool
    cyclically into the 128-bit ``initstate`` and ``initseq`` of PCG64.
    The hashing runs on a block of ``v`` at a time, so its temporaries stay
    small next to the noise matrix.
    """
    base = seed % 2**64
    base_words = [base & _MASK32] + ([base >> 32] if base >> 32 else [])
    k = len(base_words)
    nu = np.asarray(nu, dtype=np.uint64)
    for start in range(0, nu.size, _STATE_BLOCK):
        v = nu[start : start + _STATE_BLOCK]
        entropy = np.zeros((_POOL_SIZE, v.size), dtype=np.uint32)
        entropy[:k] = np.array(base_words, dtype=np.uint32)[:, None]
        entropy[k] = v & np.uint64(_MASK32)
        entropy[k + 1] = v >> np.uint64(32)

        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))

        hashmix = _hashmix(_INIT_B, _MULT_B)
        words = np.array([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], dtype=np.uint64)
        # little-endian pairs of words: initstate hi, lo; initseq hi, lo
        seeds = words[0::2] | (words[1::2] << np.uint64(32))
        for hi, lo, inc_hi, inc_lo in seeds.T.tolist():
            inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
            yield ((((hi << 64) | lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc


def propagate(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Push noise rows through a model: returns ``B (x) z`` rowwise, that is
    ``x[v] = max_u b[v, u] * z[u]`` per row.

    ``c`` may be the edge-weight matrix ``C`` or its closure ``B``: both
    satisfy the recursion ``x[v] = max(z[v], max_u c[v, u] * x[u])``, which
    is evaluated along the well-ordering of the positive pattern.  Either
    matrix must be a valid weight matrix (square, nonnegative, unit
    diagonal, acyclic pattern); ``z`` has one column per vertex.  Results
    for ``C`` and ``B`` agree up to rounding.

    This is the deterministic half of sampling, split out so tests can feed
    degenerate noise (for example all ones) directly.
    """
    return np.ascontiguousarray(_sweep(c, z).T)


def _validate_coefficients(b) -> tuple[np.ndarray, np.ndarray]:
    B = np.asarray(b, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"coefficient matrix must be square, got {B.shape}")
    if np.any(B < 0) or np.any(np.isnan(B)):
        raise InvalidCoefficientMatrix("negative or NaN entries")
    if not np.all(np.diag(B) == 1.0):
        raise InvalidCoefficientMatrix("diagonal entries must all equal 1")
    R = B > 0
    if np.any(R & R.T & ~np.eye(B.shape[0], dtype=bool)):
        raise InvalidCoefficientMatrix("sign pattern is not antisymmetric")
    if np.any(((R.astype(np.int64) @ R.astype(np.int64)) > 0) & ~R):
        raise InvalidCoefficientMatrix("sign pattern is not transitively closed")
    return B, R


def minimal_dag(b, rtol: float = DEFAULT_RTOL) -> tuple[Dag, dict[Edge, float]]:
    """Edge-minimal DAG and weights reproducing a coefficient matrix.

    An edge ``u -> v`` survives exactly when its coefficient beats every
    two-step composition: ``b_vu > max_k b_vk * b_ku`` over ``k`` distinct
    from ``u`` and ``v``.  A composition matching ``b_vu`` within ``rtol``
    means an alternative best-weight path exists, so the edge is dropped.
    Weights of kept edges are pinned to the coefficients themselves.
    """
    B, R = _validate_coefficients(b)
    d = B.shape[0]
    edges: dict[Edge, float] = {}
    for v in range(d):
        for u in range(d):
            if u == v or not R[v, u]:
                continue
            through = B[v, :] * B[:, u]
            through[u] = through[v] = 0.0
            best = float(through.max())
            bvu = float(B[v, u])
            if best < bvu and not values_close(best, bvu, rtol):
                edges[(u + 1, v + 1)] = bvu
    g = Dag(d, edges.keys())
    if not np.array_equal(g.reach, R):
        raise InvalidCoefficientMatrix(
            "entry values are inconsistent with the sign pattern"
        )
    return g, edges


def admissible_weights(
    b, g: Dag, rtol: float = DEFAULT_RTOL
) -> dict[Edge, tuple[WeightKind, float]]:
    """Constraints on each edge weight of ``g`` for it to carry the model
    with coefficient matrix ``b``.

    Edges of the minimal DAG are pinned (``FIXED``) to their coefficient;
    any additional edge of ``g`` may take any value in the open interval
    ``(0, b_vu)`` (``OPEN_INTERVAL`` with that upper bound).  ``g`` must
    contain the minimal DAG and induce the same reachability.
    """
    B, R = _validate_coefficients(b)
    if g.d != B.shape[0]:
        raise DimensionMismatch(f"matrix {B.shape} vs d={g.d}")
    if not np.array_equal(g.reach, R):
        raise IncompatibleDag("reachability differs from the coefficient sign pattern")
    minimal, _ = minimal_dag(B, rtol)
    missing = minimal.edges - g.edges
    if missing:
        raise IncompatibleDag(f"required minimal edges absent: {sorted(missing)}")
    out: dict[Edge, tuple[WeightKind, float]] = {}
    for u, v in sorted(g.edges):
        bound = float(B[v - 1, u - 1])
        kind = WeightKind.FIXED if (u, v) in minimal.edges else WeightKind.OPEN_INTERVAL
        out[(u, v)] = (kind, bound)
    return out


def marginal_rows(b, vertices: Iterable[int]) -> np.ndarray:
    """Rows of the coefficient matrix for a subset of vertices, ascending.

    Two models whose marginal rows agree on a subset induce the same joint
    distribution of that sub-vector (under the same noise law): the kept
    rows are exactly the max-linear representation of those coordinates.
    """
    B = np.asarray(b, dtype=float)
    subset = sorted(set(vertices))
    if not subset:
        raise VertexOutOfRange("vertex subset must be nonempty")
    for v in subset:
        if not 1 <= v <= B.shape[0]:
            raise VertexOutOfRange(f"vertex {v} outside 1..{B.shape[0]}")
    return B[[v - 1 for v in subset], :]
