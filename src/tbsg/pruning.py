"""Edge pruning for graph index construction.

Given a node s, a sorted candidate pool, and an already-selected neighbor v,
each strategy decides whether v makes a further candidate e redundant:

* rng   — drop e when v is closer to e than s is.
* nssg  — drop e when the angle between edges sv and se is at most alpha_t.
* tbsg  — drop e only when the rng condition holds AND the kept edge sv still
          guarantees, with probability at least mp, that a query falling
          within radius r of e can move strictly closer via v.

The probability guarantee is the closed-form lower bound min_prob(); its
Monte Carlo and analytic-disk counterparts below exist to validate that bound
and are exercised by the prob-check harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _BLOCK_VALUES, Dataset, pairwise_distances, pairwise_sq32
from .knng import _run_starts

__all__ = [
    "TriangleGeom",
    "StrategyParams",
    "min_prob",
    "monte_carlo_prob",
    "analytic_disk_prob",
    "select_neighbors",
]

# Absolute slack on cosine comparisons at the nssg angle threshold, so a
# candidate sitting numerically on the boundary is excluded consistently.
_COS_SLACK = 1e-9


@dataclass(frozen=True)
class TriangleGeom:
    """Side lengths of the triangle (s, e, v) plus the query radius around e.

    d_se: distance from s to the candidate e; d_sv: from s to the kept
    neighbor v; d_ve: from v to e. Distances coming from real point triples
    always satisfy the triangle inequality; it is deliberately not enforced
    here, because the closed-form bound is well defined on raw lengths and
    only the Monte Carlo embedding needs a realizable triangle.
    """

    d_se: float
    d_sv: float
    d_ve: float
    r: float

    def __post_init__(self):
        for name in ("d_se", "d_sv"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.d_ve >= 0:
            raise ValueError(f"d_ve must be non-negative, got {self.d_ve}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")


def _bisector_offset(d_se: float, d_sv: float, d_ve: float) -> float:
    """Signed distance from e to the perpendicular bisector of segment s-v.

    Positive when e lies on v's side (d_ve < d_se). Takes floats or arrays
    alike: min_prob, analytic_disk_prob and the pruning scan share it.
    """
    return (d_se * d_se - d_ve * d_ve) / (2.0 * d_sv)


def min_prob(g: TriangleGeom) -> float:
    """Lower bound on the chance that a query within r of e is closer to v.

    A query Q in the radius-r ball around e is closer to v than to s exactly
    when Q falls on v's side of the bisector hyperplane of segment s-v; the
    worst case over dimensions is the fraction 1 - arccos(h/r)/pi of the
    ball, where h is the signed offset of e from that hyperplane. h/r is
    clamped to [-1, 1]: beyond +1 the whole ball lies on v's side.
    """
    return float(_min_prob_pairs(g.d_se, g.d_sv, g.d_ve, g.r))


def _min_prob_pairs(d_se, d_sv, d_ve, r):
    """min_prob over arrays of side lengths and radii, elementwise."""
    h = _bisector_offset(d_se, d_sv, d_ve)
    return 1.0 - np.arccos(np.clip(h / r, -1.0, 1.0)) / math.pi


def analytic_disk_prob(g: TriangleGeom) -> float:
    """Exact 2-D value of the quantity min_prob bounds from below.

    For a uniform sample in a radius-r disk around e, the portion cut off on
    s's side of the bisector is a circular segment of angle
    phi = 2*arccos(h/r); its area fraction is (phi - sin(phi)) / (2*pi).
    """
    h = _bisector_offset(g.d_se, g.d_sv, g.d_ve)
    phi = 2.0 * np.arccos(np.clip(h / g.r, -1.0, 1.0))
    return float(1.0 - (phi - np.sin(phi)) / (2.0 * math.pi))


def _embed_triangle(g: TriangleGeom, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place s at the origin, e on the x axis, v in the xy plane, in `dim` dims."""
    x_v = (g.d_se * g.d_se + g.d_sv * g.d_sv - g.d_ve * g.d_ve) / (2.0 * g.d_se)
    y_sq = g.d_sv * g.d_sv - x_v * x_v
    if y_sq < -1e-9 * max(g.d_sv * g.d_sv, 1.0):
        raise ValueError(f"unrealizable triangle geometry: {g}")
    s = np.zeros(dim)
    e = np.zeros(dim)
    e[0] = g.d_se
    v = np.zeros(dim)
    v[0] = x_v
    v[1] = math.sqrt(max(y_sq, 0.0))
    return s, e, v


def monte_carlo_prob(
    g: TriangleGeom, dim: int, samples: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """Estimate Pr[query nearer v than s] for uniform queries in e's ball.

    Embeds the triangle in the first two of `dim` coordinates, draws queries
    uniformly from the radius-r ball around e (normalized Gaussian direction
    times r * U^(1/dim)), and counts the side of the s-v bisector each lands
    on. Returns (estimate, std_error) with the binomial standard error
    sqrt(p*(1-p)/samples).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if samples < 1:
        raise ValueError("samples must be positive")
    s, e, v = _embed_triangle(g, dim)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    chunk = 1 << 18
    while done < samples:
        m = min(chunk, samples - done)
        direction = rng.standard_normal((m, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = g.r * rng.random(m) ** (1.0 / dim)
        q = e + direction * radius[:, None]
        d_v = np.einsum("ij,ij->i", q - v, q - v)
        d_s = np.einsum("ij,ij->i", q - s, q - s)
        hits += int(np.count_nonzero(d_v < d_s))
        done += m
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, std_error


@dataclass(frozen=True)
class StrategyParams:
    """Pruning configuration shared by the three strategies.

    mp is the tbsg probability threshold; anything below 0.5 would never
    exclude beyond the rng precondition, so 0.5 is the floor (values above
    1.0 are legal, and then the probability rule excludes nothing). alpha_t
    is the nssg angle threshold in radians, at most 60 degrees. In static
    r_mode, static_r[s] supplies the per-node radius, one finite
    non-negative value per node (0 falls back to the dynamic radius);
    dynamic mode uses the candidate's own distance d_se.
    """

    strategy: str = "tbsg"
    mp: float = 0.53
    alpha_t: float = math.pi / 3.0
    m: int = 50
    r_mode: str = "dynamic"
    static_r: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.strategy not in ("rng", "nssg", "tbsg"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.mp >= 0.5:
            raise ValueError(f"mp must be >= 0.5, got {self.mp}")
        if not 0.0 < self.alpha_t <= math.pi / 3.0 + 1e-12:
            raise ValueError(f"alpha_t must be in (0, 60 degrees], got {self.alpha_t}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.r_mode not in ("dynamic", "static"):
            raise ValueError(f"unknown r_mode {self.r_mode!r}")
        if self.r_mode == "static" and self.static_r is None:
            raise ValueError("static r_mode requires static_r values")
        if self.static_r is not None:
            static_r = np.asarray(self.static_r, dtype=np.float64)
            if static_r.ndim != 1:
                raise ValueError(f"static_r must be 1-D, got shape {static_r.shape}")
            # 0 stays legal: such a node falls back to the dynamic radius.
            if not np.all(static_r >= 0.0) or not np.all(np.isfinite(static_r)):
                raise ValueError("static_r must hold finite non-negative radii")
            object.__setattr__(self, "static_r", static_r)

    def _key(self) -> tuple:
        """The fields, static_r by value: adding 0.0 turns -0.0 into 0.0,
        and the radii hold no NaN, so equal radii give equal bytes."""
        r = None if self.static_r is None else (self.static_r + 0.0).tobytes()
        return (self.strategy, self.mp, self.alpha_t, self.m, self.r_mode, r)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _exact_blocked(d_ve, d_sv, d_se, r, params: StrategyParams, cos_threshold: float):
    """The strategy's rule on float64 pair distances d_ve: True where the
    keeper blocks the candidate."""
    if params.strategy == "nssg":
        num = d_sv * d_sv + d_se * d_se - d_ve * d_ve
        return num / (2.0 * d_sv * d_se) >= cos_threshold
    blocked = d_ve < d_se
    if params.strategy == "tbsg":
        # The probability rule only narrows the RNG rule's blocks.
        b = np.flatnonzero(blocked)
        blocked[b] = _min_prob_pairs(d_se[b], d_sv[b], d_ve[b], r[b]) >= params.mp
    return blocked


def _sides(sq, threshold, terms, slack):
    """Where sq certainly lies below, and where certainly above, the
    threshold: farther from it than slack * (sq + terms)."""
    margin = slack * (sq + terms)
    return sq + margin < threshold, sq - margin > threshold


def _float32_blocked(sq, d_sv, d_se, r, params: StrategyParams, cos_threshold: float, slack: float):
    """(blocked, decided) from float32 squared pair distances sq: each rule
    as a threshold on d_ve^2, decided where sq lies clearly on one side."""
    sq = sq.astype(np.float64)
    se2 = d_se * d_se
    if params.strategy == "nssg":
        sv2, cross = d_sv * d_sv, 2.0 * d_sv * d_se
        below, above = _sides(sq, sv2 + se2 - cross * cos_threshold, sv2 + se2 + cross, slack)
        return below, below | above
    # rng, and tbsg's RNG part: d_ve < d_se.
    below, above = _sides(sq, se2, se2, slack)
    if params.strategy == "tbsg":
        # min_prob >= mp exactly when h / r >= cos(pi (1 - mp)), a number in
        # [0, 1] up to mp = 1, so the clip never decides. At mp = 0.5 every
        # pair the RNG part blocks passes; the cosine rounds to 6e-17, not 0,
        # which the threshold's rounding term covers. min_prob never exceeds
        # 1, so past mp = 1 the threshold is -inf and nothing is blocked.
        cos_mp = math.cos(math.pi * (1.0 - params.mp)) if params.mp <= 1.0 else math.inf
        reach = 2.0 * d_sv * r
        p_below, p_above = _sides(sq, se2 - reach * cos_mp, se2 + reach, slack)
        below &= p_below
        above |= p_above
    return below, below | above


def _float32_slack(dataset: Dataset) -> float | None:
    """Relative slack of the float32 pair test on this data, or None when
    the data leave the range that keeps its bound.

    Rounding bound, u = 2^-24. A float32 sum of dim squared differences,
    each difference and square rounded once, lies within gamma_{dim+2} =
    (dim+2)u / (1 - (dim+2)u) of the exact squared distance t in any
    summation order, provided every nonzero square is a normal number. The
    exact way computes t within (dim+2) float64 roundings, takes a square
    root and evaluates the rule with a few more roundings, each at most
    2^-53 times the threshold's terms (arccos's, at most a few units in the
    last place of h / r, scaled by 2 d_sv r); the threshold here rounds as
    much. (dim + 3) * 2^-23 = 2 (dim + 3) u covers gamma_{dim+2} /
    (1 - gamma_{dim+2}), sq's error relative to sq itself, about twice over
    at any practical dim, with room for every float64 term, so a pair whose
    sq lies farther than slack * (sq + terms) from the threshold gets the
    exact way's answer. Nonzero |x| of at least
    2^-40 make every nonzero difference a multiple of 2^-63, whose square is
    a normal float32; |x| of at most 2^62 / sqrt(dim) keep each sum below
    2^126.
    """
    x = dataset.vectors
    if not x.size:
        return None
    top = max(float(x.max()), -float(x.min()))
    ax = np.abs(x)
    low = float(np.min(ax, where=ax > 0.0, initial=np.inf))
    if not (2.0**-40 <= low and top <= 2.0**62 / math.sqrt(dataset.dim)):
        return None
    return (dataset.dim + 3) * 2.0**-23


def _select_from_arrays(
    offsets: np.ndarray,
    cand_ids: np.ndarray,
    cand_d: np.ndarray,
    params: StrategyParams,
    dataset: Dataset,
) -> np.ndarray:
    """Prune every node's candidate pool; return the kept positions, ascending.

    Node s's pool is cand_ids[offsets[s]:offsets[s+1]] with distances
    cand_d over the same slice. Precondition: each pool arrives in
    (distance, id) order with no repeated id, as add_reverse_edges' pools and
    select_neighbors hand them over. Scanning a pool in that order, a
    candidate is kept unless an already-kept neighbor blocks it, up to
    params.m kept. Zero-length edges (s itself, exact duplicates of s) carry
    no search progress and break the angle terms, so they are dropped.

    Whole nodes are pruned in lock-step, a chunk at a time of at most
    core._BLOCK_VALUES candidates (one node alone may hold more), so a
    round's per-candidate temporaries stay as cache-sized as the batch
    kernels' blocks; the chunking never changes the mask. Each round keeps
    every node's first alive candidate and measures that keeper against the
    node's other alive candidates: those the strategy's rule blocks are
    struck out. A node left with nothing alive never comes back, so every
    node alive in round r has kept r - 1: the degree cap is the round count,
    and round m keeps its keepers without measuring anything. Keepers go
    into one mask over the whole pool, so its nonzero positions come back
    ascending and each node's kept ids stay in distance order.

    A round measures its pairs in float32, by one pairwise_sq32 call, and
    reads each rule as a threshold T on d_ve^2: d_se^2 for rng;
    d_sv^2 + d_se^2 - 2 d_sv d_se cos_threshold for nssg; for tbsg d_se^2
    and d_se^2 - 2 d_sv r cos(pi (1 - mp)), which every RNG-blocked pair
    meets at mp = 0.5 and which is -inf, met by none, at mp > 1. A pair is
    decided where its float32 value sq lies farther from T than
    slack * (sq + the threshold's terms), which covers sq's rounding, the
    threshold's and the exact formula's (_float32_slack). The rest, a
    handful per build, take the exact way: float64 distances from
    pairwise_distances and the rule's expressions in _exact_blocked, as do
    all pairs when the data leave the range the bound holds on. So the kept
    mask is the float64 scan's, bit for bit.
    """
    n = offsets.shape[0] - 1
    if params.r_mode == "static" and params.static_r.shape[0] != n:
        raise ValueError(f"static_r holds {params.static_r.shape[0]} radii for {n} nodes")
    cos_threshold = math.cos(params.alpha_t) - _COS_SLACK
    slack = _float32_slack(dataset)
    kept = np.zeros(cand_ids.shape[0], dtype=bool)
    lo = 0
    while lo < n:
        # Whole nodes, at least one, of at most _BLOCK_VALUES candidates.
        hi = int(np.searchsorted(offsets, offsets[lo] + _BLOCK_VALUES, side="right")) - 1
        hi = max(hi, lo + 1)
        start, stop = offsets[lo], offsets[hi]
        ids, d, chunk_kept = cand_ids[start:stop], cand_d[start:stop], kept[start:stop]
        owner = np.repeat(np.arange(hi - lo), np.diff(offsets[lo : hi + 1]))
        radius = d
        if params.strategy == "tbsg" and params.r_mode == "static":
            r_s = params.static_r[lo:hi][owner]
            # A node whose nearest neighbor is a duplicate has no usable
            # static radius; fall back to the dynamic rule for it.
            radius = np.where(r_s > 0.0, r_s, d)
        alive = np.flatnonzero(d > 0.0)
        for rnd in range(1, params.m + 1):
            if not alive.size:
                break
            first = _run_starts(owner[alive])
            keepers = alive[first]
            chunk_kept[keepers] = True
            if rnd == params.m:
                break
            # The rest of each node's alive candidates, paired with its keeper.
            rest = alive[~first]
            v = keepers[np.cumsum(first)[~first] - 1]
            d_sv, d_se, r = d[v], d[rest], radius[rest]
            if slack is None:
                blocked, decided = np.zeros((2, rest.size), dtype=bool)
            else:
                sq = pairwise_sq32(dataset, ids[v], ids[rest])
                blocked, decided = _float32_blocked(sq, d_sv, d_se, r, params, cos_threshold, slack)
            u = np.flatnonzero(~decided)
            if u.size:
                d_ve = pairwise_distances(dataset, ids[v[u]], ids[rest[u]])
                blocked[u] = _exact_blocked(d_ve, d_sv[u], d_se[u], r[u], params, cos_threshold)
            alive = rest[~blocked]
        lo = hi
    return np.flatnonzero(kept)


def select_neighbors(
    s: int,
    candidates,
    params: StrategyParams,
    dataset: Dataset,
) -> list[int]:
    """Pick at most params.m neighbors for s from (id, distance) candidates.

    Candidates are processed in ascending (distance, id) order, after
    dropping s itself and every later copy of a repeated id; the closest is
    always kept, and each later one is kept unless an already-kept neighbor
    triggers the strategy's exclusion rule. Returns ids in ascending-distance
    order. Distances must be finite and non-negative; a zero one (a
    duplicate of s) is dropped like s itself.
    """
    if not 0 <= s < dataset.count:
        raise ValueError(f"node {s} out of range")
    cand_ids = np.asarray([c[0] for c in candidates], dtype=np.int64)
    cand_d = np.asarray([c[1] for c in candidates], dtype=np.float64)
    if cand_ids.size and (cand_ids.min() < 0 or cand_ids.max() >= dataset.count):
        raise ValueError("candidate id out of range")
    if not np.all(np.isfinite(cand_d) & (cand_d >= 0.0)):
        raise ValueError("candidate distances must be finite and non-negative")
    order = np.lexsort((cand_ids, cand_d))
    cand_ids, cand_d = cand_ids[order], cand_d[order]
    # Each id's first appearance in scan order, s excluded.
    first = np.sort(np.unique(cand_ids, return_index=True)[1])
    first = first[cand_ids[first] != s]
    # One pool, node s's, in the CSR form every other node leaves empty.
    offsets = np.zeros(dataset.count + 1, dtype=np.int64)
    offsets[s + 1 :] = first.size
    kept = _select_from_arrays(offsets, cand_ids[first], cand_d[first], params, dataset)
    return cand_ids[first][kept].tolist()
