"""Pruning-bound mathematics and the neighbor-selection strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from literal_algos import literal_select
import tbsg.pruning
from tbsg import (
    Dataset,
    add_reverse_edges,
    StrategyParams,
    TbsgParams,
    TriangleGeom,
    build_knng,
    build_tbsg,
    generate_synthetic,
    l2_distance,
    min_prob,
    monte_carlo_prob,
    select_neighbors,
)
from tbsg.core import pairwise_distances, pairwise_sq
from tbsg.pruning import analytic_disk_prob, _bisector_offset


def trig_offset(alpha: float, theta: float, length: float) -> float:
    """Independent derivation of the bisector offset from the two angles.

    For the triangle with angle alpha at s (between the kept edge and the
    candidate edge) and theta at the candidate e, the offset of e from the
    s-v bisector is length * sin(2*alpha + theta) / (2 * sin(alpha + theta)).
    """
    return length * math.sin(2.0 * alpha + theta) / (2.0 * math.sin(alpha + theta))


def sides_from_angles(alpha: float, theta: float, length: float):
    """Law-of-sines triangle with d_se = length and angles alpha, theta."""
    d_sv = length * math.sin(theta) / math.sin(alpha + theta)
    d_ve = length * math.sin(alpha) / math.sin(alpha + theta)
    return length, d_sv, d_ve


class TestMinProb:
    def test_equilateral_is_exactly_half(self):
        assert min_prob(TriangleGeom(1.0, 1.0, 1.0, 1.0)) == 0.5

    def test_frozen_values(self):
        assert min_prob(TriangleGeom(1.0, 0.70711, 0.70711, 1.0)) == pytest.approx(
            0.6150, abs=1e-4
        )
        assert min_prob(TriangleGeom(1.0, 0.70711, 0.70711, 1.0)) == pytest.approx(
            0.6150250851045267, abs=1e-12
        )
        # h = 0.5 > r = 0.1 saturates the clamp.
        assert min_prob(TriangleGeom(1.0, 1.0, 0.0, 0.1)) == 1.0
        # Raw side lengths that no planar triangle attains are still a valid
        # input: the bound is defined on the distances alone.
        assert min_prob(TriangleGeom(1.0, 2.0, 0.9, 1.0)) == pytest.approx(
            0.5151, abs=1e-4
        )
        assert _bisector_offset(1.0, 2.0, 0.9) == pytest.approx(0.0475, abs=1e-12)

    def test_negative_offset_below_half(self):
        # Candidate farther from the kept neighbor than from s: h < 0.
        assert min_prob(TriangleGeom(1.0, 1.0, 1.2, 1.0)) < 0.5

    def test_dual_form_agreement_on_grid(self):
        for alpha_deg in range(5, 90, 7):
            for theta_deg in range(5, 90, 7):
                alpha, theta = math.radians(alpha_deg), math.radians(theta_deg)
                if alpha + theta >= math.pi:
                    continue
                d_se, d_sv, d_ve = sides_from_angles(alpha, theta, 1.7)
                closed = _bisector_offset(d_se, d_sv, d_ve)
                assert closed == pytest.approx(
                    trig_offset(alpha, theta, 1.7), abs=1e-9
                )

    def test_strictly_increasing_in_offset(self):
        # Shrinking d_ve raises h; min_prob must strictly rise until clamped.
        values = [
            min_prob(TriangleGeom(1.0, 1.0, d_ve, 2.0))
            for d_ve in np.linspace(1.4, 0.1, 20)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(
        d_se=st.floats(0.01, 100.0),
        frac=st.floats(0.0, 0.99),
        d_sv=st.floats(0.01, 100.0),
        r=st.floats(0.01, 100.0),
    )
    @settings(max_examples=300)
    def test_range_and_exclusion_precondition(self, d_se, frac, d_sv, r):
        # d_ve < d_se (the only case the pruning rule consults) forces h > 0,
        # hence a bound strictly above one half.
        g = TriangleGeom(d_se, d_sv, d_se * frac, r)
        p = min_prob(g)
        assert 0.0 <= p <= 1.0
        assert p > 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="d_se"):
            TriangleGeom(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="d_sv"):
            TriangleGeom(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="d_ve"):
            TriangleGeom(1.0, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError, match="r"):
            TriangleGeom(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("side", range(4))
    def test_nan_side_rejected(self, side):
        sides = [1.0, 1.0, 1.0, 1.0]
        sides[side] = math.nan
        with pytest.raises(ValueError, match="must be"):
            TriangleGeom(*sides)


class TestMonteCarloProb:
    def test_whole_ball_on_neighbor_side(self):
        est, se = monte_carlo_prob(TriangleGeom(1.0, 1.0, 0.0, 0.1), dim=3, samples=20_000)
        assert est == 1.0
        assert se == 0.0

    def test_equilateral_is_half(self):
        for dim in (2, 3, 4):
            est, se = monte_carlo_prob(
                TriangleGeom(1.0, 1.0, 1.0, 1.0), dim=dim, samples=40_000, seed=dim
            )
            assert abs(est - 0.5) <= 4.0 * se

    def test_matches_analytic_disk_in_2d(self):
        for g in (
            TriangleGeom(1.0, 0.8, 0.7, 1.0),
            TriangleGeom(1.0, 1.0, 1.2, 0.9),
            TriangleGeom(2.0, 1.5, 1.1, 1.3),
        ):
            est, se = monte_carlo_prob(g, dim=2, samples=60_000, seed=17)
            assert abs(est - analytic_disk_prob(g)) <= 4.0 * se

    def test_estimate_at_least_lower_bound(self):
        for dim in (2, 3, 4):
            g = TriangleGeom(1.0, 0.9, 0.6, 1.1)
            est, se = monte_carlo_prob(g, dim=dim, samples=50_000, seed=dim)
            assert est + 4.0 * se >= min_prob(g)

    def test_std_error_formula(self):
        est, se = monte_carlo_prob(TriangleGeom(1.0, 1.0, 1.0, 1.0), dim=2, samples=10_000)
        assert se == pytest.approx(math.sqrt(est * (1.0 - est) / 10_000), abs=1e-15)

    def test_deterministic_for_seed(self):
        g = TriangleGeom(1.0, 0.9, 0.8, 1.0)
        assert monte_carlo_prob(g, 3, 20_000, seed=5) == monte_carlo_prob(g, 3, 20_000, seed=5)
        a, _ = monte_carlo_prob(g, 3, 20_000, seed=5)
        b, _ = monte_carlo_prob(g, 3, 20_000, seed=6)
        assert a != b

    def test_unrealizable_geometry_rejected(self):
        with pytest.raises(ValueError, match="unrealizable"):
            monte_carlo_prob(TriangleGeom(1.0, 2.0, 0.9, 1.0), dim=2, samples=10_000)

    def test_dim_validation(self):
        with pytest.raises(ValueError, match="dim"):
            monte_carlo_prob(TriangleGeom(1.0, 1.0, 1.0, 1.0), dim=1)


class TestStrategyParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            StrategyParams(strategy="hnsw")
        with pytest.raises(ValueError, match="mp"):
            StrategyParams(mp=0.49)
        with pytest.raises(ValueError, match="alpha_t"):
            StrategyParams(strategy="nssg", alpha_t=math.pi / 2)
        with pytest.raises(ValueError, match="alpha_t"):
            StrategyParams(strategy="nssg", alpha_t=0.0)
        with pytest.raises(ValueError, match="m"):
            StrategyParams(m=0)
        with pytest.raises(ValueError, match="r_mode"):
            StrategyParams(r_mode="adaptive")
        with pytest.raises(ValueError, match="static_r"):
            StrategyParams(r_mode="static")

    def test_nan_mp_rejected(self):
        with pytest.raises(ValueError, match="mp"):
            StrategyParams(mp=math.nan)

    def test_mp_above_one_is_legal(self):
        assert StrategyParams(mp=1.0 + 1e-9).mp > 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_static_r_value_rejected(self, bad):
        with pytest.raises(ValueError, match="static_r must hold finite non-negative"):
            StrategyParams(r_mode="static", static_r=np.array([1.0, bad, 2.0]))

    def test_static_r_of_two_dims_rejected(self):
        with pytest.raises(ValueError, match="static_r must be 1-D"):
            StrategyParams(r_mode="static", static_r=np.ones((3, 1)))
        with pytest.raises(ValueError, match="static_r must be 1-D"):
            StrategyParams(r_mode="static", static_r=np.float64(1.0))

    def test_static_r_zero_is_legal(self):
        # A zero radius is the documented fallback to the dynamic rule.
        params = StrategyParams(r_mode="static", static_r=[0.0, 1.5])
        assert params.static_r.dtype == np.float64
        assert params.static_r.tolist() == [0.0, 1.5]

    def test_equality_and_hash_compare_static_r_by_value(self):
        def static(radii):
            return StrategyParams(r_mode="static", static_r=np.array(radii))

        a, b = static([1.0, 0.0, 2.0]), static([1.0, -0.0, 2.0])
        assert a == b and hash(a) == hash(b)
        assert a != static([1.0, 0.5, 2.0])
        assert a != static([1.0, 0.0])
        assert StrategyParams() != StrategyParams(static_r=np.ones(3))
        assert StrategyParams() == StrategyParams()
        table = {a: "a", StrategyParams(): "none"}
        assert table[b] == "a" and table[StrategyParams()] == "none"
        assert static([1.0, 0.5, 2.0]) not in table

    @pytest.mark.parametrize("length", [3, 39, 41])
    def test_static_r_of_another_length_rejected(self, length):
        ds = generate_synthetic(40, 2, clusters=1, spread=1.0, seed=3)
        params = StrategyParams(r_mode="static", static_r=np.ones(length))
        with pytest.raises(ValueError, match=f"static_r holds {length} radii for 40 nodes"):
            select_neighbors(10, _pairs(ds, 10, range(20)), params, ds)


def _pairs(dataset: Dataset, s: int, ids) -> list[tuple[int, float]]:
    x = dataset.vectors64
    return [(int(c), l2_distance(x[s], x[c])) for c in ids]


class TestSelectNeighbors:
    def setup_method(self):
        self.ds = generate_synthetic(40, 2, clusters=1, spread=1.0, seed=3)

    def test_empty_candidates(self):
        assert select_neighbors(0, [], StrategyParams(), self.ds) == []

    def test_single_candidate_kept_by_every_strategy(self):
        cands = _pairs(self.ds, 0, [7])
        for params in (
            StrategyParams(strategy="rng"),
            StrategyParams(strategy="nssg", alpha_t=math.radians(50)),
            StrategyParams(strategy="tbsg"),
        ):
            assert select_neighbors(0, cands, params, self.ds) == [7]

    def test_closest_candidate_always_selected(self):
        cands = _pairs(self.ds, 0, range(1, 40))
        chosen = select_neighbors(0, cands, StrategyParams(), self.ds)
        assert chosen[0] == min(cands, key=lambda c: (c[1], c[0]))[0]

    def test_threshold_above_range_keeps_everything(self):
        # Real point triples never reach min_prob = 1.0 under the dynamic
        # radius, so a threshold above 1 disables pruning entirely.
        cands = _pairs(self.ds, 0, range(1, 40))
        params = StrategyParams(mp=1.0 + 1e-9, m=100)
        chosen = select_neighbors(0, cands, params, self.ds)
        assert chosen == [c for c, _ in sorted(cands, key=lambda c: (c[1], c[0]))]

    def test_m_caps_output(self):
        cands = _pairs(self.ds, 0, range(1, 40))
        params = StrategyParams(mp=1.0 + 1e-9, m=5)
        assert len(select_neighbors(0, cands, params, self.ds)) == 5

    def test_duplicates_of_s_and_repeated_ids_dropped(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        cands = [(0, 0.0), (1, 0.0), (2, 1.0), (2, 1.0), (3, 2.0)]
        assert select_neighbors(0, cands, StrategyParams(m=10), ds) == [2, 3]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        cands = _pairs(self.ds, 5, [i for i in range(40) if i != 5])
        params = StrategyParams(mp=0.53, m=8)
        base = select_neighbors(5, cands, params, self.ds)
        for _ in range(10):
            shuffled = [cands[i] for i in rng.permutation(len(cands))]
            assert select_neighbors(5, shuffled, params, self.ds) == base

    def test_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            select_neighbors(0, [(40, 1.0)], StrategyParams(), self.ds)
        with pytest.raises(ValueError, match="out of range"):
            select_neighbors(0, [(-1, 1.0)], StrategyParams(), self.ds)
        for s in (-1, 40):
            with pytest.raises(ValueError, match="node .* out of range"):
                select_neighbors(s, [(3, 1.0)], StrategyParams(), self.ds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("strategy", ["rng", "nssg", "tbsg"])
    def test_bad_distance_rejected(self, bad, strategy):
        # A NaN, infinite or negative distance is refused, not silently
        # dropped or run through the rules; zero stays legal.
        cands = _pairs(self.ds, 0, range(1, 10))
        cands[4] = (cands[4][0], bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            select_neighbors(0, cands, StrategyParams(strategy=strategy, m=5), self.ds)

    def test_nssg_angle_threshold(self):
        # v at angle 0 is kept first; a 10-degree candidate falls inside a
        # 30-degree cone, a 45-degree candidate does not.
        ds = Dataset(
            np.array(
                [
                    [0.0, 0.0],
                    [0.9, 0.0],
                    [math.cos(math.radians(10)), math.sin(math.radians(10))],
                    [math.cos(math.radians(45)), math.sin(math.radians(45))],
                ]
            )
        )
        params = StrategyParams(strategy="nssg", alpha_t=math.radians(30), m=10)
        assert select_neighbors(0, _pairs(ds, 0, [1, 2, 3]), params, ds) == [1, 3]

    def test_rng_collinear_shadowing(self):
        # On a line, the nearest point shadows everything behind it.
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
        chosen = select_neighbors(
            0, _pairs(ds, 0, [1, 2, 3]), StrategyParams(strategy="rng", m=10), ds
        )
        assert chosen == [1]

    def test_tbsg_exclusions_imply_rng_exclusions(self):
        # With no degree cap in play, every candidate the tbsg strategy drops
        # must have an already-kept neighbor satisfying the plain rng rule
        # (closer to the candidate than s is): the tbsg rule only ever
        # strengthens rng's, never fires without it.
        x = self.ds.vectors64
        params = StrategyParams(mp=0.53, m=40)
        saw_exclusion = False
        for s in range(10):
            cands = sorted(
                _pairs(self.ds, s, [i for i in range(40) if i != s]),
                key=lambda c: (c[1], c[0]),
            )
            selected = select_neighbors(s, cands, params, self.ds)
            kept_before: list[int] = []
            for e, d_se in cands:
                if e in selected:
                    kept_before.append(e)
                    continue
                saw_exclusion = True
                rng_blockers = [
                    v for v in kept_before if l2_distance(x[v], x[e]) < d_se
                ]
                assert rng_blockers, f"node {e} excluded without an rng-valid blocker"
        assert saw_exclusion

    def test_matches_literal_reference(self):
        rng = np.random.default_rng(5)
        for t in range(30):
            n = int(rng.integers(5, 60))
            ds = generate_synthetic(n, int(rng.integers(2, 6)), seed=600 + t, spread=1.0)
            s = int(rng.integers(n))
            ids = rng.integers(0, n, size=int(rng.integers(1, n + 5)))
            cands = _pairs(ds, s, ids)
            strategy = ("rng", "nssg", "tbsg")[t % 3]
            if strategy == "nssg":
                params = StrategyParams(
                    strategy="nssg",
                    alpha_t=float(rng.uniform(0.2, math.pi / 3)),
                    m=int(rng.integers(1, 10)),
                )
            elif strategy == "tbsg":
                static_r = rng.uniform(0.1, 2.0, size=n) if t % 2 else None
                params = StrategyParams(
                    strategy="tbsg",
                    mp=float(rng.uniform(0.5, 0.9)),
                    m=int(rng.integers(1, 10)),
                    r_mode="static" if static_r is not None else "dynamic",
                    static_r=static_r,
                )
            else:
                params = StrategyParams(strategy="rng", m=int(rng.integers(1, 10)))
            assert select_neighbors(s, cands, params, ds) == literal_select(
                ds, s, cands, params
            )

    def test_matches_literal_reference_across_row_blocks(self):
        # 60-200 candidates at d >= 16: the lock-step pass keeps one neighbor
        # per round and strikes out what it blocks, over many rounds.
        rng = np.random.default_rng(7)
        cases = [("rng", None), ("nssg", None), ("tbsg", "dynamic"), ("tbsg", "static")]
        rounds = []
        for t in range(24):
            dim = (16, 64, 128)[t % 3]
            strategy, r_mode = cases[t % 4]
            count = int(rng.integers(60, 201))
            n = count + 1
            ds = generate_synthetic(n, dim, clusters=2, spread=1.0, seed=900 + t)
            s = int(rng.integers(n))
            ids = rng.permutation(np.delete(np.arange(n), s))
            cands = _pairs(ds, s, np.concatenate([ids, ids[:5]]))
            m = int(rng.integers(10, 60))
            if strategy == "nssg":
                params = StrategyParams(
                    strategy="nssg", alpha_t=float(rng.uniform(0.6, math.pi / 3)), m=m
                )
            elif strategy == "tbsg":
                params = StrategyParams(
                    strategy="tbsg",
                    mp=float(rng.uniform(0.5, 0.6)),
                    m=m,
                    r_mode=r_mode,
                    static_r=rng.uniform(0.5, 3.0, size=n) if r_mode == "static" else None,
                )
            else:
                params = StrategyParams(strategy="rng", m=m)
            expected = literal_select(ds, s, cands, params)
            assert select_neighbors(s, cands, params, ds) == expected, (t, strategy, dim)
            rounds.append(len(expected))
        # Each kept neighbor is one round; most cases run five or more.
        assert sum(r >= 5 for r in rounds) >= 16


class TestChunkBudget:
    @pytest.mark.parametrize("n,dim", [(300, 128), (500, 16)])
    @pytest.mark.parametrize("r_mode", ["dynamic", "static"])
    def test_builds_equal_at_budget_extremes(self, monkeypatch, n, dim, r_mode):
        # The budget only decides which nodes are pruned together: one node
        # per chunk, a few nodes per chunk and every node in one chunk keep
        # the same edges. A third of the rows come twice, so their pools open
        # with a zero-distance candidate and their static radius is zero,
        # next to nodes with neither, at every chunk edge.
        rows = generate_synthetic(n, dim, clusters=3, spread=1.0, seed=21).vectors
        ds = Dataset(np.concatenate([rows, rows[::3]]))
        params = TbsgParams(K=30, m=20, r_mode=r_mode)
        builds = []
        for candidates in (1, 200, 1 << 40):
            monkeypatch.setattr(tbsg.pruning, "_BLOCK_VALUES", candidates)
            builds.append(build_tbsg(ds, params))
        assert builds[0] == builds[1] == builds[2]
        assert builds[0].neighbors.size > ds.count

    @pytest.mark.parametrize("candidates", [1, 128, 1 << 40])
    def test_every_node_matches_literal_reference(self, monkeypatch, candidates):
        # Many nodes' pools in one CSR pair, some empty and some opening
        # with duplicates of their node, pruned at once: each node keeps what
        # the literal per-node scan keeps, whichever chunks the budget forms.
        monkeypatch.setattr(tbsg.pruning, "_BLOCK_VALUES", candidates)
        rng = np.random.default_rng(13)
        rows = generate_synthetic(60, 8, clusters=2, spread=1.0, seed=5).vectors
        ds = Dataset(np.concatenate([rows, rows[:20]]))
        n = ds.count
        x = ds.vectors64
        cases = [
            StrategyParams(strategy="rng", m=7),
            StrategyParams(strategy="nssg", alpha_t=0.9, m=9),
            StrategyParams(strategy="tbsg", mp=0.55, m=8),
            StrategyParams(
                strategy="tbsg",
                mp=0.52,
                m=12,
                r_mode="static",
                static_r=np.where(np.arange(n) % 4 == 0, 0.0, rng.uniform(0.2, 2.0, n)),
            ),
        ]
        for params in cases:
            pools = []
            for s in range(n):
                others = np.delete(np.arange(n), s)
                ids = rng.choice(others, size=int(rng.integers(0, 50)), replace=False)
                pools.append(sorted((l2_distance(x[s], x[c]), int(c)) for c in ids))
            offsets = np.cumsum([0] + [len(p) for p in pools])
            cand_d = np.asarray([d for p in pools for d, _ in p], dtype=np.float64)
            cand_ids = np.asarray([c for p in pools for _, c in p], dtype=np.int64)
            kept = tbsg.pruning._select_from_arrays(offsets, cand_ids, cand_d, params, ds)
            assert np.all(np.diff(kept) > 0)
            for s in range(n):
                mine = kept[(kept >= offsets[s]) & (kept < offsets[s + 1])]
                want = literal_select(ds, s, [(c, d) for d, c in pools[s]], params)
                assert cand_ids[mine].tolist() == want, (params.strategy, s)


class TestBlockBound:
    def test_no_kernel_call_exceeds_one_block(self, monkeypatch):
        # Criterion 09's 4k prefix prunes 127k candidates: two chunks of
        # at most _BLOCK_VALUES candidates, so no round hands pairwise_sq
        # more pairs than one block, and the kept positions are those of one
        # chunk holding every node.
        ds = Dataset(generate_synthetic(16_000, 16, clusters=1, spread=1.0, seed=7).vectors[:4000])
        select = tbsg.pruning._select_from_arrays
        pools = []

        def capture(offsets, cand_ids, cand_d, params, dataset):
            pools.append((offsets, cand_ids, cand_d, params))
            return select(offsets, cand_ids, cand_d, params, dataset)

        monkeypatch.setattr(tbsg.index, "_select_from_arrays", capture)
        build_tbsg(ds, TbsgParams(K=20, m=20, seed=3))
        (offsets, cand_ids, cand_d, params), = pools
        assert cand_ids.size > tbsg.core._BLOCK_VALUES
        calls32 = []

        def spy32(x, a, b):
            calls32.append(len(a))
            return pairwise_sq(x, a, b)

        monkeypatch.setattr(tbsg.pruning, "pairwise_sq", spy32)
        kept = select(offsets, cand_ids, cand_d, params, ds)
        assert 0 < max(calls32) <= tbsg.core._BLOCK_VALUES
        monkeypatch.setattr(tbsg.pruning, "_BLOCK_VALUES", 1 << 40)
        assert np.array_equal(select(offsets, cand_ids, cand_d, params, ds), kept)


class TestRounds:
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("candidates,chunks", [(1 << 40, 1), (2000, 3)])
    def test_round_m_measures_nothing(self, monkeypatch, m, candidates, chunks):
        # Every node alive in round r has kept r - 1 neighbours, so round m
        # keeps each node's first alive candidate without measuring it
        # against the rest: at m = 1 no pair distance is computed, and a
        # chunk whose nodes reach m makes at most m - 1 calls of each
        # kernel, the float32 pairwise_sq and the exact pairwise_distances.
        # 2000 candidates make chunks of 100 nodes of 20 candidates.
        ds = generate_synthetic(300, 8, clusters=2, spread=1.0, seed=3)
        kg = build_knng(ds, 20, exact=True)
        offsets = np.arange(0, kg.ids.size + 1, 20)
        calls = []

        calls32 = []

        def spy(dataset, a, b):
            calls.append(len(a))
            return pairwise_distances(dataset, a, b)

        def spy32(x, a, b):
            calls32.append(len(a))
            return pairwise_sq(x, a, b)

        monkeypatch.setattr(tbsg.pruning, "pairwise_distances", spy)
        monkeypatch.setattr(tbsg.pruning, "pairwise_sq", spy32)
        monkeypatch.setattr(tbsg.pruning, "_BLOCK_VALUES", candidates)
        params = StrategyParams(strategy="rng", m=m)
        kept = tbsg.pruning._select_from_arrays(
            offsets, kg.ids.ravel(), kg.dists.ravel(), params, ds
        )
        degree = np.diff(np.searchsorted(kept, offsets))
        assert degree.max() == m
        assert len(calls) <= chunks * (m - 1)
        assert len(calls32) <= chunks * (m - 1)
        # The float32 kernel measures every round but the last.
        assert (len(calls32) > 0) == (m > 1)


def _params(strategy: str, r_mode: str, ds: Dataset, kg, **kw) -> StrategyParams:
    """One strategy's params; static mode takes build_tbsg's radii."""
    static_r = kg.dists[:, 0].copy() if r_mode == "static" else None
    return StrategyParams(strategy=strategy, r_mode=r_mode, static_r=static_r, **kw)


def _assert_pools_match_literal(ds: Dataset, kg, params: StrategyParams) -> int:
    """Prune every node's bidirected KNNG pool at once; each node must keep
    what the literal scan keeps. Returns the number of edges kept."""
    bg = add_reverse_edges(kg)
    kept = tbsg.pruning._select_from_arrays(bg.offsets, bg.ids, bg.dists, params, ds)
    for s in range(ds.count):
        lo, hi = bg.offsets[s], bg.offsets[s + 1]
        mine = kept[(kept >= lo) & (kept < hi)]
        pool = list(zip(bg.ids[lo:hi].tolist(), bg.dists[lo:hi].tolist()))
        assert bg.ids[mine].tolist() == literal_select(ds, s, pool, params), (params.strategy, s)
    return kept.size


STRATEGIES = [
    ("rng", "dynamic", {}),
    ("nssg", "dynamic", {"alpha_t": 0.9}),
    ("tbsg", "dynamic", {"mp": 0.55}),
    ("tbsg", "static", {"mp": 0.55}),
    ("tbsg", "dynamic", {"mp": 0.5}),
    # Only a static radius below d_se lets a real triple reach min_prob 1.
    ("tbsg", "static", {"mp": 1.0}),
    ("tbsg", "static", {"mp": 1.0 + 1e-9}),
]


class TestFloat32Decisions:
    """A round decides a pair from its float32 squared distance only where
    the rounding margin puts it clearly on one side of the rule's threshold;
    on every boundary below, each node must keep what the float64 literal
    scan keeps."""

    @pytest.mark.parametrize("strategy,r_mode,kw", STRATEGIES)
    def test_integer_grid_ties(self, strategy, r_mode, kw):
        # Coordinates in {-2..2} * 1001: squared distances are small
        # integers times 1001^2, so d_ve == d_se ties are exact in float64,
        # while the squares exceed 2^24 and float32 rounds them.
        rng = np.random.default_rng(4)
        ds = Dataset(rng.integers(-2, 3, size=(300, 8)) * 1001.0)
        kg = build_knng(ds, 12, exact=True)
        # Candidates as far from s as from s's nearest neighbour: the first
        # round's RNG ties.
        x = ds.vectors64
        to_v = np.sum((x[kg.ids] - x[kg.ids[:, :1]]) ** 2, axis=2)
        to_s = np.sum((x[kg.ids] - x[:, None]) ** 2, axis=2)
        assert np.count_nonzero(to_v == to_s) > 100
        assert tbsg.pruning._float32_slack(ds) is not None
        params = _params(strategy, r_mode, ds, kg, m=10, **kw)
        assert _assert_pools_match_literal(ds, kg, params) > ds.count

    @pytest.mark.parametrize("strategy", ["rng", "nssg", "tbsg"])
    @pytest.mark.parametrize("r_mode", ["dynamic", "static"])
    def test_thresholds_met_exactly_by_a_real_triple(self, strategy, r_mode):
        # For each node, the pair of its nearest candidate v and a later one
        # e sets the threshold: mp is that triple's min_prob, which the
        # float64 rule meets with equality, and alpha_t is its angle, within
        # a unit in the last place of the nssg test's cosine.
        ds = generate_synthetic(200, 16, clusters=3, spread=0.5, seed=8)
        kg = build_knng(ds, 20, exact=True)
        bg = add_reverse_edges(kg)
        x = ds.vectors64
        checked = 0
        for s in range(0, ds.count, 3):
            ids = bg.ids[bg.offsets[s] : bg.offsets[s + 1]]
            dists = bg.dists[bg.offsets[s] : bg.offsets[s + 1]]
            pool = list(zip(ids.tolist(), dists.tolist()))
            v, d_sv = pool[0]
            for e, d_se in pool[1:]:
                d_ve = l2_distance(x[v], x[e])
                r = kg.dists[s, 0] if r_mode == "static" else d_se
                cos_a = (d_sv * d_sv + d_se * d_se - d_ve * d_ve) / (2.0 * d_sv * d_se)
                if strategy == "tbsg" and d_ve < d_se:
                    mp = min_prob(TriangleGeom(d_se, d_sv, d_ve, r))
                    if 0.5 < mp <= 1.0:
                        kw = {"mp": mp}
                        break
                if strategy == "nssg" and 0.5 + 1e-8 < cos_a < 1.0 - 1e-8:
                    kw = {"alpha_t": math.acos(cos_a + 1e-9)}
                    break
                if strategy == "rng":
                    kw = {}
                    break
            else:
                continue
            params = _params(strategy, r_mode, ds, kg, m=15, **kw)
            assert select_neighbors(s, pool, params, ds) == literal_select(ds, s, pool, params)
            checked += 1
        assert checked > 40

    @pytest.mark.parametrize("scale", [2.0**-70, 2.0**70])
    @pytest.mark.parametrize("strategy,r_mode,kw", STRATEGIES[:4])
    def test_data_past_the_float32_range(self, scale, strategy, r_mode, kw):
        # Squares of differences would underflow or overflow in float32, so
        # the guard sends every pair the exact way; a zero row adds |x| = 0,
        # which the guard ignores.
        rows = generate_synthetic(150, 16, clusters=3, spread=0.5, seed=9).vectors64 * scale
        ds = Dataset(np.concatenate([rows, np.zeros((1, 16))]))
        assert tbsg.pruning._float32_slack(ds) is None
        kg = build_knng(ds, 12, exact=True)
        params = _params(strategy, r_mode, ds, kg, m=10, **kw)
        assert _assert_pools_match_literal(ds, kg, params) > ds.count

    def test_tight_and_offset_clusters(self):
        # Relative to each distance, the bound holds wherever the data sit:
        # tight clusters, and the same moved by +100.
        rows = generate_synthetic(600, 16, clusters=20, spread=0.005, seed=0).vectors64
        for data in (rows, rows + 100.0):
            ds = Dataset(data)
            assert tbsg.pruning._float32_slack(ds) is not None
            kg = build_knng(ds, 12, exact=True)
            for strategy, r_mode, kw in STRATEGIES[:4]:
                params = _params(strategy, r_mode, ds, kg, m=10, **kw)
                _assert_pools_match_literal(ds, kg, params)
