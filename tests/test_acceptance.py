"""Acceptance gate: eleven end-to-end checks with explicit tolerances.

Each test prints exactly one `criterion NN: PASS/FAIL (...)` line directly to
the terminal (bypassing capture) so a plain pytest run always shows the
scorecard, then asserts the same condition. Wall-clock budgets are asserted
where the check is only meaningful if it is also cheap.
"""

import math
import time

import numpy as np
import pytest

from literal_algos import literal_search, literal_select
from tbsg import (
    Dataset,
    SearchParams,
    StrategyParams,
    TbsgParams,
    TriangleGeom,
    brute_force_groundtruth,
    build_cover_tree,
    build_exact_knng,
    build_knng,
    build_tbsg,
    generate_synthetic,
    knng_recall,
    l2_distance,
    load_index,
    min_prob,
    monte_carlo_prob,
    prob_check,
    reachable_fraction,
    read_fvecs,
    read_ivecs,
    recall,
    save_index,
    scaling_experiment,
    search_knn,
    select_neighbors,
    write_fvecs,
    write_ivecs,
)
from tbsg.bench import default_geometry_grid
from tbsg.core import distances_to_many
from tbsg.pruning import analytic_disk_prob


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


# (label, observed max out-degree, configured m) for every index built here.
_DEGREE_CHECKS: list[tuple[str, int, int]] = []


def _build(dataset: Dataset, params: TbsgParams, label: str):
    index = build_tbsg(dataset, params)
    _DEGREE_CHECKS.append((label, index.max_out_degree(), params.m))
    return index


@pytest.fixture(scope="module")
def desk_scale():
    """10k-point build at default parameters, shared by criteria 6 and 7."""
    full = generate_synthetic(10_100, 16, clusters=4, spread=1.0, seed=11)
    base = Dataset(full.vectors[:10_000])
    queries = Dataset(full.vectors[10_000:])
    t0 = time.perf_counter()
    index = _build(base, TbsgParams(), "desk-scale n=10000")
    build_seconds = time.perf_counter() - t0
    return index, base, queries, build_seconds


def test_criterion_01_offset_closed_form_matches_trig_form(capsys):
    # Triangles drawn by their angles at s and at e; both probability forms
    # must agree even where the bisector offset goes negative or clamps.
    rng = np.random.Generator(np.random.PCG64(12345))
    count = 10_000
    t0 = time.perf_counter()
    alphas = rng.uniform(0.05, math.pi / 2 - 0.05, count)
    thetas = rng.uniform(0.05, math.pi / 2 - 0.05, count)
    scales = rng.uniform(0.1, 10.0, count)
    radii = rng.uniform(0.1, 10.0, count)
    worst = 0.0
    for alpha, theta, scale, r in zip(alphas, thetas, scales, radii):
        sin_sum = math.sin(alpha + theta)
        d_sv = scale * math.sin(theta) / sin_sum
        d_ve = scale * math.sin(alpha) / sin_sum
        p_lengths = min_prob(TriangleGeom(d_se=scale, d_sv=d_sv, d_ve=d_ve, r=r))
        h_trig = scale * math.sin(2.0 * alpha + theta) / (2.0 * sin_sum)
        p_trig = 1.0 - math.acos(min(1.0, max(-1.0, h_trig / r))) / math.pi
        worst = max(worst, abs(p_lengths - p_trig))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(capsys, 1, ok, f"max gap {worst:.3e} over {count} triangles in {elapsed:.2f}s")


def test_criterion_02_probability_bound_holds(capsys):
    grid = default_geometry_grid()
    t0 = time.perf_counter()
    result = prob_check(dims=(2, 3, 4), samples=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    measured_geoms = len(grid) - len(result.skipped)
    bound_fails = [r for r in result.rows if not r.bound_ok]
    analytic_fails = [
        r for r in result.rows
        if r.dim == 2
        and abs(r.estimate - analytic_disk_prob(r.geom)) > 4.0 * r.std_error + 1e-12
    ]
    ok = (
        measured_geoms >= 20
        and not bound_fails
        and not analytic_fails
        and elapsed < 30.0
    )
    _report(
        capsys, 2, ok,
        f"{len(result.rows)} cells over {measured_geoms} geometries x dims 2/3/4, "
        f"bound failures {len(bound_fails)}, disk-formula mismatches {len(analytic_fails)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_equilateral_boundary_is_one_half(capsys):
    geom = TriangleGeom(d_se=1.0, d_sv=1.0, d_ve=1.0, r=1.0)
    closed = min_prob(geom)
    ok = abs(closed - 0.5) <= 1e-12
    cells = []
    for dim in (2, 3, 4):
        est, se = monte_carlo_prob(geom, dim, samples=100_000, seed=40 + dim)
        ok = ok and abs(est - 0.5) <= 4.0 * se
        cells.append(f"d={dim}: {est:.4f}+-{4.0 * se:.4f}")
    _report(capsys, 3, ok, f"closed form {closed!r}; MC " + ", ".join(cells))


def test_criterion_04_matches_literal_transliterations(capsys):
    sel_matches = 0
    for t in range(50):
        n = 5 + (t * 7) % 96
        d = 2 + t % 6
        ds = generate_synthetic(n, d, clusters=1 + t % 3, spread=1.0, seed=4000 + t)
        x = ds.vectors64
        rng = np.random.Generator(np.random.PCG64(4500 + t))
        s = int(rng.integers(n))
        ids = rng.integers(0, n, size=int(rng.integers(5, 3 * n)))
        candidates = [(int(c), l2_distance(x[s], x[c])) for c in ids]
        strategy = ("rng", "nssg", "tbsg")[t % 3]
        kwargs = {"strategy": strategy, "m": 1 + t % 12}
        if strategy == "nssg":
            kwargs["alpha_t"] = math.radians(20 + (t % 5) * 10)
        if strategy == "tbsg":
            kwargs["mp"] = 0.5 + (t % 4) * 0.01
            if t % 2:
                static = rng.uniform(0.1, 2.0, n)
                static[rng.random(n) < 0.3] = 0.0  # per-node dynamic fallback
                kwargs.update(r_mode="static", static_r=static)
        params = StrategyParams(**kwargs)
        if select_neighbors(s, candidates, params, ds) == literal_select(ds, s, candidates, params):
            sel_matches += 1

    search_matches = 0
    for t in range(50):
        n = 10 + (t * 11) % 91
        d = 2 + t % 6
        ds = generate_synthetic(n, d, clusters=1 + t % 3, spread=1.0, seed=7000 + t)
        index = _build(ds, TbsgParams(K=8, m=6, mp=0.53, seed=t), f"fidelity t={t}")
        q = generate_synthetic(1, d, clusters=1, spread=1.5, seed=8000 + t).vector(0)
        l = 1 + t % 20
        k = min(l, 1 + t % 10)
        got = search_knn(index, ds, q, SearchParams(l=l, k=k))
        if got == literal_search(index, ds, q, l, k):
            search_matches += 1

    ok = sel_matches == 50 and search_matches == 50
    _report(capsys, 4, ok, f"selection {sel_matches}/50, search {search_matches}/50 exact matches")


def test_criterion_05_exhaustive_search_is_exact(capsys):
    exact = 0
    reachable = 0
    for t in range(100):
        ds = generate_synthetic(50, 4, clusters=2, spread=1.0, seed=100 + t)
        index = _build(ds, TbsgParams(K=10, m=16, mp=0.53, seed=t), f"exhaustive t={t}")
        if reachable_fraction(index) == 1.0:
            reachable += 1
        q = generate_synthetic(1, 4, clusters=1, spread=1.5, seed=999 + t).vector(0)
        want = np.lexsort((np.arange(50), distances_to_many(ds, q))).tolist()
        if search_knn(index, ds, q, SearchParams(l=50, k=50)) == want:
            exact += 1
    ok = exact == 100 and reachable == 100
    _report(capsys, 5, ok, f"{exact}/100 brute-force-order matches, {reachable}/100 fully reachable")


def test_criterion_06_desk_scale_recall(capsys, desk_scale):
    index, base, queries, build_seconds = desk_scale
    gt = brute_force_groundtruth(base, queries, 10)
    recalls = {}
    t0 = time.perf_counter()
    for l in (100, 200):
        sp = SearchParams(l=l, k=10)
        results = [search_knn(index, base, queries.vector(i), sp) for i in range(queries.count)]
        recalls[l] = recall(results, gt)
    search_seconds = time.perf_counter() - t0
    ok = (
        recalls[100] >= 0.95
        and recalls[200] >= 0.99
        and build_seconds < 120.0
        and search_seconds < 5.0
    )
    _report(
        capsys, 6, ok,
        f"recall {recalls[100]:.4f}@l=100, {recalls[200]:.4f}@l=200; "
        f"build {build_seconds:.1f}s, search {search_seconds:.2f}s",
    )


def test_criterion_07_degree_cap_on_every_build(capsys, desk_scale):
    for m in (1, 3, 50):
        ds = generate_synthetic(400, 8, clusters=2, spread=1.0, seed=70 + m)
        _build(ds, TbsgParams(K=12, m=m, mp=0.53, seed=m), f"cap m={m}")
    over = [(label, deg, m) for label, deg, m in _DEGREE_CHECKS if deg > m]
    ok = len(_DEGREE_CHECKS) >= 4 and not over
    _report(capsys, 7, ok, f"{len(_DEGREE_CHECKS)} builds checked, cap violations {len(over)}")


def test_criterion_08_nn_descent_quality(capsys):
    ds = generate_synthetic(2000, 16, clusters=4, spread=1.0, seed=8)
    t0 = time.perf_counter()
    approx = build_knng(ds, 20, iterations=10, seed=8)
    elapsed = time.perf_counter() - t0
    rec = knng_recall(approx, build_exact_knng(ds, 20))
    ok = rec >= 0.90
    _report(capsys, 8, ok, f"NN-descent recall {rec:.4f} (n=2000, K=20, 10 iterations, {elapsed:.1f}s)")


def test_criterion_09_near_linear_scaling(capsys):
    ds = generate_synthetic(16_000, 16, clusters=1, spread=1.0, seed=7)
    t0 = time.perf_counter()
    result = scaling_experiment(
        ds,
        [2000, 4000, 8000, 16000],
        build_params=TbsgParams(K=20, m=20, seed=3),
        search_params=SearchParams(l=100, k=10),
    )
    elapsed = time.perf_counter() - t0
    slope = result.build_time_exponent
    ratio = result.rows[-1].mean_distance_evals / result.rows[0].mean_distance_evals
    ok = slope is not None and slope <= 1.3 and ratio <= 2.5 and elapsed < 300.0
    _report(capsys, 9, ok, f"build-time slope {slope:.3f}, evals ratio 16k/2k {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_10_cover_tree_invariants(capsys):
    n = 5000
    ds = generate_synthetic(n, 8, clusters=3, spread=1.0, seed=10)
    tree = build_cover_tree(ds, base=2.0, seed=0)
    x = ds.vectors64
    roots = sum(1 for p in range(n) if tree.parent(p) is None)
    edges = 0
    violations = 0
    for p in range(n):
        for c in tree.children(p):
            edges += 1
            if tree.parent(c) != p or tree.level(c) >= tree.level(p):
                violations += 1
            if l2_distance(x[p], x[c]) > tree.covdist(p):
                violations += 1
    seen = {tree.root}
    frontier = [tree.root]
    while frontier:
        for c in tree.children(frontier.pop()):
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    ok = (
        tree.count == n
        and roots == 1
        and edges == n - 1
        and len(seen) == n
        and violations == 0
    )
    _report(
        capsys, 10, ok,
        f"n={tree.count}, roots={roots}, edges={edges}, reachable={len(seen)}, "
        f"covering/level violations {violations}",
    )


def test_criterion_11_serialization_round_trips(capsys, tmp_path):
    ds = generate_synthetic(300, 8, clusters=2, spread=1.0, seed=12)
    index = _build(ds, TbsgParams(K=10, m=12, seed=0), "round-trip")
    first, second = tmp_path / "a.tbsg", tmp_path / "b.tbsg"
    save_index(index, first)
    loaded = load_index(first)
    save_index(loaded, second)
    index_ok = loaded == index and first.read_bytes() == second.read_bytes()

    rng = np.random.Generator(np.random.PCG64(99))
    vecs = (rng.standard_normal((37, 9)) * rng.choice([1e-6, 1.0, 1e6], (37, 1)))
    vecs = vecs.astype(np.float32)
    fpath, fpath2 = tmp_path / "v.fvecs", tmp_path / "v2.fvecs"
    write_fvecs(fpath, Dataset(vecs))
    back = read_fvecs(fpath)
    write_fvecs(fpath2, back)
    fvecs_ok = (
        np.array_equal(back.vectors, vecs)
        and back.vectors.dtype == np.float32
        and fpath.read_bytes() == fpath2.read_bytes()
    )

    rows = [[int(v) for v in row] for row in rng.integers(-(2**31), 2**31, size=(23, 5))]
    ipath, ipath2 = tmp_path / "g.ivecs", tmp_path / "g2.ivecs"
    write_ivecs(ipath, rows)
    iback = read_ivecs(ipath)
    write_ivecs(ipath2, iback)
    ivecs_ok = iback == rows and ipath.read_bytes() == ipath2.read_bytes()

    ok = index_ok and fvecs_ok and ivecs_ok
    _report(
        capsys, 11, ok,
        f"index {'ok' if index_ok else 'FAIL'}, fvecs {'ok' if fvecs_ok else 'FAIL'}, "
        f"ivecs {'ok' if ivecs_ok else 'FAIL'}",
    )
