"""Command-line interface.

Subcommands cover the full reproduction pipeline: generate synthetic data,
compute brute-force groundtruth, build an index, benchmark search, run the
scaling experiment, and validate the pruning probability bound. Every
subcommand prints a human-readable table; search, scale and prob-check take
--csv to write the same rows machine-readably as well (bench.write_report_csv).

Exit codes: 0 success, 1 data/format error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .bench import (
    _cells,
    brute_force_groundtruth,
    GroundTruth,
    prob_check,
    run_benchmark,
    scaling_experiment,
    write_report_csv,
)
from .index import SearchParams, TbsgParams, build_tbsg, load_index, save_index
from .io import (
    FormatError,
    generate_synthetic,
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)

PROFILES = {
    "sift-like": {"K": 100, "mp": 0.53, "m": 50},
    "gist-like": {"K": 200, "mp": 0.515, "m": 70},
}


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _report(rows, formats, csv_path=None, metadata=None) -> None:
    """Print result rows as a table, one format spec per column, and write
    them to csv_path as well when it is given."""
    table = [_cells(row) for row in rows]
    cells = [[format(v, f) for v, f in zip(t.values(), formats, strict=True)] for t in table]
    _print_table(list(table[0]), cells)
    if csv_path:
        write_report_csv(rows, csv_path, metadata)


def _build_params(args: argparse.Namespace) -> TbsgParams:
    merged = dict(PROFILES[args.profile])
    merged.update({k: getattr(args, k) for k in merged if getattr(args, k) is not None})
    return TbsgParams(**merged, base=args.base, r_mode=args.r_mode, seed=args.seed)


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(PROFILES), default="sift-like",
                        help="named parameter preset (flags below override it)")
    parser.add_argument("--K", type=int, default=None, help="KNNG neighbor count")
    parser.add_argument("--m", type=int, default=None, help="max out-degree")
    parser.add_argument("--mp", type=float, default=None, help="pruning probability threshold")
    parser.add_argument("--base", type=float, default=2.0, help="cover tree radius ratio")
    parser.add_argument("--r-mode", choices=("dynamic", "static"), default="dynamic")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_synth(args) -> int:
    dataset = generate_synthetic(args.n, args.d, args.clusters, args.spread, args.seed)
    write_fvecs(args.out, dataset)
    _print_table(
        ["n", "dim", "clusters", "spread", "seed", "out"],
        [[dataset.count, dataset.dim, args.clusters, args.spread, args.seed, args.out]],
    )
    return 0


def _cmd_groundtruth(args) -> int:
    dataset = read_fvecs(args.data)
    queries = read_fvecs(args.queries)
    gt = brute_force_groundtruth(dataset, queries, args.k)
    write_ivecs(args.out, gt.ids)
    _print_table(
        ["queries", "k", "out"],
        [[queries.count, args.k, args.out]],
    )
    return 0


def _cmd_build(args) -> int:
    dataset = read_fvecs(args.data)
    params = _build_params(args)
    t0 = time.perf_counter()
    index = build_tbsg(dataset, params)
    seconds = time.perf_counter() - t0
    save_index(index, args.out)
    degrees = np.diff(index.offsets)
    _print_table(
        ["n", "dim", "m", "mp", "K", "build_seconds", "max_degree", "mean_degree", "enter_point"],
        [[
            index.n,
            dataset.dim,
            params.m,
            params.mp,
            params.K,
            f"{seconds:.2f}",
            int(degrees.max()),
            f"{degrees.mean():.1f}",
            index.enter_point,
        ]],
    )
    return 0


def _cmd_search(args) -> int:
    index = load_index(args.index)
    dataset = read_fvecs(args.data)
    queries = read_fvecs(args.queries)
    gt = GroundTruth(ids=_load_gt_ids(args.gt))
    rows = run_benchmark(
        index, dataset, queries, gt, args.k, args.pool_sizes, repetitions=args.reps
    )
    metadata = {"dataset": Path(args.data).stem, "index": Path(args.index).name, "k": str(args.k)}
    _report(rows, ("", ".4f", ".1f", ".1f"), args.csv, metadata)
    return 0


def _load_gt_ids(path):
    lists = read_ivecs(path)
    if not lists:
        raise FormatError(f"{path}: empty groundtruth file")
    return np.asarray(lists, dtype=np.int64)


def _cmd_scale(args) -> int:
    dataset = read_fvecs(args.data)
    params = _build_params(args)
    result = scaling_experiment(
        dataset,
        args.sizes,
        build_params=params,
        search_params=SearchParams(l=args.l, k=args.k),
    )
    _report(result.rows, ("", ".2f", ".1f"), args.csv)
    if result.build_time_exponent is not None:
        print(f"build-time exponent (log t vs log n): {result.build_time_exponent:.3f}")
        print(f"evals exponent (log evals vs log log n): {result.evals_loglog_exponent:.3f}")
    return 0


def _cmd_prob_check(args) -> int:
    result = prob_check(dims=args.dims, samples=args.samples, seed=args.seed)
    _report(result.rows, (".4f",) * 4 + ("", ".4f", ".4f", ".5f", ""), args.csv)
    for geom, reason in result.skipped:
        print(f"skipped {geom}: {reason}", file=sys.stderr)
    ok = all(row.bound_ok for row in result.rows)
    print(f"cells: {len(result.rows)}  all bounds hold: {'yes' if ok else 'NO'}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbsg",
        description="Tree-based search graph: build, search, and validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fvecs dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("groundtruth", help="exact top-k per query (ivecs out)")
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_groundtruth)

    p = sub.add_parser("build", help="build an index from an fvecs file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_build_flags(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("search", help="recall/QPS benchmark of a built index")
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pool-sizes", type=_int_list, required=True)
    p.add_argument("--reps", type=int, default=3, help="timing repetitions per pool size")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scale", help="build-time and search-cost scaling over prefixes")
    p.add_argument("--data", required=True)
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--l", type=int, default=100, help="search pool size")
    p.add_argument("--k", type=int, default=10)
    _add_build_flags(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("prob-check", help="Monte Carlo validation of the pruning bound")
    p.add_argument("--dims", type=_int_list, default=[2, 3, 4])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_prob_check)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
