"""Print one SHA-256 per pinned build output, to diff two checkouts.

    python3 scripts/fingerprint.py > fingerprints.txt

A change meant to keep every output byte prints the same lines as its
parent. The outputs are:

- save_index bytes of the perfbench base sets (perfbench/workloads.py, read
  only), built with each workload's profile in both radius modes;
- save_index bytes of the criterion-06 desk index (10k x 16, default
  parameters);
- NN-descent ids and distances on criterion 08's set, and on a 20k x 16 set
  whose rounds propose enough pairs to split the merge into several shards.

The whole run took 27-32 s on a 2-core Xeon (Python 3.11.7, NumPy 2.4.6 /
OpenBLAS).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from tbsg import (  # noqa: E402
    Dataset,
    TbsgParams,
    build_knng,
    build_tbsg,
    generate_synthetic,
    save_index,
)


def _index_sha(dataset: Dataset, params: TbsgParams, tmp: Path) -> str:
    path = tmp / "index.tbsg"
    save_index(build_tbsg(dataset, params), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, wl in WORKLOADS.items():
            base, _ = wl.make(seed=0)
            for r_mode in ("dynamic", "static"):
                params = TbsgParams(**wl.build_params(), r_mode=r_mode)
                sha = _index_sha(Dataset(base), params, tmp)
                print(f"index {name} {r_mode}  {sha}", flush=True)
        desk = generate_synthetic(10_100, 16, clusters=4, spread=1.0, seed=11)
        desk = Dataset(desk.vectors[:10_000])
        print(f"index criterion-06  {_index_sha(desk, TbsgParams(), tmp)}", flush=True)
    runs = [
        ("criterion-08", generate_synthetic(2000, 16, clusters=4, spread=1.0, seed=8), 8),
        ("20k-x-16", generate_synthetic(20_000, 16, seed=7), 3),
    ]
    for label, ds, seed in runs:
        kg = build_knng(ds, 20, iterations=10, seed=seed)
        for part, values in (("ids", kg.ids), ("dists", kg.dists)):
            sha = hashlib.sha256(values.tobytes()).hexdigest()
            print(f"nn-descent {label} {part}  {sha}", flush=True)


if __name__ == "__main__":
    main()
