"""Generate one workload's inputs in a child process.

    python3 perfbench/gendata.py OUT_DIR SPEC_JSON

SPEC_JSON holds the SyntheticSpec fields plus ``pool``, the number of rows
held out as queries the way ``lpcascade bench`` holds them out.  Writes
``indexed.npy`` and ``queries.npy`` to OUT_DIR and prints the seconds spent
in ``generate`` as JSON.  Running apart from the measured process keeps the
generator's temporaries out of its peak RSS.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lpcascade import SyntheticSpec, generate  # noqa: E402


def main(out_dir: str, spec_json: str) -> None:
    spec = json.loads(spec_json)
    pool = spec.pop("pool")
    start = time.perf_counter()
    full = generate(SyntheticSpec(**spec))
    generate_s = time.perf_counter() - start
    rng = np.random.Generator(np.random.Philox(key=spec["rng_seed"]))
    chosen = rng.choice(len(full), size=pool, replace=False)
    mask = np.ones(len(full), dtype=bool)
    mask[chosen] = False
    out = Path(out_dir)
    np.save(out / "queries.npy", full.vectors[chosen])
    np.save(out / "indexed.npy", full.vectors[mask])
    print(json.dumps({"generate_s": generate_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
