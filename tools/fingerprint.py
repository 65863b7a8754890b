"""Fingerprint of the benchmark's outputs: one line per output leaf.

    python3 tools/fingerprint.py > fingerprint.txt

Run from anywhere; the package is imported from the checkout's src/ and the
workloads from its perfbench/workloads.py, which this script only reads.
Every workload runs at seeds 1 and 3, operations 0 and 1, untimed and
unchecked, in a fixed directory under the system temp dir, so the paths the
CLI prints are the same for every checkout. Each leaf of an operation's
output prints as `workload:seed:op.path sha256`, where the path follows
dict keys and field names with `.` and sequence indices with `[i]`. Then
every field of grad_check(c, 42, 100) prints as `gradcheck:c.field sha256`
for each component c, so its errors compare at full precision: the 100
trials of tier-1's gradcheck criterion. Run it on two checkouts, one after
the other, and `diff` the outputs to see which results a change moved.
BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy loads BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402

from egowarp.gradcheck import COMPONENTS, grad_check  # noqa: E402

SEEDS = (1, 3)
OPS = (0, 1)
GRADCHECK_SEED, GRADCHECK_TRIALS = 42, 100
WORKDIR = Path(tempfile.gettempdir()) / "egowarp-fingerprint"


def _digest(kind: str, data: bytes) -> str:
    return hashlib.sha256(kind.encode() + b"\0" + data).hexdigest()


def leaves(name: str, value):
    """Yield (path, sha256) for every leaf of value, depth first.

    Dataclasses and named tuples descend by field, dicts by key, lists and
    tuples by index. An array hashes its dtype, shape and bytes; a string
    its UTF-8 bytes; None, a bool or a number (numpy's too) its type and
    repr. Any other type raises TypeError, so no output goes unhashed.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from leaves(f"{name}.{f.name}", getattr(value, f.name))
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        for field in value._fields:
            yield from leaves(f"{name}.{field}", getattr(value, field))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(f"{name}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from leaves(f"{name}[{i}]", item)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        yield name, _digest(f"{arr.dtype.str}{arr.shape}", arr.tobytes())
    elif isinstance(value, str):
        yield name, _digest("str", value.encode())
    elif value is None or isinstance(value, (bool, int, float, np.generic)):
        item = value.item() if isinstance(value, np.generic) else value
        yield name, _digest(type(item).__name__, repr(item).encode())
    else:
        raise TypeError(f"{name}: cannot fingerprint a {type(value).__name__}")


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                workdir = WORKDIR / f"{wl.name}-{seed}"
                workdir.mkdir(parents=True)
                state = wl.setup(seed, workdir)
                for i in OPS:
                    out, _ = wl.op(state, wl.inputs(state, i))
                    for path, sha in leaves(f"{wl.name}:{seed}:{i}", out):
                        print(path, sha)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for c in COMPONENTS:
        report = grad_check(c, GRADCHECK_SEED, GRADCHECK_TRIALS)
        for path, sha in leaves(f"gradcheck:{c}", report):
            print(path, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
