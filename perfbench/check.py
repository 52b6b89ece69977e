"""Output checks and the machine record.

A trial is checked two ways.  At workload seed 0 its outcome and a SHA-256
digest of the bits of R, orthogonality and residual must equal the recorded
reference (``reference.json``), which holds the bit-reproducibility
contract.  At every seed a successful trial's R must match LAPACK's
Householder R (positive diagonal) to ``R_RTOL`` in the Frobenius norm.  A
bound report is checked by a digest of its fields that do not depend on the
measured spectrum, so a more accurate ``cond2`` does not read as a failure.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import struct

import numpy as np

R_RTOL = 1e-10  # measured worst case on these inputs: 3e-15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def trial_digest(r, orth, resid) -> str | None:
    if r is None:
        return None
    h = hashlib.sha256(np.ascontiguousarray(r, dtype=np.float64).tobytes())
    h.update(struct.pack("<dd", orth, resid))
    return h.hexdigest()


def report_digest(report) -> str:
    fields = [report.matrix_class, list(report.size_ok),
              report.assumption_ok, float(report.predicted_orth).hex()]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def lapack_r(x: np.ndarray) -> np.ndarray:
    r = np.linalg.qr(x, mode="r")
    return r * np.sign(np.diagonal(r))[:, None]


def r_error(r: np.ndarray, r_ref: np.ndarray) -> float:
    return float(np.linalg.norm(r - r_ref) / np.linalg.norm(r_ref))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            values = []
            for leaf in ("level", "type", "size"):
                with open(os.path.join(index, leaf), encoding="utf-8") as handle:
                    values.append(handle.read().strip())
        except OSError:
            continue
        level, kind, size = values
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
