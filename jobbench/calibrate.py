"""Machine-speed reference for normalising the benchmark's times.

The benchmark runs on shared virtual machines whose CPU speed changes by up
to a factor of two within seconds, under load from other tenants. Wall
times of the same job then differ by more than any bound a regression check
could use. The benchmark therefore times this fixed reference kernel just
before and just after every job and reports each job's time scaled to a
nominal reference speed:

    normalised time = wall time * NOMINAL_S / mean(sample before, sample after)

The kernel does the kind of work covbody's jobs do (batched small linear
algebra, a Python loop over numpy scalars, a Qhull hull, schema validation,
sorting and reductions over a mid-sized array, JSON encoding) but calls no
covbody code. A change to the program therefore moves the normalised times
exactly as it moves the wall times, while a slower or busier machine moves
the reference along with the jobs.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time

import jsonschema
import numpy as np
from scipy.spatial import ConvexHull

# mean kernel time on an unloaded 2 GHz Sapphire Rapids vCPU; only the
# scale of the reported numbers depends on it
NOMINAL_S = 0.003

_rng = np.random.default_rng(20230501)
_A = _rng.standard_normal((12, 3))
_A /= np.linalg.norm(_A, axis=1, keepdims=True)
_B = 1.0 + 0.1 * _rng.random(12)
_IDX = np.array(list(itertools.combinations(range(12), 3)))
_PTS = _rng.standard_normal((16, 3))
_M = _rng.standard_normal((32, 32))
_DOC = {"command": "reference", "vertices": _PTS.round(6).tolist()}
_VALIDATOR = jsonschema.Draft202012Validator({
    "type": "object", "additionalProperties": False, "required": ["command"],
    "properties": {"command": {"type": "string"},
                   "vertices": {"type": "array",
                                "items": {"type": "array", "items": {"type": "number"}}}}})


def _kernel() -> float:
    M = _A[_IDX]
    ok = np.abs(np.linalg.det(M)) > 1e-12
    X = np.linalg.solve(M[ok], _B[_IDX[ok]][..., None])[..., 0]
    feas = X[(_A @ X.T <= _B[:, None] + 1e-9).all(axis=0)]
    kept: list[np.ndarray] = []
    for p in np.vstack([feas, _PTS]):
        if all(np.abs(p - q).max() > 1e-8 for q in kept):
            kept.append(p)
    hull = ConvexHull(np.array(kept))
    _VALIDATOR.validate(_DOC)
    spread = (np.exp(-np.sort(_M, axis=1)).sum() + np.unique(np.round(_M, 1)).size
              + np.einsum("ij,jk->ik", _M[:8], _M[:, :8]).trace())
    return hull.volume + spread + len(json.dumps(_DOC, sort_keys=True))


class Reference:
    """Samples of the reference kernel's wall time, starting with one."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(*samples: float) -> float:
        """Factor taking a wall time to the nominal speed, from the samples
        taken next to it."""
        return NOMINAL_S / statistics.fmean(samples)
