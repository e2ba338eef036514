"""Exception types shared across covbody modules, and the checks of a
job's numbers and specs that raise them."""

from __future__ import annotations

from typing import Any

import numpy as np


class CovbodyError(Exception):
    """Base class for all covbody errors."""


class InputError(CovbodyError, ValueError):
    """Malformed or inconsistent input (unbounded body, bad schema, ...).

    Mapped to exit status 2 by the CLI.
    """


class DegenerateMeasureError(InputError):
    """A measure or surface-area measure degenerates (zero mass where
    positive mass is required, e.g. a vanishing projection support value)."""


class NumericError(CovbodyError, RuntimeError):
    """A numeric routine failed to converge or left its validity range.

    Mapped to exit status 3 by the CLI.
    """


def job_number(value: Any, key: str, ndim: int | None = 0):
    """A job's number as a float (ndim 0), or its list of numbers as a float
    array of `ndim` dimensions (any number of them for None). Anything else,
    JSON strings, nulls and booleans included, raises InputError naming
    `key`."""
    arr = np.asarray(value, dtype=object)  # a ragged list holds lists
    if ndim not in (None, arr.ndim) or not all(
            isinstance(x, (int, float, np.number)) and not isinstance(x, bool)
            for x in arr.flat):
        want = {0: "a number", 1: "a list of numbers"}.get(ndim, "an array of numbers")
        raise InputError(f"{key} must be {want}, got {value!r}")
    return float(arr) if ndim == 0 else arr.astype(float)


def spec_kind(spec: Any, what: str, kinds: dict[str, set[str]]) -> str:
    """The kind of a job's `what` spec: an object whose 'type' names one of
    `kinds` and whose other keys lie in that kind's set. Anything else
    raises InputError."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError(f"{what} spec must be an object with a 'type'")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"unknown {what} type {kind!r}")
    extra = set(spec) - kinds[kind] - {"type"}
    if extra:
        raise InputError(f"unknown {what} spec keys {sorted(extra)}")
    return kind


def job_field(spec: dict, key: str, kind: str) -> Any:
    """spec[key] of a job's spec of the given kind; InputError when the job
    left the key out."""
    if key not in spec:
        raise InputError(f"{kind} spec needs '{key}'")
    return spec[key]
