"""Sample containers: sorted samples and matched pairs, validated on construction.

Both containers are immutable after construction (their arrays are marked
read-only), so every computation that reads them is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "SortedSample",
    "PairedSample",
    "make_sample",
    "make_paired",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _numeric(raw, what: str = "sample") -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{what} contains values that are not numbers") from None


def _validate_column(values: np.ndarray, what: str = "sample") -> None:
    if values.ndim != 1 or values.size == 0:
        raise DataError(f"{what} must be a nonempty one-dimensional collection")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contains non-finite values")
    if np.any(values < 0):
        raise DataError(f"{what} contains negative values; the support is [0, inf)")


@dataclass(frozen=True)
class SortedSample:
    """An ascending sample of nonnegative observations.

    ``values`` is a read-only float array sorted ascending (ties kept).
    Construct through :func:`make_sample`, which validates raw input.  The
    test's core also holds a stack of D samples of one size n here, shape
    (D, n), each row sorted; ``n`` is then the size of each.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class PairedSample:
    """Two columns of observations with the row pairing preserved.

    ``left`` and ``right`` keep the original row order so that paired rows
    remain recoverable; the sorted per-column views are exposed through
    :meth:`left_sample` and :meth:`right_sample`.  Both views and the
    stable sort orders are computed once, at construction, as read-only
    arrays.
    """

    left: np.ndarray
    right: np.ndarray
    _sorted: tuple = field(init=False, repr=False, compare=False)
    _orders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left = _frozen_array(self.left)
        right = _frozen_array(self.right)
        _validate_column(left, "left column")
        _validate_column(right, "right column")
        if len(left) != len(right):
            raise DataError("paired columns must have equal length")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_sorted", tuple(
            SortedSample(_frozen_array(np.sort(col))) for col in (left, right)))
        object.__setattr__(self, "_orders", tuple(
            _frozen_array(np.argsort(col, kind="stable"), dtype=np.intp) for col in (left, right)))

    @property
    def n(self) -> int:
        return len(self.left)

    def left_sample(self) -> SortedSample:
        return self._sorted[0]

    def right_sample(self) -> SortedSample:
        return self._sorted[1]

    def left_order(self) -> np.ndarray:
        """Row indices that sort the left column ascending (stable)."""
        return self._orders[0]

    def right_order(self) -> np.ndarray:
        return self._orders[1]


def make_sample(raw) -> SortedSample:
    """Validate and sort raw observations into a :class:`SortedSample`.

    Raises
    ------
    DataError
        If the input is empty, contains values that are not numbers,
        negative values (support is [0, inf)), or non-finite values.
    """
    values = _numeric(raw)
    _validate_column(values)
    return SortedSample(_frozen_array(np.sort(values)))


def make_paired(left_raw, right_raw) -> PairedSample:
    """Validate two row-aligned columns into a :class:`PairedSample`."""
    return PairedSample(_numeric(left_raw, "left column"), _numeric(right_raw, "right column"))
