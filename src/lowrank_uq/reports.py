"""Confidence set reports, and the CSV form of the package's records."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .matrices import frobenius_norm, nuclear_norm

__all__ = ["ConfidenceReport"]


@dataclass(frozen=True)
class ConfidenceReport:
    """A confidence ball: membership is ||v - center||^2 <= radius_sq in the
    declared norm.  ``statistic_value`` keeps the raw statistic, which may be
    negative even when the clamped radius is zero."""

    center: np.ndarray
    radius_sq: float
    norm_kind: str  # "frobenius" | "nuclear"
    level_alpha: float
    method: str  # RSS | UStat | ReAvg | PairedRSS | NuclearS1
    statistic_value: float
    n: int
    k_hat: int | None = None

    def __post_init__(self):
        if self.radius_sq < 0:
            raise ValueError("radius_sq must be nonnegative")
        if self.norm_kind not in ("frobenius", "nuclear"):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        if not 0 < self.level_alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    def distance_sq(self, v) -> float:
        diff = np.asarray(v, dtype=complex) - self.center
        if self.norm_kind == "frobenius":
            return frobenius_norm(diff) ** 2
        return nuclear_norm(diff) ** 2

    def contains(self, v) -> bool:
        return self.distance_sq(v) <= self.radius_sq


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _record_csv_lines(cls, records) -> list:
    """CSV lines of dataclass ``records`` of type ``cls``: a header of the
    field names, then one line per record with its fields in field order
    (bool as 0/1, float as ``.17g``, anything else as ``str``)."""
    names = [f.name for f in fields(cls)]
    return [",".join(names)] + [
        ",".join(_csv_field(getattr(r, name)) for name in names) for r in records
    ]
