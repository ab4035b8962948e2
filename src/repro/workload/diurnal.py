"""Diurnal traffic shaping.

Ledger load (section 4.4) and hosting cost (experiment E15) depend on
*peak* rates, not means: photo viewing follows the waking day.  This
module provides a smooth diurnal profile — a two-harmonic curve with an
evening peak and a pre-dawn trough, the standard shape of consumer web
traffic — plus helpers to compute peak-to-mean ratios and to thin a
flat event stream into a diurnal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

__all__ = ["DiurnalProfile"]

_DAY = 86_400.0


@dataclass
class DiurnalProfile:
    """Relative traffic intensity over the day.

    Intensity is ``1 + a1*cos(w(t-p1)) + a2*cos(2w(t-p2))`` with mean
    1.0 over the day by construction; defaults put the main peak in the
    late evening (~22:30), the trough mid-morning, and peak-to-mean
    ~1.55 (the shape, not the exact hours, is what matters downstream:
    the economics model provisions for the peak).

    Attributes
    ----------
    primary_amplitude / primary_peak_hour:
        The 24-hour harmonic (dominant evening peak).
    secondary_amplitude / secondary_peak_hour:
        A 12-hour harmonic adding a lunchtime shoulder.
    """

    primary_amplitude: float = 0.55
    primary_peak_hour: float = 21.0
    secondary_amplitude: float = 0.12
    secondary_peak_hour: float = 13.0

    def __post_init__(self) -> None:
        if not 0 <= self.primary_amplitude < 1:
            raise ValueError("primary amplitude must be in [0, 1)")
        if self.primary_amplitude + self.secondary_amplitude >= 1.0:
            raise ValueError("amplitudes must sum below 1 (intensity > 0)")

    def intensity(self, time_s: float) -> float:
        """Relative rate at ``time_s`` (seconds since local midnight)."""
        w = 2 * np.pi / _DAY
        t = time_s % _DAY
        value = (
            1.0
            + self.primary_amplitude
            * np.cos(w * (t - self.primary_peak_hour * 3600.0))
            + self.secondary_amplitude
            * np.cos(2 * w * (t - self.secondary_peak_hour * 3600.0))
        )
        return float(value)

    def intensities(self, times_s: np.ndarray) -> np.ndarray:
        w = 2 * np.pi / _DAY
        t = np.asarray(times_s, dtype=np.float64) % _DAY
        return (
            1.0
            + self.primary_amplitude
            * np.cos(w * (t - self.primary_peak_hour * 3600.0))
            + self.secondary_amplitude
            * np.cos(2 * w * (t - self.secondary_peak_hour * 3600.0))
        )

    def peak_to_mean(self, samples: int = 2880) -> float:
        """Peak-to-mean ratio (mean is 1.0 by construction)."""
        times = np.linspace(0.0, _DAY, samples, endpoint=False)
        return float(self.intensities(times).max())

    def peak_hour(self, samples: int = 2880) -> float:
        times = np.linspace(0.0, _DAY, samples, endpoint=False)
        return float(times[int(np.argmax(self.intensities(times)))] / 3600.0)

    def trough_hour(self, samples: int = 2880) -> float:
        times = np.linspace(0.0, _DAY, samples, endpoint=False)
        return float(times[int(np.argmin(self.intensities(times)))] / 3600.0)

    def thin_events(
        self,
        times_s: Iterable[float],
        rng: np.random.Generator,
    ) -> List[float]:
        """Thin a flat-rate event stream to this profile.

        Each event at time t survives with probability
        ``intensity(t) / peak``, producing a stream whose rate follows
        the profile (standard thinning of a Poisson process).
        """
        times = np.asarray(list(times_s), dtype=np.float64)
        if times.size == 0:
            return []
        peak = self.peak_to_mean()
        keep_p = self.intensities(times) / peak
        kept = times[rng.uniform(size=times.size) < keep_p]
        return [float(t) for t in kept]
