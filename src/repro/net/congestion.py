"""Link congestion model.

The motivating application of bdrmap (§2) is measuring *interdomain
congestion*: when peering disputes stall capacity upgrades, the border
link's queue fills during the daily busy period, adding latency that
time-series probing of the link's two ends can detect (Luckie et al.,
IMC 2014).

This module gives simulated links a diurnal queueing-delay profile.  A
congested link adds tens of milliseconds during its busy window; an
uncongested link adds (almost) nothing.  The forwarding walk accumulates
these delays into response RTTs, so the TSLP monitor in
:mod:`repro.congestion` sees exactly the signal the real system sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

DAY = 86400.0


@dataclass(frozen=True)
class CongestionProfile:
    """A diurnal queueing profile for one link.

    ``busy_start``/``busy_end`` are seconds-of-day; during the busy window
    the queueing delay ramps up to ``peak_ms`` following a half-sine.
    ``base_ms`` is always present (light utilization).
    """

    base_ms: float = 0.2
    peak_ms: float = 30.0
    busy_start: float = 16.0 * 3600
    busy_end: float = 23.0 * 3600

    def delay_ms(self, now: float) -> float:
        time_of_day = now % DAY
        if not self.busy_start <= time_of_day < self.busy_end:
            return self.base_ms
        span = self.busy_end - self.busy_start
        phase = (time_of_day - self.busy_start) / span
        return self.base_ms + self.peak_ms * math.sin(math.pi * phase)


class CongestionSchedule:
    """Per-link congestion profiles (links without one are uncongested)."""

    def __init__(self) -> None:
        # link id -> profile.  Public so the packet walk can test for any
        # congestion with one dict truth test per probe.
        self.profiles: Dict[int, CongestionProfile] = {}

    def congest(self, link_id: int, profile: Optional[CongestionProfile] = None) -> None:
        self.profiles[link_id] = profile or CongestionProfile()

    def clear(self, link_id: int) -> None:
        self.profiles.pop(link_id, None)

    def profile(self, link_id: int) -> Optional[CongestionProfile]:
        return self.profiles.get(link_id)

    def delay_ms(self, link_id: int, now: float) -> float:
        profile = self.profiles.get(link_id)
        return profile.delay_ms(now) if profile is not None else 0.0

    def congested_links(self):
        return sorted(self.profiles)
