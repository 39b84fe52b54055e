"""Room- and node-temperature time series.

The paper states the machine room was kept between 18 and 26 C for the
whole study, node temperatures at error time cluster in 30-40 C (the
scanner barely loads the CPU), a small error population sits above 60 C
(the overheating SoC-12 neighbourhood before those slots were powered
off), and temperature telemetry only exists from April 2015 onward.

The model: room temperature is a smooth seasonal + diurnal oscillation
inside the 18-26 C band plus small node-local jitter; node temperature is
room temperature plus the slot's static thermal offset
(:mod:`repro.cluster.thermal`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.thermal import placement_for
from ..cluster.topology import NodeId
from ..core import timeutils
from ..core.rng import stream

#: HVAC band the paper reports.
ROOM_MIN_C = 18.0
ROOM_MAX_C = 26.0


@dataclass(frozen=True)
class TemperatureModel:
    """Deterministic-plus-jitter temperature field over the machine."""

    room_mean_c: float = 22.0
    seasonal_amplitude_c: float = 2.0
    diurnal_amplitude_c: float = 1.2
    jitter_std_c: float = 0.8
    seed: int = 0

    def room_temperature(self, t_hours: np.ndarray | float) -> np.ndarray | float:
        """Room temperature (C) at study time(s); stays in the HVAC band."""
        t = np.asarray(t_hours, dtype=np.float64)
        seasonal = self.seasonal_amplitude_c * np.sin(
            2.0 * np.pi * (t / 24.0 - 170.0) / 365.25
        )
        diurnal = self.diurnal_amplitude_c * np.sin(
            2.0 * np.pi * (np.mod(t, 24.0) - 9.0) / 24.0
        )
        room = self.room_mean_c + seasonal + diurnal
        return np.clip(room, ROOM_MIN_C, ROOM_MAX_C)[()]

    def node_temperature(
        self, node_id: NodeId, t_hours: np.ndarray | float, jitter: bool = True
    ) -> np.ndarray | float:
        """Node temperature (C), including slot thermal offset and jitter.

        Jitter is deterministic in (node, time): re-querying the same
        instant returns the same reading, like a real sensor log would.
        Each distinct quantized second draws one stream, shared by every
        time that rounds to it.
        """
        room = np.asarray(self.room_temperature(t_hours), dtype=np.float64)
        offset = placement_for(node_id).offset_c
        temp = room + offset
        if jitter and self.jitter_std_c > 0.0:
            t = np.asarray(t_hours, dtype=np.float64)
            # Hash (node, quantized time) into a reproducible jitter draw.
            quanta = np.round(t * 3600.0).astype(np.int64)
            seconds, inverse = np.unique(quanta, return_inverse=True)
            draws = np.array(
                [
                    stream(self.seed, f"temp/{node_id}/{q}").normal(0.0, self.jitter_std_c)
                    for q in seconds.tolist()
                ],
                dtype=np.float64,
            )
            temp = temp + draws[inverse.reshape(-1)].reshape(t.shape)
        return temp[()] if isinstance(temp, np.ndarray) else temp

    @staticmethod
    def telemetry_available(t_hours: np.ndarray | float) -> np.ndarray | bool:
        """Whether temperature was being logged at ``t_hours`` (Sec III-F)."""
        return t_hours >= timeutils.TEMPERATURE_LOGGING_START

    def reading(self, node_id: NodeId, t_hours) -> np.ndarray:
        """Sensor readings of one node as recorded in its log entries.

        ``t_hours`` is an array of study times; the readings come back in
        its shape, NaN where telemetry was not yet logged (before April
        2015; a record then carries no temperature).
        """
        t = np.asarray(t_hours, dtype=np.float64)
        out = np.full(t.shape, np.nan, dtype=np.float64)
        logged = self.telemetry_available(t)
        if np.any(logged):
            out[logged] = self.node_temperature(node_id, t[logged])
        return out
