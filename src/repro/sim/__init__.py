"""Discrete-event simulation kernel (the GEM5-event-engine substrate)."""

from repro.sim.engine import Simulator
from repro.sim.stats import Histogram, LatencyStat, StatRegistry

__all__ = ["Histogram", "LatencyStat", "Simulator", "StatRegistry"]
