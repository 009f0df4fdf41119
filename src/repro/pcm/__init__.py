"""PCM device substrate: timing, power, chip/bank/device models.

This package models the Samsung-prototype SLC PCM the paper simulates with
NVMain: per-cell SET/RESET/READ timing, the charge-pump current budget
(with Global Charge Pump pooling across the four chips of a bank), the
chip write path (write driver with PROG-enable gating, Fig. 9), and the
bank/rank/device organization of Table II.
"""

from repro.pcm.state import LineState, MemoryImage
from repro.pcm.wear import StartGapLeveler, WearStats, WearTracker
from repro.pcm.write_driver import WriteDriver, DriverCommand
from repro.pcm.chip import PCMChip
from repro.pcm.bank import PCMBank
from repro.pcm.device import PCMDevice, AddressMap

__all__ = [
    "AddressMap",
    "DriverCommand",
    "LineState",
    "MemoryImage",
    "PCMBank",
    "PCMChip",
    "PCMDevice",
    "StartGapLeveler",
    "WearStats",
    "WearTracker",
    "WriteDriver",
]
