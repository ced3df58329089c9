"""Memory subsystem: DRAM model, ORAM timing/backend, timing protection."""

from repro.memory.backend import BackendStats, MemoryBackend
from repro.memory.dram import DRAMBackend
from repro.memory.interconnect import (
    ChannelInterconnect,
    FlatInterconnect,
    MemoryInterconnect,
    build_interconnect,
)
from repro.memory.oram_backend import ORAMBackend
from repro.memory.periodic import PeriodicORAMBackend

__all__ = [
    "BackendStats",
    "ChannelInterconnect",
    "DRAMBackend",
    "FlatInterconnect",
    "MemoryBackend",
    "MemoryInterconnect",
    "ORAMBackend",
    "PeriodicORAMBackend",
    "build_interconnect",
]
