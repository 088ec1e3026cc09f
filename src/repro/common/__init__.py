"""Shared configuration, types and helpers for the reproduction."""

from repro.common.addr import Region, RegionAllocator
from repro.common.params import CacheGeometry, MachineConfig
from repro.common.types import (
    AccessType,
    LineClass,
    MESIState,
    MissStatus,
    ReplicationMode,
)

__all__ = [
    "AccessType",
    "CacheGeometry",
    "LineClass",
    "MESIState",
    "MachineConfig",
    "MissStatus",
    "Region",
    "RegionAllocator",
    "ReplicationMode",
]
