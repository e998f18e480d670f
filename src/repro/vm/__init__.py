"""Simulated whole-VM substrate.

This package stands in for the paper's KVM/QEMU stack: paged guest
physical memory with hardware-style dirty logging
(:mod:`repro.vm.memory`), serializable emulated devices
(:mod:`repro.vm.devices`), an emulated block device with two-level
snapshot overlays (:mod:`repro.vm.disk`), the root whole-VM snapshot
and the snapshot chain above it, whose layer 1 is the paper's
incremental snapshot (:mod:`repro.vm.snapshot`), and the machine object
that ties them to the guest OS (:mod:`repro.vm.machine`).
"""

from repro.vm.memory import GuestMemory, Region, RegionAllocator
from repro.vm.devices import DeviceBoard
from repro.vm.disk import EmulatedDisk
from repro.vm.snapshot import SnapshotManager, RootSnapshot
from repro.vm.machine import Machine
from repro.vm.hypercall import Hypercall, HypercallError

__all__ = [
    "GuestMemory",
    "Region",
    "RegionAllocator",
    "DeviceBoard",
    "EmulatedDisk",
    "SnapshotManager",
    "RootSnapshot",
    "Machine",
    "Hypercall",
    "HypercallError",
]
