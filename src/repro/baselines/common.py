"""Shared plumbing for the baseline fuzzers.

Baselines run the target in a :class:`Machine` *without* using the
Nyx snapshot fast path for per-test resets.  The machine's root
snapshot exists purely as the host-side mechanism for "restart the
server" / "run the cleanup script" / "forkserver reset" events, whose
*simulated* costs are charged explicitly from the cost model — the
snapshot's own cheap cost is never charged for baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.coverage.tracer import TracerCore
from repro.fuzz.stats import CampaignStats
from repro.guestos.kernel import Kernel
from repro.targets.base import TargetProfile
from repro.vm.machine import Machine

#: Alias: baselines reuse the campaign statistics container.
BaselineStats = CampaignStats


@dataclass
class BaselineHarness:
    """A booted target VM for a baseline fuzzer."""

    machine: Machine
    kernel: Kernel
    tracer: TracerCore
    profile: TargetProfile
    #: Present when the harness was booted with a desock-style shim.
    interceptor: object = None

    def silent_restore(self) -> int:
        """Reset guest state without charging Nyx snapshot costs.

        The caller charges whatever its own reset actually costs
        (server restart, cleanup script, fork).
        """
        clock = self.machine.clock
        before = clock.now
        self.kernel.flush_to_memory()
        pages = self.machine.restore_root()
        # Refund the snapshot-path charge; baselines don't have it.
        clock._now = before
        return pages

    def respawn_server_cost(self) -> float:
        """Simulated cost of killing and restarting the server."""
        costs = self.machine.costs
        return (costs.aflnet_kill_server + self.profile.startup_cost
                + costs.aflnet_server_wait)


def boot_target(profile: TargetProfile, asan: bool = True,
                heap_slack: Optional[int] = None,
                memory_bytes: int = 64 * 1024 * 1024,
                with_interceptor: bool = False) -> BaselineHarness:
    """Boot the target for baseline fuzzing.

    By default no interceptor is installed and traffic takes the real
    network path; ``with_interceptor`` installs the emulation shim
    *before* the server binds (required so the bind hook can classify
    the surface socket — used by the desock baseline).
    """
    machine = Machine(memory_bytes=memory_bytes)
    kernel = Kernel(machine)
    interceptor = None
    if with_interceptor:
        from repro.emu.interceptor import Interceptor
        interceptor = Interceptor(kernel, profile.surface())
    program = profile.make_program()
    if hasattr(program, "asan"):
        program.asan = asan
    if heap_slack is not None and hasattr(program, "heap_slack"):
        program.heap_slack = heap_slack
    kernel.spawn(program)
    kernel.run(max_rounds=256)
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    tracer = TracerCore()
    kernel.coverage = tracer
    return BaselineHarness(machine, kernel, tracer, profile, interceptor)


def drain_crash(kernel: Kernel):
    """Pop the first pending crash report, if any."""
    if kernel.crash_reports:
        report = kernel.crash_reports[0]
        kernel.crash_reports.clear()
        return report
    return None


def respond_payloads(input_ops) -> List[bytes]:
    """Packet payloads of an input, in order (transport view)."""
    out: List[bytes] = []
    for op in input_ops:
        for arg in op.args:
            if isinstance(arg, (bytes, bytearray)):
                out.append(bytes(arg))
    return out
