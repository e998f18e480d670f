"""Campaign assembly: target profile -> ready-to-run fuzzer.

Reproduces the five usage steps of §5.4: take the target (program),
pick a spec (the default network spec via the profile), load seeds,
bundle (spawn into the guest, install the agent/interceptor), run.
The root snapshot is placed automatically when the freshly started
target goes quiescent waiting for its first input (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coverage.tracer import TracerCore
from repro.emu.interceptor import Interceptor
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.fuzzer import FuzzerConfig, NyxNetFuzzer
from repro.guestos.kernel import Kernel
from repro.targets.base import TargetProfile
from repro.vm.machine import Machine


@dataclass
class CampaignHandles:
    """All the moving parts of one assembled campaign."""

    machine: Machine
    kernel: Kernel
    interceptor: Interceptor
    executor: NyxExecutor
    fuzzer: NyxNetFuzzer
    profile: TargetProfile


def boot_target(profile: TargetProfile,
                asan: bool = True,
                memory_bytes: int = 64 * 1024 * 1024,
                heap_slack: Optional[int] = None,
                intercept: bool = True):
    """Boot the target in a fresh VM up to the root snapshot.

    Returns ``(machine, kernel, interceptor)`` with the root snapshot
    already captured — the golden image a parallel campaign's workers
    adopt, the starting point of a single-instance campaign, or a
    baseline fuzzer's VM.  ``intercept=False`` boots without the
    emulation layer (``interceptor`` is then ``None``), so traffic
    takes the real network path as under AFLNet; the interceptor must
    exist before the server binds, so the boot has to know.
    """
    machine = Machine(memory_bytes=memory_bytes)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, profile.surface()) if intercept else None

    program = profile.make_program()
    if hasattr(program, "asan"):
        program.asan = asan
    if heap_slack is not None and hasattr(program, "heap_slack"):
        program.heap_slack = heap_slack
    kernel.spawn(program)

    # Boot until the target blocks waiting for input, then take the
    # root snapshot — the §3.3 automatic placement.
    kernel.run(max_rounds=256)
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    return machine, kernel, interceptor


def adopt_target(profile: TargetProfile, golden,
                 memory_bytes: int = 64 * 1024 * 1024):
    """Bring up a VM on a booted golden VM's root snapshot, without
    booting (§5.3 shared root snapshots).

    ``golden`` is a :func:`boot_target` triple.  The kernel must exist
    before ``adopt_root``: adoption fires the restore callbacks, which
    rebuild the kernel's host-side object graph from the adopted memory
    image.  The kernel's directory region is the first allocation on a
    fresh machine, so its location matches the golden image by
    construction.  Guest socket ids are part of that image too, so the
    golden interceptor's boot-time surface tables carry over verbatim.
    """
    golden_machine, _kernel, golden_interceptor = golden
    machine = Machine(memory_bytes=memory_bytes)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, profile.surface())
    machine.adopt_root(golden_machine.snapshots.root)
    interceptor.adopt_surface_state(golden_interceptor)
    return machine, kernel, interceptor


def build_campaign(profile: TargetProfile,
                   policy: str = "balanced",
                   seed: int = 0,
                   time_budget: float = 60.0,
                   max_execs: Optional[int] = None,
                   asan: bool = True,
                   memory_bytes: int = 64 * 1024 * 1024,
                   iterations_per_snapshot: int = 50,
                   heap_slack: Optional[int] = None,
                   fault_rate: float = 0.0,
                   fault_plan: Optional[str] = None,
                   exec_timeout: Optional[float] = None,
                   sanitize_every: Optional[int] = None,
                   max_chain_depth: int = 1,
                   seeds=None,
                   golden=None) -> CampaignHandles:
    """Boot the target in a fresh VM (or adopt ``golden``'s root) and
    wire up a Nyx-Net fuzzer.

    ``asan=False`` models fuzzing the plain binary (Table 1's dcmtk
    footnote); ``heap_slack`` then controls how much silent corruption
    the initial heap layout absorbs.  ``fault_rate`` (or an explicit
    ``fault_plan`` id) arms the fault injector on the network and
    snapshot paths; ``exec_timeout`` arms the per-exec watchdog;
    ``sanitize_every`` arms the NYX05x reset sanitizer every N execs.
    ``max_chain_depth`` > 1 enables overlay snapshot chains (see
    docs/snapshots.md); 1 keeps the paper's single incremental
    snapshot and is byte-identical to a pre-chain build.

    A parallel campaign passes its ``golden`` :func:`boot_target`
    triple: the VM then adopts that root instead of booting, and
    ``asan``/``heap_slack`` are whatever the golden boot used.
    """
    if golden is None:
        machine, kernel, interceptor = boot_target(
            profile, asan=asan, memory_bytes=memory_bytes,
            heap_slack=heap_slack)
    else:
        machine, kernel, interceptor = adopt_target(
            profile, golden, memory_bytes=memory_bytes)

    executor = NyxExecutor(machine, kernel, interceptor, TracerCore(),
                           exec_timeout=exec_timeout,
                           max_chain_depth=max_chain_depth)
    if fault_plan is not None or fault_rate != 0.0:
        # A non-zero (even negative) rate reaches FaultPlan validation,
        # which rejects anything outside [0, 1] with a PlanError.
        from repro.faults import FaultInjector, FaultPlan
        if fault_plan is not None:
            plan = FaultPlan.from_id(fault_plan)
        else:
            plan = FaultPlan.for_campaign(seed, fault_rate)
        injector = FaultInjector(plan)
        interceptor.injector = injector
        machine.snapshots.injector = injector
    config = FuzzerConfig(policy=policy, seed=seed,
                          time_budget=time_budget, max_execs=max_execs,
                          iterations_per_snapshot=iterations_per_snapshot,
                          dictionary=tuple(profile.dictionary),
                          sanitize_every=sanitize_every,
                          max_chain_depth=max_chain_depth)
    fuzzer = NyxNetFuzzer(executor,
                          seeds if seeds is not None else profile.seeds(),
                          config)
    fuzzer.stats.target_name = profile.name
    return CampaignHandles(machine, kernel, interceptor, executor,
                           fuzzer, profile)


def build_parallel_campaign(profile: TargetProfile, workers: int = 2,
                            **options):
    """Boot one golden VM and assemble an N-worker parallel campaign.

    Workers adopt the golden root snapshot instead of re-booting (§5.3
    shared root snapshots) and sync corpora AFL-style every
    ``sync_interval`` simulated seconds.  The fleet's own arguments are
    :class:`~repro.fuzz.parallel.ParallelCampaign`'s; every other
    keyword is :func:`build_campaign`'s and reaches each worker.
    """
    from repro.fuzz.parallel import ParallelCampaign
    return ParallelCampaign(profile, workers=workers, **options)


# ----------------------------------------------------------------------
# durable-campaign resume (see repro.fuzz.journal)
# ----------------------------------------------------------------------

def build_campaign_from_manifest(profile: TargetProfile, manifest: dict):
    """Rebuild a campaign exactly as a durable campaign's
    ``manifest.json`` records it: :class:`CampaignHandles` for a single
    campaign, a :class:`~repro.fuzz.parallel.ParallelCampaign` for a
    fleet (``kind`` ``"parallel"``).

    Every knob that shapes the campaign's deterministic trajectory
    comes from the manifest, so the rebuilt campaign is bit-identical
    to the one that wrote it — the property checkpoint restore relies
    on.
    """
    options = dict(
        policy=manifest["policy"],
        seed=manifest["seed"],
        time_budget=manifest["time_budget"],
        asan=manifest.get("asan", True),
        iterations_per_snapshot=manifest.get("iterations_per_snapshot", 50),
        fault_rate=manifest.get("fault_rate", 0.0),
        fault_plan=manifest.get("fault_plan"),
        exec_timeout=manifest.get("exec_timeout"),
        sanitize_every=manifest.get("sanitize_every"),
        max_chain_depth=manifest.get("max_chain_depth", 1))
    if manifest.get("kind") == "parallel":
        return build_parallel_campaign(
            profile, workers=manifest.get("workers", 2),
            max_total_execs=manifest.get("max_execs"),
            sync_interval=manifest.get("sync_interval", 5.0), **options)
    return build_campaign(profile, max_execs=manifest.get("max_execs"),
                          **options)
