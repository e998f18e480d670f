"""repro — a reproduction of "Nyx-Net: Network Fuzzing with Incremental
Snapshots" (Schumilo et al., EuroSys 2022) on a simulated whole-VM
substrate.

Quick start::

    from repro import build_campaign, PROFILES

    handles = build_campaign(PROFILES["lightftp"], policy="aggressive",
                             time_budget=30.0, max_execs=2000)
    stats = handles.fuzzer.run_campaign()
    print(stats.summary())

Layer map (bottom-up):

* :mod:`repro.vm` — guest memory with dirty-page logging, devices,
  disk, root + incremental snapshots.
* :mod:`repro.guestos` — a tiny POSIX-ish kernel whose entire state
  serializes into guest memory (so snapshots really rewind execution).
* :mod:`repro.emu` — the selective network-emulation agent.
* :mod:`repro.spec` — affine-typed bytecode specs, the seed Builder,
  PCAP import and protocol dissectors.
* :mod:`repro.coverage` — AFL-style bitmaps over compile-time block sites.
* :mod:`repro.fuzz` — the Nyx-Net fuzzer (queue, mutators, snapshot
  placement policies, executor, campaign loop).
* :mod:`repro.targets` — the 13 ProFuzzBench-analogue servers plus the
  case-study targets.
* :mod:`repro.baselines` — AFLNet, AFLNwe, AFL++/desock, Agamotto,
  IJON.
* :mod:`repro.mario` — the Super Mario substrate and solver.
* :mod:`repro.bench` — the harness regenerating every table/figure.
"""

from repro.fuzz.campaign import (CampaignHandles, build_campaign,
                                 build_parallel_campaign)
from repro.fuzz.fuzzer import FuzzerConfig, NyxNetFuzzer
from repro.fuzz.input import FuzzInput, packets_input
from repro.spec.builder import Builder
from repro.spec.nodes import Spec, default_network_spec
from repro.targets import PROFILES, PROFUZZBENCH, TargetProfile
from repro.vm.machine import Machine

__version__ = "1.0.0"

__all__ = [
    "build_campaign", "build_parallel_campaign", "CampaignHandles",
    "NyxNetFuzzer", "FuzzerConfig",
    "FuzzInput", "packets_input", "Builder", "Spec", "default_network_spec",
    "PROFILES", "PROFUZZBENCH", "TargetProfile", "Machine", "__version__",
]
