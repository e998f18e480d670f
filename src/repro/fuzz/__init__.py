"""The Nyx-Net fuzzer core.

* :mod:`repro.fuzz.input` — inputs as typed op sequences with
  packet-level structure.
* :mod:`repro.fuzz.mutators` — packet-level and byte-level (havoc)
  mutations, restrictable to the suffix after an incremental snapshot.
* :mod:`repro.fuzz.queue` — the corpus.
* :mod:`repro.fuzz.policies` — snapshot placement policies
  (none / balanced / aggressive, §3.4).
* :mod:`repro.fuzz.executor` — runs one input in the VM, driving the
  interceptor, snapshots and coverage tracing.
* :mod:`repro.fuzz.fuzzer` — the campaign loop.
* :mod:`repro.fuzz.parallel` — N instances over one shared root
  snapshot with deterministic interleaving and corpus sync (§5.3/§6).
"""

from repro.fuzz.input import FuzzInput
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.queue import Corpus, QueueEntry
from repro.fuzz.policies import (SnapshotPolicy, NonePolicy, BalancedPolicy,
                                 AggressivePolicy, make_policy)
from repro.fuzz.executor import ExecResult, NyxExecutor
from repro.fuzz.fuzzer import NyxNetFuzzer, FuzzerConfig
from repro.fuzz.stats import AggregateStats, CampaignStats
from repro.fuzz.crash import CrashDatabase
from repro.fuzz.trim import trim_input, distill_corpus
from repro.fuzz.persist import (save_campaign, save_parallel_campaign,
                                load_corpus)
from repro.fuzz.parallel import ParallelCampaign, WorkerHandle

__all__ = [
    "FuzzInput", "MutationEngine", "Corpus", "QueueEntry",
    "SnapshotPolicy", "NonePolicy", "BalancedPolicy", "AggressivePolicy",
    "make_policy", "ExecResult", "NyxExecutor", "NyxNetFuzzer",
    "FuzzerConfig", "CampaignStats", "AggregateStats", "CrashDatabase",
    "ParallelCampaign", "WorkerHandle",
    "trim_input", "distill_corpus", "save_campaign",
    "save_parallel_campaign", "load_corpus",
]
