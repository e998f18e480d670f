"""Coverage feedback: AFL-style bitmaps over compile-time block sites.

The paper's prototype supports Intel PT and AFL's compile-time
instrumentation (§4.5); our substitute compiles the guest targets'
*actual Python code* with one site append per basic block
(:mod:`repro.coverage.instrument`) and folds (prev, cur) block
transitions into a classic 64 KiB AFL hit-count bitmap with the
standard bucketing semantics (:class:`TracerCore`).
"""

from repro.coverage.bitmap import (MAP_SIZE, classify_counts, count_bits,
                                   CoverageMap)
from repro.coverage.tracer import TracerCore

__all__ = ["MAP_SIZE", "classify_counts", "count_bits", "CoverageMap",
           "TracerCore"]
