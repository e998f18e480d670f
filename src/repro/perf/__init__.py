"""Sim-cost profiling for the execute-reset hot path (``repro profile``).

Two clocks matter and must never be conflated:

* **sim clock** — the deterministic cost-model time every reproduced
  table and figure reports.  Optimizations must leave it untouched.
* **wall clock** — host CPU time actually burned per execution.  This
  package never reads it: wall time is measured by the nyxbench
  harness (``nyxbench/``), outside the program.

:mod:`repro.perf.profiler` attributes sim cost per site and gates it
against a committed budget (NYX076/NYX077).  See docs/performance.md.
"""
