"""Super Mario Bros. substrate (§5.3, Table 4, Figure 2).

A deterministic tile-based platformer with SMB-style physics —
including the **wall-jump glitch** that lets Nyx-Net solve level 2-1,
which "the authors of IJON believed to be unsolvable".  The game runs
as a guest program consuming button-frame packets, so the same
Nyx-Net fuzzer (and its snapshot policies) drive it unchanged; IJON's
max-x state feedback is exposed through the coverage bitmap exactly
like IJON's own LLVM pass does.

Only the guest program, :mod:`repro.mario.target`, is compiled with
block coverage sites (see :func:`repro.coverage.instrument.traced`);
the instrumenting finder goes in before any submodule is imported.
The engine is deliberately *not* instrumented: like IJON's original
experiment, progress feedback comes from the max-x state annotation,
not from code coverage of the physics loop.
"""

from repro.coverage.instrument import install

install()

from repro.mario.engine import (Buttons, GameState, Level, MarioEngine,
                                FRAME_DT)
from repro.mario.levels import load_level, LEVEL_NAMES
from repro.mario.target import MarioTarget, mario_profile
from repro.mario.solver import solve_level, SolveResult

__all__ = ["Buttons", "GameState", "Level", "MarioEngine", "FRAME_DT",
           "load_level", "LEVEL_NAMES", "MarioTarget", "mario_profile",
           "solve_level", "SolveResult"]
