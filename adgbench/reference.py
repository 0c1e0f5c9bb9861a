"""A fixed piece of reference work, timed to read the host's speed.

On a shared host the same command can run up to twice as slow in one
phase as in another, and phases last from seconds to minutes.  The
benchmark times this reference work just before and just after every
command, on the same CPU, and scales the command's time by how fast the
reference ran then.  The work uses nothing of ``adgcode``, so a change to
the program never changes it.  It mixes the two kinds of work the program
does: a pure-Python loop, and a tape of small numpy products kept in dicts,
as the autodiff tape does.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Seconds the reference work takes in the fast phases of a 2-vCPU Xeon KVM
# guest; a command's scaled time is its wall time * NOMINAL_S / reference.
NOMINAL_S = 0.045

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64)) * 0.1
_V = _rng.standard_normal((64, 32)) * 0.1


def reference_s() -> float:
    """Wall seconds of one pass of the reference work, with the cyclic
    garbage collector off so that the caller's heap does not show."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        x = np.full(64, 0.01)
        tape = []
        for i in range(3000):
            h = np.tanh(_W @ x + _V @ x[:32])
            tape.append({"out": h, "arg": x, "id": i})
            x = h * 0.9 + 0.01
        for node in reversed(tape):
            node["grad"] = _W.T @ (node["out"] * (1.0 - node["out"] ** 2))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
