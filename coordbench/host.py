"""Host-speed ticks: a fixed pure-Python kernel timed during every pass.

The shared 2-vCPU host this benchmark was built on runs the same code
up to 2.4x slower from one tenth of a second to the next, and its
average speed drifts by up to 1.6x over minutes, as neighbours come
and go on the same cores.  Process CPU time slows with it, so the
slowdown is not stolen time a CPU clock could leave out.

:func:`tick` times a fixed kernel (about 0.3 ms) that never touches
the program.  The closed loop runs one tick between events every
:data:`TICK_PERIOD` seconds, outside every timed call, so a pass's
ticks sample the host at the moments the pass itself ran.  The pass's
timings are then scaled by :data:`REFERENCE_S` over the median tick,
which reports them as if the host had run the kernel in
:data:`REFERENCE_S` throughout.  A change to the program moves the
pass and not the ticks, so it shows in full.

The kernel allocates no object the garbage collector tracks, so the
ticks leave the program's collection schedule as it was.
"""

from __future__ import annotations

import time

#: Seconds between two ticks of a pass (about 50 ticks a second, 1-2%
#: of the pass's time).
TICK_PERIOD = 0.02

#: The tick's time on this host when no neighbour slows it (about the
#: fastest readings seen; slowed readings reach twice this and more).
REFERENCE_S = 0.0002

_SIZE = 1500


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids = ()


_KEYS = [(i % 251, "k%d" % (i % 17)) for i in range(_SIZE)]
_TABLE = {key: _Node(i) for i, key in enumerate(_KEYS)}
_ODD = set(range(1, 251, 2))


def kernel() -> int:
    """Dictionary lookups, tuple indexing, attribute reads and integer
    arithmetic, like the program's inner loops, without allocation."""
    total = 0
    for key in _KEYS:
        node = _TABLE[key]
        if node.key % 3 == 0:
            total += node.key
        elif key[0] in _ODD:
            total -= 1
        else:
            total += len(node.kids)
    return total


def tick() -> float:
    """The kernel's time, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
