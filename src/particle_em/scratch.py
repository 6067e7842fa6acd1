"""Work vectors that one run reuses from step to step.

A :class:`Scratch` holds one flat vector per slot and grows a slot only when
a caller asks for more than it holds, so the large temporaries of a step are
allocated once per run instead of once per step. ``algorithms.run`` makes one
per run and ``step`` passes it down to the kernel layer and to every call of
the model's ``grad_z``, which may ignore it. A caller owns the slots it takes
only until it returns. A scratch is never stored on a model (models stay
immutable and pure) and never shared between runs or threads.

The slots in use: the logistic ``grad_z`` keeps its (N, n) logits in slot 0
and one block of at most 8192 exp values in slot 1, and
``kernels.pair_sq_dists`` gathers its two row chunks into the two halves of
slot 0 once it is grown, before ``grad_z`` writes the logits there.
"""

from __future__ import annotations

import numpy as np


class Scratch:
    """Flat float64 vectors, one per slot, grown on demand."""

    __slots__ = ("_vectors",)

    def __init__(self) -> None:
        self._vectors: dict[int, np.ndarray] = {}

    def size(self, slot: int) -> int:
        """The number of values slot ``slot`` holds now (0 if never taken)."""
        vector = self._vectors.get(slot)
        return 0 if vector is None else vector.size

    def take(self, slot: int, size: int) -> np.ndarray:
        """The first ``size`` values of slot ``slot``, uninitialised; grows the slot if it is smaller."""
        vector = self._vectors.get(slot)
        if vector is None or vector.size < size:
            vector = self._vectors[slot] = np.empty(size)
        return vector[:size]
