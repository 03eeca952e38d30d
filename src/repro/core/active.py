"""Active-vertex tracking and history-based prediction (paper §V-C).

Three populations per superstep ``s``:

* ``current`` -- vertices processed in superstep ``s``;
* ``next_from_messages`` -- vertices that have already received an
  update bound for ``s + 1`` ("clearly known" active, §IV-C);
* ``next_self`` -- vertices processed in ``s`` that did not deactivate.

The edge-log optimizer's predictor says a vertex is *likely active* in
``s + 1`` if it is already known active or was active in any of the last
``N`` supersteps (history bit vectors; the paper found ``N = 1``
effective).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np


class ActiveTracker:
    """Bit-vector bookkeeping of active vertices across supersteps."""

    def __init__(self, n: int, history_window: int = 1) -> None:
        self.n = n
        self.history_window = max(1, history_window)
        self.current = np.zeros(n, dtype=bool)
        self.next_from_messages = np.zeros(n, dtype=bool)
        self.next_self = np.zeros(n, dtype=bool)
        self._history: Deque[np.ndarray] = deque(maxlen=self.history_window)

    # -- superstep-s bookkeeping -------------------------------------------

    def seed(self, active_ids: np.ndarray) -> None:
        """Set the superstep-0 active set."""
        self.current[:] = False
        if len(active_ids):
            self.current[np.asarray(active_ids, dtype=np.int64)] = True

    def note_message(self, dest: int) -> None:
        """An update bound for next superstep was logged for ``dest``."""
        self.next_from_messages[dest] = True

    def note_messages(self, dests: np.ndarray) -> None:
        if len(dests):
            self.next_from_messages[np.asarray(dests, dtype=np.int64)] = True

    def note_self_active(self, v: int) -> None:
        """Vertex ``v`` was processed and did not deactivate."""
        self.next_self[v] = True

    # -- queries --------------------------------------------------------------

    @property
    def current_ids(self) -> np.ndarray:
        return np.flatnonzero(self.current)

    @property
    def n_current(self) -> int:
        return int(self.current.sum())

    def predict_active_next_many(self, vertices: np.ndarray) -> np.ndarray:
        """History-based likely-active predictor (§V-C), per vertex id.

        Known-active (message already logged, or processed without
        deactivating) wins; otherwise predict active if the vertex was
        active in any of the last ``N`` *previous* supersteps.
        """
        v = np.asarray(vertices, dtype=np.int64)
        out = self.next_from_messages[v] | self.next_self[v]
        for h in self._history:
            out |= h[v]
        return out

    # -- superstep boundary ---------------------------------------------------------

    def advance(self) -> None:
        """Roll to the next superstep.

        ``current`` (just processed) enters the history window; the new
        current set is the union of message receivers and non-deactivated
        vertices.
        """
        self._history.append(self.current.copy())
        self.current = self.next_from_messages | self.next_self
        self.next_from_messages = np.zeros(self.n, dtype=bool)
        self.next_self = np.zeros(self.n, dtype=bool)

    def history_mask(self) -> np.ndarray:
        """Union of the history window (for inspection/metrics)."""
        out = np.zeros(self.n, dtype=bool)
        for h in self._history:
            out |= h
        return out

    # -- checkpoint/restore ---------------------------------------------------

    def export_state(self) -> dict:
        """Deep-copy all bit vectors (taken at a superstep boundary)."""
        return {
            "current": self.current.copy(),
            "next_from_messages": self.next_from_messages.copy(),
            "next_self": self.next_self.copy(),
            "history": [h.copy() for h in self._history],
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self.current = state["current"].copy()
        self.next_from_messages = state["next_from_messages"].copy()
        self.next_self = state["next_self"].copy()
        self._history.clear()
        for h in state["history"]:
            self._history.append(h.copy())
