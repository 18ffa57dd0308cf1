"""Network substrates: monotonic I+ (LMC) and the lossy live-run network.

* :class:`~repro.network.monotonic.MonotonicNetwork` — the shared, grow-only
  ``I+`` of local model checking; delivery never removes (Fig. 8).
* :class:`~repro.network.lossy.LossyNetwork` — the seeded lossy UDP used by
  the live-run simulator in the online experiments (§5.5, §5.6).

Global model checking keeps its consuming multiset ``I`` (Fig. 5) inside
each :class:`~repro.model.system_state.GlobalState`, and §4.3's per-channel
FIFO is a protocol wrapper,
:class:`~repro.protocols.fifo_wrapper.FifoStampedProtocol`.
"""

from repro.network.lossy import LossyNetwork
from repro.network.monotonic import MonotonicNetwork, StoredMessage

__all__ = ["LossyNetwork", "MonotonicNetwork", "StoredMessage"]
