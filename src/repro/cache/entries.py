"""Cache line entries for the L1 caches and LLC slices.

An LLC slice holds two kinds of entries (Section 2.2):

* :class:`HomeEntry` — the *home* copy of a line, with the in-cache
  directory state attached (sharer tracking + locality classifier).
* :class:`ReplicaEntry` — a locality-aware *replica* in the requesting
  core's local slice, carrying the replica-reuse counter as a plain int
  slot that saturates at its ``reuse_max`` slot.

The replacement policy queries :attr:`CacheLine.l1_copies` so the paper's
modified-LRU (Section 2.2.4: evict lines with the fewest L1 copies first)
works uniformly over both kinds without knowing which is which.  The
LLC's recency is the ``last_use`` timestamp; the L1's is its sets' dict
order (:class:`~repro.cache.l1.L1Cache`), which ignores ``last_use``.
"""

from __future__ import annotations

from typing import Optional

from repro.common.types import MESIState


class CacheLine:
    """Base cache entry: a line address, a MESI state and LRU bookkeeping."""

    __slots__ = ("line_addr", "state", "dirty", "last_use")

    def __init__(self, line_addr: int, state: MESIState = MESIState.INVALID) -> None:
        self.line_addr = line_addr
        self.state = state
        self.dirty = False
        self.last_use = 0

    @property
    def valid(self) -> bool:
        return self.state != MESIState.INVALID

    @property
    def l1_copies(self) -> int:
        """Number of L1 copies backed by this entry (replacement hint)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(line={self.line_addr:#x}, "
            f"state={self.state.name}, dirty={self.dirty})"
        )


class L1Line(CacheLine):
    """A line in a private L1 instruction or data cache."""

    __slots__ = ()


class HomeEntry(CacheLine):
    """The home copy of a line in an LLC slice, with directory state.

    ``sharers`` is a sharer tracker (ACKwise or full-map) over *cores*: a
    core is recorded as a sharer when any part of its local hierarchy (L1
    or LLC replica) holds the line — the directory keeps a single pointer
    per core (Section 2.3.2).  ``classifier`` is the per-line locality
    classifier state; its concrete type depends on the configured
    classifier and is ``None`` for schemes that do not classify.
    """

    __slots__ = ("sharers", "owner", "classifier")

    def __init__(self, line_addr: int, sharers, state: MESIState = MESIState.SHARED) -> None:
        # CacheLine's fields, set inline: every off-chip fill builds one.
        self.line_addr = line_addr
        self.state = state
        self.dirty = False
        self.last_use = 0
        self.sharers = sharers
        #: Core holding the line in E/M (exclusive owner), or ``None``.
        self.owner: Optional[int] = None
        self.classifier = None

    @property
    def l1_copies(self) -> int:
        # ``sharers.count`` without its frame: modified-LRU reads this per way.
        return len(self.sharers._members)


class ReplicaEntry(CacheLine):
    """A locality-aware replica in a core's local LLC slice.

    ``reuse`` is the Replica Reuse counter of Figure 4, a plain int slot:
    it is initialized to 1 on creation and incremented on every replica
    hit until it saturates at ``reuse_max`` (the schemes' hit paths do the
    saturating add inline).  ``l1_copy`` tracks whether the slice-owning
    core's L1 currently holds the line (used by modified-LRU and by
    eviction back-invalidation).
    """

    __slots__ = ("reuse", "reuse_max", "l1_copy")

    def __init__(
        self,
        line_addr: int,
        state: MESIState,
        reuse_max: int,
    ) -> None:
        # CacheLine's fields, set inline: VR places a replica per L1 eviction.
        self.line_addr = line_addr
        self.state = state
        self.dirty = False
        self.last_use = 0
        self.reuse = 1
        self.reuse_max = reuse_max
        self.l1_copy = False

    @property
    def l1_copies(self) -> int:
        return 1 if self.l1_copy else 0
