"""Tag-ordered sliding windows and bounded inboxes.

Both the reference engine and the distributed runtime consume tagged
item streams through these primitives, so window/tag semantics are
defined exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class WindowError(ValueError):
    """Duplicate tags and other stream-contract violations."""


@dataclass
class SlidingWindow:
    """Emits contiguous tag runs of fixed length, advancing one tag at a time.

    Out-of-order arrivals are buffered; a window [next_tag, next_tag +
    length) is emitted (tagged by its newest item) once every member tag
    is present.  A push tests the window's last tag first, and only then
    gathers the window's items, in one pass that stops at the first tag
    missing.  Items older than the current window are counted and
    dropped; duplicate tags are an error.  ``skip_below`` declares that
    tags below a bound will never arrive, letting the window advance
    past a gap.
    """

    length: int
    next_tag: int = 0
    pending: dict[int, Any] = field(default_factory=dict)
    late_drops: int = 0
    skipped: int = 0
    # Set after a task handoff: the buffer was lost, so realign to the
    # next arriving tag instead of stalling on tags already consumed.
    resync_on_next: bool = False
    last_resync: int = -1

    def __post_init__(self):
        if self.length < 1:
            raise WindowError("window length must be >= 1")

    def push(self, tag: int, item) -> list[tuple[int, list]]:
        """Add one item; return ready windows as (end_tag, items) pairs."""
        tag = int(tag)
        if self.resync_on_next:
            self.resync_on_next = False
            if tag > self.next_tag:
                self.next_tag = tag
                self.last_resync = tag
        if tag < self.next_tag:
            self.late_drops += 1
            return []
        if tag in self.pending:
            raise WindowError(f"duplicate tag {tag}")
        pending = self.pending
        pending[tag] = item
        emitted = []
        # The last tag first: a window that lacks it is not scanned.  Its
        # run is then gathered in one pass that stops at the first gap.
        last = self.next_tag + self.length - 1
        while last in pending:
            try:
                run = [pending[t] for t in range(self.next_tag, last + 1)]
            except KeyError:
                break
            emitted.append((last, run))
            del pending[self.next_tag]
            self.next_tag += 1
            last += 1
        return emitted

    def skip_below(self, tag: int) -> None:
        """Declare tags below ``tag`` permanently absent; advance past the gap."""
        if tag <= self.next_tag:
            return
        for t in [t for t in self.pending if t < tag]:
            del self.pending[t]
            self.skipped += 1
        self.next_tag = tag


@dataclass
class BoundedInbox:
    """Fixed-capacity FIFO with an almost-full watermark.

    ``offer`` refuses items beyond capacity (occupancy can never exceed
    it).  Crossing the watermark arms ``should_signal``; the owner sends
    one almost-full notice per crossing and re-arms after draining below
    the threshold, ``almost_full_threshold``: 80% of the capacity, at
    least 1.
    """

    capacity: int
    almost_full_threshold: int = field(init=False)
    items: list = field(default_factory=list)
    rejected: int = 0
    peak_occupancy: int = 0
    _armed: bool = True

    def __post_init__(self):
        if self.capacity < 1:
            raise WindowError("inbox capacity must be >= 1")
        self.almost_full_threshold = max(1, (self.capacity * 8) // 10)

    @property
    def occupancy(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    def offer(self, item) -> bool:
        """Try to enqueue; False when full (item refused, counted)."""
        items = self.items
        if len(items) >= self.capacity:
            self.rejected += 1
            return False
        items.append(item)
        if len(items) > self.peak_occupancy:
            self.peak_occupancy = len(items)
        return True

    def should_signal(self) -> bool:
        """True once per upward crossing of the almost-full watermark."""
        if len(self.items) < self.almost_full_threshold:
            self._armed = True
            return False
        if self._armed:
            self._armed = False
            return True
        return False

    def take(self):
        if not self.items:
            raise WindowError("inbox empty")
        item = self.items.pop(0)
        if len(self.items) < self.almost_full_threshold:
            self._armed = True
        return item
