"""The structured event stream: a bounded in-memory log.

Where :class:`~repro.obs.registry.MetricsRegistry` keeps *aggregates*,
the event log keeps *individual occurrences* with arbitrary structured
fields, readable by iterating the log; run reports carry its
recorded/dropped accounting.

The log is bounded by default so instrumenting a long DES run cannot grow
memory without limit; the oldest events are dropped first and the drop
count is retained.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.errors import ConfigurationError

#: Default cap on retained events (drop-oldest beyond this).
DEFAULT_MAX_EVENTS = 100_000


class EventLog:
    """Append-only structured events with drop-oldest bounding."""

    def __init__(
        self, enabled: bool = True, max_records: int | None = DEFAULT_MAX_EVENTS
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ConfigurationError("max_records must be positive or None")
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0
        #: Event totals folded in from other logs (parallel workers keep
        #: their events local and ship only the accounting).
        self.absorbed_records = 0
        self.absorbed_dropped = 0
        self._records: deque[dict] = deque(maxlen=max_records)

    def emit(self, kind: str, **fields) -> None:
        """Record one event; ``kind`` names the event type."""
        if not self.enabled:
            return
        if (
            self.max_records is not None
            and len(self._records) == self.max_records
        ):
            self.dropped += 1  # deque evicts the oldest on append
        record = {"kind": kind}
        record.update(fields)
        self._records.append(record)

    def absorb_counts(self, recorded: int, dropped: int) -> None:
        """Fold another log's accounting into this one (records stay
        remote; run reports surface the combined totals)."""
        if not self.enabled:
            return
        self.absorbed_records += recorded
        self.absorbed_dropped += dropped

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._records)
