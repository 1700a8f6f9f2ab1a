"""A blocking FIFO store for the DES kernel.

The scheduler performance model queues trajectory chains in one.
"""

from __future__ import annotations

from typing import Any, List

from repro.des.core import Environment, Event


class Store:
    """An unbounded FIFO buffer of items with blocking gets."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """A copy of the buffered items (for inspection in tests)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Add an item, waking the oldest waiting getter if any."""
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.env)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._items and self._getters:
            getter = self._getters.pop(0)
            getter.succeed(self._items.pop(0))
