"""Relations: a named heap plus its indexes."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.storage.heap import Heap


class Relation:
    """Catalog entry tying together a heap and its access paths.

    Index objects are duck-typed (see repro.index): they expose
    ``name``, ``oid``, ``column``, ``unique``,
    ``supports_predicate_locks``, ``insert_entry``, ``remove_entry``,
    ``search`` and ``range_search``.
    """

    def __init__(self, oid: int, name: str, columns: Sequence[str],
                 page_size: int) -> None:
        self.oid = oid
        self.name = name
        self.columns: List[str] = list(columns)
        self.heap = Heap(page_size)
        self.indexes: Dict[str, object] = {}

    def add_index(self, index) -> None:
        self.indexes[index.name] = index

    def drop_index(self, name: str) -> None:
        del self.indexes[name]

    def index_on(self, column: str) -> Optional[object]:
        """An index whose key is ``column``, if any (planner helper)."""
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.name} oid={self.oid} pages={self.heap.page_count}>"
