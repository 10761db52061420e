"""Web page model: object sizes + a fetch-dependency DAG.

Object 0 is the root HTML document; every other object becomes fetchable
only after all of its dependencies have finished downloading (how a browser
discovers subresources). Page load time is when the last object lands —
the ``onLoad`` event the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ScenarioError


@dataclass
class WebObject:
    """One fetchable resource on a page."""

    object_id: int
    size_bytes: int
    depends_on: List[int] = field(default_factory=list)


@dataclass
class WebPage:
    """A named page: a list of objects forming a DAG rooted at object 0."""

    name: str
    objects: List[WebObject]

    def validate(self) -> None:
        if not self.objects:
            raise ScenarioError(f"page {self.name!r} has no objects")
        ids = [obj.object_id for obj in self.objects]
        if ids != list(range(len(self.objects))):
            raise ScenarioError(
                f"page {self.name!r}: object ids must be 0..n-1 in order"
            )
        if self.objects[0].depends_on:
            raise ScenarioError(f"page {self.name!r}: root object cannot have deps")
        for obj in self.objects:
            if obj.size_bytes <= 0:
                raise ScenarioError(
                    f"page {self.name!r}: object {obj.object_id} has size "
                    f"{obj.size_bytes}"
                )
            for dep in obj.depends_on:
                if dep >= obj.object_id or dep < 0:
                    raise ScenarioError(
                        f"page {self.name!r}: object {obj.object_id} depends on "
                        f"{dep}; dependencies must point to earlier objects"
                    )

    @property
    def total_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self.objects)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    def size_of(self, object_id: int) -> int:
        try:
            return self.objects[object_id].size_bytes
        except IndexError:
            raise ScenarioError(
                f"page {self.name!r} has no object {object_id}"
            ) from None
