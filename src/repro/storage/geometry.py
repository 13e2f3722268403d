"""Disk geometry: byte offsets → cylinders.

The paper's drives are modelled on the Seagate ST15150N but with a
constant cylinder size of 1.25 Mbytes ("although this disk has variable
capacity cylinders, for simplicity ... a constant cylinder size is
assumed").
"""

from __future__ import annotations


class DiskGeometry:
    def __init__(self, cylinder_bytes: int, capacity_bytes: int) -> None:
        if cylinder_bytes <= 0:
            raise ValueError(f"cylinder size must be positive, got {cylinder_bytes}")
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.cylinder_bytes = int(cylinder_bytes)
        self.capacity_bytes = int(capacity_bytes)
        self.cylinder_count = -(-capacity_bytes // cylinder_bytes)

    def cylinder_of(self, offset: int) -> int:
        """Cylinder number containing byte *offset*."""
        if offset < 0 or offset >= self.capacity_bytes:
            raise ValueError(
                f"offset {offset} outside disk of {self.capacity_bytes} bytes"
            )
        return offset // self.cylinder_bytes

    def cylinder_span(self, offset: int, size: int) -> tuple[int, int]:
        """First and last cylinder a *size*-byte transfer at *offset* touches."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        first = self.cylinder_of(offset)
        # A valid offset and a positive size put the last byte on the disk.
        last = (min(offset + size, self.capacity_bytes) - 1) // self.cylinder_bytes
        return first, last

    def cylinders_crossed(self, offset: int, size: int) -> int:
        """Cylinder boundaries crossed while transferring *size* bytes."""
        first, last = self.cylinder_span(offset, size)
        return last - first

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskGeometry(cylinders={self.cylinder_count}, "
            f"cylinder_bytes={self.cylinder_bytes})"
        )
