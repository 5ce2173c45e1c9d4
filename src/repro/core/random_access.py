"""Random access into compressed SMILES files (the "flat" layout).

The whole point of keeping one compressed record per line (Section I) is that
domain experts can pull individual molecules or slices out of a multi-TB
library without decompressing the file.  This module provides:

* :class:`LineIndex` — byte offsets of every record, buildable in one
  sequential pass and persistable next to the data file,
* :class:`RandomAccessReader` — O(1) record lookups through the index, with
  optional on-the-fly decompression via a :class:`ZSmilesCodec`.

This flat layout (``.zsmi`` data + ``.zsx`` sidecar index, one seek per
record) is the documented *fallback* path: at production scale the
block-compressed ``.zss`` container (:mod:`repro.store`) serves the same
:class:`~repro.store.protocol.RecordReader` protocol with a binary footer
index, per-block checksums and a block cache decoding only the records
read.  Code that serves records should accept the protocol and let
:func:`repro.store.open_reader` pick the implementation by suffix.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from ..errors import RandomAccessError
from .codec import ZSmilesCodec

PathLike = Union[str, Path]

#: Default extension for persisted line indexes.
INDEX_SUFFIX = ".zsx"


@dataclass
class LineIndex:
    """Byte offsets of each record in a line-oriented file.

    ``offsets[i]`` is the byte position of the first byte of record *i*;
    ``offsets[n]`` (one past the last record) equals the file size, so record
    *i* spans ``offsets[i]:offsets[i+1]`` including its newline.
    """

    offsets: List[int]

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, path: PathLike) -> "LineIndex":
        """Scan *path* once and record the byte offset of every record."""
        offsets = [0]
        with open(path, "rb") as handle:
            for raw in handle:
                offsets.append(offsets[-1] + len(raw))
        return cls(offsets=offsets)

    @property
    def line_count(self) -> int:
        """Number of records in the indexed file."""
        return len(self.offsets) - 1

    def span(self, line: int) -> tuple[int, int]:
        """Byte span ``(start, end)`` of record *line* (newline included)."""
        if not 0 <= line < self.line_count:
            raise RandomAccessError(
                f"line {line} out of range [0, {self.line_count})"
            )
        return self.offsets[line], self.offsets[line + 1]

    # ------------------------------------------------------------------ #
    # Persistence: a compact text format, one offset per line.
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> None:
        """Persist the index (one decimal offset per line, header included)."""
        buffer = io.StringIO()
        buffer.write(f"# ZSMILES line index; lines = {self.line_count}\n")
        for offset in self.offsets:
            buffer.write(f"{offset}\n")
        Path(path).write_text(buffer.getvalue(), encoding="ascii")

    @classmethod
    def load(cls, path: PathLike) -> "LineIndex":
        """Load an index previously written by :meth:`save`."""
        offsets: List[int] = []
        for line in Path(path).read_text(encoding="ascii").splitlines():
            if not line or line.startswith("#"):
                continue
            try:
                offsets.append(int(line))
            except ValueError as exc:
                raise RandomAccessError(f"malformed index line {line!r}") from exc
        if not offsets or offsets[0] != 0:
            raise RandomAccessError("index must start at offset 0")
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise RandomAccessError("index offsets must be non-decreasing")
        return cls(offsets=offsets)

    @staticmethod
    def default_path(data_path: PathLike) -> Path:
        """Conventional sidecar path for the index of *data_path*."""
        data_path = Path(data_path)
        return data_path.with_suffix(data_path.suffix + INDEX_SUFFIX)


class RandomAccessReader:
    """Random access to the records of a (compressed or plain) SMILES file."""

    def __init__(
        self,
        path: PathLike,
        index: Optional[LineIndex] = None,
        codec: Optional[ZSmilesCodec] = None,
        encoding: str = "latin-1",
    ):
        self.path = Path(path)
        self.index = index if index is not None else LineIndex.build(self.path)
        self.codec = codec
        self.encoding = encoding
        self._handle: Optional[io.BufferedReader] = None

    # ------------------------------------------------------------------ #
    # Context manager / lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "RandomAccessReader":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def open(self) -> None:
        """Open the underlying file (idempotent)."""
        if self._handle is None:
            self._handle = open(self.path, "rb")

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.index.line_count

    def raw_line(self, line: int) -> str:
        """The stored record at *line* (compressed text if the file is compressed)."""
        start, end = self.index.span(line)
        self.open()
        assert self._handle is not None
        self._handle.seek(start)
        data = self._handle.read(end - start)
        return data.decode(self.encoding).rstrip("\r\n")

    def line(self, line: int) -> str:
        """The record at *line*, decompressed when a codec was supplied."""
        raw = self.raw_line(line)
        if self.codec is None:
            return raw
        return self.codec.decompress(raw)

    def __getitem__(self, line: int) -> str:
        return self.line(line)

    def lines(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records by index, preserving request order."""
        return [self.line(i) for i in indices]

    # RecordReader-protocol names (shared with repro.store readers).
    def get(self, line: int) -> str:
        """Alias of :meth:`line` (:class:`~repro.store.RecordReader` surface)."""
        return self.line(line)

    def get_many(self, indices: Sequence[int]) -> List[str]:
        """Alias of :meth:`lines` (:class:`~repro.store.RecordReader` surface)."""
        return self.lines(indices)

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive)."""
        if start < 0 or stop < start:
            raise RandomAccessError(f"invalid slice [{start}, {stop})")
        stop = min(stop, len(self))
        return [self.line(i) for i in range(start, stop)]

    def sample(self, n: int, seed: Optional[int] = None) -> tuple:
        """Uniform random records without replacement: ``(indices, records)``.

        Same ``random.Random(seed).sample`` semantics and clamping as the
        server's ``GET /records:sample`` and the packed readers' ``sample``,
        so the flat layout is transport-interchangeable for seeded draws.
        """
        if n < 0:
            raise RandomAccessError(f"sample size must be >= 0, got {n}")
        total = len(self)
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(total), min(n, total)))
        return indices, self.get_many(indices)

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record in order (decompressing when applicable)."""
        for i in range(len(self)):
            yield self.line(i)
