"""Sliding-window chunking of encoded graph text (§3.1.1).

The encoded graph is divided into windows of ``window_size`` pseudo-tokens
with ``overlap`` tokens shared between consecutive windows (the paper uses
8,000 and 500, the maximum the LLM allows).  Cutting happens at token
boundaries, so a statement can be split across a window edge — e.g. one
window ending with ``"Node node_id"`` and the next starting with
``"with label Label has properties (key: value)"``.  The chunker accounts
for every statement that is *not* fully contained in at least one window:
those are the paper's *broken patterns* (§4.5 reports 6 / 11 / 6 for the
three datasets).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.encoding.incident import Statement
from repro.encoding.tokenizer import token_bounds

#: The paper's operating point (tokens).
DEFAULT_WINDOW_SIZE = 8000
DEFAULT_OVERLAP = 500


def statement_token_ranges(
    statements: list["Statement"],
    bounds: tuple[array, array] | None = None,
) -> list[tuple[int, int]]:
    """Map each statement to its [first, last] token index range.

    ``bounds`` are the token start/end offsets of the newline-joined
    text (:func:`~repro.encoding.tokenizer.token_bounds`); recomputed
    when not supplied.  Shared by the chunker's fragmentation accounting
    and the dirty-window invalidation in :mod:`repro.encoding.dirty`.
    """
    if bounds is None:
        text = "\n".join(statement.text for statement in statements)
        bounds = token_bounds(text)
    starts, ends = bounds
    total = len(starts)
    ranges: list[tuple[int, int]] = []
    cursor = 0
    offset = 0
    for statement in statements:
        start_char = offset
        end_char = offset + len(statement.text)
        first = None
        last = None
        while cursor < total and starts[cursor] < end_char:
            if ends[cursor] > start_char:
                if first is None:
                    first = cursor
                last = cursor
            cursor += 1
        if first is None:
            first = last = max(cursor - 1, 0)
        ranges.append((first, last))
        offset = end_char + 1  # the joining newline
    return ranges


@dataclass(frozen=True)
class Window:
    """One window of encoded-graph text."""

    index: int
    text: str
    start_token: int
    end_token: int          # exclusive

    @property
    def token_count(self) -> int:
        return self.end_token - self.start_token


@dataclass
class WindowSet:
    """All windows over one encoding, plus fragmentation accounting.

    Two granularities are tracked:

    * **broken statements** — single encoded statements not fully inside
      any window (rare: the overlap usually exceeds one statement);
    * **broken patterns** — incident *blocks* (a node statement plus its
      outgoing-edge statements, the unit a rule pattern spans) not fully
      inside any window.  High-degree nodes produce blocks longer than
      the overlap, and those are the ones that break — the §4.5 counts
      (6 / 11 / 6 in the paper) are at this granularity.
    """

    windows: list[Window]
    total_tokens: int
    window_size: int
    overlap: int
    broken_statements: list[Statement] = field(default_factory=list)
    broken_blocks: list[str] = field(default_factory=list)  # subject ids

    @property
    def window_count(self) -> int:
        return len(self.windows)

    @property
    def broken_statement_count(self) -> int:
        return len(self.broken_statements)

    @property
    def broken_pattern_count(self) -> int:
        return len(self.broken_blocks)


class SlidingWindowChunker:
    """Splits encoded statements into overlapping token windows."""

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW_SIZE,
        overlap: int = DEFAULT_OVERLAP,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0 <= overlap < window_size:
            raise ValueError("overlap must satisfy 0 <= overlap < window_size")
        self.window_size = window_size
        self.overlap = overlap

    @property
    def step(self) -> int:
        return self.window_size - self.overlap

    # ------------------------------------------------------------------
    def chunk_statements(self, statements: list[Statement]) -> WindowSet:
        """Chunk a statement list, tracking which statements get broken."""
        text = "\n".join(statement.text for statement in statements)
        bounds = token_bounds(text)
        total = len(bounds[0])
        ranges = statement_token_ranges(statements, bounds)

        windows = self._build_windows(text, bounds)
        broken = self._find_broken(statements, ranges, windows, total)
        broken_blocks = self._find_broken_blocks(statements, ranges, windows)
        return WindowSet(
            windows=windows,
            total_tokens=total,
            window_size=self.window_size,
            overlap=self.overlap,
            broken_statements=broken,
            broken_blocks=broken_blocks,
        )

    def chunk_text(self, text: str) -> WindowSet:
        """Chunk raw text (no statement accounting)."""
        bounds = token_bounds(text)
        windows = self._build_windows(text, bounds)
        return WindowSet(
            windows=windows,
            total_tokens=len(bounds[0]),
            window_size=self.window_size,
            overlap=self.overlap,
        )

    # ------------------------------------------------------------------
    def _build_windows(
        self, text: str, bounds: tuple[array, array]
    ) -> list[Window]:
        starts, ends = bounds
        total = len(starts)
        if total == 0:
            return []
        windows: list[Window] = []
        start = 0
        index = 0
        while True:
            end = min(start + self.window_size, total)
            char_start = starts[start]
            char_end = ends[end - 1]
            windows.append(
                Window(
                    index=index,
                    text=text[char_start:char_end],
                    start_token=start,
                    end_token=end,
                )
            )
            if end >= total:
                return windows
            start += self.step
            index += 1

    @staticmethod
    def _find_broken_blocks(
        statements: list[Statement],
        ranges: list[tuple[int, int]],
        windows: list[Window],
    ) -> list[str]:
        """Incident blocks (node + its edge statements) that no window
        fully contains — the §4.5 "broken pattern" count."""
        if not windows:
            return [s.subject_id for s in statements if s.kind == "node"]
        blocks: list[tuple[str, int, int]] = []
        current: tuple[str, int, int] | None = None
        for statement, (first, last) in zip(statements, ranges):
            if statement.kind == "node":
                if current is not None:
                    blocks.append(current)
                current = (statement.subject_id, first, last)
            elif current is not None:
                current = (current[0], current[1], last)
        if current is not None:
            blocks.append(current)
        broken: list[str] = []
        for subject_id, first, last in blocks:
            contained = any(
                window.start_token <= first and last < window.end_token
                for window in windows
            )
            if not contained:
                broken.append(subject_id)
        return broken

    @staticmethod
    def _find_broken(
        statements: list[Statement],
        ranges: list[tuple[int, int]],
        windows: list[Window],
        total_tokens: int,
    ) -> list[Statement]:
        if not windows:
            return list(statements)
        broken: list[Statement] = []
        for statement, (first, last) in zip(statements, ranges):
            contained = any(
                window.start_token <= first and last < window.end_token
                for window in windows
            )
            if not contained:
                broken.append(statement)
        return broken
