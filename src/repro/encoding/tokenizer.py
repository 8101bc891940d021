"""Deterministic tokenizer approximating LLM subword tokenization.

The study budgets windows in *LLM tokens* (8,000-token windows with a
500-token overlap, the LLaMA-3 limits).  Offline we need a deterministic
stand-in: words and punctuation become tokens, and long words are split
into fixed-size pieces, which approximates byte-pair encoding closely
enough for window-size arithmetic.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable

#: Maximum characters per token piece (BPE pieces average ~4-6 chars).
PIECE_SIZE = 6

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def split_tokens(text: str) -> list[str]:
    """Split ``text`` into deterministic pseudo-BPE tokens."""
    tokens: list[str] = []
    for match in _WORD_RE.finditer(text):
        word = match.group(0)
        if len(word) <= PIECE_SIZE:
            tokens.append(word)
        else:
            tokens.extend(
                word[i:i + PIECE_SIZE] for i in range(0, len(word), PIECE_SIZE)
            )
    return tokens


def token_bounds(text: str) -> tuple[array, array]:
    """Start and end character offsets of each pseudo-token in ``text``,
    as two parallel int arrays.

    Used by the window chunker to cut windows at token boundaries while
    preserving the original text verbatim (including mid-statement
    cuts).  The chunker holds one entry per token of a whole encoding,
    so the offsets are kept at 16 bytes a token rather than as a list
    of tuples (~120 bytes a token).
    """
    starts = array("q")
    ends = array("q")
    for match in _WORD_RE.finditer(text):
        start, end = match.span()
        for piece_start in range(start, end, PIECE_SIZE):
            starts.append(piece_start)
            ends.append(min(piece_start + PIECE_SIZE, end))
    return starts, ends


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character spans ``(start, end)`` of each pseudo-token in ``text``."""
    return list(zip(*token_bounds(text)))


def count_tokens(text: str) -> int:
    """Number of pseudo-tokens in ``text`` (``len(split_tokens(text))``,
    without building the pieces: a word contributes ``ceil(len /
    PIECE_SIZE)``)."""
    return sum(
        (len(word) + PIECE_SIZE - 1) // PIECE_SIZE
        for word in _WORD_RE.findall(text)
    )


def count_tokens_many(texts: Iterable[str]) -> int:
    """Total token count across several strings."""
    return sum(count_tokens(text) for text in texts)
