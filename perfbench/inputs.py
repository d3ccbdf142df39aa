"""Seeded input generation for the benchmark.

Every input the program under test sees is made here from ``--seed`` alone:
an English-like document set (syllable words drawn with Zipf frequencies,
so substrings repeat the way natural text does), pattern sets sampled from
it, a Zipf query log and a mutation stream. The generator belongs to the
benchmark, not to the program, so a change to ``repro.datasets`` cannot
shift the workload. The same seed always gives the same inputs.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple

_ONSETS = ["", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "st", "tr", "ch", "sh", "th", "pl", "gr"]
_NUCLEI = ["a", "e", "i", "o", "u", "ea", "ou", "ai", "io"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "nd", "ng", "ck"]


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, purpose), so adding one draw to a
    stream never shifts another stream."""
    return random.Random(f"{seed}:{stream}")


def zipf_sampler(rng: random.Random, n: int, s: float):
    """Draw ranks ``0..n-1`` with probability proportional to ``1/(r+1)^s``."""
    cumulative: List[float] = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cumulative.append(total)

    def draw() -> int:
        return min(n - 1, bisect.bisect_left(cumulative, rng.random() * total))

    return draw


def vocabulary(size: int = 1500) -> List[str]:
    """The word list every corpus draws from. It is the same for every seed,
    so seeds vary the sampled text and patterns but not the language, and
    corpus-wide figures (index size, sketch noise) stay comparable."""
    rng = rng_for(0, "vocabulary")
    words: List[str] = []
    seen = set()
    while len(words) < size:
        syllables = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def documents(
    seed: int, total_symbols: int = 0, *, stream: str = "docs",
    count: int = 0, doc_symbols: Tuple[int, int] = (150, 450),
) -> List[Tuple[str, str]]:
    """``(name, body)`` documents: exactly ``count`` of them when given,
    otherwise as many as make the bodies sum to ~``total_symbols``.

    Bodies use lowercase letters, space, ``,`` and ``.`` only, so they never
    contain a row separator.
    """
    words = vocabulary()
    rng = rng_for(seed, stream)
    draw = zipf_sampler(rng, len(words), 1.05)
    out: List[Tuple[str, str]] = []
    produced = 0
    while (len(out) < count) if count else (produced < total_symbols):
        target = rng.randint(*doc_symbols)
        parts: List[str] = []
        length = 0
        while length < target:
            sentence = " ".join(words[draw()] for _ in range(rng.randint(4, 11)))
            sentence += rng.choice((".", ".", ".", ","))
            parts.append(sentence)
            length += len(sentence) + 1
        body = " ".join(parts)
        out.append((f"{stream}-{len(out):05d}", body))
        produced += len(body)
    return out


def sample_substrings(
    rng: random.Random, text: str, count: int, lengths: Sequence[int],
) -> List[str]:
    """Distinct substrings of ``text`` at random positions with lengths
    drawn from ``lengths``, skipping any that start or end in a space or
    contain a character outside the document alphabet (e.g. a separator)."""
    out: List[str] = []
    seen = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ValueError("text too small for the requested patterns")
        length = rng.choice(lengths)
        start = rng.randrange(0, len(text) - length)
        piece = text[start:start + length]
        if piece[0] == " " or piece[-1] == " " or not _in_alphabet(piece):
            continue
        if piece in seen:
            continue
        seen.add(piece)
        out.append(piece)
    return out


def _in_alphabet(piece: str) -> bool:
    return all(ch == " " or ch == "," or ch == "." or "a" <= ch <= "z"
               for ch in piece)


def zipf_log(
    rng: random.Random, universe: Sequence[str], length: int, s: float
) -> List[str]:
    """A query log of ``length`` draws from ``universe`` under Zipf(``s``);
    the universe is shuffled first so popularity is independent of how the
    patterns were sampled."""
    order = list(universe)
    rng.shuffle(order)
    draw = zipf_sampler(rng, len(order), s)
    return [order[draw()] for _ in range(length)]

