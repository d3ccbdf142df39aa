"""Independent answer checks.

True counts come from a naive overlapping count over the benchmark's own
copy of the document set; nothing here calls the program. Each served
answer is then held to the paper's contract for its error model:

=============  ===========================================================
model          the true count ``t`` must satisfy
=============  ===========================================================
EXACT          ``t == c`` (also any answer the server flags reliable)
UNIFORM        ``c - l + 1 <= t <= c``
LOWER_SIDED    ``t == c`` whenever ``t >= l``; otherwise ``c < l``
UPPER_BOUND    ``t <= c``
=============  ===========================================================

A check returns ``None`` when the answer holds and a one-line reason when
it does not; the caller counts the operation as failed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple


def naive_count(text: str, pattern: str) -> int:
    """Overlapping occurrences of ``pattern`` in ``text``."""
    count = 0
    at = text.find(pattern)
    while at >= 0:
        count += 1
        at = text.find(pattern, at + 1)
    return count


def corpus_count(bodies: Iterable[str], pattern: str) -> int:
    """Occurrences over a document set (none can span two documents)."""
    return sum(naive_count(body, pattern) for body in bodies)


def interval(model: str, count: int, threshold: int) -> Tuple[int, int]:
    """The ``[lo, hi]`` range of true counts an answer admits."""
    if model == "exact":
        return count, count
    if model == "uniform":
        return max(0, count - threshold + 1), count
    if model == "lower_sided":
        if count >= threshold:
            return count, count
        return 0, threshold - 1
    if model == "upper_bound":
        return 0, count
    raise ValueError(f"unknown error model {model!r}")


def width(lo: int, hi: int) -> int:
    """How many counts an answer admits (1 for an exact answer)."""
    return hi - lo + 1


def check_model(
    model: str, count: int, threshold: int, truth: int, reliable: bool = False
) -> Optional[str]:
    """Hold one served ``(model, count, threshold)`` answer to its contract."""
    if count < 0:
        return f"negative count {count}"
    if reliable and count != truth:
        return f"reliable answer {count} != true count {truth}"
    if model == "exact":
        ok = count == truth
    elif model == "uniform":
        ok = count - threshold + 1 <= truth <= count
    elif model == "lower_sided":
        ok = count == truth if truth >= threshold else count < threshold
    elif model == "upper_bound":
        ok = truth <= count
    else:
        return f"unknown error model {model!r}"
    if ok:
        return None
    return f"{model} answer {count} (l={threshold}) excludes true count {truth}"


def check_interval(lo: int, hi: int, truth: int) -> Optional[str]:
    """A served ``[lo, hi]`` interval must contain the true count."""
    if 0 <= lo <= truth <= hi:
        return None
    return f"interval [{lo}, {hi}] excludes true count {truth}"


def check_certified(
    certified: Optional[int], threshold: int, truth: int
) -> Optional[str]:
    """A lower-sided index's ``count_or_none``: exact when it answers, and
    it must answer whenever the true count reaches ``l``."""
    if certified is None:
        if truth >= threshold:
            return f"declined a pattern with true count {truth} >= l={threshold}"
        return None
    if certified != truth:
        return f"certified count {certified} != true count {truth}"
    return None


def check_estimate(
    estimate: float, certified: Optional[int], truth: int
) -> Optional[str]:
    """A MOL estimate must equal the truth whenever the index certifies the
    pattern, and is a finite non-negative number otherwise."""
    if not estimate >= 0.0 or estimate == float("inf"):
        return f"estimate {estimate!r} is not a finite non-negative number"
    if certified is not None and estimate != truth:
        return f"certified pattern estimated {estimate}, true count {truth}"
    return None


def qerror(estimate: float, truth: int) -> float:
    """``max(e/t, t/e)`` with both sides floored at 1 (so never below 1)."""
    e = max(1.0, float(estimate))
    t = max(1.0, float(truth))
    return max(e / t, t / e)
