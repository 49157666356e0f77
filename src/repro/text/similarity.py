"""String and set similarity measures.

These are the comparison primitives behind the DeepMatcher-style attribute
summarisation model, the evaluation metrics (proximity / diversity are
attribute-wise distances) and the blocking heuristics.  All functions return
similarities in ``[0, 1]`` where ``1`` means identical.

Edit distance is computed bit-parallel (:func:`levenshtein_distance`), a few
word operations per character over values cut to :data:`EDIT_PREFIX`.  The
process-wide memo that matters is :func:`memoized_jaro_winkler`: Monge-Elkan
compares every token of one value with every token of the other, and
perturbed copies of a record share nearly all their tokens.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from repro.text.tokenize import qgrams, tokenize

#: Characters of each value fed to edit-distance features, on the naive and
#: the content-cached featurisation paths alike.
EDIT_PREFIX = 64
#: Tokens of each value fed to Monge-Elkan features, on both paths.
MONGE_ELKAN_TOKENS = 12


def jaccard(left: Iterable[str], right: Iterable[str]) -> float:
    """Jaccard similarity between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


def overlap_coefficient(left: Iterable[str], right: Iterable[str]) -> float:
    """Overlap coefficient (Szymkiewicz-Simpson) between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / min(len(left_set), len(right_set))


def dice_coefficient(left: Iterable[str], right: Iterable[str]) -> float:
    """Sorensen-Dice coefficient between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return 2.0 * len(left_set & right_set) / (len(left_set) + len(right_set))


def cosine_tokens(left: Iterable[str], right: Iterable[str]) -> float:
    """Cosine similarity between token multiset (bag-of-words) vectors."""
    left_counts, right_counts = Counter(left), Counter(right)
    if not left_counts and not right_counts:
        return 1.0
    if not left_counts or not right_counts:
        return 0.0
    shared = set(left_counts) & set(right_counts)
    dot = sum(left_counts[token] * right_counts[token] for token in shared)
    left_norm = math.sqrt(sum(count * count for count in left_counts.values()))
    right_norm = math.sqrt(sum(count * count for count in right_counts.values()))
    return dot / (left_norm * right_norm)


def levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein edit distance, computed bit-parallel.

    Hyyrö's (2003) Levenshtein form of Myers' bit-vector algorithm (J. ACM
    1999): one DP column over the shorter string is held as vertical-delta
    bit vectors (``pv``/``mv``: +1/-1 steps) in Python ints and advanced by
    a fixed handful of word operations per character of the longer string.
    The score tracks the column's last cell through the high bit of the
    horizontal deltas (``ph``/``mh``).
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) > len(right):
        left, right = right, left
    pattern_eq: dict[str, int] = {}
    bit = 1
    for char in left:
        pattern_eq[char] = pattern_eq.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    high = bit >> 1
    pv, mv, score = full, 0, len(left)
    for char in right:
        eq = pattern_eq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def levenshtein_similarity(left: str, right: str) -> float:
    """Levenshtein distance normalised into a similarity in ``[0, 1]``."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


def jaro(left: str, right: str) -> float:
    """Jaro similarity between two strings."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    match_window = max(len(left), len(right)) // 2 - 1
    match_window = max(match_window, 0)
    left_matches = [False] * len(left)
    right_matches = [False] * len(right)

    matches = 0
    for i, left_char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != left_char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(left) + matches / len(right) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler similarity, boosting shared prefixes."""
    base = jaro(left, right)
    prefix = 0
    for left_char, right_char in zip(left, right):
        if left_char != right_char or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def monge_elkan(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    token_similarity: "Callable[[str, str], float]" = jaro_winkler,
) -> float:
    """Monge-Elkan similarity: average best Jaro-Winkler match per left token.

    ``token_similarity`` lets the content-cached featurizer reuse this loop
    with the memoised token comparator (:func:`memoized_jaro_winkler`).
    """
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(token_similarity(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


@lru_cache(maxsize=1 << 18)
def memoized_levenshtein_similarity(left: str, right: str) -> float:
    """Memoised :func:`levenshtein_similarity` (same values, O(1) on repeats).

    The content-cached featurisation layer routes its edit-distance features
    through this binding.  With the bit-parallel kernel the memo saves little
    over that layer's own pairwise caches (under a tenth of a cold
    explanation); it is also the call site the benchmark's tracer
    (``perfbench/tracing.py``) wraps to time edit distance.  The cache is
    process-wide and bounded (least-recently-used eviction).
    """
    return levenshtein_similarity(left, right)


@lru_cache(maxsize=1 << 18)
def memoized_jaro_winkler(left: str, right: str) -> float:
    """Memoised :func:`jaro_winkler` over single tokens (same values).

    The token comparator of the featurizer's Monge-Elkan features: perturbed
    copies of a record re-pair the same tokens across many value pairs, which
    the featurizer's per-value-pair caches cannot see.
    """
    return jaro_winkler(left, right)


def qgram_similarity(left: str, right: str, q: int = 3) -> float:
    """Jaccard similarity over character q-grams."""
    return jaccard(qgrams(left, q=q), qgrams(right, q=q))


def parsed_numeric_similarity(left_value: float, right_value: float) -> float:
    """Relative difference of two parsed numbers mapped to [0, 1].

    The shared core of :func:`numeric_similarity`, also used by the
    content-cached featurisation layer over pre-parsed values.
    """
    if math.isnan(left_value) or math.isnan(right_value):
        return 0.0
    if left_value == right_value:
        return 1.0
    denominator = max(abs(left_value), abs(right_value))
    if denominator == 0:
        return 1.0
    return max(0.0, 1.0 - abs(left_value - right_value) / denominator)


def numeric_similarity(left: str, right: str) -> float:
    """Similarity for numeric-looking values: relative difference mapped to [0, 1].

    Falls back to exact string equality when either side does not parse as a
    number (the benchmark price columns are frequently missing or textual).
    """
    try:
        left_value = float(left)
        right_value = float(right)
    except (TypeError, ValueError):
        return 1.0 if left == right else 0.0
    return parsed_numeric_similarity(left_value, right_value)


def attribute_similarity(left_value: str, right_value: str) -> float:
    """Composite attribute-level similarity used throughout the library.

    Blend of token Jaccard, q-gram Jaccard and normalised edit similarity.
    Missing values are handled explicitly: two missing values count as similar,
    one missing value counts as maximally dissimilar.
    """
    if not left_value and not right_value:
        return 1.0
    if not left_value or not right_value:
        return 0.0
    token_part = jaccard(tokenize(left_value), tokenize(right_value))
    qgram_part = qgram_similarity(left_value, right_value)
    edit_part = levenshtein_similarity(left_value[:EDIT_PREFIX], right_value[:EDIT_PREFIX])
    return (token_part + qgram_part + edit_part) / 3.0


def pair_similarity_profile(left_values: Sequence[str], right_values: Sequence[str]) -> list[float]:
    """Attribute-aligned similarity vector for two equally long value lists."""
    if len(left_values) != len(right_values):
        raise ValueError(
            f"value lists must align, got lengths {len(left_values)} and {len(right_values)}"
        )
    return [attribute_similarity(left, right) for left, right in zip(left_values, right_values)]
