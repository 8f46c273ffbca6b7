"""Edit-distance primitives used by alignment and ontology lookup.

One routine computes every distance here: the bit-parallel edit distance of
Myers (J. ACM 46(3), 1999), anchored at the start of the haystack as Hyyrö
(2001, "Explaining and extending the bit-parallel approximate string matching
algorithm of Myers") shows. Bit ``i`` of each vector holds the vertical or
horizontal delta at needle row ``i + 1`` of the classic DP table, so a whole
column advances in a constant number of big-int operations. Python ints serve
as bit vectors of any width.
"""

from __future__ import annotations


def prefix_distances(needle: str, haystack: str) -> list[int]:
    """Distance from needle to every prefix of haystack.

    Returns row[k] == levenshtein(needle, haystack[:k]) for k in 0..len(haystack),
    one pass over haystack so a caller can scan all prefix lengths cheaply.
    """
    m = len(needle)
    if not m:
        return list(range(len(haystack) + 1))
    # peq[c]: bit i set where needle[i] == c
    peq: dict[str, int] = {}
    bit = 1
    for ch in needle:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, m  # column 0 is 0..m: every vertical delta +1
    row = [m]
    for ch in haystack:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # row 0 is 0..len(haystack): the horizontal delta entering bit 0 is +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        row.append(score)
    return row


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein distance (unit-cost insert/delete/substitute)."""
    return prefix_distances(a, b)[-1]


def max_edits(length: int, ratio: float) -> int:
    """Largest ``d`` with ``d / length <= ratio``, compared as floats.

    This is the edit budget of a ratio test ``distance / length <= ratio``
    (``length >= 1``, ``0 <= ratio < 1``). It is found by the same float
    comparison the test makes, not as ``floor(ratio * length)``, so rounding
    cannot put a distance the test accepts over the budget.
    """
    d = int(ratio * length)
    while (d + 1) / length <= ratio:
        d += 1
    while d / length > ratio:
        d -= 1
    return d


def edit_ratio(a: str, b: str) -> float:
    """Levenshtein distance normalized by the longer string; 0.0 for two empties."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest
