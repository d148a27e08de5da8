"""Exhaustive enumeration of small rank tables, shared by the test modules."""

from itertools import combinations


def rank_tables(m, step):
    """Every rank(empty) = 0, monotone, submodular integer table on m elements
    whose one-element gains are at most `step`, found by filling subsets in
    mask order (each subset after all of its own subsets).  At step 1 these
    are the labelled matroids on m elements."""
    table = [0] * (1 << m)

    def fill(s):
        if s == 1 << m:
            yield tuple(table)
            return
        elems = [i for i in range(m) if s >> i & 1]
        low = table[s ^ 1 << elems[-1]]
        for v in range(low, low + step + 1):
            if all(0 <= v - table[s ^ 1 << i] <= step for i in elems) and all(
                v + table[s ^ 1 << i ^ 1 << j] <= table[s ^ 1 << i] + table[s ^ 1 << j]
                for i, j in combinations(elems, 2)
            ):
                table[s] = v
                yield from fill(s + 1)

    yield from fill(1)
