"""Polynomial-time binary-representability oracle, independent of gicode.

A binary matroid has one representation up to row operations: relative to
a basis B it is [I | A], where column e of A is the indicator of the
fundamental circuit of e in B ∪ {e} (Oxley, Matroid Theory, ch. 6).  Build
that matrix from the rank table, then compare its rank table with the
matroid's.  Only the rank table is used, and GF(2) ranks are computed here
with a small xor basis rather than with gicode's elimination.
"""

from __future__ import annotations


def gf2_rank(vectors) -> int:
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def binary_representable(m: int, table) -> bool:
    """True iff the matroid with this rank table (indexed by bitmask) is binary."""
    table = [int(r) for r in table]
    k = table[-1]
    basis = next(s for s in range(1 << m) if bin(s).count("1") == k and table[s] == k)
    members = [b for b in range(m) if basis >> b & 1]
    columns = []
    for e in range(m):
        if basis >> e & 1:
            columns.append(1 << members.index(e))
            continue
        col = 0
        for pos, b in enumerate(members):
            # b lies on the fundamental circuit of e iff B - b + e is a basis.
            if table[(basis & ~(1 << b)) | (1 << e)] == k:
                col |= 1 << pos
        columns.append(col)
    return all(
        gf2_rank(columns[i] for i in range(m) if s >> i & 1) == table[s] for s in range(1 << m)
    )
