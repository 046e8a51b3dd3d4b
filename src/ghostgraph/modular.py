"""Tiny exact linear algebra helpers mod a prime."""

from __future__ import annotations

from typing import Optional


def solve_mod_prime(
    matrix: list[list[int]], rhs: list[int], p: int
) -> Optional[list[int]]:
    """One solution x of A x = rhs over Z/p (p prime), or None.

    Plain Gauss elimination; sizes here are tiny.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [[matrix[i][j] % p for j in range(cols)] + [rhs[i] % p] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] % p != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] % p != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] % p != 0:
            return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x
