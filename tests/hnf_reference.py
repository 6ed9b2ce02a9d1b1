"""The HNF that `exact.hnf` replaced.

`hnf_reference` finds each pivot as the first row, from the current one
on, with the least nonzero |entry| in the column, through a list of the
nonzero rows and `min(..., key=...)`; `exact.hnf` finds the same row with
one plain scan.  Everything else is the same elimination, so the two must
return identical rows; `tests/test_exact.py` compares them.
"""


def hnf_reference(rows):
    """`exact.hnf` with a list-and-`min` pivot search: the same rows."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            clean = True
            piv = m[r][c]
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // piv
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        clean = False
            if clean:
                break
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            piv = m[r][c]
            for i in range(r):
                q = m[i][c] // piv
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
    if any(any(row) for row in m[r:]):
        raise ValueError("HNF elimination left a nonzero trailing row")
    return tuple(tuple(row) for row in m[:r])
