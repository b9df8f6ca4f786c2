"""Dense row operations over F_p on lists of ints.

These three functions are the hot loops of the engine: every echelon form,
reduction modulo a basis, ideal slice and polynomial action matrix bottoms
out here. Vectors are plain lists of ints in [0, p), and the arithmetic is
exact for every prime.
The tall stacks of ``fp_linalg.kernel`` do not come here row by row: that
function packs each row into one integer and eliminates on the packed rows,
and hands only its echelon rows to ``rref``.
"""


def backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "python"


def rref(rows, p):
    """Reduced row echelon form of a list of equal-length rows over F_p.

    Returns ``(basis, pivots)`` where ``basis`` holds the nonzero RREF rows
    and ``pivots`` the strictly increasing pivot columns. The input list and
    its rows are left untouched.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    n = len(work[0])
    m = len(work)
    pivots = []
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if work[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        work[r], work[pr] = work[pr], work[r]
        head = work[r]
        inv = pow(head[c], -1, p)
        if inv != 1:
            head = work[r] = [(x * inv) % p for x in head]
        for i in range(m):
            if i != r:
                f = work[i][c]
                if f:
                    row = work[i]
                    work[i] = [(a - f * b) % p for a, b in zip(row, head)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivots


def reduce_row(vectors, basis, pivots, free, p):
    """Reductions of ``vectors`` modulo the span of an RREF basis, on its
    non-pivot columns ``free`` alone: the other rows are zero at the pivot
    c, so v[c] is the coefficient of the row with pivot c. Entries of v may
    be unreduced or negative; a result is zero iff v lies in the span.
    """
    blocks = [[r[f] for f in free] for r in basis]
    out = []
    for v in vectors:
        acc = [v[f] for f in free]
        for c, b in zip(pivots, blocks):
            x = v[c]
            if x:
                acc = [a - x * y for a, y in zip(acc, b)]
        out.append([a % p for a in acc])
    return out


def convolve(a, b, p):
    """Coefficient convolution mod p: the product of two dense coefficient
    vectors, used for homogeneous polynomial slice arithmetic."""
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    out[j] = (out[j] + ai * bj) % p
    return out
