"""Row operations over F_p: echelon forms, packed reduction, convolution.

These three functions are the hot loops of the engine: every echelon form,
reduction modulo a subspace, ideal slice and polynomial action matrix
bottoms out here. ``rref`` and ``convolve`` work on plain lists of ints in
[0, p). ``reduce_row`` works on a subspace in the codimension form of
``fp_linalg.Subspace``: each echelon row stored as one int, its entries on
the free (non-pivot) columns packed into w-bit slots (Kronecker
substitution), each slot reduced mod p. A reduction adds at most one
multiple of each row, every multiplier and entry below p, so its slots
stay below npivots * (p - 1)**2 and are read mod p once at the end
(delayed reduction). The w of ``fp_linalg`` keeps p + ncols * (p - 1)**2
below 2**w, which bounds that sum. The tall stacks of ``fp_linalg.kernel``
are packed the same way there and hand only their echelon rows to
``rref``.
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


def reduce_row(vectors, blocks, pivots, free, w, p):
    """Reductions of ``vectors`` modulo a subspace in codimension form, on
    its free columns ``free``: ``blocks[i]`` packs the entries of the echelon
    row with pivot ``pivots[i]`` on ``free``, w bits a slot. The other rows
    are zero at the pivot c, so v[c] is the coefficient of the row with
    pivot c, and the result is v[f] minus the slot of f in the sum of those
    multiples. Entries of v may be unreduced or negative; a result is zero
    iff v lies in the subspace.
    """
    mask = (1 << w) - 1
    shifts = range(0, len(free) * w, w)
    out = []
    for v in vectors:
        acc = 0
        for c, b in zip(pivots, blocks):
            x = v[c]
            if x:
                acc += x % p * b
        if acc:
            out.append([(v[f] - (acc >> s & mask)) % p for f, s in zip(free, shifts)])
        else:
            out.append([v[f] % p for f in free])
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
