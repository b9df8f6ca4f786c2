"""Subspaces over F_p: echelon forms, kernels, sums and membership."""

import itertools
import random

import pytest

from modinv.fp_linalg import Subspace, _width, kernel, preimage
from oracles import dense_reduce_row, dense_shift, dense_sum, full_reduce_preimage, rref_kernel

BIG_PRIMES = [2**31 - 1, 4294967311]  # (p - 1)**2 takes 62 and 65 bits: packed slots past 64 bits


def random_subspace(rng, p, n, k):
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    return Subspace.span(p, n, rows)


def test_echelon_examples():
    s = Subspace.span(3, 2, [[1, 1], [2, 2]])
    assert s.rows == ((1, 1),)
    z = Subspace.span(3, 4, [])
    assert z.dim == 0 and z.is_zero
    s = Subspace.span(5, 3, [[0, 1, 0], [1, 0, 2]])
    assert s.rows == ((1, 0, 2), (0, 1, 0))


def test_echelon_idempotent():
    rng = random.Random(2)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        s = random_subspace(rng, p, rng.randrange(1, 6), rng.randrange(0, 6))
        assert Subspace.span(p, s.ncols, s.rows) == s


def test_kernel_examples():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel(ident, 3, 5).is_zero
    assert kernel([[0, 0, 0, 0], [0, 0, 0, 0]], 4, 5).is_full
    k = kernel([[1, 1]], 2, 2)
    assert k.rows == ((1, 1),)
    # entries are read mod p
    assert kernel([[3, 1]], 2, 3) == Subspace.span(3, 2, [[1, 0]])
    assert kernel([[-1, 1], [5, -5]], 2, 5) == Subspace.span(5, 2, [[1, 1]])
    assert kernel([[-2, 0, 7], [0, -3, 0]], 3, 7) == Subspace.span(7, 3, [[0, 0, 1]])


def test_kernel_rank_nullity_and_annihilation():
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        rank = Subspace.span(p, n, rows).dim
        ker = kernel(rows, n, p)
        assert rank + ker.dim == n
        for v in ker.rows:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


def _kernel_stack(rng, p, n):
    """0 to 3n rows of length n: zero, duplicate, dependent, sparse and
    dense rows with entries in [-p, 2p), some stacks led by the identity so
    that they reach rank n first and go on."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)] if rng.random() < 0.3 else []
    for _ in range(rng.randrange(0, 3 * n + 1)):
        kind = rng.randrange(5)
        if kind == 0 or not rows:
            rows.append([0] * n)
        elif kind == 1:
            rows.append(list(rng.choice(rows)))
        elif kind == 2:
            a, b = rng.choice(rows), rng.choice(rows)
            f, g = rng.randrange(p), rng.randrange(p)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        elif kind == 3:
            rows += _random_rows(rng, p, n, 1)
        else:
            rows.append([rng.randrange(-p, 2 * p) for _ in range(n)])
    return rows


@pytest.mark.parametrize("p", [2, 3, 13, 65537] + BIG_PRIMES)
def test_kernel_matches_rref_oracle(p):
    rng = random.Random(p % 1009)
    for _ in range(150):
        n = rng.randrange(0, 9)
        rows = _kernel_stack(rng, p, n)
        assert kernel(rows, n, p) == rref_kernel(rows, n, p)


@pytest.mark.parametrize("p", [2, 3])
def test_preimage_matches_enumeration(p):
    rng = random.Random(30 + p)
    for _ in range(150):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        coords = rng.sample(range(n), rng.randrange(0, n + 1))
        maps = [
            [[rng.randrange(p) for _ in range(m)] for _ in coords]
            for _ in range(rng.randrange(0, 3))
        ]
        modulo = random_subspace(rng, p, m, rng.randrange(0, m + 1))
        found = []
        for c in itertools.product(range(p), repeat=len(coords)):
            if all(
                modulo.contains([sum(x * w[j] for x, w in zip(c, images)) for j in range(m)])
                for images in maps
            ):
                v = [0] * n
                for k, x in zip(coords, c):
                    v[k] = x
                found.append(v)
        got = preimage(p, n, coords, maps, modulo)
        assert got == Subspace.span(p, n, found)
        assert p**got.dim == len(found)


def test_contains_examples():
    p = 5
    a = Subspace.span(p, 3, [[1, 2, 0]])
    assert a.contains([0, 0, 0])
    assert not a.contains([0, 0, 1])
    b = Subspace.span(3, 2, [[1, 2], [0, 1]])
    assert b.contains([2, 0])  # 2*(1,2) + 2*(0,1) = (2, 6) = (2, 0) mod 3


def test_reduce_gives_canonical_representative():
    p = 5
    s = Subspace.span(p, 3, [[1, 0, 2], [0, 1, 3]])
    red = s.reduce([2, 3, 1])
    assert red[0] == 0 and red[1] == 0
    assert s.reduce(red) == red


def test_complement_indices():
    s = Subspace.span(5, 4, [[1, 0, 2, 0], [0, 0, 0, 1]])
    assert s.pivots == (0, 3)
    assert s.complement() == [1, 2]


def test_dimension_mismatch_errors():
    a = Subspace.span(3, 2, [[1, 0]])
    b = Subspace.span(3, 3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        a.sum(b)
    with pytest.raises(ValueError):
        a.contains([1, 0, 0])
    with pytest.raises(ValueError):
        Subspace.span(3, 2, [[1, 0, 0]])


def test_prime_mismatch_errors():
    a = Subspace.span(3, 2, [[1, 0]])
    b = Subspace.span(5, 2, [[1, 0]])
    with pytest.raises(ValueError):
        a.sum(b)


def _random_rows(rng, p, n, k):
    # entries in [-p, 2p), about half of them zero
    return [[rng.randrange(-p, 2 * p) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(k)]


def _subspace_family(rng, p, n):
    """Zero, full, one-row, dependent-row and random subspaces of F_p^n,
    spanned from rows with unreduced and negative entries."""
    out = [Subspace.zero(p, n), Subspace.span(p, n, [[int(i == j) for j in range(n)] for i in range(n)])]
    out.append(Subspace.span(p, n, _random_rows(rng, p, n, 1)))
    base = _random_rows(rng, p, n, rng.randrange(1, 4))
    combos = [[sum(rng.randrange(p) * r[j] for r in base) for j in range(n)] for _ in range(3)]
    out.append(Subspace.span(p, n, base + combos))
    for _ in range(3):
        out.append(Subspace.span(p, n, _random_rows(rng, p, n, rng.randrange(0, n + 2))))
    return out


def _check_shift_and_sum(rng, p, trials):
    for _ in range(trials):
        n = rng.randrange(1, 9)
        family = _subspace_family(rng, p, n)
        for a in family:
            pairs = [(a.shift(), dense_shift(a))] + [(a.sum(b), dense_sum(a, b)) for b in family]
            for got, want in pairs:
                assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shift_and_sum_match_dense_oracles(p):
    _check_shift_and_sum(random.Random(70 + p), p, 40)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_shift_and_sum_match_dense_oracles_at_large_primes(p):
    _check_shift_and_sum(random.Random(p % 1000), p, 8)


def _check_preimage(rng, p, trials):
    for _ in range(trials):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        coords = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        maps = [_random_rows(rng, p, m, len(coords)) for _ in range(rng.randrange(0, 3))]
        for modulo in _subspace_family(rng, p, m):
            got = preimage(p, n, coords, maps, modulo)
            assert got == full_reduce_preimage(p, n, coords, maps, modulo)
            # the same maps handed over lazily, one at a time
            assert preimage(p, n, coords, (images for images in maps), modulo) == got


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_preimage_matches_full_reduction_oracle(p):
    _check_preimage(random.Random(90 + p), p, 40)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_preimage_matches_full_reduction_oracle_at_large_primes(p):
    _check_preimage(random.Random(p % 997), p, 8)


def test_preimage_builds_no_map_after_the_kernel_is_zero():
    # the first map is injective on the coordinates modulo the target, so
    # the kernel is zero after its rows and the second map is never built
    p, n = 5, 4
    coords = [0, 2]
    modulo = Subspace.span(p, 3, [[0, 0, 1]])
    built = []

    def maps():
        built.append(0)
        yield [[1, 0, 3], [0, 1, 4]]
        built.append(1)
        yield [[0, 0, 0], [0, 0, 0]]

    assert preimage(p, n, coords, maps(), modulo).is_zero
    assert built == [0]
    # with a nonzero kernel after the first map the second one is read
    built.clear()
    assert preimage(p, n, coords, maps(), Subspace.span(p, 3, [[0, 1, 0], [0, 0, 1]])).dim == 1
    assert built == [0, 1]


def test_kernel_reads_no_row_past_full_rank():
    def rows():
        yield [1, 0]
        yield [0, 1]
        raise AssertionError("row read after the rank reached ncols")

    assert kernel(rows(), 2, 3).is_zero


def _reduce_vectors(rng, p, sub):
    """The zero vector, unreduced and negative vectors, members of sub
    (combinations of its rows plus multiples of p) and their negatives."""
    n = sub.ncols
    out = [[0] * n, [rng.randrange(-3 * p, 3 * p) for _ in range(n)]]
    out += _random_rows(rng, p, n, 2)
    for _ in range(2):
        member = [0] * n
        for row in sub.rows:
            f = rng.randrange(p)
            member = [a + f * b for a, b in zip(member, row)]
        member = [a + p * rng.randrange(-2, 3) for a in member]
        out += [member, [-a for a in member]]
    return out


@pytest.mark.parametrize("p", [2, 3, 13, 65537] + BIG_PRIMES)
def test_reduce_contains_and_free_parts_match_dense_oracle(p):
    rng = random.Random(p % 1013)
    for _ in range(25):
        n = rng.randrange(1, 9)
        for sub in _subspace_family(rng, p, n):
            vectors = _reduce_vectors(rng, p, sub)
            free = sub.complement()
            want = [dense_reduce_row(v, sub.rows, sub.pivots, p) for v in vectors]
            assert sub._free_parts(vectors) == [[w[f] for f in free] for w in want]
            for v, w in zip(vectors, want):
                assert sub.reduce(v) == w
                assert sub.contains(v) == (not any(w))
            # the members (entries 4 to 7) reduce to zero
            assert all(sub.contains(v) for v in vectors[4:])


def _assert_same(got, want):
    assert got == want
    assert got.pivots == want.pivots and got.rows == want.rows


def _check_chain(rng, p, top):
    """An ideal-like chain: from the zero slice, each degree is the shift of
    the one below plus, now and then from degree 3 on, a generator row with
    one to three random entries, each step compared with the dense oracles. Returns the
    slot widths met."""
    s = Subspace.zero(p, 1)
    widths = {s.w}
    for d in range(1, top + 1):
        t = s.shift()
        _assert_same(t, dense_shift(s))
        for _ in range(rng.choice([0] * 6 + [1, 1, 2]) if d >= 3 else 0):
            row = [0] * (d + 1)
            for j in rng.sample(range(d + 1), min(d + 1, rng.randrange(1, 4))):
                row[j] = rng.randrange(-p, 2 * p)
            g = Subspace.span(p, d + 1, [row])
            want = dense_sum(t, g)
            t = t.sum(g)
            _assert_same(t, want)
        assert t.base is not None  # the next shift reduces the new rows only
        s = t
        widths.add(s.w)
    return widths


@pytest.mark.parametrize("p", [2, 3, 13, 65537] + BIG_PRIMES)
def test_shift_and_sum_chains_match_dense_oracles(p):
    rng = random.Random(p % 1021)
    for _ in range(6):
        _check_chain(rng, p, 25)


@pytest.mark.parametrize("p", [2, 13, 2**31 - 1])
def test_chain_across_slot_width_boundaries(p):
    # w grows with ncols, so the blocks that shift carries up a degree are
    # repacked where it changes, and read at the new width after that
    rng = random.Random(7 * p % 1031)
    assert len(_check_chain(rng, p, 30)) >= 3


def _worst_case(p, n, c):
    """Pivots 0..n-c-1 with every free entry p - 1, and the all-(p - 1)
    vector, which hits every pivot."""
    rows = [[int(j == i) if j < n - c else p - 1 for j in range(n)] for i in range(n - c)]
    return Subspace.span(p, n, rows), [p - 1] * n


@pytest.mark.parametrize("p", [2, 13] + BIG_PRIMES)
def test_reduction_at_the_slot_bound(p):
    # every slot of the sum reaches npivots * (p - 1)**2
    top = 4 * 13**2 + 1 if p == 13 else 200
    for n in (2, 17, top):
        for c in (1, n // 2):
            sub, v = _worst_case(p, n, c)
            want = dense_reduce_row(v, sub.rows, sub.pivots, p)
            assert sub.reduce(v) == want
            assert sub.w == _width(p, n) and (p + n * (p - 1) ** 2) < 2**sub.w


@pytest.mark.parametrize("p", [2, 13] + BIG_PRIMES)
def test_clearing_new_pivots_at_the_slot_bound(p):
    # old rows with every free entry p - 1, new rows with entries 1 off
    # their pivots: clearing k new pivots adds k * (p - 1)**2 to a slot
    n, c = 120, 60
    old, _ = _worst_case(p, n, c)
    k = c - 1
    new = [[0] * (n - c) + [int(j == i) if j < k else 1 for j in range(c)] for i in range(k)]
    added = Subspace.span(p, n, new)
    _assert_same(old.sum(added), dense_sum(old, added))
