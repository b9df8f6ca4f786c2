"""Algebraic properties of the row-operation kernels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import _kernels
from modinv.fp_linalg import Subspace
from oracles import list_reduce_row

PRIMES = [2, 3, 5, 7, 13]
BIG_PRIMES = [65537, 2**31 - 1, 4294967311]


def packed_reduce(vectors, sub):
    """``_kernels.reduce_row`` on the stored blocks of a subspace."""
    return _kernels.reduce_row(vectors, sub.blocks, sub.pivots, sub.free, sub.w, sub.p)


def random_matrix(rng, p, m, n):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def test_rref_small_known():
    basis, pivots = _kernels.rref([[1, 1], [2, 2]], 3)
    assert basis == [[1, 1]] and pivots == [0]
    basis, pivots = _kernels.rref([], 5)
    assert basis == [] and pivots == []
    basis, pivots = _kernels.rref([[0, 0], [0, 0]], 5)
    assert basis == [] and pivots == []


def test_rref_is_reduced():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice(PRIMES)
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        basis, pivots = _kernels.rref(random_matrix(rng, p, m, n), p)
        assert len(basis) == len(pivots)
        assert pivots == sorted(pivots)
        for r, c in zip(basis, pivots):
            assert r[c] == 1
            for other, oc in zip(basis, pivots):
                if oc != c:
                    assert other[c] == 0


def test_rref_does_not_mutate_input():
    rows = [[2, 1], [1, 1]]
    snapshot = [list(r) for r in rows]
    _kernels.rref(rows, 3)
    assert rows == snapshot


def test_reduce_row_membership():
    sub = Subspace.span(5, 3, [[1, 0, 2], [0, 1, 0]])
    member, outside = packed_reduce([[1, 1, 2], [0, 0, 1]], sub)
    assert member == [0]
    assert any(outside)


@pytest.mark.parametrize("p", PRIMES + BIG_PRIMES)
def test_reduce_row_matches_list_oracle(p):
    # zero, full, sparse and dense subspaces; vectors with unreduced and
    # negative entries
    rng = random.Random(p % 1019)
    for _ in range(40):
        n = rng.randrange(1, 10)
        k = rng.randrange(0, n + 1)
        rows = [[rng.randrange(-p, 2 * p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(k)]
        sub = Subspace.span(p, n, rows)
        vectors = [[rng.randrange(-2 * p, 2 * p) for _ in range(n)] for _ in range(4)] + [[0] * n]
        want = list_reduce_row(vectors, sub.rows, sub.pivots, sub.free, p)
        assert packed_reduce(vectors, sub) == want


def test_convolve_known():
    assert _kernels.convolve([1, 2], [1, 1], 3) == [1, 0, 2]
    assert _kernels.convolve([1], [4], 5) == [4]


def test_kernels_are_exact_above_64_bit_products():
    p = 4294967311  # the least prime above 2**32
    assert _kernels.rref([[p - 1, 2], [3, p - 2]], p) == ([[1, 0], [0, 1]], [0, 1])
    # (p - 1)**2 = 1 mod p: [p - 1, 1] is (p - 1) times the basis row
    sub = Subspace.span(p, 2, [[1, p - 1]])
    assert packed_reduce([[p - 1, 1], [p - 1, 2]], sub) == [[0], [1]]
    # (2t - 1)(-3t - 1) = -6t^2 + t + 1
    assert _kernels.convolve([p - 1, 2], [p - 1, p - 3], p) == [1, 1, p - 6]


def test_kernels_convolve_empty_operands():
    assert _kernels.convolve([], [], 7) == []
    assert _kernels.convolve([], [3, 4], 7) == [0]
    assert _kernels.convolve([5], [], 7) == []


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=6),
)
def test_rref_idempotent(data, p, n, m):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    basis, pivots = _kernels.rref(rows, p)
    assert _kernels.rref(basis, p) == (basis, pivots)


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
    b=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
)
def test_convolve_matches_integer_product(p, a, b):
    expected = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expected[i + j] += x * y
    expected = [v % p for v in expected]
    assert _kernels.convolve(a, b, p) == expected
