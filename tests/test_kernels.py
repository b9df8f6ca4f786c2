"""Backend parity and algebraic properties of the row-operation kernels.

The compiled core is tested even where it was not built: when it does not
import but a C compiler and the Python headers are present, the committed
generated source ``_core_c.c`` is compiled into a temporary directory and
loaded from there.
"""

import importlib.util
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modinv
from modinv import _core_py, _kernels

try:
    from modinv import _core_c as _installed_core_c
except ImportError:
    _installed_core_c = None


PRIMES = [2, 3, 5, 7, 13]


def _build_core_c(tmp):
    """Compile the committed _core_c.c into tmp and load it; None when
    there is no source, no C compiler or no Python.h."""
    source = Path(_core_py.__file__).with_name("_core_c.c")
    include = sysconfig.get_paths()["include"]
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not source.exists() or not Path(include, "Python.h").exists() or not shutil.which(cc[0]):
        return None
    target = Path(tmp, "_core_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        cc + ["-shared", "-fPIC", "-O2", f"-I{include}", str(source), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("modinv._core_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def built_core_c(tmp_path_factory):
    """The compiled core: the installed one, else a temporary build, else None."""
    if _installed_core_c is not None:
        return _installed_core_c
    return _build_core_c(tmp_path_factory.mktemp("core_c"))


@pytest.fixture(scope="session")
def core_c(built_core_c):
    if built_core_c is None:
        pytest.skip("compiled core not built and no C compiler to build it")
    return built_core_c


@pytest.fixture(scope="session")
def backends(built_core_c):
    return [_core_py] + ([built_core_c] if built_core_c is not None else [])


@pytest.fixture(params=["python", "c"])
def core(request):
    return _core_py if request.param == "python" else request.getfixturevalue("core_c")


@pytest.fixture(params=["python", "c"])
def kernels(request, monkeypatch):
    """A fresh copy of the ``_kernels`` module selecting the given core."""
    if request.param == "python":
        # with no package attribute and a None module entry, importing the
        # compiled core fails, whether or not it was built
        monkeypatch.delattr(modinv, "_core_c", raising=False)
        monkeypatch.setitem(sys.modules, "modinv._core_c", None)
    else:
        monkeypatch.setitem(sys.modules, "modinv._core_c", request.getfixturevalue("core_c"))
    spec = importlib.util.spec_from_file_location("kernels_under_test", _kernels.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.backend() == request.param
    return module


def random_matrix(rng, p, m, n):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def test_rref_small_known(core):
    basis, pivots = core.rref([[1, 1], [2, 2]], 3)
    assert basis == [[1, 1]] and pivots == [0]
    basis, pivots = core.rref([], 5)
    assert basis == [] and pivots == []
    basis, pivots = core.rref([[0, 0], [0, 0]], 5)
    assert basis == [] and pivots == []


def test_rref_is_reduced(core):
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice(PRIMES)
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        basis, pivots = core.rref(random_matrix(rng, p, m, n), p)
        assert len(basis) == len(pivots)
        assert pivots == sorted(pivots)
        for r, c in zip(basis, pivots):
            assert r[c] == 1
            for other, oc in zip(basis, pivots):
                if oc != c:
                    assert other[c] == 0


def test_rref_does_not_mutate_input(core):
    rows = [[2, 1], [1, 1]]
    snapshot = [list(r) for r in rows]
    core.rref(rows, 3)
    assert rows == snapshot


def test_reduce_row_membership(core):
    basis, pivots = core.rref([[1, 0, 2], [0, 1, 0]], 5)
    assert core.reduce_row([1, 1, 2], basis, pivots, 5) == [0, 0, 0]
    assert any(core.reduce_row([0, 0, 1], basis, pivots, 5))


def test_convolve_known(core):
    assert core.convolve([1, 2], [1, 1], 3) == [1, 0, 2]
    assert core.convolve([1], [4], 5) == [4]


def test_backend_parity_random(core_c):
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice(PRIMES)
        m, n = rng.randrange(0, 8), rng.randrange(1, 8)
        rows = random_matrix(rng, p, m, n)
        got_c = core_c.rref([list(r) for r in rows], p)
        got_py = _core_py.rref([list(r) for r in rows], p)
        assert got_c == got_py
        basis, pivots = got_py
        v = [rng.randrange(p) for _ in range(n)]
        assert core_c.reduce_row(v, basis, pivots, p) == _core_py.reduce_row(v, basis, pivots, p)
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        assert core_c.convolve(a, b, p) == _core_py.convolve(a, b, p)


def test_backend_parity_at_the_largest_compiled_prime(core_c):
    p = 2**31 - 1  # the largest prime the compiled core still handles
    rng = random.Random(31)
    for _ in range(50):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(n)] for _ in range(m)]
        got = _core_py.rref(rows, p)
        assert core_c.rref(rows, p) == got
        v = [rng.randrange(p) for _ in range(n)]
        assert core_c.reduce_row(v, *got, p) == _core_py.reduce_row(v, *got, p)
        a = [rng.randrange(p) for _ in range(n)]
        assert core_c.convolve(a, v, p) == _core_py.convolve(a, v, p)


def test_kernels_are_exact_above_the_compiled_range(kernels):
    p = 4294967311  # the least prime above 2**32
    assert kernels.rref([[p - 1, 2], [3, p - 2]], p) == ([[1, 0], [0, 1]], [0, 1])
    assert kernels.reduce_row([p - 1, 1], [[1, p - 1]], [0], p) == [0, 0]
    assert kernels.convolve([p - 1, 2], [p - 1, p - 3], p) == _core_py.convolve(
        [p - 1, 2], [p - 1, p - 3], p
    )



def test_kernels_convolve_empty_operands(kernels):
    # the compiled core allocates len(a) + len(b) - 1 entries, -1 here
    assert kernels.convolve([], [], 7) == []
    for a, b in (([], [3, 4]), ([5], [])):
        assert kernels.convolve(a, b, 7) == _core_py.convolve(a, b, 7)

@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=6),
)
def test_rref_idempotent(backends, data, p, n, m):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    for core in backends:
        basis, pivots = core.rref(rows, p)
        again = core.rref(basis, p)
        assert again == (basis, pivots)


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
    b=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
)
def test_convolve_matches_integer_product(backends, p, a, b):
    expected = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expected[i + j] += x * y
    expected = [v % p for v in expected]
    for core in backends:
        assert core.convolve(a, b, p) == expected


def test_backend_selector_env():
    probe = "import modinv; print(modinv.backend())"
    default = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert default.stdout.strip() == ("c" if _installed_core_c is not None else "python")
