"""Matrix groups: closure, reflections, the catalog, classification."""

import itertools
import random

import pytest
from oracles import (
    bfs_closure,
    bfs_group_equal,
    brute_force_conjugator,
    elementwise_classify,
    full_scan_transvection_lines,
    reflections_generate,
    scan_first_classify,
)

from modinv import grp2
from modinv.fp_arith import divisors, primitive_root
from modinv.grp2 import (
    Mat2,
    MatrixGroup,
    Reflection,
    _reflections_generate,
    _transvection_lines,
    all_invertible,
    all_reflections,
    catalog_generators,
    catalog_group,
    classify,
    diag,
    find_conjugator,
    generate_closure,
    gl2_order,
    is_reflection,
    omega,
    omega_prime,
    parse_matrix,
    parse_matrix_list,
)
from modinv.verify import run_verification

PRIMES = [2, 3, 5, 7]


def _catalog(p):
    groups = [catalog_group("L", p, r) for r in divisors(p - 1)]
    return groups + [catalog_group("U", p, r, s) for r in divisors(p - 1) for s in divisors(p - 1)]


def test_matrix_basics():
    m = Mat2(5, 1, 2, 3, 4)
    assert (m * m.inv()) == Mat2.identity(5)
    assert m.det() == (4 - 6) % 5
    with pytest.raises(ValueError):
        Mat2(5, 1, 2, 2, 4)  # singular
    with pytest.raises(ValueError):
        Mat2(4, 1, 0, 0, 1)  # modulus not prime
    # omega(5) has order 5: its powers by repeated products
    powers = [omega(5)]
    while powers[-1] != Mat2.identity(5):
        powers.append(powers[-1] * omega(5))
    assert len(powers) == 5


def test_closure_orders_examples():
    assert generate_closure([omega(5)]).order == 5
    assert generate_closure([omega(5), omega_prime(5), diag(5, 2, 1)]).order == 480
    assert generate_closure([omega(3), omega_prime(3)]).order == 24


@pytest.mark.parametrize("p", PRIMES)
def test_catalog_orders(p):
    for r in divisors(p - 1):
        assert catalog_group("L", p, r).order == r * p * (p * p - 1)
        for s in divisors(p - 1):
            assert catalog_group("U", p, r, s).order == r * s * p


def test_is_reflection_examples():
    assert is_reflection(omega(3))
    assert not is_reflection(Mat2.identity(3))
    assert not is_reflection(Mat2(5, 4, 0, 0, 4))  # -identity, rank 2


def test_reflection_vsigma():
    # image of (matrix - 1) spans the stated forms
    form = Reflection(omega(5)).vsigma
    assert (form.a, form.b) == (0, 1)
    form = Reflection(omega_prime(5)).vsigma
    assert (form.a, form.b) == (1, 0)
    form = Reflection(diag(5, 2, 1)).vsigma
    assert (form.a, form.b) == (1, 0)
    with pytest.raises(ValueError):
        Reflection(Mat2.identity(5))


def test_catalog_generators_lists():
    p = 3
    l1 = [r.matrix for r in catalog_generators("L", p, 1)]
    assert l1 == [omega(p), omega_prime(p)]  # trivial diagonal dropped
    u11 = [r.matrix for r in catalog_generators("U", p, 1, 1)]
    assert u11 == [omega_prime(p)]
    assert catalog_group("U", p, 1, 1).order == p
    u21 = [r.matrix for r in catalog_generators("U", p, 2, 1)]
    assert u21 == [omega_prime(p), diag(p, 2, 1)]
    with pytest.raises(ValueError):
        catalog_generators("L", 5, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_catalog_L1_set_is_the_two_transvections(p):
    # verify genL reports its two_transvections check from the catalog_set_r1
    # search, so the two sets must stay equal
    assert catalog_generators("L", p, 1) == [Reflection(omega(p)), Reflection(omega_prime(p))]


@pytest.mark.parametrize(
    "args,index",
    [(("L", 3, 0), "r=0"), (("U", 3, 1, 0), "s=0"), (("L", 3, -2), "r=-2"), (("U", 3, -1, 2), "r=-1")],
)
def test_catalog_refuses_an_index_that_is_not_a_positive_divisor(args, index):
    with pytest.raises(ValueError, match=f"^{index} is not a positive divisor"):
        catalog_group(*args)


def test_classify_examples():
    p = 3
    su3 = generate_closure([Mat2(p, 2, 1, 0, 1), Mat2(p, 2, 0, 0, 1)])
    tag = classify(su3)
    assert (tag.kind, tag.r, tag.s) == ("U", 2, 1)
    sl2 = generate_closure([omega(p), omega_prime(p)])
    tag = classify(sl2)
    assert (tag.kind, tag.r) == ("L", 1)
    swap = generate_closure([Mat2(p, 0, 1, 1, 0)])
    assert classify(swap).kind == "prime_to_p"


def test_classify_conjugator_is_a_witness():
    p = 3
    su3 = generate_closure([Mat2(p, 2, 1, 0, 1), Mat2(p, 2, 0, 0, 1)])
    tag = classify(su3)
    assert su3.conjugate(tag.conjugator).elements == catalog_group("U", p, 2, 1).elements


def test_u21_and_u12_not_identified():
    # abstractly isomorphic but not conjugate: each catalog group keeps its tag
    for p in [3, 5]:
        t1 = classify(catalog_group("U", p, 2, 1))
        t2 = classify(catalog_group("U", p, 1, 2))
        assert (t1.r, t1.s) == (2, 1)
        assert (t2.r, t2.s) == (1, 2)


def test_other_modular_detection():
    # order divisible by p but not generated by its reflections
    p = 3
    neg_omega = Mat2(p, -1, 0, -1, -1)
    g = generate_closure([neg_omega])
    assert g.order % p == 0
    assert classify(g).kind == "other_modular"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_non_reflection_generators_are_not_taken_as_the_answer(p):
    # omega * omega' is not a reflection, yet <omega * omega', omega> is
    # SL_2(F_p); the reflections of <-omega>, powers of omega, miss -omega
    w, wp = omega(p), omega_prime(p)
    assert not is_reflection(w * wp)
    tag = classify(generate_closure([w * wp, w]))
    assert (tag.kind, tag.r) == ("L", 1)
    assert classify(generate_closure([Mat2(p, -1, 0, -1, -1)])).kind == "other_modular"


@pytest.mark.parametrize("p", [3, 5])
def test_classification_invariant_under_conjugation(p):
    rng = random.Random(40 + p)
    mats = all_invertible(p)
    for g in _catalog(p):
        base = classify(g)
        for _ in range(25):
            t = rng.choice(mats)
            moved = classify(g.conjugate(t))
            assert (moved.kind, moved.r, moved.s) == (base.kind, base.r, base.s)


def test_exhaustive_modular_closures_p2():
    import itertools

    p = 2
    refs = all_reflections(p)
    assert len(refs) == 3  # the transvections of GL_2(F_2)
    for size in (1, 2, 3):
        for subset in itertools.combinations(refs, size):
            g = generate_closure(list(subset))
            if g.order % p:
                continue
            tag = classify(g)
            assert tag.kind in ("L", "U")


def test_reflection_counts():
    # transvections: p^2 - 1; diagonalizable: (p+1) p (p-2)
    for p in [2, 3, 5]:
        expected = (p * p - 1) + (p + 1) * p * (p - 2)
        assert len(all_reflections(p)) == expected


def _codes(mats):
    # the element code of the module docstring: ((a*p + b)*p + c)*p + d
    return frozenset(((m.a * m.p + m.b) * m.p + m.c) * m.p + m.d for m in mats)


def test_trivial_group_and_lagrange():
    t = generate_closure([Mat2.identity(7)])
    assert t.order == 1
    assert t.elements == {Mat2.identity(7)}
    w, wp = omega(3), omega_prime(3)
    five = {Mat2.identity(3), w, w * w, wp, wp * wp}
    assert len(five) == 5
    with pytest.raises(ValueError):
        MatrixGroup(3, (w,), len(five), _codes(five))  # 5 does not divide 48
    assert gl2_order(3) == 48


def test_matrix_grammar():
    p = 3
    m = parse_matrix("2,1;0,1", p)
    assert m == Mat2(p, 2, 1, 0, 1)
    assert parse_matrix("-1,1;0,1", p) == m
    mats = parse_matrix_list("2,1;0,1 2,0;0,1", p)
    assert mats == [Mat2(p, 2, 1, 0, 1), Mat2(p, 2, 0, 0, 1)]
    # pure semicolon form used by the reflections flag
    assert parse_matrix_list("2,1;0,1;2,0;0,1", p) == mats
    with pytest.raises(ValueError):
        parse_matrix("1,2,3;4,5,6", p)
    with pytest.raises(ValueError):
        parse_matrix_list("1,0;0,1 2,2", p)


def test_group_iteration_is_deterministic():
    g = catalog_group("U", 3, 2, 2)
    assert [m.entries for m in g.elements] == sorted(m.entries for m in g.elements)
    assert len(g.elements) == g.order == len(set(g.elements))
    # the element set round-trips through the public constructor
    assert MatrixGroup(3, g.generators, g.order, _codes(g.elements)) == g


def test_lower_transvection_group_classifies_as_U11():
    # the other transvection orientation lands on the same catalog group
    # through an explicit conjugator
    for p in [3, 5]:
        g = generate_closure([omega(p)])
        tag = classify(g)
        assert (tag.kind, tag.r, tag.s) == ("U", 1, 1)
        assert g.conjugate(tag.conjugator).elements == catalog_group("U", p, 1, 1).elements


def _assert_witnesses_match_oracle(groups, p):
    # the constructive witness is the one the exhaustive search finds first
    for g in groups:
        for target in _catalog(p):
            t = find_conjugator(g, target)
            assert (t.entries if t is not None else None) == brute_force_conjugator(g, target)


@pytest.mark.parametrize("p", [2, 3])
def test_find_conjugator_matches_oracle_on_reflection_closures(p):
    closures = {}
    for size in (1, 2, 3):
        for subset in itertools.combinations(all_reflections(p), size):
            g = generate_closure(list(subset))
            closures.setdefault(g, g)
    _assert_witnesses_match_oracle(closures, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_find_conjugator_matches_oracle_on_conjugated_catalog(p):
    # every conjugator at p <= 3, a seeded sample above
    rng = random.Random(70 + p)
    mats = all_invertible(p)
    conjugators = mats if p <= 3 else rng.sample(mats, 3)
    _assert_witnesses_match_oracle([g.conjugate(t) for g in _catalog(p) for t in conjugators], p)


def _conjugated_catalog(p, count):
    rng = random.Random(90 + p)
    mats = all_invertible(p)
    for kind, r, s in [("L", r, None) for r in divisors(p - 1)] + [
        ("U", r, s) for r in divisors(p - 1) for s in divisors(p - 1)
    ]:
        gens = [refl.matrix for refl in catalog_generators(kind, p, r, s)]
        yield gens
        for t in rng.sample(mats, count):
            yield [t.inv() * m * t for m in gens]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_closure_matches_bfs_oracle_on_catalog(p):
    for gens in _conjugated_catalog(p, 2 if p <= 7 else 1):
        assert generate_closure(gens).codes == bfs_closure(gens)


def _seeded_generator_lists(p):
    rng = random.Random(60 + p)
    mats = all_invertible(p)
    w, wp, ident = omega(p), omega_prime(p), Mat2.identity(p)
    lists = [[ident], [w, w], [w, wp, w * wp], [Mat2(p, -1, 0, -1, -1)], [ident, w, ident, wp]]
    lists += [rng.sample(mats, rng.randint(1, 4)) for _ in range(16)]
    refs = all_reflections(p)
    lists += [rng.sample(refs, rng.randint(1, 3)) for _ in range(12)]
    return lists


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closure_matches_bfs_oracle_on_seeded_lists(p):
    # the identity, a repeated generator, one already in the subgroup,
    # non-reflections such as -omega, then seeded draws
    for gens in _seeded_generator_lists(p):
        assert generate_closure(gens).codes == bfs_closure(gens)


def _with_identity(g):
    # the same group with a non-reflection generator, so the test adjoins
    # its reflections instead of reading the generators
    return MatrixGroup(g.p, g.generators + (Mat2.identity(g.p),), g.order, g.codes)


def test_reflections_generate_matches_oracle_on_gl2_f3():
    # every closure of at most three matrices, one extra generator at a time
    mats = all_invertible(3)
    layer = {generate_closure([m]) for m in mats}
    groups = set(layer)
    for _ in range(2):
        layer = {generate_closure(list(h.generators) + [m]) for h in layer for m in mats} - groups
        groups |= layer
    for g in groups:
        want = reflections_generate(g)
        assert _reflections_generate(g) == want
        assert _reflections_generate(_with_identity(g)) == want


@pytest.mark.parametrize("p", [5, 7])
def test_reflections_generate_matches_oracle_on_seeded_sets(p):
    for gens in _seeded_generator_lists(p):
        g = generate_closure(gens)
        want = reflections_generate(g)
        assert _reflections_generate(g) == want
        assert _reflections_generate(_with_identity(g)) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_groups_are_closures_of_their_generators(p):
    # the reflection test reads the generators, so every constructor must
    # return a group its own generators generate
    groups = _catalog(p) + [generate_closure(gens) for gens in _seeded_generator_lists(p)]
    rng = random.Random(30 + p)
    groups += [g.conjugate(rng.choice(all_invertible(p))) for g in list(groups)]
    for g in groups:
        assert bfs_closure(list(g.generators)) == g.codes


def _assert_classify_matches_elementwise_oracle(groups):
    # the line scan reads the generators first and stops early; classify
    # decides L(r) by the lines and checks a U witness on the generators
    for g in groups:
        p = g.p
        full = full_scan_transvection_lines(g)
        lines = _transvection_lines(g)
        assert len(lines) == len(set(lines)) == min(len(full), 2)
        assert set(lines) <= full
        # two lines generate SL_2(F_p), one line bounds |G| by p(p - 1)^2
        assert (len(full) > 1) == (g.order % (p * (p * p - 1)) == 0)
        tag = classify(g)
        got = (tag.kind, tag.r, tag.s, tag.conjugator.entries if tag.conjugator else None)
        assert got == elementwise_classify(g)
        assert got == scan_first_classify(g)


@pytest.mark.parametrize("p", [2, 3])
def test_classify_matches_elementwise_oracle_on_reflection_closures(p):
    refs = all_reflections(p)
    groups = {generate_closure(list(sub)) for k in (1, 2, 3) for sub in itertools.combinations(refs, k)}
    _assert_classify_matches_elementwise_oracle(groups)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_classify_matches_elementwise_oracle_on_conjugated_catalog(p):
    groups = [generate_closure(gens) for gens in _conjugated_catalog(p, 2 if p <= 7 else 1)]
    _assert_classify_matches_elementwise_oracle(groups)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_classify_matches_elementwise_oracle_on_odd_generator_lists(p):
    # the identity, a duplicate and non-reflections such as -omega among
    # the generators, which the line scan and the witness check read
    w, ident, neg_w = omega(p), Mat2.identity(p), Mat2(p, -1, 0, -1, -1)
    lists = _seeded_generator_lists(p)
    for kind, r, s in [("L", p - 1, None), ("U", p - 1, 1), ("U", 1, p - 1)]:
        gens = [refl.matrix for refl in catalog_generators(kind, p, r, s)]
        lists += [[ident] + gens, gens + gens[:1], [neg_w] + gens, [w * neg_w] + gens[1:]]
    _assert_classify_matches_elementwise_oracle([generate_closure(gens) for gens in lists])


def test_classify_by_order_matches_the_scan_first_oracle_at_p31():
    # a generator that is not a reflection in each list, so the scan adjoins
    # the group's reflections one by one:
    # SL_2(F_31) from omega * omega' and omega, L(2) from one more matrix of
    # determinant -1, the Borel group U(30, 30) from z * omega' and diag(z, z^2),
    # and <-omega>, whose reflections generate only <omega>
    p = 31
    z = primitive_root(p)
    w, wp = omega(p), omega_prime(p)
    ww = w * wp
    lists = [
        [ww, w],
        [ww, w, diag(p, -1, 1) * ww],
        [diag(p, z, z) * wp, diag(p, z, z * z)],
        [Mat2(p, -1, 0, -1, -1)],
        [ww],
    ]
    want = [("L", 1), ("L", 2), ("U", 30), ("other_modular", None), ("prime_to_p", None)]
    for gens, (kind, r) in zip(lists, want):
        assert not all(is_reflection(m) for m in gens)
        g = generate_closure(gens)
        tag = classify(g)
        assert (tag.kind, tag.r) == (kind, r)
        got = (tag.kind, tag.r, tag.s, tag.conjugator.entries if tag.conjugator else None)
        assert got == scan_first_classify(g)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_all_reflections_match_the_filtered_invertible_list(p):
    assert all_reflections(p) == [m for m in all_invertible(p) if is_reflection(m)]


def _assert_equality_matches_oracle(groups):
    # equal groups hash equal, and the element views compare as the groups
    for g in groups:
        for h in groups:
            want = bfs_group_equal(g, h)
            assert (g == h) == want
            assert (g.elements == h.elements) == want
            if want:
                assert hash(g) == hash(h)


def test_group_equality_matches_oracle_on_gl2_f3():
    # every closure of one or two matrices, up to two generator lists per
    # group, and a conjugate of each, whose codes are built only when read
    mats = all_invertible(3)
    reps = {}
    for gens in [[m] for m in mats] + [[m, n] for m in mats for n in mats]:
        g = generate_closure(gens)
        same = reps.setdefault(g.codes, [])
        if len(same) < 2 and all(set(h.generators) != set(gens) for h in same):
            same.append(g)
    groups = [g for same in reps.values() for g in same]
    groups += [g.conjugate(Mat2(3, 1, 1, 2, 0)) for g in groups]
    _assert_equality_matches_oracle(groups)


@pytest.mark.parametrize("p", [5, 7])
def test_group_equality_matches_oracle_on_conjugated_catalog(p):
    # upper triangular conjugators fix each U(r, s), with new generators;
    # every conjugator fixes each L(r)
    rng = random.Random(20 + p)
    ts = [omega_prime(p), diag(p, primitive_root(p), 1)] + rng.sample(all_invertible(p), 3)
    groups = _catalog(p)
    _assert_equality_matches_oracle(groups + [g.conjugate(t) for g in groups for t in ts])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_equal_orders_and_unequal_groups(p):
    # <omega'> and its swap conjugate <omega> share their order only, and so
    # do U(p - 1, 1) and U(1, p - 1)
    swap = Mat2(p, 0, 1, 1, 0)
    u11 = catalog_group("U", p, 1, 1)
    assert u11.conjugate(swap) != u11 and u11.conjugate(swap).order == u11.order
    assert u11.conjugate(swap) == generate_closure([omega(p)])
    z = p - 1
    assert catalog_group("U", p, z, 1) != catalog_group("U", p, 1, z)
    assert not bfs_group_equal(catalog_group("U", p, z, 1), catalog_group("U", p, 1, z))
    # fresh conjugates on both sides: the right side builds its codes
    left, right = u11.conjugate(swap), u11.conjugate(swap * omega(p))
    assert left == right and right._codes is not None and left._codes is None
    assert len(left.elements) == p and left._codes is None


def test_constructor_refuses_an_order_that_does_not_divide_or_codes_of_another_size():
    w = omega(3)
    with pytest.raises(ValueError, match="does not divide"):
        MatrixGroup(3, (w,), 5)
    with pytest.raises(ValueError, match="does not divide"):
        MatrixGroup(3, (w,), 0)
    with pytest.raises(ValueError, match="6 element codes for a group of order 3"):
        MatrixGroup(3, (w,), 3, catalog_group("U", 3, 2, 1).codes)


def _count_closures(monkeypatch):
    calls = []
    closure = grp2._closure

    def counted(*args):
        calls.append(args[0])
        return closure(*args)

    monkeypatch.setattr(grp2, "_closure", counted)
    return calls


def test_classifying_a_conjugate_builds_no_codes(monkeypatch):
    # the catalog is built first, so every closure counted below would be a
    # conjugate's codes
    rng = random.Random(5)
    catalog = {p: _catalog(p) for p in (2, 3, 5, 7, 11, 13)}
    calls = _count_closures(monkeypatch)
    for p, groups in catalog.items():
        for g in groups:
            base = classify(g)
            for _ in range(3):
                t = rng.choice(all_invertible(p))
                moved = classify(g.conjugate(t))
                assert (moved.kind, moved.r, moved.s) == (base.kind, base.r, base.s)
    assert calls == []


def test_grups_builds_no_codes_with_a_warm_catalog(monkeypatch):
    _catalog(5)
    calls = _count_closures(monkeypatch)
    (report,) = run_verification([5], ["grups"])
    assert report.status == "pass"
    assert calls == []


def test_concurrent_code_readers():
    from concurrent.futures import ThreadPoolExecutor

    # a duplicate build stores an equal frozenset in one attribute write,
    # so every reader gets the closure, without a lock
    g = catalog_group("L", 11, 10).conjugate(Mat2(11, 2, 3, 5, 1))
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda _: g.codes, range(8)))
    want = bfs_closure(list(g.generators))
    assert all(codes == want for codes in got)
