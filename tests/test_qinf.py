import pytest
from hypothesis import given, strategies as st

from bigmcg import qinf
from bigmcg.qinf import (
    BinarySeq,
    first_odd_primes,
    l1_distance,
    zn_embed,
)

from strategies import binary_seqs


def prime_line_embed(p: int, m: int) -> BinarySeq:
    """The integer m on the line of the odd prime p: `zn_embed` in
    dimension one."""
    return zn_embed((p,), (m,))


def scan_distance(a: BinarySeq, b: BinarySeq) -> int:
    """Independent oracle: scan every position up to the larger support."""
    top = max([0, *a.ones, *b.ones])
    return sum(1 for i in range(1, top + 1) if (i in set(a.ones)) != (i in set(b.ones)))


def sum_mod_2(a: BinarySeq, b: BinarySeq) -> BinarySeq:
    """Oracle: the coordinatewise sum mod 2, scanned position by position."""
    top = max([0, *a.ones, *b.ones])
    return BinarySeq.from_indices(
        i for i in range(1, top + 1) if (i in set(a.ones)) != (i in set(b.ones))
    )


def test_distance_examples():
    assert l1_distance(BinarySeq(), BinarySeq()) == 0
    assert l1_distance(BinarySeq((3,)), BinarySeq((3,))) == 0
    a = BinarySeq((2, 3, 5, 6, 7, 10))
    b = BinarySeq((2, 5, 6, 8))
    assert scan_distance(a, b) == 4
    assert l1_distance(a, b) == 4


def test_construction_rejects_bad_support():
    with pytest.raises(ValueError):
        BinarySeq((3, 2))
    with pytest.raises(ValueError):
        BinarySeq((0, 1))
    with pytest.raises(ValueError):
        BinarySeq((-2,))
    with pytest.raises(ValueError):
        BinarySeq((1, 1))
    assert BinarySeq.from_indices([3, 1, 3]).ones == (1, 3)


def test_prime_line_examples():
    assert prime_line_embed(3, 0) == BinarySeq()
    assert prime_line_embed(3, 2).ones == (3, 9)
    assert prime_line_embed(3, -2).ones == (6, 18)


def test_prime_validation():
    # 25 to 143 are composites without the factor 3; the last two are just
    # under the bound, so they run the longest trial division it admits
    for bad in (1, 2, 4, 9, 15, -3, 25, 35, 49, 121, 143, 46337**2, 46327 * 46337):
        with pytest.raises(ValueError, match="is not an odd prime"):
            zn_embed((bad,), (1,))
    assert 46327 * 46337 < 46337**2 < qinf._MAX_PRIME
    zn_embed((101,), (1,))


def test_zn_embed_examples():
    assert zn_embed((3, 5), (1, -1)).ones == (3, 10)
    d = l1_distance(zn_embed((3, 5), (2, -1)), zn_embed((3, 5), (0, 1)))
    assert d == 4


def test_zn_embed_validation():
    with pytest.raises(ValueError):
        zn_embed((3, 3), (1, 1))
    with pytest.raises(ValueError):
        zn_embed((3, 5), (1,))
    with pytest.raises(ValueError):
        zn_embed((3, 4), (1, 1))


def test_first_odd_primes():
    assert first_odd_primes(5) == (3, 5, 7, 11, 13)
    assert first_odd_primes(0) == ()


def test_first_odd_primes_refuses_a_negative_count():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        first_odd_primes(-1)


@given(binary_seqs(), binary_seqs())
def test_distance_matches_scan_oracle(a, b):
    assert l1_distance(a, b) == scan_distance(a, b)


@given(binary_seqs(), binary_seqs(), binary_seqs())
def test_metric_axioms(a, b, c):
    assert l1_distance(a, b) >= 0
    assert (l1_distance(a, b) == 0) == (a == b)
    assert l1_distance(a, b) == l1_distance(b, a)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


@given(binary_seqs(), binary_seqs())
def test_distance_is_weight_of_difference(a, b):
    assert l1_distance(a, b) == sum_mod_2(a, b).weight


@given(st.sampled_from((3, 5, 7, 11)), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_line_isometry(p, m1, m2):
    d = l1_distance(prime_line_embed(p, m1), prime_line_embed(p, m2))
    assert d == abs(m1 - m2)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        )
    )
)
def test_zn_isometry(args):
    n, u, v = args
    primes = first_odd_primes(n)
    d = l1_distance(zn_embed(primes, u), zn_embed(primes, v))
    assert d == sum(abs(x - y) for x, y in zip(u, v))


def union_of_lines(primes, point):
    """The reference embedding: the union of the prime-line supports."""
    ones = set()
    for p, m in zip(primes, point):
        ones |= set(prime_line_embed(p, m).ones)
    return BinarySeq.from_indices(ones)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.sampled_from([first_odd_primes(n), (7, 3, 11, 5)[:n]]),
            st.lists(st.integers(-12, 12), min_size=n, max_size=n),
        )
    )
)
def test_zn_embed_is_union_of_lines(args):
    primes, point = args
    assert zn_embed(primes, point) == union_of_lines(primes, point)


def test_prime_over_the_bound_is_refused_before_trial_division():
    over = qinf._MAX_PRIME + 1
    with pytest.raises(ValueError, match=f"exceeds the bound {qinf._MAX_PRIME}"):
        prime_line_embed(over, 1)
    # 2^31 - 1 is prime and within the bound
    assert prime_line_embed(over - 2, 1).ones == (over - 2,)


def test_zn_embed_checks_each_prime_once_before_building(monkeypatch):
    checked = []
    check = qinf._require_odd_prime

    def counting(p):
        checked.append(p)
        check(p)

    monkeypatch.setattr(qinf, "_require_odd_prime", counting)
    assert zn_embed((3, 5, 7), (2, -1, 1)).ones == (3, 7, 9, 10)
    assert checked == [3, 5, 7]

    def no_positions(p, m):
        raise AssertionError("built a line")

    monkeypatch.setattr(qinf, "_line_positions", no_positions)
    with pytest.raises(ValueError, match="not an odd prime"):
        zn_embed((3, 5, 9), (1, 1, 1))


def test_zn_embed_checks_primes_at_zero_coordinates():
    with pytest.raises(ValueError):
        zn_embed((9,), (0,))
    with pytest.raises(ValueError):
        zn_embed((3, 3), (0, 1))


def test_coordinate_at_the_position_bound_is_built(monkeypatch):
    monkeypatch.setattr(qinf, "_MAX_POSITION_BITS", 20)
    # 3 has 2 bits and 5 has 3: 10 * 2 and 6 * 3 are within 20 bits
    assert prime_line_embed(3, 10).ones[-1] == 3**10
    assert zn_embed((3, 5), (-10, 6)).weight == 16
    for primes, point in (((3,), (11,)), ((3, 5), (1, -7))):
        with pytest.raises(ValueError, match="exceeds 20 bits"):
            zn_embed(primes, point)


def test_point_at_the_support_bound_is_built(monkeypatch):
    # 2 * (1 + 2 + 3) + 3 * (1 + 2) = 21 bits on the lines of 3 and 5
    monkeypatch.setattr(qinf, "_MAX_SUPPORT_BITS", 21)
    assert zn_embed((3, 5), (3, -2)).ones == (3, 9, 10, 27, 50)
    monkeypatch.setattr(qinf, "_MAX_SUPPORT_BITS", 20)
    with pytest.raises(ValueError, match="support exceeds 20 bits"):
        zn_embed((3, 5), (3, -2))


def test_largest_admitted_position_prints():
    # the position bound keeps every position under Python's int-to-string
    # digit limit, down to the widest prime a line takes
    for p in (3, 5, 2**31 - 1):
        m = qinf._MAX_POSITION_BITS // p.bit_length()
        assert len(str(2 * p**m)) < 4300


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_distinct_prime_lines_are_disjoint(m1, m2):
    line3 = set(prime_line_embed(3, m1).ones)
    line5 = set(prime_line_embed(5, m2).ones)
    assert not line3 & line5
