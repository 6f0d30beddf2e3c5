import itertools

import pytest
from hypothesis import given, strategies as st

from pathgroupoids.degree import Degree, DegreeError


def test_leq_examples():
    assert Degree((0, 0)).leq(Degree((3, 1)))
    assert not Degree((1, 0)).leq(Degree((0, 1)))
    assert Degree((1, 1)).leq(Degree((1, 1)))


def test_lub_examples():
    assert Degree((1, 0)).lub(Degree((0, 1))) == Degree((1, 1))
    assert Degree((2, 3)).lub(Degree((2, 3))) == Degree((2, 3))
    assert Degree((0, 0)).lub(Degree((5, 0))) == Degree((5, 0))


def test_rank_mismatch_is_an_error():
    with pytest.raises(DegreeError):
        Degree((1, 0)).leq(Degree((1, 0, 0)))
    with pytest.raises(DegreeError):
        Degree((1,)).lub(Degree((1, 2)))


def test_negative_coordinates_rejected():
    with pytest.raises(DegreeError):
        Degree((1, -1))


def brute_lub(p: Degree, q: Degree, box: int = 12):
    """Independent oracle: the minimum over all common upper bounds in a
    finite box."""
    best = None
    for coords in itertools.product(range(box), repeat=p.rank):
        r = Degree(coords)
        if p.leq(r) and q.leq(r):
            if best is None or r.leq(best):
                best = r
    return best


vec = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)


@given(st.data())
def test_lub_matches_brute_force_minimum(data):
    coords = data.draw(vec)
    p = Degree(tuple(coords))
    q = Degree(tuple(data.draw(st.lists(st.integers(0, 5), min_size=len(coords), max_size=len(coords)))))
    assert p.lub(q) == brute_lub(p, q)


@given(st.data())
def test_lub_laws(data):
    k = data.draw(st.integers(1, 3))
    mk = lambda: Degree(tuple(data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))))
    p, q, r = mk(), mk(), mk()
    assert p.lub(q) == q.lub(p)
    assert p.leq(p.lub(q)) and q.leq(p.lub(q))
    if p.leq(r) and q.leq(r):
        assert p.lub(q).leq(r)


@given(st.data())
def test_addition_cancels(data):
    k = data.draw(st.integers(1, 3))
    mk = lambda: Degree(tuple(data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))))
    p, q, q2 = mk(), mk(), mk()
    if p.add(q) == p.add(q2):
        assert q == q2


def test_monoid_interface():
    zero = Degree.zero(2)
    assert zero == Degree((0, 0))
    assert Degree((1, 0)).add(Degree((0, 2))) == Degree((1, 2))
    assert Degree((1, 0)).lub(Degree((0, 2))) == Degree((1, 2))
    assert zero.leq(Degree((4, 4)))
    # positivity: p + q = 0 forces p = q = 0
    for p in Degree((1, 1)).downset():
        for q in Degree((1, 1)).downset():
            if p.add(q) == zero:
                assert p == zero and q == zero


def test_downset_is_the_full_box():
    d = Degree((2, 1))
    assert len(d.downset()) == 6
    assert all(p.leq(d) for p in d.downset())


def test_minus_lives_in_the_group():
    assert Degree((1, 0)).minus(Degree((0, 1))) == (1, -1)
    assert Degree((2, 2)).sub(Degree((1, 0))) == Degree((1, 2))
    with pytest.raises(DegreeError):
        Degree((1, 0)).sub(Degree((0, 1)))
