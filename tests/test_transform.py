import pytest
from hypothesis import given, strategies as st

from finevo.errors import InputError
from finevo.transform import Transformation, tuple_from_literal, tuple_literal
from oracles import apply, is_idempotent, power, rank

F = Transformation([2, 3, 4, 1, 5])
G = Transformation([2, 5, 5, 2, 4])


def test_cube_of_g_is_the_base_idempotent():
    e = G * G * G
    assert e == Transformation([4, 2, 2, 4, 5])
    assert is_idempotent(e)


def test_compose_identity_is_neutral():
    ident = Transformation([1, 2, 3, 4, 5])
    assert ident * F == F
    assert F * ident == F


def test_compose_e_with_f():
    e = power(G, 3)
    assert e * F == Transformation([2, 2, 4, 4, 5])
    assert F * e == Transformation([1, 3, 3, 1, 5])


def test_h_from_squared_generator():
    e = power(G, 3)
    h = power(F, 2) * e
    assert h == Transformation([2, 4, 4, 2, 5])
    assert h == e * power(F, 2)
    assert h == e * power(F, 2) * e


def test_rank_values():
    assert rank(power(G, 3)) == 3
    assert rank(Transformation([1, 2, 3, 4, 5])) == 5
    assert rank(Transformation([1, 1, 1, 1, 1])) == 1


def test_apply_tuple_golden():
    e = power(G, 3)
    h = power(F, 2) * e
    assert apply(G, (2, 4, 5)) == (5, 2, 4)
    assert apply(h, (2, 4, 5)) == (4, 2, 5)
    assert apply(e, (2, 4, 5)) == (2, 4, 5)


def test_mismatched_domains_error():
    with pytest.raises(InputError):
        F * Transformation([1, 2, 3])


def test_bad_images_rejected():
    with pytest.raises(InputError):
        Transformation([1, 2, 6, 4, 5])
    with pytest.raises(InputError):
        Transformation([0, 2, 3])
    with pytest.raises(InputError):
        Transformation([])


def test_literals_round_trip():
    assert F.literal() == "[2,3,4,1,5]"
    assert tuple_from_literal("(2,4,5)") == (2, 4, 5)
    assert tuple_literal((2, 4, 5)) == "(2,4,5)"
    with pytest.raises(InputError):
        tuple_from_literal("()")


def test_ordering_is_lexicographic_on_images():
    assert Transformation([1, 3, 3, 1, 5]) < Transformation([4, 2, 2, 4, 5])
    assert sorted([G, F]) == [F, G]


@st.composite
def same_domain_transformations(draw, count):
    n = draw(st.integers(min_value=1, max_value=6))
    make = st.lists(st.integers(1, n), min_size=n, max_size=n)
    return [Transformation(draw(make)) for _ in range(count)]


@given(same_domain_transformations(3))
def test_composition_associative(fs):
    a, b, c = fs
    assert (a * b) * c == a * (b * c)


@given(same_domain_transformations(2))
def test_rank_submultiplicative(fs):
    f, g = fs
    assert rank(f * g) <= min(rank(f), rank(g))


@given(same_domain_transformations(2), st.data())
def test_apply_respects_composition(fs, data):
    f, g = fs
    n = f.n
    m = data.draw(st.integers(1, 4))
    x = tuple(data.draw(st.integers(1, n)) for _ in range(m))
    assert apply(f * g, x) == apply(f, apply(g, x))
