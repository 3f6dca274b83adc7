from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono.exponents import (
    GROUP_TOL,
    LengthMismatchError,
    MultiplicityStructure,
    ResonantPairError,
    group_exponents,
    parse_index_list,
    raw_exponent_data,
    validate_irreducible,
)


def test_parse_rational_and_decimal():
    xs = parse_index_list("0,1/2,-0.25")
    assert xs[0] == F(0) and isinstance(xs[0], F)
    assert xs[1] == F(1, 2)
    assert xs[2] == -0.25


def test_parse_rejects_empty():
    with pytest.raises(ValueError):
        parse_index_list(" , ")


def test_validate_simple():
    data = validate_irreducible((F(0),), (F(1, 2),))
    assert data.n == 1
    assert data.lam == -1


def test_validate_detects_integer_difference():
    with pytest.raises(ResonantPairError):
        validate_irreducible((F(1, 3),), (F(4, 3),))


def test_validate_n2():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    assert data.n == 2
    assert data.lam == 1


def test_validate_decimal_tolerance():
    with pytest.raises(ResonantPairError):
        validate_irreducible((0.25,), (1.25 + 1e-14,))
    data = validate_irreducible((0.25,), (0.75,))
    assert data.n == 1


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        validate_irreducible((F(0),), (F(1, 4), F(1, 2)))
    with pytest.raises(LengthMismatchError):
        validate_irreducible((), ())


def test_raw_data_skips_resonance_check():
    data = raw_exponent_data((F(0),), (F(1),))
    assert data.n == 1 and data.lam == -1


def test_grouping_alpha_with_integer_shift():
    data = raw_exponent_data((F(0), F(1), F(1, 2)), (F(1, 4), F(1, 4), F(1, 4)))
    ms = group_exponents(data, "alpha")
    assert ms.multiplicities == (2, 1)
    assert ms.representatives == (F(0), F(1, 2))
    assert abs(ms.values[0] - 1) < 1e-15
    assert abs(ms.values[1] + 1) < 1e-15


def test_grouping_beta_takes_maximal_representative():
    data = raw_exponent_data((F(0), F(0)), (F(1, 3), F(4, 3)))
    ms = group_exponents(data, "beta")
    assert ms.multiplicities == (2,)
    assert ms.representatives == (F(4, 3),)
    assert abs(ms.values[0] - np.exp(2j * np.pi / 3)) < 1e-15


def test_grouping_quarter():
    data = validate_irreducible((F(1, 4),), (F(3, 4),))
    ms = group_exponents(data, "alpha")
    assert abs(ms.values[0] - 1j) < 1e-15
    assert ms.representatives == (F(1, 4),)


def test_pair_indices():
    ms = MultiplicityStructure.from_values([2.0, 3.0], [2, 1])
    assert ms.pair_indices() == ((1, 0), (1, 1), (2, 0))
    assert ms.n == 3


def test_from_values_rejects_duplicates():
    with pytest.raises(ValueError):
        MultiplicityStructure.from_values([1.0, 1.0])
    with pytest.raises(ValueError):
        MultiplicityStructure.from_values([0.0])


rational = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.lists(rational, min_size=1, max_size=5), st.randoms())
def test_grouping_permutation_invariant(alphas, rnd):
    beta = tuple(a + F(1, 7) + i for i, a in enumerate(alphas))
    data = raw_exponent_data(tuple(alphas), beta)
    ms = group_exponents(data, "alpha")
    assert sum(ms.multiplicities) == data.n

    shuffled = list(alphas)
    rnd.shuffle(shuffled)
    ms2 = group_exponents(raw_exponent_data(tuple(shuffled), beta), "alpha")
    assert ms.representatives == ms2.representatives
    assert ms.multiplicities == ms2.multiplicities


def _group_map(ms):
    return {
        (round(v.real, 9), round(v.imag, 9)): (m, r)
        for v, m, r in zip(ms.values, ms.multiplicities, ms.representatives)
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(rational, min_size=1, max_size=5), st.integers(min_value=0, max_value=4))
def test_integer_shift_keeps_structure(alphas, which):
    which = which % len(alphas)
    beta = tuple(a + F(1, 7) + i for i, a in enumerate(alphas))
    ms = group_exponents(raw_exponent_data(tuple(alphas), beta), "alpha")
    bumped = list(alphas)
    bumped[which] += 1
    ms2 = group_exponents(raw_exponent_data(tuple(bumped), beta), "alpha")
    # the same exponentials with the same multiplicities (ordering may
    # permute, since a bumped representative can pass another group's)
    g1, g2 = _group_map(ms), _group_map(ms2)
    assert g1.keys() == g2.keys()
    for key in g1:
        m1, r1 = g1[key]
        m2, r2 = g2[key]
        assert m1 == m2
        # raising one member can only raise (or keep) each group's minimum
        assert r2 >= r1


def _resonance(alpha, beta):
    try:
        validate_irreducible(alpha, beta)
    except ResonantPairError as exc:
        return exc.i, exc.j
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                min_size=1, max_size=3, unique=True),
       st.data())
def test_near_rational_floats_decide_like_the_rationals(classes, draw):
    # each float lies within GROUP_TOL / 2 of a rational plus an integer
    n = draw.draw(st.integers(min_value=1, max_value=4))
    member = st.tuples(st.sampled_from(classes), st.integers(-2, 2),
                       st.floats(-0.4 * GROUP_TOL, 0.4 * GROUP_TOL))
    sides = [draw.draw(st.lists(member, min_size=n, max_size=n)) for _ in range(2)]
    exact = [tuple(c + k for c, k, _ in side) for side in sides]
    blurred = [tuple(float(c + k) + e for c, k, e in side) for side in sides]

    assert _resonance(*exact) == _resonance(*blurred)
    d_exact, d_blurred = raw_exponent_data(*exact), raw_exponent_data(*blurred)
    for side in ("alpha", "beta"):
        ms, ms_b = group_exponents(d_exact, side), group_exponents(d_blurred, side)
        assert ms.multiplicities == ms_b.multiplicities
        assert np.allclose(ms.values, ms_b.values, rtol=0, atol=1e-9)
        for r, r_b in zip(ms.representatives, ms_b.representatives):
            assert abs(r - r_b) <= GROUP_TOL


def test_group_rejects_bad_side():
    data = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        group_exponents(data, "gamma")


def test_complex_indices_rejected():
    with pytest.raises(TypeError):
        validate_irreducible((1j,), (F(1, 2),))
