"""Tests for the majorization predicates, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeig import DomainError, InputError, log_majorizes, supermajorizes

positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8
).map(np.array)

finite_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8
).map(np.array)


class TestLogMajorizes:
    def test_reflexive(self):
        v = log_majorizes([2.0, 1.0], [2.0, 1.0])
        assert v.holds
        assert v.worst_margin == pytest.approx(0.0, abs=1e-12)
        assert v.failing_index is None

    def test_holds_example(self):
        # prefixes: 3 >= 2; full products both equal 2
        assert log_majorizes(y=[3.0, 2.0 / 3.0], x=[2.0, 1.0]).holds

    def test_fails_on_unequal_products(self):
        v = log_majorizes(y=[2.0, 2.0], x=[1.0, 1.0])
        assert not v.holds
        assert v.failing_index == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="positive"):
            log_majorizes([1.0, -1.0], [1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError, match="length mismatch"):
            log_majorizes([1.0, 2.0], [1.0])


class TestSupermajorizes:
    def test_reflexive(self):
        assert supermajorizes([3.0, 1.0], [1.0, 3.0]).holds

    def test_holds_example(self):
        assert supermajorizes(y=[1.0, 3.0], x=[2.0, 2.0]).holds

    def test_fails_at_first_prefix(self):
        v = supermajorizes(y=[1.0, 3.0], x=[0.0, 4.0])
        assert not v.holds
        assert v.failing_index == 1

    def test_length_mismatch_names_x_and_y(self):
        with pytest.raises(InputError) as info:
            supermajorizes([1, 2], [1, 2, 3])
        assert str(info.value) == "length mismatch: x has 3 entries, y has 2"


@settings(max_examples=100, deadline=None)
@given(x=positive_vectors)
def test_log_majorization_reflexive(x):
    assert log_majorizes(x, x).holds


@settings(max_examples=100, deadline=None)
@given(x=finite_vectors, data=st.data())
def test_weak_majorization_permutation_invariant(x, data):
    perm = data.draw(st.permutations(range(x.size)))
    shuffled = x[np.array(perm, dtype=int)]
    assert supermajorizes(x, shuffled).holds


@settings(max_examples=100, deadline=None)
@given(x=positive_vectors, y=positive_vectors, c=st.floats(min_value=1e-2, max_value=1e2))
def test_log_majorization_scale_covariant(x, y, c):
    if x.size != y.size:
        y = np.resize(y, x.size)
    assert log_majorizes(y, x).holds == log_majorizes(c * y, c * x).holds


@settings(max_examples=100, deadline=None)
@given(x=finite_vectors, y=finite_vectors, c=st.floats(min_value=-10, max_value=10))
def test_weak_and_super_shift_covariant(x, y, c):
    if x.size != y.size:
        y = np.resize(y, x.size)
    assert supermajorizes(y, x).holds == supermajorizes(y + c, x + c).holds

