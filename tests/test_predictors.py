"""Unit and property tests for the prediction primitives."""

from hypothesis import given, strategies as st

from reference.predictors import (
    IterationCountPredictor,
    LastPlusStride,
    StridePredictor,
    TwoBitCounter,
)


class TestTwoBitCounter:
    def test_saturates_high(self):
        c = TwoBitCounter()
        for _ in range(10):
            c.increment()
        assert c.state == 3

    def test_saturates_low(self):
        c = TwoBitCounter(3)
        for _ in range(10):
            c.decrement()
        assert c.state == 0

    def test_confidence_threshold(self):
        c = TwoBitCounter()
        assert not c.is_confident
        c.increment()
        assert not c.is_confident
        c.increment()
        assert c.is_confident

    def test_invalid_initial_state(self):
        import pytest
        with pytest.raises(ValueError):
            TwoBitCounter(4)

    @given(st.lists(st.booleans(), max_size=50))
    def test_state_always_in_range(self, ups):
        c = TwoBitCounter()
        for up in ups:
            c.increment() if up else c.decrement()
        assert 0 <= c.state <= 3


class TestStridePredictor:
    def test_empty_predicts_none(self):
        assert StridePredictor().predict() is None

    def test_single_value_predicts_last(self):
        p = StridePredictor()
        p.update(7)
        assert p.predict() == 7

    def test_constant_stride_sequence(self):
        p = StridePredictor()
        for v in (10, 13, 16, 19):
            p.update(v)
        assert p.predict() == 22
        assert p.is_confident

    def test_confidence_lost_on_stride_change(self):
        p = StridePredictor()
        for v in (10, 20, 30, 40):
            p.update(v)
        assert p.is_confident
        p.update(41)        # stride breaks
        p.update(45)        # and changes again
        assert not p.is_confident

    @given(st.integers(-100, 100), st.integers(-10, 10),
           st.integers(3, 20))
    def test_arithmetic_sequences_always_predicted(self, start, stride, n):
        p = StridePredictor()
        for k in range(n):
            p.update(start + k * stride)
        assert p.predict() == start + n * stride

    def test_constant_sequence_confident_with_zero_stride(self):
        p = StridePredictor()
        for _ in range(5):
            p.update(42)
        assert p.is_confident
        assert p.predict() == 42


class TestIterationCountPredictor:
    def test_unseen_loop(self):
        assert IterationCountPredictor().predict() == (None, None)

    def test_one_execution_uses_last(self):
        p = IterationCountPredictor()
        p.update(12)
        assert p.predict() == (12, "last")

    def test_two_executions_not_yet_reliable(self):
        p = IterationCountPredictor()
        p.update(10)
        p.update(12)
        # One stride observation: the two-bit counter is below threshold.
        count, mode = p.predict()
        assert mode == "last"
        assert count == 12

    def test_steady_stride_becomes_reliable(self):
        p = IterationCountPredictor()
        for count in (10, 12, 14, 16):
            p.update(count)
        assert p.predict() == (18, "stride")

    def test_constant_counts_reliable(self):
        p = IterationCountPredictor()
        for _ in range(4):
            p.update(100)
        assert p.predict() == (100, "stride")


class TestLastPlusStride:
    def test_requires_two_observations(self):
        p = LastPlusStride()
        assert not p.ready
        p.update(5)
        assert not p.ready and p.predict() is None
        p.update(8)
        assert p.ready
        assert p.predict() == 11

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=30))
    def test_prediction_is_last_plus_difference(self, values):
        p = LastPlusStride()
        for v in values:
            p.update(v)
        assert p.predict() == values[-1] + (values[-1] - values[-2])
