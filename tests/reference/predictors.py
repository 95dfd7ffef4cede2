"""Prediction primitives of the reference LET and data-speculation
study (:mod:`reference.speculation`, :mod:`reference.dataspec`).

The paper uses stride predictors guarded by two-bit saturating confidence
counters for (a) loop iteration counts (LET) and (b) live-in register and
memory values (LIT), mirroring the scheme of Gonzalez & Gonzalez (ICS'97)
referenced in section 2.3.
"""


class TwoBitCounter:
    """A two-bit saturating confidence counter (states 0..3)."""

    __slots__ = ("state", "threshold")

    def __init__(self, initial=0, threshold=2):
        if not 0 <= initial <= 3:
            raise ValueError("two-bit counter state must be in 0..3")
        self.state = initial
        self.threshold = threshold

    def increment(self):
        if self.state < 3:
            self.state += 1

    def decrement(self):
        if self.state > 0:
            self.state -= 1

    @property
    def is_confident(self):
        return self.state >= self.threshold


class StridePredictor:
    """Last-value-plus-stride prediction with two-bit confidence.

    ``update(value)`` records an observation; ``predict()`` returns the
    expected next observation (``None`` until one value is seen).  The
    confidence counter tracks whether the recent stride repeats.
    """

    __slots__ = ("last", "stride", "confidence")

    def __init__(self):
        self.last = None
        self.stride = None
        self.confidence = TwoBitCounter()

    def update(self, value):
        if self.last is not None:
            stride = value - self.last
            if self.stride is not None:
                if stride == self.stride:
                    self.confidence.increment()
                else:
                    self.confidence.decrement()
            self.stride = stride
        self.last = value

    @property
    def is_confident(self):
        return self.stride is not None and self.confidence.is_confident

    def predict(self):
        """Next value: last + stride when a stride exists, else last."""
        if self.last is None:
            return None
        if self.stride is None:
            return self.last
        return self.last + self.stride


class IterationCountPredictor:
    """The LET-side predictor of a loop's iteration count (STR policy).

    Per section 3.1.2: use ``last + stride`` when the stride is reliable
    (two-bit counter); else the last execution's count; else nothing.
    ``predict()`` returns ``(count, mode)`` with mode in ``{"stride",
    "last", None}``.
    """

    __slots__ = ("_stride",)

    def __init__(self):
        self._stride = StridePredictor()

    def update(self, count):
        self._stride.update(count)

    def predict(self):
        sp = self._stride
        if sp.last is None:
            return None, None
        if sp.is_confident:
            return sp.last + sp.stride, "stride"
        return sp.last, "last"


class LastPlusStride:
    """Stateless-update form used in the data-speculation study: predict
    the next value as ``last + (last - prev)``; defined only once two
    observations exist (the paper requires two prior iterations)."""

    __slots__ = ("last", "prev")

    def __init__(self):
        self.last = None
        self.prev = None

    def update(self, value):
        self.prev = self.last
        self.last = value

    @property
    def ready(self):
        return self.prev is not None

    def predict(self):
        if self.prev is None:
            return None
        return self.last + (self.last - self.prev)
