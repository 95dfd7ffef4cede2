"""Sparse word-addressed data memory."""


class Memory:
    """A flat 64-bit word-addressed memory backed by a dictionary.

    Unwritten locations read as zero, which lets workloads use large
    zero-initialized arrays without paying for them.
    """

    __slots__ = ("cells",)

    def __init__(self, initial=None):
        self.cells = dict(initial) if initial else {}

    def load(self, addr):
        return self.cells.get(addr, 0)

    def store(self, addr, value):
        self.cells[addr] = value

    def snapshot(self, base, count):
        """Return *count* words starting at *base* as a list."""
        get = self.cells.get
        return [get(base + i, 0) for i in range(count)]
