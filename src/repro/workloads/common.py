"""Shared mini-language building blocks for the workload suite.

Run-time randomness is implemented *inside* the simulated program (a
mixed linear-congruential generator over a global scalar), so traces are
bit-reproducible and independent of the host RNG.  Host-side
:class:`~repro.util.rng.Xorshift64` seeds initial data arrays only.
"""

from repro.lang import Assign, CallExpr, Return, Var
from repro.util.rng import Xorshift64

#: Classic 31-bit LCG constants (Park-Miller style, power-of-two modulus
#: so the mini-language's masking stays cheap).
LCG_MUL = 1103515245
LCG_ADD = 12345
LCG_MASK = 0x7FFFFFFF


def add_lcg(module, state_name="rng_state", seed=12345):
    """Declare an in-language PRNG: global state + ``rand()`` function.

    ``rand()`` returns a fresh 31-bit pseudo-random value.  Callers
    typically reduce it with ``% n``.
    """
    module.scalar(state_name, seed)
    module.function("rand", [], [
        Assign(state_name,
               (Var(state_name) * LCG_MUL + LCG_ADD) & LCG_MASK),
        Return(Var(state_name)),
    ])
    return module


def rand():
    """Expression calling the in-language PRNG."""
    return CallExpr("rand")


def table_init(count, seed, low=0, high=255):
    """Host-side deterministic random initializer for data arrays."""
    gen = Xorshift64(seed)
    return gen.sample_values(count, low, high)


def ramp_init(count, start=0, step=1):
    return [start + i * step for i in range(count)]
