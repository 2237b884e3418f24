"""The hot vector kernels that cycfield calls.

The kernels are defined in quiverbelt._kernels_py and re-exported here.
cycfield looks them up in this module at call time, so a profiler can wrap
these names without touching the defining module, whose internal calls
(a level's product -> poly_mul, reduce_tail) then stay uncounted.

Each level builds its product once with `product_for(pow_table, deg)`:
straight-line code generated from the level's reduction rows when the
degree is at most UNROLL_MAX_DEG (4), the `poly_mul` and `reduce_tail`
loops above it, where generating the code costs more than most levels of
that degree repay.  `mul_reduce(a, b, product, deg)` multiplies through it
and returns a tuple.  BACKEND names the kernel implementation; there is
only the pure-Python one.
"""

from quiverbelt._kernels_py import (
    UNROLL_MAX_DEG,
    content,
    mul_reduce,
    poly_mul,
    product_for,
    reduce_tail,
)

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "UNROLL_MAX_DEG",
    "content",
    "mul_reduce",
    "poly_mul",
    "product_for",
    "reduce_tail",
]
