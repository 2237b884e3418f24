"""The hot vector kernels that cycfield calls.

The kernels are defined in quiverbelt._kernels_py and re-exported here.
cycfield looks them up in this module at call time, so a profiler can wrap
these four names without touching the defining module, whose internal calls
(mul_reduce -> reduce_tail) then stay uncounted.  BACKEND names the kernel
implementation; there is only the pure-Python one.
"""

from quiverbelt._kernels_py import content, mul_reduce, poly_mul, reduce_tail

BACKEND = "pure"

__all__ = ["BACKEND", "content", "mul_reduce", "poly_mul", "reduce_tail"]
