from quiverbelt import _kernels_py as pure
from quiverbelt import kernels


def test_selected_backend_exposes_the_kernel_api():
    assert kernels.BACKEND == "pure"
    # cycfield calls the kernels through this module; they are the pure ones
    assert kernels.mul_reduce is pure.mul_reduce
    for name in ("poly_mul", "reduce_tail", "content"):
        assert getattr(kernels, name) is getattr(pure, name)


def test_pure_kernels_basic():
    assert pure.poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    # reduce c^2 by mu = y^2 - y - 1 (golden ratio): c^2 = c + 1
    assert pure.mul_reduce([0, 1], [0, 1], ((1, 1),), 2) == [1, 1]
    assert pure.content([6, -9, 12], 3) == 3
    assert pure.content([0, 0], 0) == 0
    assert pure.content([4, 8], 6) == 2
