"""Pure-Python hot kernels for field arithmetic.

Coefficient vectors are sequences of arbitrary-precision ints, lowest degree
first, with a fixed length equal to the degree of the minimal polynomial.
`pow_table[j]` holds the reduction of c^(deg+j) modulo the (monic, integer)
minimal polynomial, so a full product can be folded back into the power
basis with integer arithmetic only.

Each level multiplies through its own product function, `product_for`.
Up to degree UNROLL_MAX_DEG that is straight-line code generated once for
the level: output coefficient i is a fixed integer combination of the
convolution terms p_n = sum_i a_i b_(n-i), read off the reduction rows.
At degree 2 it takes about 0.2 us against 1.8 us for `poly_mul` plus
`reduce_tail` (2-vCPU Linux container, Python 3.11).  Generating it costs
0.06-0.14 ms at degree <= 4 but 4 ms at degree 26, and it pays off only
after about 35-60 products at any degree.  Many high-degree levels make
fewer, and levels are built up front, so higher degrees keep the loops.

Callers go through quiverbelt.kernels, which re-exports these functions.
"""

from math import gcd

# Highest degree whose product is unrolled: it covers every level the
# planar geometry and the spherical classes use (d = 3..8, 12, 15).
UNROLL_MAX_DEG = 4


def poly_mul(a, b):
    """Dense convolution of two integer vectors."""
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def reduce_tail(prod, pow_table, deg):
    """Fold coefficients of degree >= deg back into the power basis."""
    out = list(prod[:deg])
    if len(out) < deg:
        out.extend([0] * (deg - len(out)))
    for j in range(len(prod) - deg):
        cj = prod[deg + j]
        if cj:
            row = pow_table[j]
            for i in range(deg):
                ri = row[i]
                if ri:
                    out[i] += cj * ri
    return out


def product_for(pow_table, deg):
    """The reduced product (a, b) -> tuple of one level, for vectors of
    length `deg`: generated straight-line code up to UNROLL_MAX_DEG, the
    `poly_mul` and `reduce_tail` loops above it."""
    if deg > UNROLL_MAX_DEG:
        def product(a, b):
            return tuple(reduce_tail(poly_mul(a, b), pow_table, deg))

        return product
    return _unrolled(pow_table, deg)


def _unrolled(pow_table, deg):
    """Straight-line product for one level.  The source is built from
    `deg` and the integers of the reduction rows only."""
    deg = int(deg)
    rows = [[int(r) for r in row] for row in pow_table[: deg - 1]]

    def conv(n):
        lo, hi = max(0, n - deg + 1), min(n, deg - 1)
        return " + ".join(f"a{i} * b{n - i}" for i in range(lo, hi + 1))

    outs = []
    for i in range(deg):
        expr = conv(i)
        for j in range(deg - 1):
            r = rows[j][i]
            if r:
                sign = "+" if r > 0 else "-"
                factor = "" if abs(r) == 1 else f"{abs(r)} * "
                expr += f" {sign} {factor}p{deg + j}"
        outs.append(expr)
    names_a = "".join(f"a{i}, " for i in range(deg))
    names_b = "".join(f"b{i}, " for i in range(deg))
    lines = [
        "def product(a, b):",
        f"    {names_a}= a",
        f"    {names_b}= b",
        *(f"    p{deg + j} = {conv(deg + j)}" for j in range(deg - 1)),
        "    return (" + "".join(f"{e}, " for e in outs) + ")",
    ]
    namespace = {}
    exec(compile("\n".join(lines), f"<product of degree {deg}>", "exec"), namespace)
    return namespace["product"]


def mul_reduce(a, b, product, deg):
    """Multiply two reduced vectors of length `deg` with their level's
    `product` (see `product_for`); the result is a tuple.  The product
    already knows `deg`: it stays in the signature so that a wrapper can
    count coefficient products from the lengths alone."""
    return product(a, b)


def content(values, extra):
    """gcd of all entries and `extra` (positive; 0 if everything vanishes)."""
    return gcd(*values, extra)
