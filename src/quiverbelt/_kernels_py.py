"""Pure-Python hot kernels for field arithmetic.

Coefficient vectors are lists of arbitrary-precision ints, lowest degree
first, with a fixed length equal to the degree of the minimal polynomial.
`pow_table[j]` holds the reduction of c^(deg+j) modulo the (monic, integer)
minimal polynomial, so a full product can be folded back into the power
basis with integer arithmetic only.

Callers go through quiverbelt.kernels, which re-exports these functions.
"""

from math import gcd


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


def mul_reduce(a, b, pow_table, deg):
    """Multiply two reduced vectors and reduce modulo the minimal polynomial."""
    return reduce_tail(poly_mul(a, b), pow_table, deg)


def content(values, extra):
    """gcd of all entries and `extra` (positive; 0 if everything vanishes)."""
    g = extra if extra >= 0 else -extra
    for v in values:
        if v:
            g = gcd(g, v if v >= 0 else -v)
            if g == 1:
                return 1
    return g
