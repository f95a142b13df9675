"""The Galois ring GR(4, m) through its modulus and its trace sequence.

GR(4, m) = Z4[x] / (g(x)) where g is a monic basic irreducible polynomial of
degree m: the Hensel lift of a primitive binary polynomial h, obtained from
g(x^2) = (-1)^m h(x) h(-x) (mod 4). The residue class xi of x is a unit of
multiplicative order 2^m - 1, and its conjugates xi^(2^i), i < m, are the m
roots of g. The trace of xi^k down to Z4 is therefore the k-th power sum of
the roots of g, which Newton's identities give from the coefficients of g
alone: the Kerdock construction needs nothing else from the ring.

The modulus for each degree is fixed by the table below so that results are
reproducible across runs and machines.
"""

from functools import lru_cache
from operator import mul

from .errors import BadValue, ConstructionError

# Primitive binary polynomials by degree, coefficients ascending (constant
# term first). Standard table entries; primitivity is asserted by the tests.
PRIMITIVE_BINARY_POLYS: dict[int, tuple[int, ...]] = {
    1: (1, 1),                    # x + 1
    2: (1, 1, 1),                 # x^2 + x + 1
    3: (1, 1, 0, 1),              # x^3 + x + 1
    4: (1, 1, 0, 0, 1),           # x^4 + x + 1
    5: (1, 0, 1, 0, 0, 1),        # x^5 + x^2 + 1
    6: (1, 1, 0, 0, 0, 0, 1),     # x^6 + x + 1
    7: (1, 0, 0, 1, 0, 0, 0, 1),  # x^7 + x^3 + 1
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
}


def hensel_lift(binary_coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Lift a binary polynomial h to its basic irreducible over Z4.

    Computes (-1)^deg * h(x) h(-x) mod 4, which is a polynomial in x^2, and
    returns the even-degree coefficients. Fails if any odd coefficient
    survives (the input was not a genuine polynomial over GF(2)).
    """
    h = tuple(int(c) % 2 for c in binary_coeffs)
    if len(h) < 2 or h[-1] != 1:
        raise BadValue("binary polynomial must be monic with degree >= 1")
    deg = len(h) - 1
    halt = tuple((c * (-1) ** i) % 4 for i, c in enumerate(h))  # h(-x) over Z4
    prod = [0] * (2 * deg + 1)
    for i, a in enumerate(h):
        for j, b in enumerate(halt):
            prod[i + j] = (prod[i + j] + a * b) % 4
    sign = (-1) ** deg % 4
    prod = [(sign * c) % 4 for c in prod]
    if any(prod[i] for i in range(1, len(prod), 2)):
        raise ConstructionError("Hensel lift left odd-degree terms")
    return tuple(prod[i] for i in range(0, len(prod), 2))


@lru_cache(maxsize=None)
def modulus_poly(m: int) -> tuple[int, ...]:
    """Fixed basic irreducible polynomial of GR(4, m), coefficients ascending."""
    if m not in PRIMITIVE_BINARY_POLYS:
        raise BadValue(f"no primitive polynomial on file for degree {m}")
    return hensel_lift(PRIMITIVE_BINARY_POLYS[m])


def trace_sequence(m: int, length: int) -> tuple[int, ...]:
    """(s_0, ..., s_{length-1}) with s_k = Tr(xi^k) in Z4, for GR(4, m).

    s_k is the k-th power sum of the roots of g = modulus_poly(m), so Newton's
    identities give it from s_0 = m and the coefficients g_i (g_m = 1):
      s_k = -(g_{m-1} s_{k-1} + ... + g_{m-k+1} s_1 + k g_{m-k})   for k <= m,
      s_k = c_0 s_{k-m} + ... + c_{m-1} s_{k-1}, c_i = -g_i mod 4    for k > m,
    a linear recurrence with fixed coefficients, periodic with period 2^m - 1, the order of xi.
    """
    g = modulus_poly(m)
    s = [m % 4]
    for k in range(1, min(m + 1, length)):
        s.append(-(sum(g[m - i] * s[k - i] for i in range(1, k)) + k * g[m - k]) % 4)
    c = [-a % 4 for a in g[:m]]
    for k in range(m + 1, length):
        s.append(sum(map(mul, c, s[k - m : k])) % 4)
    return tuple(s[:length])
