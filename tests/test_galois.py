"""Galois ring GR(4, m): modulus table, Hensel lift, trace sequence."""

import itertools

import numpy as np
import pytest

from zerodetect.errors import BadValue
from zerodetect.galois import (
    PRIMITIVE_BINARY_POLYS,
    hensel_lift,
    modulus_poly,
    trace_sequence,
)


def _gf2_order_of_x(coeffs: tuple[int, ...]) -> int:
    # order of x in GF(2)[x]/(h): repeated multiplication by x with reduction
    deg = len(coeffs) - 1
    mod_mask = sum(c << i for i, c in enumerate(coeffs))
    cur = 1
    for order in range(1, 2**deg + 1):
        cur <<= 1
        if cur >> deg:
            cur ^= mod_mask
        if cur == 1:
            return order
    return -1


@pytest.mark.parametrize("m", sorted(PRIMITIVE_BINARY_POLYS))
def test_binary_polys_are_primitive(m):
    # x must generate the full multiplicative group of GF(2^m)
    assert _gf2_order_of_x(PRIMITIVE_BINARY_POLYS[m]) == 2**m - 1


def test_hensel_lift_known_values():
    # lift of x^3 + x + 1 is x^3 + 2x^2 + x + 3
    assert modulus_poly(3) == (3, 1, 2, 1)
    # lift of x^4 + x + 1 is x^4 + 2x^2 + 3x + 1
    assert modulus_poly(4) == (1, 3, 2, 0, 1)
    # x^2 + x + 1 lifts to itself
    assert modulus_poly(2) == (1, 1, 1)


def test_hensel_lift_reduces_to_input_mod_2():
    for m, h in PRIMITIVE_BINARY_POLYS.items():
        g = modulus_poly(m)
        assert tuple(c % 2 for c in g) == h


def test_hensel_lift_rejects_non_monic():
    with pytest.raises(BadValue):
        hensel_lift((1, 0))
    with pytest.raises(BadValue, match="no primitive polynomial on file for degree 9"):
        modulus_poly(9)


def test_teichmuller_unit_order():
    # xi has multiplicative order exactly 2^m - 1, so Tr(xi^k) has least
    # period 2^m - 1
    for m in (2, 3, 4):
        order = 2**m - 1
        s = trace_sequence(m, 2 * order + m)
        assert s[order:] == s[:len(s) - order]
        for j in range(1, order):
            if order % j == 0:
                assert s[j:] != s[:len(s) - j]


def test_trace_histogram_balanced_over_gr43():
    # exhaustive enumeration of all 64 elements lambda = sum_j lambda_j xi^j:
    # Tr(lambda) = sum_j lambda_j s_j hits each Z4 value 16 times
    s = trace_sequence(3, 3)
    counts = [0, 0, 0, 0]
    for coeffs in itertools.product(range(4), repeat=3):
        counts[sum(c * t for c, t in zip(coeffs, s)) % 4] += 1
    assert counts == [16, 16, 16, 16]


def test_trace_is_frobenius_invariant():
    # Frobenius maps xi^k to xi^(2k) and fixes Z4, so Tr(xi^(2k)) = Tr(xi^k)
    rng = np.random.default_rng(14)
    m = 4
    order = 2**m - 1
    s = trace_sequence(m, order)
    for _ in range(50):
        coeffs = rng.integers(0, 4, m)
        a = sum(int(c) * s[j] for j, c in enumerate(coeffs)) % 4
        fa = sum(int(c) * s[(2 * j) % order] for j, c in enumerate(coeffs)) % 4
        assert fa == a


def test_trace_sequence_known_values():
    # Tr(xi^k) for k < 8 as computed by explicit GR(4, m) element arithmetic
    # (sum of the m Frobenius iterates of xi^k)
    assert trace_sequence(3, 8) == (3, 2, 2, 1, 2, 1, 1, 3)
    assert trace_sequence(4, 8) == (0, 0, 0, 3, 0, 2, 3, 1)
    # degree 1, x + 3: xi = 1 and every trace is 1
    assert trace_sequence(1, 4) == (1, 1, 1, 1)
    assert trace_sequence(3, 0) == ()


def test_trace_sequence_satisfies_recurrence_of_modulus():
    # s is annihilated by g: sum_i g_i s_{k+i} = 0 for every k >= 0
    for m in (2, 4, 6, 8):
        g = modulus_poly(m)
        s = trace_sequence(m, 3 * m)
        for k in range(2 * m):
            assert sum(g[i] * s[k + i] for i in range(m + 1)) % 4 == 0


def _newton_trace_sequence(m: int, length: int) -> tuple[int, ...]:
    # Newton's identities read literally, one power sum at a time: s_0 = m and
    # s_k = -(g_{m-1} s_{k-1} + ... + g_{m-min(k-1, m)} s_{k-min(k-1, m)} + [k <= m] k g_{m-k})
    g = modulus_poly(m)
    s = [m % 4]
    for k in range(1, length):
        acc = sum(g[m - i] * s[k - i] for i in range(1, min(k - 1, m) + 1))
        if k <= m:
            acc += k * g[m - k]
        s.append(-acc % 4)
    return tuple(s[:length])


@pytest.mark.parametrize("m", sorted(PRIMITIVE_BINARY_POLYS))
def test_trace_sequence_equals_newtons_identities(m):
    # every length up to two periods and m terms past them, so both the Newton
    # terms (k <= m) and the fixed recurrence after them are covered, and every cut
    longest = 2 * (2**m - 1) + m
    reference = _newton_trace_sequence(m, longest)
    for length in range(longest + 1):
        assert trace_sequence(m, length) == reference[:length]
