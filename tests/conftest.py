import os
import random
from fractions import Fraction

import numpy as np
import pytest

from spherefp.counting import DEFAULT_BUDGET, gowers_blocks
from spherefp.ffcore import PrimeField
from spherefp.fpoly import FpMultiPoly, RatMultiPoly
from spherefp.quadform import QuadForm, qf_rank

# CLI tests run `python -m spherefp.cli` in subprocesses: hand them the src/
# directory that pyproject's pytest pythonpath gives this process
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def box_rows(M, s, S=None, budget=DEFAULT_BUDGET):
    """Box_s(V(M) n (V+c)) as (N, (s+1)d) int64 rows n | h_1 | .. | h_s,
    stacked from the blocks of counting.gowers_blocks in walk order."""
    parts = [np.empty((0, (s + 1) * M.d), dtype=np.int64)]
    for prefix, H, _ in gowers_blocks(M, s, S, budget):
        parts.append(np.hstack([np.broadcast_to(pt, H.shape) for pt in prefix] + [H]))
    return np.concatenate(parts)


def box_count(M, s, S=None, budget=DEFAULT_BUDGET):
    """|Box_s(V(M) n (V+c))| as the rows in the blocks of counting.gowers_blocks."""
    return sum(len(H) for _, H, _ in gowers_blocks(M, s, S, budget))


def random_symmetric(field, d, rng):
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = rng.randrange(field.p)
    return a


def random_form(field, d, rng, min_rank=0, pure=False, homogeneous=False, tries=200):
    for _ in range(tries):
        a = random_symmetric(field, d, rng)
        u = [0] * d if (pure or homogeneous) else [rng.randrange(field.p) for _ in range(d)]
        v = 0 if homogeneous else rng.randrange(field.p)
        M = QuadForm(field, a, u, v)
        if qf_rank(M) >= min_rank:
            return M
    raise AssertionError("could not draw a form of the requested rank")


def random_fp_poly(p, d, s, rng, nterms=8):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = [0] * d
        for _ in range(rng.randint(0, s)):
            e[rng.randrange(d)] += 1
        terms[tuple(e)] = rng.randrange(p)
    return FpMultiPoly(p, d, terms)


def random_rat_poly(d, s, rng, denominators=(1, 2, 3), nterms=6):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = [0] * d
        for _ in range(rng.randint(0, s)):
            e[rng.randrange(d)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-6, 6), rng.choice(denominators))
    return RatMultiPoly(d, terms)


def random_int_valued(d, s, rng, nterms=6):
    """Random integer-valued polynomial via integer binomial coefficients."""
    coeffs = {}
    for _ in range(rng.randint(1, nterms)):
        idx = [0] * d
        for _ in range(rng.randint(0, s)):
            idx[rng.randrange(d)] += 1
        coeffs[tuple(idx)] = rng.randint(-9, 9)
    return RatMultiPoly.from_binomial(d, coeffs)


def random_zp_valued(d, s, rng, p, nterms=6):
    """Random Z/p-valued polynomial of degree <= s (p * f integer valued)."""
    f = random_int_valued(d, s, rng, nterms)
    return f.scale(Fraction(1, p))


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def f7():
    return PrimeField(7)
