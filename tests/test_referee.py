"""The verdict of ``douglas`` against an exact referee on small integer pairs.

An integer pair has a verdict that needs no tolerance.  In exact rational
arithmetic (stdlib ``fractions``):

- ``AX = C`` is consistent iff rank([A | C]) = rank(A);
- a Hermitian solution exists iff, in addition, ``C A*`` is Hermitian;
- a PSD solution exists iff, in addition, ``C A*`` is PSD and
  rank(``C A*``) = rank(C) (C. G. Khatri and S. K. Mitra, *SIAM J. Appl.
  Math.* 31, 1976).

The last test is a route of its own, not the range equality R(D) = R(DP) that
``douglas`` decides.  The pairs are ``A = L R`` with entries of L and R in
[-2, 2] and ``C = m A W`` with m in {1, 10^3, 10^5}, W general, symmetric or
``W W^T``, and a +-1 leak added to one entry of C in 30% of the pairs.  Their
condition numbers sit far below ``1 / rank_rtol`` and their exact zeros far
below every threshold, so the floats must agree with the referee on each.
"""

from fractions import Fraction

import numpy as np
import pytest

from opeq import douglas as dg

PAIRS = 300
SCALES = (1, 10**3, 10**5)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _product(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _rank(m):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][col] / rows[rank][col]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _is_psd(m):
    """PSD test of a real symmetric integer matrix from its characteristic polynomial.

    Faddeev-LeVerrier gives ``det(t I - M) = t^n + c_1 t^(n-1) + ... + c_n``
    exactly; its roots are real, and all of them are nonnegative iff
    ``(-1)^k c_k >= 0`` for every k.
    """
    n = len(m)
    step = [[0] * n for _ in range(n)]
    coeff = 1
    for k in range(1, n + 1):
        step = _product(m, step)
        for i in range(n):
            step[i][i] += coeff
        coeff = -Fraction(sum(row[i] for i, row in enumerate(_product(m, step))), k)
        if (-1) ** k * coeff < 0:
            return False
    return True


def referee(a, c) -> dg.Verdict:
    """The exact verdict of the integer pair ``(a, c)``, given as nested lists."""
    if _rank([ra + rc for ra, rc in zip(a, c)]) != _rank(a):
        return dg.Verdict.UNSOLVABLE
    ca = _product(c, _transpose(a))
    if ca != _transpose(ca):
        return dg.Verdict.GENERAL
    if _is_psd(ca) and _rank(ca) == _rank(c):
        return dg.Verdict.POSITIVE
    return dg.Verdict.HERMITIAN


def integer_pairs(seed=2, count=PAIRS):
    """``count`` seeded integer pairs ``(a, c)`` as nested lists, n from 1 to 5."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        inner = int(rng.integers(0, n + 1))  # rank 0 included
        # integer products are exact in int64 at these sizes
        a = (rng.integers(-2, 3, size=(n, inner)) @ rng.integers(-2, 3, size=(inner, n))).tolist()
        w = rng.integers(-2, 3, size=(n, n))
        w = (w, w + w.T, w @ w.T)[int(rng.integers(3))]
        m = SCALES[int(rng.integers(len(SCALES)))]
        c = [[m * v for v in row] for row in _product(a, w.tolist())]
        if rng.random() < 0.3:
            i, j = (int(k) for k in rng.integers(0, n, size=2))
            c[i][j] += int(rng.choice([-1, 1]))
        pairs.append((a, c))
    return pairs


PAIRS_DRAWN = integer_pairs()


def disagreements(pairs=PAIRS_DRAWN):
    """The pairs whose float verdict is not the referee's, as ``(index, float, exact)``."""
    out = []
    for index, (a, c) in enumerate(pairs):
        expect = referee(a, c)
        got = dg.factorize(np.array(a, dtype=float), np.array(c, dtype=float)).verdict
        if got is not expect:
            out.append((index, got, expect))
    return out


def test_the_draw_reaches_every_verdict():
    counts = {verdict: 0 for verdict in dg.Verdict}
    for a, c in PAIRS_DRAWN:
        counts[referee(a, c)] += 1
    assert all(count >= 30 for count in counts.values()), counts


def test_the_referee_decides_the_textbook_pairs(rank1_pair, hermitian_only_pair):
    # A = E11, C = [[2, 1], [0, 0]] is positive; A = diag(1, 1, 0), C = E11 + E23
    # is Hermitian but never positive (its C A* = E11 has rank 1, C rank 2)
    for (a, c), verdict in ((rank1_pair, dg.Verdict.POSITIVE), (hermitian_only_pair, dg.Verdict.HERMITIAN)):
        assert referee(a.real.astype(int).tolist(), c.real.astype(int).tolist()) is verdict
    assert referee([[1, 0], [0, 0]], [[0, 0], [1, 0]]) is dg.Verdict.UNSOLVABLE
    assert referee([[1, 0], [0, 1]], [[0, 1], [0, 0]]) is dg.Verdict.GENERAL
    assert referee([[1]], [[-3]]) is dg.Verdict.HERMITIAN


def test_every_float_verdict_is_the_exact_one():
    assert disagreements() == []


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("range_ok", lambda original: True),
        ("equation_bound", lambda original: lambda self, c_norm: 1e6 * original(self, c_norm)),
    ],
)
def test_the_referee_sees_a_wrong_factorization(monkeypatch, name, wrong):
    # range inclusion forced true, or the residual bound made 1e6 times looser:
    # the leaked pairs at m = 10^3 and 10^5 then read solvable
    original = dg.Factorization.__dict__[name]
    monkeypatch.setattr(dg.Factorization, name, wrong(original))
    assert any(expect is dg.Verdict.UNSOLVABLE for _, _, expect in disagreements())
