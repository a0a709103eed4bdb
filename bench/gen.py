"""Seeded inputs for the benchmark: lattice models, spherical classes, words.

Everything here is plain Python on tuples, so the driver can build and check
cases without importing the package under test. A model is an NS Gram matrix;
a Mukai vector is a coordinate tuple (r, c_1..c_rho, m).
"""

from __future__ import annotations

import random


def ns_gram(rho: int, d: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Even NS Gram matrix of signature (1, rho-1) with e_1^2 = 2d > 0.

    Starts from <2d> + <-2>^(rho-1) and applies a seeded unimodular change
    U that fixes e_1 (only columns 2..rho are touched), so U^T G U keeps the
    signature, the evenness and the positive polarization e_1.
    """
    g = [[0] * rho for _ in range(rho)]
    g[0][0] = 2 * d
    for i in range(1, rho):
        g[i][i] = -2
    u = [[int(i == j) for j in range(rho)] for i in range(rho)]
    for _ in range(rho // 2):
        i = rng.randrange(1, rho)
        j = rng.choice([t for t in range(rho) if t != i])
        c = rng.choice((-1, 1))
        for row in u:
            row[i] += c * row[j]
    gu = [[sum(g[a][b] * u[b][j] for b in range(rho)) for j in range(rho)]
          for a in range(rho)]
    return tuple(
        tuple(sum(u[a][i] * gu[a][j] for a in range(rho)) for j in range(rho))
        for i in range(rho)
    )


def ns_square(gram, c) -> int:
    n = len(c)
    return sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n))


def mukai_pair(gram, v, w) -> int:
    """<v, w> = c_v.c_w - r_v m_w - r_w m_v, by explicit index loops."""
    n = len(gram)
    cc = sum(v[1 + i] * gram[i][j] * w[1 + j] for i in range(n) for j in range(n))
    return cc - v[0] * w[-1] - w[0] * v[-1]


def spherical_class(gram, rng: random.Random) -> tuple[int, ...]:
    """(r, +-e_i, r (e_i^2 + 2) / 2) with r = +-1 and a seeded basis vector e_i.

    Its Mukai square is c^2 - 2 r m = -2, so it is spherical by construction.
    """
    rho = len(gram)
    c = [0] * rho
    c[rng.randrange(rho)] = rng.choice((-1, 1))
    r = rng.choice((-1, 1))
    m = r * (ns_square(gram, c) + 2) // 2
    return (r, *c, m)


def twist_word(gram, k: int, rng: random.Random) -> list[tuple[int, ...]]:
    """k spherical classes, consecutive ones pairing to non-zero.

    Neighbours that pair to zero give commuting reflections, and a word
    made of them collapses to a much cheaper matrix; rejecting them keeps
    the cost of a word of length k comparable from one seed to the next.
    """
    word = [spherical_class(gram, rng)]
    while len(word) < k:
        s = spherical_class(gram, rng)
        if mukai_pair(gram, s, word[-1]) != 0:
            word.append(s)
    return word
