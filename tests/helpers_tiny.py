"""Random small complementarity-constrained QPs shared by the test modules.

Every generated instance is feasible by construction: an anchor point is
drawn first, one side of each complementarity pair is placed at zero with the
other side given positive slack, the inequality offsets leave the anchor
strictly interior, and the equality offsets pass through it. Q is positive
definite, so every branch program of the enumeration oracle has a unique
solution.
"""

import numpy as np

from mpcckit import QuadraticMpcc


def random_tiny_mpcc(rng: np.random.Generator) -> QuadraticMpcc:
    """One random instance with n <= 6, t <= 2, r <= 2, s <= 1, Q > 0."""
    t = int(rng.integers(1, 3))
    n = int(rng.integers(2 * t, 7))
    r = int(rng.integers(0, 3))
    s = int(rng.integers(0, 2))

    basis = rng.normal(size=(n, n))
    Q = basis.T @ basis + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    c0 = float(rng.normal())

    perm = rng.permutation(n)
    idx_g, idx_h = perm[:t], perm[t:2 * t]
    sign_g = rng.choice([-1.0, 1.0], size=t)
    sign_h = rng.choice([-1.0, 1.0], size=t)
    A_G = np.zeros((t, n))
    A_H = np.zeros((t, n))
    A_G[np.arange(t), idx_g] = sign_g
    A_H[np.arange(t), idx_h] = sign_h

    anchor = rng.normal(size=n)
    slack = rng.uniform(0.2, 1.0, size=t)
    g_side_zero = rng.random(t) < 0.5  # which side of each pair sits at zero
    a_vals = np.where(g_side_zero, 0.0, slack)
    b_vals = np.where(g_side_zero, slack, 0.0)
    b_G = a_vals - sign_g * anchor[idx_g]
    b_H = b_vals - sign_h * anchor[idx_h]

    A_g = rng.normal(size=(r, n))
    b_g = -A_g @ anchor - rng.uniform(0.1, 1.0, size=r)
    A_h = rng.normal(size=(s, n))
    b_h = -A_h @ anchor

    return QuadraticMpcc.build(Q=Q, q=q, c0=c0, A_g=A_g, b_g=b_g,
                               A_h=A_h, b_h=b_h, A_G=A_G, b_G=b_G,
                               A_H=A_H, b_H=b_H, coordinate_selection=True)


def without_flag(problem: QuadraticMpcc) -> QuadraticMpcc:
    """The same instance built from its blocks alone, with no
    coordinate_selection argument."""
    return QuadraticMpcc(**{name: getattr(problem, name) for name in (
        "Q", "q", "c0", "A_g", "b_g", "A_h", "b_h", "A_G", "b_G", "A_H", "b_H")})


def point_in_D(problem: QuadraticMpcc, rng: np.random.Generator) -> np.ndarray:
    """A random point of D: both sides of every pair placed at zero."""
    pairs = problem.pair_partition()
    x = rng.normal(size=problem.n)
    x[pairs.idx_g] = pairs.sign_g * -pairs.off_g
    x[pairs.idx_h] = pairs.sign_h * -pairs.off_h
    return x
