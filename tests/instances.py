"""Synthetic matrices shared across the test suite."""

import numpy as np

from colsel import as_matrix


def lstsq_error(a, cols, target):
    """Oracle: squared residual of an SVD-based least-squares fit of ``target`` on ``a[:, cols]``.

    The empty selection leaves all of ``target``.
    """
    residual = target
    if len(cols):
        coef, *_ = np.linalg.lstsq(a[:, cols], target, rcond=None)
        residual = target - a[:, cols] @ coef
    return float(np.sum(residual * residual))


def random_matrix(m, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return as_matrix(rng.standard_normal((m, n)) * scale)


def rank_deficient_matrix(m, n, rank, seed):
    rng = np.random.default_rng(seed)
    return as_matrix(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))


def planted_lowrank(m, n, rank, noise_level, seed):
    """Rank-`rank` structure where every column carries a single direction.

    Uniform sampling misses directions that greedy methods find, which is
    what separates the methods under the relative-accuracy metric.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    directions = rng.integers(0, rank, size=n)
    directions[:rank] = np.arange(rank)
    rng.shuffle(directions)
    amps = rng.uniform(1.0, 2.0, size=n)
    signal = basis[:, directions] * amps
    noise = rng.standard_normal((m, n))
    noise *= noise_level * np.linalg.norm(signal) / np.linalg.norm(noise)
    return as_matrix(signal + noise)


def rank_two_beside_tiny():
    """A rank-2 20 x 30 block beside 10 columns of entries 1e-7 times N(0, 1).

    A sketch of it is reconstructed to round-off by two columns, so a
    selection against that sketch stops after two picks, whatever its budget.
    """
    rng = np.random.default_rng(0)
    low = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 30))
    return as_matrix(np.hstack([low, 1e-7 * rng.standard_normal((20, 10))]))


def planted_partitioned(m, n, n_generators, c, seed, distractors_per_part=20):
    """Generator columns concentrated in partition 0 of a contiguous split.

    Remote partitions mix moderate-norm mixture columns (spanned by the
    generators) with large-norm distractor columns that dominate local
    reconstruction but carry none of the shared structure.
    """
    rng = np.random.default_rng(seed)
    part = n // c
    gens = rng.standard_normal((m, n_generators))
    cols = np.empty((m, n))
    cols[:, :n_generators] = gens
    for j in range(n_generators, n):
        local = j % part
        if j >= part and local < distractors_per_part:
            v = rng.standard_normal(m)
            cols[:, j] = v / np.linalg.norm(v) * np.sqrt(15.0 * m)
        else:
            w = rng.standard_normal(n_generators) / np.sqrt(n_generators)
            cols[:, j] = gens @ w * np.sqrt(2.0)
    noise = rng.standard_normal((m, n))
    noise *= 0.01 * np.linalg.norm(cols) / np.linalg.norm(noise)
    return as_matrix(cols + noise)


def badly_scaled_wide(m=20, n=64, k=4, seed=8):
    """``k`` independent columns of norm 1e6 to 2e6, then ``n - k`` columns
    of norm 1e-3 orthogonal to them.

    Wide enough (n > 2m) that the initial scores take the Gram form, which
    alone gets the small columns' scores wrong by orders of magnitude.
    """
    rng = np.random.default_rng(seed)
    big = rng.standard_normal((m, k))
    q, _ = np.linalg.qr(big)
    small = rng.standard_normal((m, n - k))
    small -= q @ (q.T @ small)
    small *= 1e-3 / np.linalg.norm(small, axis=0)
    big *= 1e6 * np.linspace(1.0, 2.0, k) / np.linalg.norm(big, axis=0)
    return as_matrix(np.hstack([big, small]))


def geometric_spectrum(m, n, seed, smallest=1e-10):
    """Random singular vectors with singular values geometric from 1 to ``smallest``.

    Ill-conditioned enough that greedy's subtractive score recursion drifts
    visibly within a hundred picks unless it is restarted.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, min(m, n))))
    v, _ = np.linalg.qr(rng.standard_normal((n, min(m, n))))
    return as_matrix((u * np.geomspace(1.0, smallest, min(m, n))) @ v.T)


def zipf_planted(m, n, seed, rank=128, noise=0.1):
    """Unit directions recurring in shares of the columns proportional to 1/i.

    The benchmark's Zipf-planted input: direction i fills about
    n / (i · H_rank) columns, with a random sign each, plus Gaussian noise
    of norm about ``noise`` per column.
    """
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((m, rank))
    basis /= np.linalg.norm(basis, axis=0)
    share = n / np.arange(1, rank + 1) / np.sum(1.0 / np.arange(1, rank + 1))
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[: n - counts.sum()]] += 1
    directions = rng.permutation(np.repeat(np.arange(rank), counts))
    signs = rng.choice([-1.0, 1.0], size=n)
    noise_part = rng.standard_normal((m, n)) * (noise / np.sqrt(m))
    return as_matrix(basis[:, directions] * signs + noise_part)
