r"""Dirichlet and Fejer kernels on T and T^{2q}.

The multidimensional kernel lives on T^{2q} (q is the product degree of the
truncated kernels, and each degree contributes two coordinates).  Summing
characters over the dilates j*P of the polyhedron of bounded partial sums

    P = { r in R^{2q} : |sum_{i=l}^{k} r_i| <= 1 for all l <= k },

with the constant j = 0 shell included, collapses into a chain of 1-D
Dirichlet factors

    F_n(t) = (1/n) D_n(-t_1) * prod_{k=1}^{2q-1} D_n(t_k - t_{k+1}) * D_n(t_{2q}),

where D_n(s) = sum_{r=0}^{n-1} e^{irs}.  The tests validate the chain form
against a direct lattice-point enumeration; it is never assumed.
Each factor depends on at most two coordinates, so ``_chain`` evaluates it
at its own broadcast shape: on the sparse tensor grid of ``fejer_convolve``
that is O(q m_axis^2) Dirichlet values plus 2q broadcast products over the
m_axis^{2q} nodes.

The kernel is real, even, bounded by n^{2q}, and integrates to 1 under the
normalized measure on T^{2q}.  It dips below zero for q >= 1, and the
truncated product kernels stay positive definite for beta >= -min F_n:
``fejer_min_estimate`` estimates that minimum by a grid scan refined with a
batched numpy Nelder-Mead that takes scipy's steps for every start, so the
module imports no part of scipy.  Tabulations and scans are budgeted by
CONVOLVE_MAX_EVALS points before anything is allocated.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetError, ConfigError

__all__ = [
    "dirichlet",
    "fejer_multi",
    "grid_points",
    "fejer_min_estimate",
    "fejer_convolve",
    "beta_from_policy",
]

ORACLE_MAX_Q = 2
CONVOLVE_MAX_EVALS = 1 << 22
BETA_POLICIES = ("manual", "bound", "estimate")
BETA_MARGIN = 1e-6
MIN_ESTIMATE_STARTS = 32       # seeded random scan points of a q >= 2 minimum estimate


def dirichlet(n: int, s) -> np.ndarray | complex:
    """Geometric sum D_n(s) = sum_{r=0}^{n-1} e^{irs}; equals n at s = 0 mod 2*pi.

    Closed form e^{i(n-1)h} sin(nh)/sin(h) with h = s/2 for s wrapped into
    [-pi, pi): both sines keep full relative precision as h -> 0, so the
    quotient stays exact next to the pole, and it is n at h = 0."""
    if n < 1:
        raise ConfigError(f"need n >= 1, got n={n}")
    s_arr = np.asarray(s, dtype=float)
    h = 0.5 * (np.remainder(s_arr + np.pi, 2.0 * np.pi) - np.pi)
    sin_h = np.sin(h)
    pole = sin_h == 0.0
    ratio = np.where(pole, float(n), np.sin(n * h) / np.where(pole, 1.0, sin_h))
    out = np.exp(1j * (n - 1) * h) * ratio
    return out if s_arr.ndim else complex(out)


def _chain(n: int, ts) -> np.ndarray:
    """Dirichlet chain over the 2q coordinates ts (broadcastable arrays):
    each factor at its own broadcast shape, all in one ``dirichlet`` call,
    multiplied in chain order.  Complex; ArithmeticError if not real."""
    args = [-ts[0], *(a - b for a, b in zip(ts[:-1], ts[1:])), ts[-1]]
    d = dirichlet(n, np.concatenate([a.ravel() for a in args]))
    ends = list(itertools.accumulate(a.size for a in args))
    val = d[:ends[0]].reshape(args[0].shape)
    for a, lo, hi in zip(args[1:], ends, ends[1:]):
        val = val * d[lo:hi].reshape(a.shape)
    val = val / n
    worst = float(np.abs(val.imag).max())
    if worst > 1e-10 * max(1.0, float(n) ** len(ts)):
        raise ArithmeticError(f"Fejer chain produced imaginary part {worst:.3e}")
    return val


def fejer_multi(n: int, q: int, t) -> np.ndarray | float:
    """Fejer kernel on T^{2q} for degree q, evaluated via the Dirichlet chain.

    Parameters
    ----------
    t : array_like, shape (..., 2q)
        Points of T^{2q}; any leading batch shape.

    Returns
    -------
    Real values of shape t.shape[:-1] (float for a single point).
    """
    if q < 1:
        raise ConfigError(f"degree must be positive, got q={q}")
    t_arr = np.atleast_2d(np.asarray(t, dtype=float))
    if t_arr.shape[-1] != 2 * q:
        raise ConfigError(f"expected points in T^{2 * q}, got last axis {t_arr.shape[-1]}")
    val = _chain(n, [t_arr[..., k] for k in range(2 * q)])
    out = val.real.reshape(np.shape(t)[:-1])
    return out if out.ndim else float(out)


def _check_budget(axis: int, dim: int, extra: int, what: str) -> None:
    """BudgetError unless axis^dim + extra <= CONVOLVE_MAX_EVALS.  With
    axis >= 2, a dim past the budget's bit length is over it, which keeps a
    huge dim from forming axis^dim."""
    if dim >= CONVOLVE_MAX_EVALS.bit_length() or axis**dim + extra > CONVOLVE_MAX_EVALS:
        more = f" + {extra}" if extra else ""
        raise BudgetError(f"{axis}^{dim}{more} {what} exceed budget {CONVOLVE_MAX_EVALS}")


def grid_points(density: int, q: int) -> np.ndarray:
    """The density^{2q} nodes 2*pi*j/density of the tensor grid on T^{2q},
    shape (density^{2q}, 2q), last coordinate fastest.

    ConfigError for density < 2 or q < 1; BudgetError, before anything is
    allocated, for more than CONVOLVE_MAX_EVALS nodes."""
    if density < 2 or q < 1:
        raise ConfigError(f"need density >= 2 and q >= 1, got density={density}, q={q}")
    _check_budget(density, 2 * q, 0, "grid points")
    axis = 2.0 * np.pi * np.arange(density) / density
    nodes = np.meshgrid(*([axis] * (2 * q)), indexing="ij")
    return np.stack(nodes, axis=-1).reshape(-1, 2 * q)


def _by_value(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each simplex's vertices in argsort order of their values."""
    order = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, order[..., None], 1), np.take_along_axis(fsim, order, 1)


def _nelder_mead(f, starts: np.ndarray, xatol: float = 1e-10, fatol: float = 1e-12,
                 maxiter: int = 2000) -> np.ndarray:
    """Nelder-Mead from every row of ``starts`` at once; min(fsim) per start.

    Step for step the algorithm of ``scipy.optimize.minimize(method=
    "Nelder-Mead")`` without bounds: the same initial simplex, coefficients,
    argsort ordering and per-start stop, so each start's iterates are
    scipy's.  ``f`` maps points (k, dim) to values (k,); one iteration calls
    it at most three times (the reflections, the expansion or contraction
    point of each start that needs one, and the shrink vertices)."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    S, dim = starts.shape
    sim = np.repeat(starts[:, None, :], dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(starts != 0, (1 + 0.05) * starts, 0.00025)
    # scipy sorts the initial simplex twice, and argsort need not keep ties
    sim, fsim = _by_value(*_by_value(sim, f(sim.reshape(-1, dim)).reshape(S, dim + 1)))
    active = np.ones(S, dtype=bool)
    for _ in range(1, maxiter):  # scipy counts the initial simplex as iteration 1
        active &= ~((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                    & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        a = np.flatnonzero(active)
        if not a.size:
            break
        s, fs = sim[a], fsim[a]
        xbar, worst = np.add.reduce(s[:, :-1], 1) / dim, s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = f(xr)
        expand = fxr < fs[:, 0]
        keep_r = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~keep_r & (fxr < fs[:, -1])
        x2 = np.where(expand[:, None], (1 + rho * chi) * xbar - rho * chi * worst,
                      np.where(outside[:, None], (1 + psi * rho) * xbar - psi * rho * worst,
                               (1 - psi) * xbar + psi * worst))
        f2 = np.zeros_like(fxr)
        if not keep_r.all():
            f2[~keep_r] = f(x2[~keep_r])
        take2 = ~keep_r & np.where(expand, f2 < fxr,
                                   np.where(outside, f2 <= fxr, f2 < fs[:, -1]))
        take_r = keep_r | (expand & ~take2)
        shrink = ~keep_r & ~expand & ~take2
        s[take_r, -1], fs[take_r, -1] = xr[take_r], fxr[take_r]
        s[take2, -1], fs[take2, -1] = x2[take2], f2[take2]
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + sigma * (s[shrink, 1:] - best)
            fs[shrink, 1:] = f(s[shrink, 1:].reshape(-1, dim)).reshape(-1, dim)
        sim[a], fsim[a] = _by_value(s, fs)
    return fsim.min(axis=1)


def fejer_min_estimate(
    n: int,
    q: int,
    grid_density: int = 64,
    seed: int = 0,
) -> float:
    """Estimated minimum of the Fejer kernel over T^{2q}.

    q = 1 scans the full 2-D grid (grid_density points per axis) and refines
    the best point locally; q >= 2 scans the coarse 8^{2q} tensor grid plus
    MIN_ESTIMATE_STARTS seeded random points and refines the best 8.  The local
    descent runs scipy's Nelder-Mead steps (xatol 1e-10, fatol 1e-12, at
    most 2000 iterations) for all starts at once, in numpy; scipy is not
    imported.  An estimate, not a certificate; always >= -n^{2q} (the
    provable bound).

    Raises
    ------
    ConfigError
        n < 1, q < 1, grid_density < 2 or seed < 0.
    BudgetError
        The scan would exceed CONVOLVE_MAX_EVALS points (checked before
        anything is allocated; q >= 4 always does).
    """
    if q < 1 or grid_density < 2 or seed < 0:
        raise ConfigError("need q >= 1, grid_density >= 2 and seed >= 0, got "
                          f"q={q}, grid_density={grid_density}, seed={seed}")
    if q == 1:
        pts = grid_points(grid_density, q)
    else:
        _check_budget(8, 2 * q, MIN_ESTIMATE_STARTS, "scan points")
        pts = grid_points(8, q)
        rng = np.random.default_rng(seed)
        pts = np.concatenate([pts, rng.uniform(0.0, 2.0 * np.pi,
                                               size=(MIN_ESTIMATE_STARTS, 2 * q))])
    vals = fejer_multi(n, q, pts)
    starts = pts[np.argsort(vals)[:8]] if q > 1 else pts[[int(np.argmin(vals))]]

    def f(t: np.ndarray) -> np.ndarray:
        return _chain(n, list(np.remainder(t, 2.0 * np.pi).T)).real

    best = min(float(np.min(vals)), float(_nelder_mead(f, starts).min()))
    return max(best, -float(n) ** (2 * q))


def fejer_convolve(g, n: int, q: int, z: float, m_axis: int = 32) -> complex:
    """Tensor rectangle-rule approximation of the normalized convolution

        (g * F_n)(z 1) = int_{T^{2q}} g(t) F_n(z 1 - t) dt / (2 pi)^{2q}.

    The kernel comes from ``_chain`` on the sparse grid z - t_k (see the
    module docstring for the cost).

    Parameters
    ----------
    g : callable
        Evaluation callback; receives a stacked coordinate array of shape
        (2q, m, ..., m) and must return values of shape (m, ..., m).
    m_axis : int
        Quadrature points per axis (m_axis^{2q} total evaluations of g).
    """
    if q > ORACLE_MAX_Q:
        raise BudgetError(f"convolution guarded to q<={ORACLE_MAX_Q}")
    _check_budget(m_axis, 2 * q, 0, "quadrature nodes")
    axis = 2.0 * np.pi * np.arange(m_axis) / m_axis
    coords = np.meshgrid(*([axis] * (2 * q)), indexing="ij", sparse=True)
    gvals = np.asarray(g(np.stack(np.broadcast_arrays(*coords))), dtype=complex)
    if gvals.shape != (m_axis,) * (2 * q):
        raise ValueError("callback returned wrong shape")
    fvals = _chain(n, [z - c for c in coords]).real
    return complex(np.mean(gvals * fvals))


def beta_from_policy(
    policy: str,
    n: int,
    q: int,
    grid_density: int = 64,
    seed: int = 0,
) -> float:
    """Positive-definiteness offset beta for the product kernel family.

    ``estimate``: max(0, -estimated Fejer minimum) + ``BETA_MARGIN``;
    ``bound``: the provable ceiling n^{2q}.  A ``manual`` beta is the spec's
    own value, so that policy has no rule here.
    """
    if policy == "bound":
        return float(n) ** (2 * q)
    if policy == "estimate":
        est = fejer_min_estimate(n, q, grid_density=grid_density, seed=seed)
        return max(0.0, -est) + BETA_MARGIN
    raise ValueError(f"beta policy {policy!r} has no offset rule")
