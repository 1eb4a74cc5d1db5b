"""Impartial mechanisms: each agent's outcome never depends on their own report.

The family is parameterized by per-agent response maps g_i : R -> R^d and
a constant c.  The fitted hyperplane is

    beta1 = sum_i g_i(y_i),        beta0 = c - sum_i <g_i(y_i), x_i>,

so agent i's prediction c + sum_{j != i} <g_j(y_j), x_i - x_j> drops its
own term identically (x_i - x_i = 0): impartiality holds by construction,
for any response maps.  Group strategyproofness, by contrast, forces every
g_i to be constant; non-constant responses let one agent steer another
agent's outcome for free, which the audit module detects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataSet, Hyperplane
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class AffineResponse:
    """g(y) = a * y + b with a, b in R^d."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ConfigurationError("a and b must be vectors of equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigurationError("response coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def __call__(self, y) -> np.ndarray:
        """g at each report of ``y`` (shape ``y.shape + (d,)``)."""
        return np.multiply.outer(np.asarray(y, dtype=float), self.a) + self.b

    def is_constant(self) -> bool:
        return bool(np.all(self.a == 0.0))


@dataclass(frozen=True)
class PwlResponse:
    """Piecewise-linear g: linear between breakpoints, constant beyond them."""

    breakpoints: np.ndarray
    values: np.ndarray  # shape (len(breakpoints), d)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).ravel()
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if bp.size == 0:
            raise ConfigurationError("need at least one breakpoint")
        if vals.shape[0] != bp.size:
            raise ConfigurationError("one value row per breakpoint")
        if np.any(np.diff(bp) <= 0):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ConfigurationError("breakpoints and values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def __call__(self, y) -> np.ndarray:
        """g at each report of ``y`` (shape ``y.shape + (d,)``)."""
        return np.stack([np.interp(y, self.breakpoints, self.values[:, k])
                         for k in range(self.d)], axis=-1)

    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))


@dataclass(frozen=True)
class ImpartialConfig:
    """One response map per agent plus the shared intercept constant."""

    g: tuple
    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        if len(self.g) == 0:
            raise ConfigurationError("need one response map per agent")
        dims = {resp.d for resp in self.g}
        if len(dims) != 1:
            raise ConfigurationError("response maps disagree on dimension")
        if not np.isfinite(self.c):
            raise ConfigurationError("constant c must be finite")
        object.__setattr__(self, "c", float(self.c))

    @property
    def d(self) -> int:
        return self.g[0].d

    def is_constant(self) -> bool:
        return all(resp.is_constant() for resp in self.g)


def _impartial_coefficients(data: DataSet, cfg: ImpartialConfig, ys) -> np.ndarray:
    """The (K, d+1) coefficients of :func:`fit_impartial` for a (K, n) block of reports."""
    if len(cfg.g) != data.n:
        raise ContractViolation(f"{len(cfg.g)} response maps for {data.n} agents")
    if cfg.d != data.d and data.d > 0:
        raise ContractViolation("response dimension differs from data dimension")
    if data.d == 0:
        return np.full((len(ys), 1), cfg.c)
    contributions = np.stack([resp(y) for resp, y in zip(cfg.g, ys.T)], axis=1)
    beta0 = cfg.c - np.einsum("knd,nd->k", contributions, data.xs)
    return np.column_stack([contributions.sum(axis=1), beta0])


def fit_impartial(data: DataSet, cfg: ImpartialConfig) -> Hyperplane:
    """The hyperplane of the response-map family on the given reports."""
    beta = _impartial_coefficients(data, cfg, data.ys[None, :])[0]
    return Hyperplane(beta[:-1], beta[-1])


def swap_config(data: DataSet) -> ImpartialConfig:
    """Two-agent exchange: each agent's prediction equals the other's report.

    Defined for n = 2, d = 1 with distinct positions.  The canonical
    example of an impartial mechanism that a coalition of both agents can
    exploit jointly.
    """
    if data.n != 2 or data.d != 1:
        raise ContractViolation("the swap construction needs n = 2, d = 1")
    x1, x2 = float(data.xs[0, 0]), float(data.xs[1, 0])
    if x1 == x2:
        raise ContractViolation("swap construction needs distinct positions")
    gap = x2 - x1
    return ImpartialConfig(
        g=(AffineResponse(a=[1.0 / gap], b=[0.0]),
           AffineResponse(a=[-1.0 / gap], b=[0.0])),
        c=0.0,
    )


def generalized_median(values, phantoms):
    """Median of n reported values pooled with n+1 fixed phantom values,
    along the last axis of ``values``: a (K, n) block of reports gives K
    medians, one vector of reports a float.

    Phantoms may be +-infinity; the pooled multiset has odd size 2n+1 so
    the median is a plain order statistic and no arithmetic ever touches
    the infinities.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    phantoms = np.asarray(phantoms, dtype=float).ravel()
    n = values.shape[-1]
    if n == 0:
        raise ContractViolation("need at least one reported value")
    if phantoms.size != n + 1:
        raise ContractViolation(f"need exactly {n + 1} phantoms for {n} values")
    if not np.isfinite(values).all():
        raise ContractViolation("reported values must be finite")
    if np.isnan(phantoms).any():
        raise ContractViolation("phantoms must be extended reals")
    pooled = np.concatenate([values, np.broadcast_to(phantoms, (*values.shape[:-1], n + 1))], -1)
    return np.sort(pooled, axis=-1)[..., n]  # (n+1)-th smallest of 2n+1
