"""Closed family of pinning/interaction potentials and their checkers.

Four families are supported:

* ``SoftPower(degree=r)``   -- ``V(x) = (1 + |x|^2)^(r/2)``, real ``r >= 2``.
* ``EvenPower(degree=r)``   -- ``V(x) = |x|^r``, even integer ``r >= 2``.
* ``Quadratic(stiffness=K)``-- ``V(x) = x.K x / 2``, ``K`` symmetric PSD.
* ``LocalPiece(terms=...)`` -- an explicit multivariate polynomial, only
  meaningful inside a caller-documented validity region.  Used for the
  locally-injective-force counterexample.

Every family exposes values, analytic gradients, and the homogeneous form
the potential approaches at infinity (``limiting_value`` and
``limiting_gradient``).  Higher derivative tensors needed by the
non-degeneracy rank test are generated symbolically once per (spec, order)
pair and cached as compiled numpy callables.

All evaluation methods are vectorized over leading axes: ``x`` may have
shape ``(..., dim)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np
import sympy as sp
from scipy import optimize

__all__ = [
    "SoftPower",
    "EvenPower",
    "Quadratic",
    "LocalPiece",
    "PotentialSpec",
    "derivative_rows",
    "NondegeneracyReport",
    "check_nondegenerate",
    "default_nondegeneracy_samples",
    "CoercivityReport",
    "check_coercive_limit",
    "HomogeneityProfile",
    "check_near_homogeneous",
    "unit_sphere_samples",
    "MAX_NONDEGENERACY_ORDER",
]

MAX_NONDEGENERACY_ORDER = 6


def _as_points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class SoftPower:
    """``V(x) = (1 + |x|^2)^(r/2)``; smooth, strictly positive, degree ``r`` at infinity."""

    degree: float
    dim: int

    def __post_init__(self):
        if not (self.degree >= 2):
            raise ValueError("SoftPower degree must be >= 2")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return (1.0 + s) ** (self.degree / 2.0)

    def gradient(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return self.degree * (1.0 + s)[..., None] ** (self.degree / 2.0 - 1.0) * x

    def limiting_value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return s ** (self.degree / 2.0)

    def limiting_gradient(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return self.degree * s[..., None] ** (self.degree / 2.0 - 1.0) * x

    # Limiting form |x|^r with r >= 2 is strictly convex.
    limiting_strictly_convex = True

    def _sympy_expr(self, xs):
        return (1 + sum(xi ** 2 for xi in xs)) ** (sp.S(self.degree) / 2)


@dataclass(frozen=True)
class EvenPower:
    """``V(x) = |x|^r`` with even integer ``r >= 2``; already homogeneous."""

    degree: int
    dim: int

    def __post_init__(self):
        if self.degree < 2 or self.degree % 2 != 0:
            raise ValueError("EvenPower degree must be an even integer >= 2")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return s ** (self.degree // 2)

    def gradient(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.sum(x * x, axis=-1)
        return self.degree * s[..., None] ** (self.degree // 2 - 1) * x

    limiting_value = value
    limiting_gradient = gradient
    limiting_strictly_convex = True

    def _sympy_expr(self, xs):
        return sum(xi ** 2 for xi in xs) ** (self.degree // 2)


@dataclass(frozen=True)
class Quadratic:
    """``V(x) = x.K x / 2`` with ``K`` symmetric positive semi-definite.

    The zero matrix is accepted so that "no pinning" models can be written
    with this family; coercivity then fails honestly in the checker.
    """

    stiffness: tuple[tuple[float, ...], ...]
    dim: int

    def __post_init__(self):
        K = np.asarray(self.stiffness, dtype=float)
        if K.shape != (self.dim, self.dim):
            raise ValueError(f"stiffness must be {self.dim}x{self.dim}")
        if not np.allclose(K, K.T, atol=1e-12):
            raise ValueError("stiffness matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(K)) < -1e-12:
            raise ValueError("stiffness matrix must be positive semi-definite")
        object.__setattr__(self, "stiffness", tuple(tuple(float(v) for v in row) for row in K))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The stiffness as a read-only array, built once per spec (it is
        not a dataclass field, so equality and hashing ignore it)."""
        K = np.asarray(self.stiffness, dtype=float)
        K.setflags(write=False)
        return K

    @property
    def degree(self) -> float:
        return 2.0

    def value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        Kx = x @ self.matrix.T
        return 0.5 * np.sum(x * Kx, axis=-1)

    def gradient(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        K = self.matrix
        # K x summed over columns in a fixed order.  The bits of a matmul
        # depend on the shape of the stack (BLAS picks gemv for one-row
        # matrices and gemm otherwise); these elementwise products do not,
        # so a point's gradient is the same in every batch layout.
        g = x[..., :1] * K[:, 0]
        for j in range(1, self.dim):
            g = g + x[..., j:j + 1] * K[:, j]
        return g

    limiting_value = value
    limiting_gradient = gradient

    @property
    def limiting_strictly_convex(self):
        return bool(np.min(np.linalg.eigvalsh(self.matrix)) > 0)

    def _sympy_expr(self, xs):
        K = self.matrix
        return sum(
            sp.Rational(1, 2) * sp.Float(K[i, j]) * xs[i] * xs[j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    @classmethod
    def isotropic(cls, k: float, dim: int) -> "Quadratic":
        K = tuple(tuple(k if i == j else 0.0 for j in range(dim)) for i in range(dim))
        return cls(stiffness=K, dim=dim)


@dataclass(frozen=True)
class LocalPiece:
    """Explicit polynomial ``sum_t c_t * prod_i x_i^{e_ti}`` plus an offset.

    Only the polynomial is defined; no smooth global extension is
    constructed.  Callers that integrate dynamics with these potentials
    are responsible for keeping the state inside a documented validity
    region.  The ``offset`` is the additive normalization making values
    non-negative inside that region; it does not affect forces and is
    dropped from the limiting form.
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    dim: int
    offset: float = 0.0

    def __post_init__(self):
        if not self.terms:
            raise ValueError("LocalPiece needs at least one term")
        norm = []
        for coeff, exps in self.terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dim or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for dimension {self.dim}")
            norm.append((float(coeff), exps))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def degree(self) -> float:
        return float(max(sum(e) for _, e in self.terms))

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(e) for _, e in self.terms}
        return len(degs) == 1

    def _tables(self):
        return _local_piece_tables(self)

    def value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        coeffs, exps, _, _ = self._tables()
        pw = x[..., None, :] ** exps
        return np.add.reduce(coeffs * np.multiply.reduce(pw, axis=-1), axis=-1) + self.offset

    def gradient(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        _, _, slopes, reduced = self._tables()
        pw = x[..., None, None, :] ** reduced
        # np.add/np.multiply.reduce are np.sum/np.prod without their Python
        # dispatch: the same arithmetic, cheaper on the one-point calls of
        # the c4 run.
        return np.add.reduce(slopes * np.multiply.reduce(pw, axis=-1), axis=-1)

    def _top(self) -> "LocalPiece":
        top = self.degree
        kept = tuple(t for t in self.terms if sum(t[1]) == top)
        return LocalPiece(terms=kept, dim=self.dim, offset=0.0)

    def limiting_value(self, x) -> np.ndarray:
        return self._top().value(x)

    def limiting_gradient(self, x) -> np.ndarray:
        return self._top().gradient(x)

    # No analytic convexity criterion for an arbitrary polynomial piece.
    limiting_strictly_convex = None

    def _sympy_expr(self, xs):
        expr = sp.Float(self.offset)
        for coeff, exps in self.terms:
            term = sp.Float(coeff)
            for xi, e in zip(xs, exps):
                term *= xi ** e
            expr += term
        return expr


PotentialSpec = Union[SoftPower, EvenPower, Quadratic, LocalPiece]


@lru_cache(maxsize=None)
def _local_piece_tables(spec: LocalPiece):
    """(coeffs, exps, slopes, reduced) with shapes (t,), (t, d), (d, t) and
    (d, t, d) for t terms in d dimensions: the derivative along x_j of term
    t is slopes[j, t] * prod_i x_i^reduced[j, t, i]."""
    coeffs = np.array([c for c, _ in spec.terms], dtype=float)
    exps = np.array([e for _, e in spec.terms], dtype=float)
    slopes = coeffs * exps.T
    reduced = np.repeat(exps[None], spec.dim, axis=0)
    for j in range(spec.dim):
        reduced[j, :, j] = np.maximum(exps[:, j] - 1.0, 0.0)
    return coeffs, exps, slopes, reduced


# ---------------------------------------------------------------------------
# Derivative tensors and the non-degeneracy rank test
# ---------------------------------------------------------------------------

def _multi_indices(dim: int, max_order: int):
    """All derivative coordinate tuples with 1 <= order <= max_order."""
    for k in range(1, max_order + 1):
        yield from itertools.combinations_with_replacement(range(dim), k)


@lru_cache(maxsize=None)
def _derivative_row_fn(spec: PotentialSpec, ell: int):
    """Compiled function x -> matrix of rows D^a grad V(x), 1 <= |a| <= ell."""
    xs = sp.symbols(f"x0:{spec.dim}", real=True)
    V = spec._sympy_expr(xs)
    grad = [sp.diff(V, xi) for xi in xs]
    # Derivatives share prefixes; cache intermediate results per component.
    memo: list[dict[tuple[int, ...], sp.Expr]] = [dict() for _ in range(spec.dim)]
    for i, g in enumerate(grad):
        memo[i][()] = g

    def deriv(i: int, alpha: tuple[int, ...]) -> sp.Expr:
        if alpha in memo[i]:
            return memo[i][alpha]
        expr = sp.diff(deriv(i, alpha[:-1]), xs[alpha[-1]])
        memo[i][alpha] = expr
        return expr

    rows = [[deriv(i, alpha) for i in range(spec.dim)] for alpha in _multi_indices(spec.dim, ell)]
    fn = sp.lambdify(xs, sp.Matrix(rows), modules="numpy")

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(*x), dtype=float)
        return np.broadcast_to(out, (len(rows), spec.dim)).astype(float)

    return evaluate


def derivative_rows(spec: PotentialSpec, x, ell: int) -> np.ndarray:
    """Matrix whose rows are ``D^a grad V(x)`` for all ``1 <= |a| <= ell``."""
    if not (1 <= ell <= MAX_NONDEGENERACY_ORDER):
        raise ValueError(f"derivative order must be in 1..{MAX_NONDEGENERACY_ORDER}")
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    return _derivative_row_fn(spec, ell)(x)


@dataclass(frozen=True)
class NondegeneracyReport:
    """Sampled rank test of the derivative family D^a grad V.

    This is a sampled check over finitely many points, never a proof.
    """

    passes: tuple[bool, ...]
    overall: bool
    ell: int
    tol: float
    sample_count: int
    sampled: bool = True

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "ell": self.ell,
            "tol": self.tol,
            "sample_count": self.sample_count,
            "sampled": self.sampled,
            "failures": int(sum(1 for p in self.passes if not p)),
        }


def check_nondegenerate(spec: PotentialSpec, samples, ell: int, tol: float = 1e-8) -> NondegeneracyReport:
    """Test numerical rank n of {D^a grad V(x) : 1 <= |a| <= ell} at each sample.

    Singular values below ``tol`` times the largest singular value count as
    zero, which keeps the test scale-invariant; a zero matrix has rank 0.
    """
    if not (1 <= ell <= MAX_NONDEGENERACY_ORDER):
        raise ValueError(f"ell must be in 1..{MAX_NONDEGENERACY_ORDER}")
    samples = [np.asarray(s, dtype=float).reshape(spec.dim) for s in samples]
    if not samples:
        raise ValueError("need at least one sample point")
    fn = _derivative_row_fn(spec, ell)
    passes = []
    for x in samples:
        rows = fn(x)
        sv = np.linalg.svd(rows, compute_uv=False)
        top = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > tol * top)) if top > 0 else 0
        passes.append(rank == spec.dim)
    return NondegeneracyReport(
        passes=tuple(passes),
        overall=all(passes),
        ell=ell,
        tol=tol,
        sample_count=len(samples),
    )


def default_nondegeneracy_samples(dim: int, extra: int = 20, radius: float = 5.0) -> list[np.ndarray]:
    """Origin, unit basis vectors, and a deterministic cloud in |x| <= radius.

    The structured points matter: the known degenerate examples fail at the
    origin and on coordinate axes.
    """
    pts = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pts.append(e.copy())
        pts.append(-e)
    rng = np.random.Generator(np.random.Philox(key=np.array([0x5EED, dim], dtype=np.uint64)))
    for _ in range(extra):
        v = rng.standard_normal(dim)
        r = radius * rng.random() ** (1.0 / dim)
        nv = np.linalg.norm(v)
        pts.append(v / nv * r if nv > 0 else v)
    return pts


# ---------------------------------------------------------------------------
# Coercivity and near-homogeneity of the limiting form
# ---------------------------------------------------------------------------

def unit_sphere_samples(dim: int, count: int = 256, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere, including +-e_i."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    pts = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pts.append(e.copy())
        pts.append(-e)
    rng = np.random.Generator(np.random.Philox(key=np.array([0xC0E, seed], dtype=np.uint64)))
    while len(pts) < count:
        v = rng.standard_normal(dim)
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            pts.append(v / nv)
    return np.array(pts[:max(count, 2 * dim)])


@dataclass(frozen=True)
class CoercivityReport:
    coercive: bool
    min_value: float
    argmin: tuple[float, ...]
    sampled: bool = True

    def as_dict(self) -> dict:
        return {
            "coercive": self.coercive,
            "min_value": self.min_value,
            "sampled": self.sampled,
        }


def check_coercive_limit(spec: PotentialSpec, sphere_samples: int = 256) -> CoercivityReport:
    """Minimum of the limiting form over the unit sphere (sampled + refined).

    The limiting form is homogeneous, so positivity on the sphere is
    coercivity.  The reported minimum is the raw limiting value.
    """
    if sphere_samples < 100:
        raise ValueError("need at least 100 sphere samples")
    pts = unit_sphere_samples(spec.dim, sphere_samples)
    vals = spec.limiting_value(pts)
    best = int(np.argmin(vals))
    argmin = pts[best]
    min_val = float(vals[best])
    if spec.dim > 1:
        def objective(y):
            ny = np.linalg.norm(y)
            if ny < 1e-9:
                return float("inf")
            return float(spec.limiting_value(y / ny))

        res = optimize.minimize(objective, argmin, method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if res.fun < min_val:
            min_val = float(res.fun)
            argmin = res.x / np.linalg.norm(res.x)
    return CoercivityReport(
        coercive=bool(min_val > 0),
        min_value=min_val,
        argmin=tuple(float(v) for v in argmin),
    )


@dataclass(frozen=True)
class HomogeneityProfile:
    """Per-lambda sup deviation of rescaled values/gradients from the limiting form."""

    lambdas: tuple[float, ...]
    value_dev: tuple[float, ...]
    gradient_dev: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "value_dev": list(self.value_dev),
            "gradient_dev": list(self.gradient_dev),
        }


def check_near_homogeneous(spec: PotentialSpec, lambdas, sphere_samples: int = 128) -> HomogeneityProfile:
    """Deviation profile sup_{|x|=1} |D^a V(lam x)/lam^(r-|a|) - D^a Vinf(x)|.

    Computed for |a| in {0, 1} at each requested scale; callers assert the
    profile decreases toward zero.
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 2 or any(l <= 0 for l in lambdas) or sorted(lambdas) != lambdas:
        raise ValueError("need at least two positive, increasing lambdas")
    r = float(spec.degree)
    pts = unit_sphere_samples(spec.dim, sphere_samples)
    v_inf = spec.limiting_value(pts)
    g_inf = spec.limiting_gradient(pts)
    v_dev, g_dev = [], []
    for lam in lambdas:
        v = spec.value(lam * pts) / lam ** r
        g = spec.gradient(lam * pts) / lam ** (r - 1.0)
        v_dev.append(float(np.max(np.abs(v - v_inf))))
        g_dev.append(float(np.max(np.abs(g - g_inf))))
    return HomogeneityProfile(tuple(lambdas), tuple(v_dev), tuple(g_dev))
