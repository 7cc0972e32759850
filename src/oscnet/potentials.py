"""Closed family of pinning/interaction potentials and their checkers.

Four families are supported:

* ``SoftPower(degree=r)``   -- ``V(x) = (1 + |x|^2)^(r/2)``, real ``r >= 2``.
* ``EvenPower(degree=r)``   -- ``V(x) = |x|^r``, even integer ``r >= 2``.
* ``Quadratic(stiffness=K)``-- ``V(x) = x.K x / 2``, ``K`` symmetric PSD.
* ``LocalPiece(terms=...)`` -- an explicit multivariate polynomial, only
  meaningful inside a caller-documented validity region.  Used for the
  locally-injective-force counterexample.

Every family exposes values, analytic gradients, and the homogeneous form
the potential approaches at infinity (``limiting_value``).  The higher
derivatives needed by the non-degeneracy rank test come from closed-form
Taylor coefficients: a multinomial expansion for the polynomial families
and a binomial series for ``SoftPower``, tabulated once per (spec, order)
pair.
``scipy.optimize`` is imported inside the one function that uses it, so
that importing the package does not load it.

All evaluation methods are vectorized over leading axes: ``x`` may have
shape ``(..., dim)``.  Sums and products are taken with ``np.add.reduce``
and ``np.multiply.reduce``: the arithmetic of ``np.sum`` and ``np.prod``
without their Python dispatch, which dominates one-point calls.

``gradient(x, out)`` writes into a given C-contiguous array ``out`` of the
shape of ``x`` that shares no memory with it; ``x`` is then used as given,
unchecked, and may be a strided view.  Every sum over components or terms reads from or writes
into a C-contiguous array, so each point gets the bits of the plain call
on a C-contiguous ``x`` (numpy sums 8 or more terms pairwise only along a
contiguous axis).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .rng import seed_stream

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
    "unit_sphere_samples",
    "MAX_NONDEGENERACY_ORDER",
]

MAX_NONDEGENERACY_ORDER = 6


def _as_points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


def _gradient_args(x, out, dim: int):
    """``(x, out)`` of a gradient call: checked points and a new array
    when ``out`` is None, else both as given."""
    if out is None:
        x = _as_points(x, dim)
        out = np.empty(x.shape)
    return x, out


def _squared_norm(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``|x|^2`` over the last axis as a new (..., 1) array, summed from
    the squares written into the C-contiguous ``out``: the order of
    ``np.sum(x * x, axis=-1)`` on a C-contiguous ``x``."""
    np.multiply(x, x, out=out)
    return np.add.reduce(out, axis=-1, keepdims=True)


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
        s = np.add.reduce(x * x, axis=-1)
        return (1.0 + s) ** (self.degree / 2.0)

    def gradient(self, x, out=None) -> np.ndarray:
        x, out = _gradient_args(x, out, self.dim)
        # degree * (1 + |x|^2) ** (degree/2 - 1) * x, in this order.
        s = _squared_norm(x, out)
        s += 1.0
        s **= self.degree / 2.0 - 1.0
        s *= self.degree
        return np.multiply(s, x, out=out)

    def limiting_value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        s = np.add.reduce(x * x, axis=-1)
        return s ** (self.degree / 2.0)

    # Limiting form |x|^r with r >= 2 is strictly convex.
    limiting_strictly_convex = True


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
        s = np.add.reduce(x * x, axis=-1)
        return s ** (self.degree // 2)

    def gradient(self, x, out=None) -> np.ndarray:
        x, out = _gradient_args(x, out, self.dim)
        # degree * |x|^2 ** (degree/2 - 1) * x, in this order.
        s = _squared_norm(x, out)
        s **= self.degree // 2 - 1
        s *= self.degree
        return np.multiply(s, x, out=out)

    limiting_value = value
    limiting_strictly_convex = True

    def _monomials(self):
        """``(coeff, exponents)`` terms of the multinomial expansion of
        ``(sum_i x_i^2)^(r/2)``."""
        m = self.degree // 2
        terms = []
        for combo in itertools.combinations_with_replacement(range(self.dim), m):
            k = [combo.count(i) for i in range(self.dim)]
            coeff = math.factorial(m) // math.prod(math.factorial(ki) for ki in k)
            terms.append((float(coeff), tuple(2 * ki for ki in k)))
        return terms


@dataclass(frozen=True)
class Quadratic:
    """``V(x) = x.K x / 2`` with ``K`` symmetric positive semi-definite.

    The zero matrix is accepted so that "no pinning" models can be written
    with this family; coercivity then fails honestly in the checker.  A
    number ``k`` as the stiffness stands for ``k`` times the identity.
    """

    stiffness: tuple[tuple[float, ...], ...]
    dim: int

    def __post_init__(self):
        K = np.asarray(self.stiffness, dtype=float)
        if K.ndim == 0:
            K = np.diag(np.full(self.dim, K))
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
        return 0.5 * np.add.reduce(x * Kx, axis=-1)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(self.matrix[:, j].copy() for j in range(self.dim))

    def gradient(self, x, out=None) -> np.ndarray:
        x, out = _gradient_args(x, out, self.dim)
        # K x summed over columns in a fixed order.  The bits of a matmul
        # depend on the shape of the stack (BLAS picks gemv for one-row
        # matrices and gemm otherwise); these elementwise products do not,
        # so a point's gradient is the same in every batch layout.
        columns = self._columns
        np.multiply(x[..., :1], columns[0], out)
        for j in range(1, self.dim):
            out += x[..., j:j + 1] * columns[j]
        return out

    limiting_value = value

    @property
    def limiting_strictly_convex(self):
        return bool(np.min(np.linalg.eigvalsh(self.matrix)) > 0)

    def _monomials(self):
        """``(coeff, exponents)`` terms ``K_ij / 2 * x_i * x_j``."""
        return [(0.5 * self.stiffness[i][j], tuple((k == i) + (k == j) for k in range(self.dim)))
                for i in range(self.dim) for j in range(self.dim)]

    @classmethod
    def isotropic(cls, k: float, dim: int) -> "Quadratic":
        return cls(stiffness=k, dim=dim)


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
            ints = tuple(int(e) for e in exps)
            if ints != tuple(exps) or len(ints) != self.dim or any(e < 0 for e in ints):
                raise ValueError(f"bad exponent tuple {tuple(exps)}: expected {self.dim} "
                                 "non-negative integers")
            norm.append((float(coeff), ints))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def degree(self) -> float:
        return float(max(sum(e) for _, e in self.terms))

    @cached_property
    def _tables(self):
        """(coeffs, exps, slopes, reduced) with shapes (t,), (t, d), (d, t)
        and (d, t, d) for t terms in d dimensions: the derivative along x_j
        of term t is slopes[j, t] * prod_i x_i^reduced[j, t, i].  Built
        once per spec, like ``Quadratic.matrix``."""
        coeffs = np.array([c for c, _ in self.terms], dtype=float)
        exps = np.array([e for _, e in self.terms], dtype=float)
        slopes = coeffs * exps.T
        reduced = np.repeat(exps[None], self.dim, axis=0)
        for j in range(self.dim):
            reduced[j, :, j] = np.maximum(exps[:, j] - 1.0, 0.0)
        return coeffs, exps, slopes, reduced

    def value(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        coeffs, exps, _, _ = self._tables
        pw = x[..., None, :] ** exps
        return np.add.reduce(coeffs * np.multiply.reduce(pw, axis=-1), axis=-1) + self.offset

    def gradient(self, x, out=None) -> np.ndarray:
        x, out = _gradient_args(x, out, self.dim)
        _, _, slopes, reduced = self._tables
        terms = np.multiply.reduce(x[..., None, None, :] ** reduced, axis=-1)
        terms *= slopes
        return np.add.reduce(terms, axis=-1, out=out)

    def _top(self) -> "LocalPiece":
        top = self.degree
        kept = tuple(t for t in self.terms if sum(t[1]) == top)
        return LocalPiece(terms=kept, dim=self.dim, offset=0.0)

    def limiting_value(self, x) -> np.ndarray:
        return self._top().value(x)

    # No analytic convexity criterion for an arbitrary polynomial piece.
    limiting_strictly_convex = None

    def _monomials(self):
        return self.terms


PotentialSpec = Union[SoftPower, EvenPower, Quadratic, LocalPiece]


# ---------------------------------------------------------------------------
# Derivative tensors and the non-degeneracy rank test
# ---------------------------------------------------------------------------

def _multi_indices(dim: int, max_order: int):
    """All derivative coordinate tuples with 1 <= order <= max_order."""
    for k in range(1, max_order + 1):
        yield from itertools.combinations_with_replacement(range(dim), k)


def _factorial(exps) -> int:
    """``e!`` of a multi-index: the product of its entries' factorials."""
    return math.prod(math.factorial(e) for e in exps)


@lru_cache(maxsize=None)
def _derivative_row_fn(spec: PotentialSpec, ell: int):
    """Function x -> matrix of rows D^a grad V(x), 1 <= |a| <= ell.

    Entry (a, i) is ``beta! c_beta`` with ``beta = a + e_i``, where
    ``c_beta`` is the coefficient of ``h^beta`` in the Taylor expansion of
    ``V(x + h)``.  Each entry is a fixed sum of terms ``w u^g x^k`` with
    ``u = 1 + |x|^2``, listed once here:

    * a monomial ``c x^e`` of a polynomial family contributes
      ``c_beta = c prod_i C(e_i, beta_i) x_i^(e_i - beta_i)``: ``g = 0``;
    * ``SoftPower``'s ``V(x + h) = (u + delta)^p`` with ``p = r/2`` and
      ``delta = 2 x.h + |h|^2`` is the binomial series
      ``sum_j C(p, j) u^(p - j) delta^j``, and each split
      ``beta = a + 2b`` takes ``(2 x_i h_i)^(a_i) (h_i^2)^(b_i)`` from
      ``delta^j``, ``j = |a| + |b|``, with multinomial weight
      ``j! / (a! b!)``.

    The arithmetic is exact up to rounding: a derivative that vanishes
    at x (at the origin, on an axis, or past a polynomial's degree) is an
    exact zero.
    """
    dim = spec.dim
    betas = [tuple(alpha.count(j) + (j == i) for j in range(dim))
             for alpha in _multi_indices(dim, ell) for i in range(dim)]
    terms = []  # (entry, w, g, k)
    if isinstance(spec, SoftPower):
        p = spec.degree / 2.0
        for n, beta in enumerate(betas):
            for b in itertools.product(*(range(bi // 2 + 1) for bi in beta)):
                a = tuple(bi - 2 * bj for bi, bj in zip(beta, b))
                j = sum(a) + sum(b)
                binom = math.prod(p - t for t in range(j)) / math.factorial(j)
                count = (_factorial(beta) * math.factorial(j) * 2 ** sum(a)
                         // (_factorial(a) * _factorial(b)))
                terms.append((n, binom * count, p - j, a))
    else:
        monomials = spec._monomials()
        for n, beta in enumerate(betas):
            for coeff, exps in monomials:
                k = tuple(e - bi for e, bi in zip(exps, beta))
                if min(k) >= 0:
                    terms.append((n, coeff * (_factorial(exps) // _factorial(k)), 0.0, k))
    entry = np.array([t[0] for t in terms], dtype=np.intp)
    weight = np.array([t[1] for t in terms], dtype=float)
    u_power = np.array([t[2] for t in terms], dtype=float)
    x_power = np.array([t[3] for t in terms], dtype=float).reshape(-1, dim)

    def evaluate(x: np.ndarray) -> np.ndarray:
        values = weight * (1.0 + x @ x) ** u_power * np.prod(x ** x_power, axis=1)
        return np.bincount(entry, values, minlength=len(betas)).reshape(-1, dim)

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


def check_nondegenerate(spec: PotentialSpec, samples, ell: int) -> NondegeneracyReport:
    """Test numerical rank n of {D^a grad V(x) : 1 <= |a| <= ell} at each sample.

    Singular values below 1e-8 times the largest singular value count as
    zero, which keeps the test scale-invariant; a zero matrix has rank 0.
    """
    tol = 1e-8
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


def default_nondegeneracy_samples(dim: int, extra: int = 20) -> list[np.ndarray]:
    """Origin, unit basis vectors, and a deterministic cloud in |x| <= 5.

    The structured points matter: the known degenerate examples fail at the
    origin and on coordinate axes.
    """
    pts = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pts.append(e.copy())
        pts.append(-e)
    rng = seed_stream(0x5EED, dim)
    for _ in range(extra):
        v = rng.standard_normal(dim)
        r = 5.0 * rng.random() ** (1.0 / dim)
        nv = np.linalg.norm(v)
        pts.append(v / nv * r if nv > 0 else v)
    return pts


# ---------------------------------------------------------------------------
# Coercivity of the limiting form
# ---------------------------------------------------------------------------

def unit_sphere_samples(dim: int, count: int = 256) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere, including +-e_i."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    pts = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pts.append(e.copy())
        pts.append(-e)
    rng = seed_stream(0xC0E, 0)
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
        from scipy import optimize

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
