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
shape ``(..., dim)``.

Values and gradients are evaluated by plans.  ``bind_gradient(x, out)``
and ``bind_value(x, out)`` return a list of ``(function, args)`` calls
that write the gradient at ``x`` (an ``out`` of the shape of ``x``) or the
value (an ``out`` of shape ``x.shape[:-1]``) when :func:`_run` runs them.
A plan holds every temporary buffer and every scalar operand, the latter
as read-only 0-d arrays (:func:`_scalar`), and reads ``x`` and writes
``out`` as given, so it can be bound once to an integrator's arrays and
run at every step.  ``x`` may be a strided view; ``out`` shares no memory
with ``x`` and is C-contiguous, which every binder's own allocation is and
no plan checks (a ``LocalPiece`` gradient writes it through a flat view).
A call writes a buffer it reads only where that buffer holds more than one
entry per point (a ``Quadratic`` adding up its columns): an in-place call
on a one-element array costs numpy about twice as much.  The public
``gradient(x)`` and ``value(x)`` are one run of a freshly bound plan into
a new array, so each family writes each formula once, with no second
path.

Every sum over components or terms reads a C-contiguous buffer, so each
point gets the bits of the plain expression on a C-contiguous ``x``
(numpy sums 8 or more terms pairwise only along a contiguous axis).
Sums and products are taken with ``np.add.reduce`` and
``np.multiply.reduce``: the arithmetic of ``np.sum`` and ``np.prod``
without their Python dispatch.  Each operand keeps the shape the plain
expression gives it: a scalar exponent is a 0-d array, for which
``np.power`` takes the fast paths of ``s ** e`` (a square for 2, a square
root for 0.5), whereas a full array of exponents takes the general pow,
whose AVX-512 version differs from ``x * x`` in the last bit on a few
percent of points.
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


# Scalar operands of the bound plans, as read-only 0-d float64 arrays: the
# same arithmetic as Python floats, without the conversion numpy makes of
# a Python scalar on every call (about 0.2 us of a 0.35 us ufunc call on a
# small array, 2-vCPU Xeon VM, numpy 2.4.6).
def _scalar(value: float) -> np.ndarray:
    a = np.array(float(value))
    a.setflags(write=False)
    return a


_ONE = _scalar(1.0)
_HALF = _scalar(0.5)


def _run(calls) -> None:
    """Run a bound plan: each ``(function, args)`` call in order."""
    for fn, args in calls:
        fn(*args)


def _as_points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


def _gradient(spec, x) -> np.ndarray:
    """The gradient at ``x``, one run of ``spec.bind_gradient``: an array
    of the shape of ``x``."""
    x = _as_points(x, spec.dim)
    out = np.empty(x.shape)
    _run(spec.bind_gradient(x, out))
    return out


def _value(spec, x) -> np.ndarray:
    """The values at ``x``, one run of ``spec.bind_value``: an array of
    shape ``x.shape[:-1]``, a numpy float for one point."""
    x = _as_points(x, spec.dim)
    out = np.empty(x.shape[:-1])
    _run(spec.bind_value(x, out))
    return out[()]


def _bind_squared_norm(x: np.ndarray, squares: np.ndarray, s: np.ndarray) -> list:
    """``|x|^2`` over the last axis into ``s``, of shape ``x.shape[:-1]``
    or (keeping the axis) ``x.shape[:-1] + (1,)``, summed from the squares
    written into the C-contiguous ``squares``: the order of
    ``np.add.reduce(x * x, axis=-1)`` on a C-contiguous ``x``."""
    return [(np.multiply, (x, x, squares)),
            (np.add.reduce, (squares, -1, None, s, s.ndim == squares.ndim))]


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

    value = _value
    gradient = _gradient

    def bind_value(self, x, out) -> list:
        # (1 + |x|^2) ** (degree/2)
        s, u = np.empty(out.shape), np.empty(out.shape)
        return _bind_squared_norm(x, np.empty(x.shape), s) + [
            (np.add, (_ONE, s, u)),
            (np.power, (u, _scalar(self.degree / 2.0), out))]

    def bind_gradient(self, x, out) -> list:
        # degree * (1 + |x|^2) ** (degree/2 - 1) * x, in this order.
        s, u = np.empty(x.shape[:-1] + (1,)), np.empty(x.shape[:-1] + (1,))
        return _bind_squared_norm(x, out, s) + [
            (np.add, (s, _ONE, u)),
            (np.power, (u, _scalar(self.degree / 2.0 - 1.0), s)),
            (np.multiply, (s, _scalar(self.degree), u)),
            (np.multiply, (u, x, out))]

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

    value = _value
    gradient = _gradient

    def bind_value(self, x, out) -> list:
        # |x|^2 ** (degree/2)
        s = np.empty(out.shape)
        return _bind_squared_norm(x, np.empty(x.shape), s) + [
            (np.power, (s, _scalar(self.degree // 2), out))]

    def bind_gradient(self, x, out) -> list:
        # degree * |x|^2 ** (degree/2 - 1) * x, in this order.
        s, u = np.empty(x.shape[:-1] + (1,)), np.empty(x.shape[:-1] + (1,))
        return _bind_squared_norm(x, out, s) + [
            (np.power, (s, _scalar(self.degree // 2 - 1), u)),
            (np.multiply, (u, _scalar(self.degree), s)),
            (np.multiply, (s, x, out))]

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

    value = _value
    gradient = _gradient

    def bind_value(self, x, out) -> list:
        # 0.5 * sum(x * (x @ K.T)); the matmul's bits depend on the shape
        # of the stack, which the plan keeps.
        Kx, xKx, s = np.empty(x.shape), np.empty(x.shape), np.empty(out.shape)
        return [(np.matmul, (x, self.matrix.T, Kx)),
                (np.multiply, (x, Kx, xKx)),
                (np.add.reduce, (xKx, -1, None, s)),
                (np.multiply, (_HALF, s, out))]

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """The columns of K, squeezed: in dim 1 the one column is a 0-d
        array, which numpy broadcasts without its general iterator (a
        (1,) operand costs about 0.5 us more per call on a small array)."""
        return tuple(np.squeeze(self.matrix[:, j].copy()) for j in range(self.dim))

    def bind_gradient(self, x, out) -> list:
        # K x summed over columns in a fixed order.  The bits of a matmul
        # depend on the shape of the stack (BLAS picks gemv for one-row
        # matrices and gemm otherwise); these elementwise products do not,
        # so a point's gradient is the same in every batch layout.
        term, columns = np.empty(x.shape), self._columns
        calls = [(np.multiply, (x[..., :1], columns[0], out))]
        for j in range(1, self.dim):
            calls += [(np.multiply, (x[..., j:j + 1], columns[j], term)),
                      (np.add, (out, term, out))]
        return calls

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

    value = _value
    gradient = _gradient

    @cached_property
    def _tables(self):
        """(exps, coeffs, reduced, slopes) with shapes (t, d), (t,),
        (d, t, d) and (d, t) for t terms in d dimensions: the derivative
        along x_j of term t is prod_i x_i^reduced[j, t, i] * slopes[j, t].
        Built once per spec, like ``Quadratic.matrix``."""
        coeffs = np.array([c for c, _ in self.terms], dtype=float)
        exps = np.array([e for _, e in self.terms], dtype=float)
        reduced = np.repeat(exps[None], self.dim, axis=0)
        for j in range(self.dim):
            reduced[j, :, j] = np.maximum(exps[:, j] - 1.0, 0.0)
        return exps, coeffs, reduced, coeffs * exps.T

    def _bind_terms(self, x, exps, factors) -> tuple[list, np.ndarray]:
        """The monomials ``prod_i x_i^exps[..., i] * factors`` at the
        points ``x``, broadcast against ``exps``, as a plan and the 2-d
        (points, terms) buffer it writes.  One power call fills a product
        table whose trailing column holds the factors, so one product
        reduction takes ``((x^a * y^b) * z^c) * factor``, the order of the
        product followed by the factor.  The table and the terms are
        allocated 2-d and written through N-d views: numpy reduces a 2-d
        array faster than the same rows in more axes."""
        shape = np.broadcast_shapes(x.shape[:-1], factors.shape)
        table = np.empty((math.prod(shape), self.dim + 1))
        rows = table.reshape(shape + (self.dim + 1,))
        rows[..., self.dim] = factors
        terms = np.empty((math.prod(shape[:-1]), shape[-1]))
        return [(np.power, (x, exps, rows[..., :self.dim])),
                (np.multiply.reduce, (table, -1, None, terms.reshape(-1)))], terms

    def bind_value(self, x, out) -> list:
        # sum_t prod_i x_i^e_ti * c_t + offset
        exps, coeffs, _, _ = self._tables
        calls, terms = self._bind_terms(x[..., None, :], exps, coeffs)
        total = np.empty(out.shape)
        return calls + [(np.add.reduce, (terms, -1, None, total.reshape(-1))),
                        (np.add, (total, _scalar(self.offset), out))]

    def bind_gradient(self, x, out) -> list:
        # sum_t prod_i x_i^reduced_jti * slope_jt along each x_j; out is
        # C-contiguous, so its flat reshape is a view.
        _, _, reduced, slopes = self._tables
        calls, terms = self._bind_terms(x[..., None, None, :], reduced, slopes)
        return calls + [(np.add.reduce, (terms, -1, None, out.reshape(-1)))]

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
