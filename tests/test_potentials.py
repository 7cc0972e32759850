"""Potential families: values, gradients, limiting forms, and checkers."""

import itertools
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnet.potentials import (
    EvenPower,
    LocalPiece,
    Quadratic,
    SoftPower,
    check_coercive_limit,
    check_nondegenerate,
    default_nondegeneracy_samples,
    derivative_rows,
    _run,
)


def finite_difference_gradient(spec, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        hi = step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hi
        g[i] = (spec.value(x + e) - spec.value(x - e)) / (2 * hi)
    return g


ALL_SPECS = [
    SoftPower(degree=2, dim=1),
    SoftPower(degree=4, dim=2),
    SoftPower(degree=3.5, dim=3),
    EvenPower(degree=2, dim=2),
    EvenPower(degree=4, dim=1),
    EvenPower(degree=6, dim=3),
    Quadratic(stiffness=((2.0,),), dim=1),
    Quadratic(stiffness=((2.0, 0.5), (0.5, 1.0)), dim=2),
    LocalPiece(terms=((0.25, (4, 0, 0)), (0.25, (0, 4, 0)), (0.25, (0, 0, 4))), dim=3),
    LocalPiece(terms=((1.0, (2, 2)), (0.5, (4, 0))), dim=2),
]


# --- Values -------------------------------------------------------------------

def test_value_examples():
    assert SoftPower(degree=4, dim=2).value(np.zeros(2)) == pytest.approx(1.0)
    assert EvenPower(degree=2, dim=2).value([3.0, 4.0]) == pytest.approx(25.0)
    assert Quadratic.isotropic(1.0, 2).value([1.0, 1.0]) == pytest.approx(1.0)


def test_gradient_examples():
    assert EvenPower(degree=4, dim=2).gradient([1.0, 0.0]) == pytest.approx([4.0, 0.0])
    # V = 1 + |x|^2 for the soft family at degree 2, so grad = 2x.
    assert SoftPower(degree=2, dim=2).gradient([2.0, 0.0]) == pytest.approx([4.0, 0.0])
    assert Quadratic.isotropic(1.0, 2).gradient([1.0, 0.0]) == pytest.approx([1.0, 0.0])


def test_value_is_vectorized():
    spec = SoftPower(degree=4, dim=2)
    pts = np.random.default_rng(0).standard_normal((5, 7, 2))
    vals = spec.value(pts)
    assert vals.shape == (5, 7)
    assert vals[2, 3] == pytest.approx(spec.value(pts[2, 3]))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        SoftPower(degree=4, dim=2).value([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        EvenPower(degree=4, dim=3).gradient([1.0])


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        SoftPower(degree=1.5, dim=2)
    with pytest.raises(ValueError):
        EvenPower(degree=3, dim=2)
    with pytest.raises(ValueError):
        Quadratic(stiffness=((1.0, 0.5), (0.2, 1.0)), dim=2)  # not symmetric
    with pytest.raises(ValueError):
        Quadratic(stiffness=((-1.0,),), dim=1)
    with pytest.raises(ValueError):
        LocalPiece(terms=(), dim=2)
    # A number as the stiffness is that number times the identity.
    assert Quadratic(stiffness=1.5, dim=2).stiffness == ((1.5, 0.0), (0.0, 1.5))


# --- Gradient consistency (finite-difference cross-check) ---------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(s.dim))
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = 4.0 * rng.standard_normal(spec.dim)
        g = spec.gradient(x)
        g_fd = finite_difference_gradient(spec, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_gradient_consistency_property(seed):
    rng = np.random.default_rng(seed)
    spec = ALL_SPECS[int(rng.integers(len(ALL_SPECS)))]
    x = 5.0 * rng.standard_normal(spec.dim)
    g = spec.gradient(x)
    g_fd = finite_difference_gradient(spec, x)
    assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


# --- Limiting forms ------------------------------------------------------------

def test_limiting_value_examples():
    assert SoftPower(degree=4, dim=2).limiting_value([1.0, 0.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(s.dim))
def test_limiting_form_is_homogeneous(spec):
    rng = np.random.default_rng(7)
    r = float(spec.degree)
    for lam in (0.5, 2.0, 10.0):
        for _ in range(5):
            x = rng.standard_normal(spec.dim)
            if np.linalg.norm(x) < 1e-3:
                continue
            v1 = spec.limiting_value(lam * x)
            v2 = lam ** r * spec.limiting_value(x)
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-300)


def test_soft_power_rescaled_deviation_at_ten():
    # (1 + 100)^2 / 10^4 - 1 = 0.0201 on the unit sphere.
    spec = SoftPower(degree=4, dim=2)
    x = np.array([1.0, 0.0])
    dev = abs(spec.value(10 * x) / 10 ** 4 - spec.limiting_value(x))
    assert dev == pytest.approx(0.0201, rel=1e-12)


# --- Growth and lower bounds (derived properties of the families) --------------

@pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
def test_soft_power_growth_bound(r):
    # (1 + |x|^2)^(r/2) <= 2^r (1 + |x|^r) checked on a wide log grid.
    spec = SoftPower(degree=r, dim=1)
    xs = np.logspace(-3, 6, 40)
    vals = spec.value(xs[:, None])
    assert np.all(vals <= 2.0 ** r * (1.0 + xs ** r) + 1e-9)


@pytest.mark.parametrize("spec", [SoftPower(degree=4, dim=2), EvenPower(degree=4, dim=2)])
def test_coercive_lower_bound(spec):
    # value >= |x|^r / 2 holds from radius zero on for these families.
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(2) * rng.choice([0.1, 1.0, 10.0, 100.0])
        assert spec.value(x) >= 0.5 * np.linalg.norm(x) ** spec.degree - 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__ + str(s.dim))
def test_values_non_negative(spec):
    if isinstance(spec, LocalPiece):
        pytest.skip("local pieces are only constrained inside their validity region")
    rng = np.random.default_rng(11)
    pts = 10.0 * rng.standard_normal((200, spec.dim))
    assert np.all(spec.value(pts) >= 0.0)


# --- Non-degeneracy rank test ----------------------------------------------------

def test_nondegenerate_soft_power_everywhere():
    for r in (2.0, 2.5, 4.0):
        spec = SoftPower(degree=r, dim=2)
        report = check_nondegenerate(spec, default_nondegeneracy_samples(2), ell=1)
        assert report.overall
        assert report.sampled


def test_nondegenerate_even_power_needs_higher_order_at_origin():
    spec = EvenPower(degree=4, dim=2)
    at_origin = [np.zeros(2)]
    assert not check_nondegenerate(spec, at_origin, ell=1).overall
    assert check_nondegenerate(spec, at_origin, ell=3).overall


def test_degenerate_single_axis_polynomial():
    # x1^4 in two dimensions: all derivatives point along the first axis.
    spec = LocalPiece(terms=((1.0, (4, 0)),), dim=2)
    report = check_nondegenerate(spec, default_nondegeneracy_samples(2), ell=3)
    assert not report.overall
    assert not any(report.passes)


def test_nondegenerate_quadratic_is_rank_of_stiffness():
    good = Quadratic(stiffness=((2.0, 0.0), (0.0, 1.0)), dim=2)
    assert check_nondegenerate(good, [np.zeros(2)], ell=1).overall
    singular = Quadratic(stiffness=((1.0, 0.0), (0.0, 0.0)), dim=2)
    assert not check_nondegenerate(singular, [np.zeros(2)], ell=2).overall


def test_nondegeneracy_order_cap():
    spec = SoftPower(degree=4, dim=2)
    with pytest.raises(ValueError):
        check_nondegenerate(spec, [np.zeros(2)], ell=7)
    with pytest.raises(ValueError):
        check_nondegenerate(spec, [], ell=1)


def test_derivative_rows_shapes_and_values():
    spec = EvenPower(degree=4, dim=2)
    rows = derivative_rows(spec, np.zeros(2), ell=3)
    # orders 1..3 over 2 coordinates: 2 + 3 + 4 multi-indices.
    assert rows.shape == (9, 2)
    # Third derivatives of the gradient are constant: d^3/dx^3 grad_1 = 24.
    assert rows.max() == pytest.approx(24.0)


def _oracle_specs():
    from oscnet.fixtures import c4_counterexample_model, c4_naive_pinning_piece

    c4 = c4_counterexample_model()
    specs = [SoftPower(2.5, 1), LocalPiece(((1.0, (4,)), (-2.0, (2,))), 1),
             LocalPiece(((1.0, (2, 2)), (0.5, (4, 0))), 2), LocalPiece(((1.0, (4, 0)),), 2),
             c4.pinning[0], c4.pinning[1], *c4.interaction.values(), c4_naive_pinning_piece()]
    for dim in (1, 2, 3):
        A = np.random.default_rng(dim).standard_normal((dim, dim))
        flat = tuple(tuple(float(i == j == 0) for j in range(dim)) for i in range(dim))
        specs += [SoftPower(3.5, dim), SoftPower(4, dim), EvenPower(4, dim), EvenPower(6, dim),
                  Quadratic(tuple(map(tuple, A @ A.T)), dim), Quadratic(flat, dim)]
    return specs


ORACLE_SPECS = _oracle_specs()


@lru_cache(maxsize=None)
def sympy_rows(spec):
    """x -> rows D^a grad V(x) for 1 <= |a| <= 6, differentiated by sympy, in
    the order of ``itertools.combinations_with_replacement`` by order."""
    import sympy as sp

    xs = sp.symbols(f"x0:{spec.dim}", real=True)
    if isinstance(spec, SoftPower):
        V = (1 + sum(x ** 2 for x in xs)) ** (sp.Rational(spec.degree) / 2)
    elif isinstance(spec, EvenPower):
        V = sum(x ** 2 for x in xs) ** (spec.degree // 2)
    elif isinstance(spec, Quadratic):
        V = sum(sp.Float(k) * xs[i] * xs[j] for (i, j), k in np.ndenumerate(spec.matrix)) / 2
    else:
        V = spec.offset + sum(c * sp.Mul(*(x ** e for x, e in zip(xs, exps)))
                              for c, exps in spec.terms)
    memo = {(): V}

    def diff(key):  # key: sorted coordinates to differentiate along
        if key not in memo:
            memo[key] = sp.diff(diff(key[:-1]), xs[key[-1]])
        return memo[key]

    rows = [[diff(tuple(sorted(alpha + (i,)))) for i in range(spec.dim)]
            for k in range(1, 7)
            for alpha in itertools.combinations_with_replacement(range(spec.dim), k)]
    fn = sp.lambdify(xs, rows, modules="numpy")
    return lambda x: np.array(fn(*x), dtype=float)


def oracle_point(dim):
    # The origin and +-e_i are where the degenerate examples fail; values are
    # kept off the underflow range, where the two evaluation orders could
    # round a product to zero differently.
    coordinate = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0).filter(
        lambda v: abs(v) > 1e-3)
    return st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)


@given(spec=st.sampled_from(ORACLE_SPECS), ell=st.integers(1, 6), data=st.data())
@settings(max_examples=150)
def test_derivative_rows_match_sympy(spec, ell, data):
    x = data.draw(oracle_point(spec.dim))
    rows = derivative_rows(spec, x, ell)
    want = sympy_rows(spec)(x)[:len(rows)]
    assert rows.shape == (sum(comb(spec.dim + k - 1, k) for k in range(1, ell + 1)), spec.dim)
    np.testing.assert_allclose(rows, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    np.testing.assert_array_equal(rows == 0, want == 0)
    sv = np.linalg.svd(want, compute_uv=False)
    full_rank = sv[0] > 0 and int(np.sum(sv > 1e-8 * sv[0])) == spec.dim
    assert check_nondegenerate(spec, [x], ell).passes == (full_rank,)


# --- Coercivity of the limiting form ---------------------------------------------

def test_coercive_even_power():
    report = check_coercive_limit(EvenPower(degree=2, dim=2))
    assert report.coercive
    assert report.min_value == pytest.approx(1.0, rel=1e-9)


def test_coercive_quadratic_reports_raw_minimum():
    report = check_coercive_limit(Quadratic(stiffness=((1.0, 0.0), (0.0, 4.0)), dim=2))
    assert report.coercive
    # min over the sphere of x.Kx/2 is half the smallest eigenvalue.
    assert report.min_value == pytest.approx(0.5, abs=1e-6)


def test_coercive_fails_for_mixed_sign_piece():
    from oscnet.fixtures import c4_naive_pinning_piece
    report = check_coercive_limit(c4_naive_pinning_piece())
    assert not report.coercive
    assert report.min_value <= -0.03125 + 1e-9


def test_coercive_fails_for_singular_quadratic():
    report = check_coercive_limit(Quadratic(stiffness=((1.0, 0.0), (0.0, 0.0)), dim=2))
    assert not report.coercive
    assert report.min_value == pytest.approx(0.0, abs=1e-9)


# --- LocalPiece specifics ---------------------------------------------------------

def test_local_piece_value_and_gradient():
    # V = x^4/64 - y^4/32 + z^4/4 at the reference point (4, 2, 0).
    spec = LocalPiece(
        terms=((1.0 / 64.0, (4, 0, 0)), (-1.0 / 32.0, (0, 4, 0)), (0.25, (0, 0, 4))),
        dim=3,
    )
    assert spec.value([4.0, 2.0, 0.0]) == pytest.approx(3.5)
    assert spec.gradient([4.0, 2.0, 0.0]) == pytest.approx([4.0, -1.0, 0.0])


def test_local_piece_exponents_are_non_negative_integers():
    # int(e) truncated a fractional exponent: 2.7 was read as 2.
    assert LocalPiece(terms=((1.0, (2.0,)),), dim=1).terms == ((1.0, (2,)),)
    for exps in [(2.7,), ("2",), (-2,), (2, 2)]:
        with pytest.raises(ValueError):
            LocalPiece(terms=((1.0, exps),), dim=1)


def test_local_piece_offset_shifts_value_not_gradient():
    base = LocalPiece(terms=((1.0, (2,)),), dim=1)
    shifted = LocalPiece(terms=((1.0, (2,)),), dim=1, offset=5.0)
    assert shifted.value([2.0]) == pytest.approx(base.value([2.0]) + 5.0)
    assert shifted.gradient([2.0]) == pytest.approx(base.gradient([2.0]))
    # The limiting form drops the offset.
    assert shifted.limiting_value([2.0]) == pytest.approx(base.value([2.0]))


def test_local_piece_limiting_keeps_top_degree_only():
    spec = LocalPiece(terms=((1.0, (4, 0)), (3.0, (1, 0))), dim=2)
    assert spec.degree == 4.0
    assert spec.limiting_value([2.0, 0.0]) == pytest.approx(16.0)


def loop_gradient(spec, x):
    """Per-component reference for LocalPiece.gradient: one power table per
    derivative direction, stacked at the end."""
    x = np.asarray(x, dtype=float)
    coeffs = np.array([c for c, _ in spec.terms], dtype=float)
    exps = np.array([e for _, e in spec.terms], dtype=float)
    comps = []
    for j in range(spec.dim):
        reduced = exps.copy()
        reduced[:, j] = np.maximum(reduced[:, j] - 1.0, 0.0)
        pw = x[..., None, :] ** reduced
        comps.append(np.sum(coeffs * exps[:, j] * np.prod(pw, axis=-1), axis=-1))
    return np.stack(comps, axis=-1)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 3), (4096, 2, 3)])
def test_local_piece_gradient_matches_loop_reference_bitwise(shape):
    from oscnet.fixtures import c4_counterexample_model, c4_naive_pinning_piece

    model = c4_counterexample_model()
    pieces = [model.pinning[0], model.pinning[1], *model.interaction.values(),
              c4_naive_pinning_piece()]
    x = 3.0 * np.random.default_rng(7).standard_normal(shape)
    x.flat[0] = 0.0
    for spec in pieces:
        got, want = spec.gradient(x), loop_gradient(spec, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1,), (7, 1), (3, 2, 1), (5, 4096, 1)])
def test_quadratic_dim1_gradient_is_the_matmul_bitwise(shape):
    spec = Quadratic(((1.7,),), 1)
    x = np.random.default_rng(11).standard_normal(shape)
    got, want = spec.gradient(x), x @ np.array(spec.stiffness).T
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_quadratic_gradient_bits_do_not_depend_on_the_stack(dim):
    A = np.random.default_rng(dim).standard_normal((dim, dim))
    spec = Quadratic(tuple(map(tuple, A @ A.T)), dim)
    x = np.random.default_rng(12).standard_normal((4, 6, dim))
    whole = spec.gradient(x)
    assert whole.tobytes() == spec.gradient(x.transpose(1, 0, 2)).transpose(1, 0, 2).tobytes()
    for i in range(4):
        for j in range(6):
            assert whole[i, j].tobytes() == spec.gradient(x[i, j]).tobytes()
    assert np.allclose(whole, x @ spec.matrix.T, rtol=1e-14, atol=1e-14)


def test_quadratic_matrix_is_cached_outside_equality_and_hash():
    a, b = Quadratic.isotropic(2.0, 2), Quadratic.isotropic(2.0, 2)
    assert a.matrix is a.matrix and not a.matrix.flags.writeable
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


# Nine terms in every component: the gradient's sum over terms is
# numpy's pairwise sum.
NINE_TERM_PIECE = LocalPiece(
    terms=tuple((0.1 * (k + 1), (1 + k % 3, 1 + k // 3, 1 + k % 2)) for k in range(9)), dim=3)


@pytest.mark.parametrize("spec", ALL_SPECS + [
    SoftPower(degree=3.0, dim=9),
    EvenPower(degree=4, dim=9),
    Quadratic(((2.0, 0.3, 0.1), (0.3, 1.0, 0.2), (0.1, 0.2, 1.5)), 3),
    NINE_TERM_PIECE,
])
def test_gradient_into_out_keeps_the_bits_of_a_fresh_call(spec):
    # The force plans hand a gradient a strided (k, members, dim) view of
    # member-minor positions and a C-contiguous out.  Every point gets the
    # bits of the plain call on a C-contiguous array, also where a sum has
    # 8 or more terms (9 components, 9 polynomial terms).
    minor = np.random.default_rng(spec.dim).standard_normal((4, spec.dim, 6))
    x = minor.transpose(0, 2, 1)
    out = np.empty(x.shape)
    _run(spec.bind_gradient(x, out))
    want = spec.gradient(np.ascontiguousarray(x))
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


# --- Bound plans against the expressions they replaced ---------------------------

def reference_value(spec, x):
    """The value of ``spec`` at a C-contiguous ``x`` as the plain numpy
    expression each family evaluated before its plan was bound."""
    if isinstance(spec, SoftPower):
        s = np.add.reduce(x * x, axis=-1)
        return (1.0 + s) ** (spec.degree / 2.0)
    if isinstance(spec, EvenPower):
        s = np.add.reduce(x * x, axis=-1)
        return s ** (spec.degree // 2)
    if isinstance(spec, Quadratic):
        Kx = x @ spec.matrix.T
        return 0.5 * np.add.reduce(x * Kx, axis=-1)
    coeffs = np.array([c for c, _ in spec.terms])
    exps = np.array([e for _, e in spec.terms], dtype=float)
    pw = x[..., None, :] ** exps
    return np.add.reduce(coeffs * np.multiply.reduce(pw, axis=-1), axis=-1) + spec.offset


def reference_gradient(spec, x):
    """The gradient of ``spec`` at a C-contiguous ``x`` as the plain numpy
    expression each family evaluated before its plan was bound."""
    out = np.empty(x.shape)
    if isinstance(spec, (SoftPower, EvenPower)):
        np.multiply(x, x, out=out)
        s = np.add.reduce(out, axis=-1, keepdims=True)
        if isinstance(spec, SoftPower):
            s += 1.0
            s **= spec.degree / 2.0 - 1.0
        else:
            s **= spec.degree // 2 - 1
        s *= spec.degree
        return np.multiply(s, x, out=out)
    if isinstance(spec, Quadratic):
        columns = [spec.matrix[:, j].copy() for j in range(spec.dim)]
        np.multiply(x[..., :1], columns[0], out)
        for j in range(1, spec.dim):
            out += x[..., j:j + 1] * columns[j]
        return out
    coeffs = np.array([c for c, _ in spec.terms])
    exps = np.array([e for _, e in spec.terms], dtype=float)
    slopes = coeffs * exps.T
    reduced = np.repeat(exps[None], spec.dim, axis=0)
    for j in range(spec.dim):
        reduced[j, :, j] = np.maximum(exps[:, j] - 1.0, 0.0)
    terms = np.multiply.reduce(x[..., None, None, :] ** reduced, axis=-1)
    terms *= slopes
    return np.add.reduce(terms, axis=-1, out=out)


def pinned_specs():
    """The specs whose plans are pinned to the reference bits.  The
    degrees reach every scalar exponent with a fast path in numpy's power
    (0, 0.5, 1, 2) and some without one (1.5, 2.5, 3, 4); 9 components
    and 10 terms are summed pairwise."""
    rng = np.random.default_rng(2311)
    specs = [SoftPower(degree=r, dim=d) for r in (2, 3, 4, 5, 6, 8) for d in (1, 3)]
    specs += [EvenPower(degree=r, dim=d) for r in (2, 4, 6, 8) for d in (1, 2)]
    specs += [SoftPower(degree=3, dim=9), EvenPower(degree=6, dim=9)]
    for d in (1, 2, 3):
        A = rng.standard_normal((d, d))
        specs.append(Quadratic(tuple(map(tuple, A @ A.T + 0.1 * np.eye(d))), d))
    for t, d in ((1, 1), (3, 3), (10, 2), (10, 3)):
        terms = tuple((float(rng.uniform(-1.0, 1.0)), tuple(int(e) for e in rng.integers(0, 5, d)))
                      for _ in range(t))
        specs.append(LocalPiece(terms=terms, dim=d, offset=float(rng.uniform(0.0, 2.0))))
    return specs


def member_minor_points(dim, members, seed):
    """Positions as a force plan holds them, (4 points, dim, members), with
    -0.0, NaN, +inf and -inf among the coordinates."""
    minor = 1.5 * np.random.default_rng(seed).standard_normal((4, dim, members))
    minor[0, :, 0] = -0.0
    minor[1, 0, -1] = np.nan
    minor[2, -1, members // 2] = np.inf
    minor[3, 0, 0] = -np.inf
    return minor


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", pinned_specs(), ids=repr)
@pytest.mark.parametrize("members", [1, 3, 64])
def test_bound_plans_keep_the_bits_of_the_plain_expressions(spec, members):
    # Gradients see strided (points, members, dim) views, values both
    # (members, points, dim) buffers and strided views; every result, its
    # signed zeros and NaNs included, must be the bits of the expression
    # on a C-contiguous copy.  A full array of exponents where the
    # expression has a scalar one takes the general pow, which differs
    # from the square numpy computes for a scalar 2 on some points.
    minor = member_minor_points(spec.dim, members, seed=members)
    with np.errstate(all="ignore"):
        for x in (minor.transpose(0, 2, 1), minor.transpose(2, 0, 1),
                  minor.transpose(2, 0, 1).copy(), minor[0, :, 0].copy()):
            want = reference_gradient(spec, np.ascontiguousarray(x))
            out = np.empty(x.shape)
            plan = spec.bind_gradient(x, out)
            _run(plan)
            assert same_bits(out, want)
            assert same_bits(spec.gradient(x), want)
            _run(plan)  # a bound plan runs again with the same bits
            assert same_bits(out, want)

            want = reference_value(spec, np.ascontiguousarray(x))
            out = np.empty(x.shape[:-1])
            _run(spec.bind_value(x, out))
            assert same_bits(out, want)
            assert same_bits(spec.value(x), want)


@pytest.mark.parametrize("spec", pinned_specs(), ids=repr)
def test_strided_points_get_a_fresh_c_contiguous_result(spec):
    # No plan checks that ``out`` is C-contiguous (a ``LocalPiece``
    # gradient writes it through a flat view): the public calls must
    # allocate it so for any ``x``, here one member of a strided
    # (points, dim, members) block, and share no memory with ``x``.
    x = member_minor_points(spec.dim, 3, seed=5)[:, :, 1]
    assert not x.flags.c_contiguous
    with np.errstate(all="ignore"):
        for got, want in ((spec.gradient(x), reference_gradient(spec, x.copy())),
                          (spec.value(x), reference_value(spec, x.copy()))):
            assert got.flags.c_contiguous and not np.shares_memory(got, x)
            assert same_bits(got, want)
