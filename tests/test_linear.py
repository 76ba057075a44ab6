"""Linear connections on the pulled-back bundle and their anisotropic shadows."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (DegeneracyError, DiffEngine, LinearConnection,
                      ShapeError, TensorField, berwald_connection,
                      canonical_spray, cartan_tensor, chern_connection,
                      classical_linear, constant_field, covariant_derivative,
                      embed_trivial, induced_nonlinear, is_strongly_regular,
                      linear_from_pair, liouville_field, project_intrinsic,
                      project_with_N, scalar_power, tensor_product,
                      zero_field)
from anifield.catalog import get_example
from anifield.linear import b_matrix, b_matrix_field

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
CONFORMAL = get_example("conformal2")
QUARTIC = get_example("quartic2")
X0 = np.array([0.1, 0.2])
Y0 = np.array([1.0, 2.0])


def _sample_delta(domain, seed=0, magnitude=0.1):
    """A generic compatible second block: constants times a 1/|y| factor."""
    rng = np.random.default_rng(seed)
    seed_block = constant_field(domain, magnitude * rng.normal(size=(2, 2, 2)),
                                1, 2)
    energy = get_example("euclidean2").lagrangian.field
    return tensor_product(seed_block, scalar_power(energy, -0.5),
                          "ijk,->ijk", 1, 2, name="delta")


def test_constructor_validates_blocks():
    g1 = zero_field(EUC.domain, 1, 2, 0.0)
    g2 = zero_field(EUC.domain, 1, 2, -1.0)
    LinearConnection(g1, g2)
    with pytest.raises(ShapeError):
        LinearConnection(g2, g2)
    with pytest.raises(ShapeError):
        LinearConnection(g1, g1)
    other = get_example("euclidean2")  # a fresh bundle owns a fresh domain
    with pytest.raises(ShapeError):
        LinearConnection(g1, zero_field(other.domain, 1, 2, -1.0))


def test_embed_then_project_is_identity():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    back = project_intrinsic(embed_trivial(gamma))
    xs, ys = CONFORMAL.domain.sample(10, seed=7)
    for x, y in zip(xs, ys):
        assert_allclose(back.coefficients(x, y), gamma.coefficients(x, y),
                        atol=1e-12)


def test_pair_roundtrip_with_generic_second_block():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    delta = _sample_delta(CONFORMAL.domain, seed=3)
    conn = linear_from_pair(gamma, delta)
    gamma_back = project_intrinsic(conn)
    xs, ys = CONFORMAL.domain.sample(10, seed=8)
    for x, y in zip(xs, ys):
        assert_allclose(gamma_back.coefficients(x, y),
                        gamma.coefficients(x, y), atol=1e-10)
        assert_allclose(conn.gamma2(x, y), delta(x, y), atol=0.0)


def test_project_with_explicit_nonlinear():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    delta = _sample_delta(CONFORMAL.domain, seed=4)
    conn = linear_from_pair(gamma, delta)
    quotient, block = project_with_N(conn, induced_nonlinear(conn))
    assert_allclose(quotient.coefficients(X0, Y0),
                    project_intrinsic(conn).coefficients(X0, Y0), atol=1e-12)
    assert block is conn.gamma2


def test_linear_from_pair_rejects_wrong_delta():
    gamma = berwald_connection(EUC.lagrangian)
    with pytest.raises(ShapeError):
        linear_from_pair(gamma, zero_field(EUC.domain, 1, 2, 0.0))


def test_degenerate_regularity_matrix():
    """delta^i_jc = -d^i_j y_c / |y|^2 collapses M to the zero matrix."""
    dom = EUC.domain

    def fn(xs, ys):
        return (-np.einsum("ij,bc->bijc", np.eye(2), ys)
                / np.sum(ys * ys, axis=-1)[:, None, None, None])

    delta = TensorField(dom, 1, 2, -1.0, fn)
    conn = LinearConnection(zero_field(dom, 1, 2, 0.0), delta)
    B, ok = b_matrix(conn, X0, Y0)
    assert not ok
    assert B is None
    assert not is_strongly_regular(conn, X0, Y0)
    with pytest.raises(DegeneracyError):
        b_matrix_field(conn)(X0, Y0)


def test_b_matrix_of_a_batch_with_one_singular_sample():
    """M = id at sample 0 and the zero matrix at sample 1: the batch gives
    (None, False) instead of raising."""
    dom = EUC.domain

    def fn(xs, ys):
        collapse = (xs[:, 0] > 0.5)[:, None, None, None].astype(float)
        return (-collapse * np.einsum("ij,bc->bijc", np.eye(2), ys)
                / np.sum(ys * ys, axis=-1)[:, None, None, None])

    conn = LinearConnection(zero_field(dom, 1, 2, 0.0),
                            TensorField(dom, 1, 2, -1.0, fn))
    xs = np.array([[0.1, 0.2], [0.9, 0.2]])
    ys = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert b_matrix(conn, xs, ys) == (None, False)
    B, ok = b_matrix(conn, xs[:1], ys[:1])
    assert ok
    assert_allclose(B, np.eye(2)[None], atol=0.0)


def test_trivial_embedding_is_strongly_regular():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    conn = embed_trivial(gamma)
    B, ok = b_matrix(conn, X0, Y0)
    assert ok
    assert_allclose(B, np.eye(2), atol=1e-14)
    assert is_strongly_regular(conn, X0, Y0)


def test_induced_nonlinear_frozen_conformal():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    N = induced_nonlinear(embed_trivial(gamma))
    assert_allclose(N.coefficients(X0, Y0), [[1.0, -2.0], [2.0, 1.0]],
                    rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("kind", ["berwald", "chern", "hashiguchi", "cartan"])
def test_classical_kinds_are_strongly_regular(kind):
    conn = classical_linear(CONFORMAL.lagrangian, kind, ANALYTIC)
    xs, ys = CONFORMAL.domain.sample(6, seed=9)
    for x, y in zip(xs, ys):
        assert is_strongly_regular(conn, x, y, tol=1e-9)


def test_classical_second_blocks():
    C = cartan_tensor(QUARTIC.lagrangian, ANALYTIC)
    hashi = classical_linear(QUARTIC.lagrangian, "hashiguchi", ANALYTIC)
    ber = classical_linear(QUARTIC.lagrangian, "berwald", ANALYTIC)
    assert_allclose(hashi.gamma2(X0, Y0), C(X0, Y0), atol=1e-12)
    assert_allclose(ber.gamma2(X0, Y0), np.zeros((2, 2, 2)), atol=0.0)


def test_classical_rejects_unknown_kind():
    with pytest.raises(ValueError):
        classical_linear(EUC.lagrangian, "sasaki")


def test_cartan_tensor_frozen_quartic():
    C = cartan_tensor(QUARTIC.lagrangian, ANALYTIC)
    expected = np.array([[[240.0, -120.0], [-120.0, 60.0]],
                         [[-30.0, 15.0], [15.0, -7.5]]]) / 289.0
    assert_allclose(C(X0, Y0), expected, rtol=1e-11)
    # on the diagonal direction the quartic metric looks Riemannian
    assert_allclose(C(X0, np.array([1.0, 1.0])), np.zeros((2, 2, 2)), atol=1e-13)


def test_cartan_tensor_euclidean_vanishes():
    C = cartan_tensor(EUC.lagrangian, ANALYTIC)
    assert_allclose(C(X0, Y0), np.zeros((2, 2, 2)), atol=1e-14)


def test_cartan_is_killed_by_the_liouville_slot():
    from anifield import liouville_contract
    C = cartan_tensor(QUARTIC.lagrangian, ANALYTIC)
    hooked = liouville_contract(C)
    xs, ys = QUARTIC.domain.sample(8, seed=10)
    for x, y in zip(xs, ys):
        assert np.max(np.abs(hooked(x, y))) < 1e-12


def test_lowered_cartan_is_totally_symmetric():
    C = cartan_tensor(QUARTIC.lagrangian, ANALYTIC)
    phi = QUARTIC.lagrangian.phi_field()
    low = np.einsum("il,ljk->ijk", phi(X0, Y0), C(X0, Y0))
    assert_allclose(low, np.transpose(low, (0, 2, 1)), atol=1e-14)
    assert_allclose(low, np.transpose(low, (1, 0, 2)), atol=1e-14)


def test_covariant_derivative_of_liouville():
    """Classical connections parallelize C horizontally; vertically they
    reproduce the input direction because B is the identity for Berwald."""
    conn = classical_linear(CONFORMAL.lagrangian, "berwald", ANALYTIC)
    Z = liouville_field(CONFORMAL.domain)
    horizontal = covariant_derivative(conn, (np.array([1.0, 0.0]), np.zeros(2)),
                                      Z, X0, Y0, ANALYTIC)
    assert_allclose(horizontal, np.zeros(2), atol=1e-7)
    v = np.array([0.4, -0.9])
    vertical = covariant_derivative(conn, (np.zeros(2), v), Z, X0, Y0, ANALYTIC)
    assert_allclose(vertical, v, atol=1e-9)


def test_covariant_derivative_of_a_batch_matches_its_rows():
    conn = classical_linear(CONFORMAL.lagrangian, "cartan", ANALYTIC)
    Z = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    xs, ys = CONFORMAL.domain.sample(5, seed=21)
    rng = np.random.default_rng(22)
    Xh, Xv = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    batch = covariant_derivative(conn, (Xh, Xv), Z, xs, ys, ANALYTIC)
    assert batch.shape == (5, 2)
    for i in range(5):
        row = covariant_derivative(conn, (Xh[i], Xv[i]), Z, xs[i], ys[i],
                                   ANALYTIC)
        assert_allclose(batch[i], row, rtol=1e-12)


def test_a_linear_connection_keeps_its_hook_and_induced_n():
    conn = classical_linear(QUARTIC.lagrangian, "cartan", ANALYTIC)
    N = induced_nonlinear(conn)
    assert induced_nonlinear(conn) is not N
    assert induced_nonlinear(conn).coefficients is N.coefficients
    assert conn.hooked_vertical_field() is conn.hooked_vertical_field()
    M = conn.regularity_matrix_field()
    assert conn.hooked_vertical_field() in M.operands


def test_linear_roundtrip_builds_each_block_once_per_connection(monkeypatch):
    """Counted by name during one quartic2 check: each connection's N, B
    and M once, and the Cartan tensor hooked with y once for each of the
    two connections that carry it."""
    from collections import Counter

    from anifield.checks import CHECKS
    from anifield.cli import RunConfig

    bundle = get_example("quartic2")
    config = RunConfig("quartic2", ["linear_roundtrip"], samples=16, seed=3)
    built = Counter()
    init = TensorField.__init__

    def counted(field, *args, **kwargs):
        init(field, *args, **kwargs)
        built[field.name] += 1

    monkeypatch.setattr(TensorField, "__init__", counted)
    assert CHECKS["linear_roundtrip"](bundle, config).passed
    for kind in ("berwald", "chern", "hashiguchi", "cartan"):
        for block in ("N", "B", "M"):
            assert built[f"{block}({kind}(quartic2))"] == 1, (block, kind)
    assert built["iota(cartan(quartic2))"] == 2


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_the_classical_connections_hook_each_source_once(monkeypatch,
                                                          method):
    """berwald and hashiguchi share iota of the Berwald coefficients, and
    chern and cartan iota of the Chern coefficients: each is built once
    and kept in the Lagrangian's store."""
    import anifield.linear as linear

    hooked = []
    contract = linear.liouville_contract
    monkeypatch.setattr(linear, "liouville_contract",
                        lambda field: hooked.append(field) or contract(field))
    engine = DiffEngine(method)
    L = get_example("quartic2").lagrangian
    for kind in ("berwald", "hashiguchi", "chern", "cartan"):
        classical_linear(L, kind, engine)
    assert hooked == [berwald_connection(L, engine).coefficients,
                      chern_connection(L, engine).coefficients]
    for source in ("berwald", "chern"):
        L.kept(f"iota_{source}", lambda: pytest.fail("built twice"), engine)
