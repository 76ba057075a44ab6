"""Connection ladder: sprays, torsion residues, named connections, geodesics."""

import gc
import re
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (AnisotropicConnection, AnisotropicMetric, ConicDomain,
                      Connection, DegeneracyError, DiffEngine, DomainError,
                      LevelError, NonlinearConnection, ShapeError, Spray,
                      TensorField, berwald_connection, canonical_spray,
                      cartan_tensor, chern_connection, classical_linear,
                      constant_field, dv_phi, fundamental_tensor,
                      geodesic_integrate, lagrangian_of_metric,
                      landsberg_tensor, liouville_contract, lower_connection,
                      nonlinear_residue, project_kernel, raise_connection,
                      torsion, vertical_derivative, x_derivative, zero_field)
from anifield import cli
from anifield.catalog import get_example
from anifield.checks import applicable_checks

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
CONFORMAL = get_example("conformal2")
HANDMADE = get_example("handmadeN")
X0 = np.array([0.2, -0.3])
Y0 = np.array([1.0, 2.0])


def test_wrappers_validate_type_and_weight():
    with pytest.raises(ShapeError):
        Spray(zero_field(EUC.domain, 1, 0, 1.0))       # sprays sit at weight 2
    with pytest.raises(ShapeError):
        NonlinearConnection(zero_field(EUC.domain, 1, 1, 0.0))
    with pytest.raises(ShapeError):
        AnisotropicConnection(zero_field(EUC.domain, 0, 2, 0.0))


@pytest.mark.parametrize("rung,r,s,alpha,message", [
    (Spray, 1, 0, 1.0, "a spray needs a type-(1, 0) field of homogeneity 2, "
                       "got (1, 0) at alpha=1"),
    (NonlinearConnection, 1, 1, 0.0,
     "a nonlinear connection needs a type-(1, 1) field of homogeneity 1, "
     "got (1, 1) at alpha=0"),
    (AnisotropicConnection, 0, 2, 0.0,
     "an anisotropic connection needs a type-(1, 2) field of homogeneity 0, "
     "got (0, 2) at alpha=0"),
    (AnisotropicConnection, 1, 1, 0.0,
     "an anisotropic connection needs a type-(1, 2) field of homogeneity 0, "
     "got (1, 1) at alpha=0"),
], ids=["spray", "nonlinear", "anisotropic", "anisotropic_rank"])
def test_each_rung_names_its_type_check(rung, r, s, alpha, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        rung(zero_field(EUC.domain, r, s, alpha))


@pytest.mark.parametrize("s,rung", enumerate(
    (Spray, NonlinearConnection, AnisotropicConnection)))
def test_each_rung_is_a_connection_indexed_by_s(s, rung):
    conn = rung(zero_field(EUC.domain, 1, s, 2.0 - s), name="z")
    assert isinstance(conn, Connection)
    assert conn.s == s and conn.name == "z"


@pytest.mark.parametrize("obj", [
    EUC.lagrangian.phi_field(),
    classical_linear(CONFORMAL.lagrangian, "berwald"),
], ids=["tensor_field", "linear_connection"])
def test_non_connections_have_no_rung(obj):
    with pytest.raises(LevelError,
                       match="nothing sits above an anisotropic connection"):
        raise_connection(obj)
    with pytest.raises(LevelError, match="nothing sits below a spray"):
        lower_connection(obj)


def test_raise_then_lower_is_identity_on_sprays():
    G = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    back = lower_connection(raise_connection(G, ANALYTIC))
    xs, ys = CONFORMAL.domain.sample(10, seed=1)
    for x, y in zip(xs, ys):
        assert_allclose(back.coefficients(x, y), G.coefficients(x, y),
                        rtol=1e-8, atol=1e-10)


def test_ladder_ends_raise_level_errors():
    G = canonical_spray(EUC.lagrangian)
    with pytest.raises(LevelError):
        lower_connection(G)
    gamma = berwald_connection(EUC.lagrangian)
    with pytest.raises(LevelError):
        raise_connection(gamma)


def test_flat_examples_have_zero_spray():
    for name in ("euclidean2", "minkowski2", "quartic2"):
        bundle = get_example(name)
        G = canonical_spray(bundle.lagrangian, ANALYTIC)
        xs, ys = bundle.domain.sample(8, seed=2)
        for x, y in zip(xs, ys):
            assert np.max(np.abs(G.coefficients(x, y))) < 1e-9


def test_conformal_spray_frozen_value():
    G = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    assert_allclose(G.coefficients(X0, Y0), [-1.5, 2.0], rtol=1e-9, atol=1e-9)


def test_conformal_spray_ignores_position():
    """The exponential factor drops out of the geodesic coefficients."""
    G = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    a = G.coefficients(np.array([0.0, 0.0]), Y0)
    b = G.coefficients(np.array([0.6, -0.8]), Y0)
    assert_allclose(a, b, rtol=1e-8, atol=1e-9)


def test_berwald_matches_levi_civita_constants():
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC).coefficients
    expected = np.zeros((2, 2, 2))
    expected[0] = [[1.0, 0.0], [0.0, -1.0]]
    expected[1] = [[0.0, 1.0], [1.0, 0.0]]
    xs, ys = CONFORMAL.domain.sample(6, seed=3)
    for x, y in zip(xs, ys):
        assert_allclose(gamma(x, y), expected, rtol=1e-7, atol=1e-8)


def test_chern_equals_berwald_on_conformal():
    b = berwald_connection(CONFORMAL.lagrangian, ANALYTIC).coefficients
    c = chern_connection(CONFORMAL.lagrangian, ANALYTIC).coefficients
    xs, ys = CONFORMAL.domain.sample(6, seed=4)
    for x, y in zip(xs, ys):
        assert_allclose(c(x, y), b(x, y), atol=1e-8)


@pytest.mark.parametrize("name", ["euclidean2", "conformal2", "quartic2"])
def test_landsberg_tensor_vanishes(name):
    bundle = get_example(name)
    lan = landsberg_tensor(bundle.lagrangian, ANALYTIC)
    hooked = liouville_contract(lan)
    xs, ys = bundle.domain.sample(6, seed=5)
    for x, y in zip(xs, ys):
        assert np.max(np.abs(lan(x, y))) < 1e-7
        assert np.max(np.abs(hooked(x, y))) < 1e-7


def test_handmade_torsion_frozen():
    tor = torsion(HANDMADE.nonlinear, ANALYTIC)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = 1.0
    expected[0, 1, 0] = -1.0
    assert_allclose(tor(X0, Y0), expected, atol=1e-10)


def test_handmade_residue_is_half_torsion_hook():
    delta = nonlinear_residue(HANDMADE.nonlinear, ANALYTIC)
    half_hook = liouville_contract(torsion(HANDMADE.nonlinear, ANALYTIC))
    xs, ys = HANDMADE.domain.sample(10, seed=6)
    for x, y in zip(xs, ys):
        assert_allclose(delta(x, y), 0.5 * half_hook(x, y), atol=1e-10)
        # the residue itself lies in the contraction kernel
        assert np.max(np.abs(liouville_contract(delta)(x, y))) < 1e-10


def test_handmade_residue_values():
    delta = nonlinear_residue(HANDMADE.nonlinear, ANALYTIC)
    assert_allclose(delta(X0, Y0), [[1.0, -0.5], [0.0, 0.0]], atol=1e-10)


def test_nonlinear_residue_is_the_kernel_projection():
    N = HANDMADE.nonlinear
    delta = nonlinear_residue(N, ANALYTIC)
    ker = project_kernel(N.coefficients, engine=ANALYTIC)
    assert delta.name == f"residue({N.name})"
    assert delta.rank == ker.rank and delta.alpha == ker.alpha
    xs, ys = HANDMADE.domain.sample(12, seed=3)
    np.testing.assert_array_equal(delta(xs, ys), ker(xs, ys))


def test_geodesics_are_straight_for_flat_spray():
    G = canonical_spray(EUC.lagrangian)
    tr = geodesic_integrate(G, np.zeros(2), Y0, 0.01, 100)
    assert tr.completed
    assert len(tr) == 101
    x_end, y_end = tr.points[-1]
    assert_allclose(x_end, Y0, atol=1e-12)
    assert_allclose(y_end, Y0, atol=1e-12)


def test_geodesic_requires_interior_start():
    mink = get_example("minkowski2")
    G = canonical_spray(mink.lagrangian)
    with pytest.raises(DomainError):
        geodesic_integrate(G, X0, np.array([2.0, 1.0]), 0.01, 5)


def test_geodesic_names_the_refused_initial_state():
    G = canonical_spray(get_example("quartic2").lagrangian)
    with pytest.raises(DomainError, match=re.escape(
            "point x=[0.0, 0.0], y=[1.0, 0.0] is outside domain 'quartic2'")):
        geodesic_integrate(G, np.zeros(2), np.array([1.0, 0.0]), 0.01, 5)


def test_geodesic_refuses_a_non_finite_initial_state():
    G = canonical_spray(EUC.lagrangian)
    with pytest.raises(DomainError, match=re.escape(
            "point x=[nan, 0.0], y=[1.0, 2.0] is outside domain")):
        geodesic_integrate(G, np.array([np.nan, 0.0]), Y0, 0.01, 5)


def test_geodesic_truncates_where_a_stage_overflows():
    """x + dt * y overflows to inf, which no domain contains."""
    G = canonical_spray(EUC.lagrangian)
    with np.errstate(over="ignore"):
        tr = geodesic_integrate(G, np.zeros(2), np.array([1e300, 1e300]),
                                1e10, 3)
    assert not tr.completed
    assert len(tr) == 1


def test_geodesic_truncates_on_exit():
    """A downward push drives y out of the half plane and stops the flow."""
    dom_half = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    push = TensorField(dom_half, 1, 0, 2.0,
                       lambda xs, ys: np.stack(
                           [np.zeros(len(ys)), np.sum(ys * ys, axis=-1)],
                           axis=-1))
    tr = geodesic_integrate(Spray(push), np.zeros(2),
                            np.array([1.0, 1.0]), 0.05, 400)
    assert not tr.completed
    assert 1 < len(tr) < 401


def test_trajectory_is_iterable():
    G = canonical_spray(EUC.lagrangian)
    tr = geodesic_integrate(G, np.zeros(2), Y0, 0.1, 3)
    pts = list(tr)
    assert len(pts) == len(tr)
    assert_allclose(pts[0][0], np.zeros(2))


# ---------------------------------------------------------------------------
# objects derived from a Lagrangian are built once


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_canonical_spray_wraps_one_coefficients_field_per_method(method):
    L = get_example("conformal2").lagrangian
    first = canonical_spray(L, DiffEngine(method))
    second = canonical_spray(L, DiffEngine(method))
    assert first is not second
    assert first.coefficients is second.coefficients


def test_the_sprays_of_the_two_methods_differ():
    L = get_example("conformal2").lagrangian
    assert (canonical_spray(L, DiffEngine("analytic")).coefficients
            is not canonical_spray(L, DiffEngine("fd4")).coefficients)


def test_renaming_a_spray_does_not_rename_the_next_one():
    L = get_example("conformal2").lagrangian
    canonical_spray(L, ANALYTIC).name = "renamed"
    assert canonical_spray(L, ANALYTIC).name == "spray(conformal2)"


@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("build", [berwald_connection, chern_connection],
                         ids=["berwald", "chern"])
def test_a_named_connection_wraps_one_coefficients_field_per_method(
        build, method):
    L = get_example("conformal2").lagrangian
    first = build(L, DiffEngine(method))
    second = build(L, DiffEngine(method))
    assert first is not second
    assert first.coefficients is second.coefficients
    other = "fd4" if method == "analytic" else "analytic"
    assert build(L, DiffEngine(other)).coefficients is not first.coefficients


@pytest.mark.parametrize("build,name", [(berwald_connection, "berwald"),
                                        (chern_connection, "chern")])
def test_renaming_a_named_connection_does_not_rename_the_next_one(build,
                                                                  name):
    L = get_example("conformal2").lagrangian
    build(L, ANALYTIC).name = "renamed"
    assert build(L, ANALYTIC).name == f"{name}(conformal2)"


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_n_and_dv_phi_outlive_the_graphs_that_built_them(method):
    """Under fd4 N = dv G and dv phi are stencils, which the field they
    differentiate holds only weakly; the Lagrangian keeps them, so every
    later check gets the same nodes, with their memos."""
    engine = DiffEngine(method)
    L = get_example("conformal2").lagrangian
    kept = [weakref.ref(field) for field in (
        raise_connection(canonical_spray(L, engine), engine).coefficients,
        vertical_derivative(L.phi_field(), engine),
        berwald_connection(L, engine).coefficients,
        chern_connection(L, engine).coefficients)]
    gc.collect()
    N, dphi, berwald, chern = [ref() for ref in kept]
    assert None not in (N, dphi, berwald, chern)
    assert raise_connection(canonical_spray(L, engine),
                            engine).coefficients is N
    assert vertical_derivative(L.phi_field(), engine) is dphi
    assert vertical_derivative(N, engine) is berwald


def test_fd4_derivatives_of_a_field_are_one_node():
    phi = get_example("conformal2").lagrangian.phi_field()
    for derivative in (vertical_derivative, x_derivative):
        assert (derivative(phi, DiffEngine("fd4"))
                is derivative(phi, DiffEngine("fd4")))


def test_a_stencil_taken_under_analytic_is_not_returned_under_fd4():
    phi = get_example("conformal2").lagrangian.phi_field()
    analytic = x_derivative(phi, ANALYTIC)      # phi has no x-chain
    assert analytic.name == "fd_dx(phi(conformal2))"
    assert x_derivative(phi, DiffEngine("analytic")) is analytic
    assert x_derivative(phi, DiffEngine("fd4")) is not analytic


def test_the_inverse_of_phi_is_one_node_and_validation_runs_every_call():
    L = get_example("quartic2").lagrangian
    first, second = fundamental_tensor(L), fundamental_tensor(L)
    assert first is not second
    assert first.inverse_field() is second.inverse_field()
    flat = lagrangian_of_metric(AnisotropicMetric(constant_field(
        EUC.domain, [[1.0, 0.0], [0.0, 0.0]], 0, 2)))
    for _ in range(2):
        with pytest.raises(DegeneracyError):
            fundamental_tensor(flat).check_at(X0, Y0)


@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("name", ["conformal2", "quartic2"])
def test_the_caches_add_no_reference_cycle(name, method):
    """Everything a bundle caches dies with it by reference counting
    alone, without the cyclic collector."""
    engine = DiffEngine(method)
    gc.collect()
    gc.disable()
    try:
        bundle = get_example(name)
        L = bundle.lagrangian
        spray = canonical_spray(L, engine)
        phi = L.phi_field()
        stencil = x_derivative(phi, engine)
        berwald = berwald_connection(L, engine).coefficients
        chern = chern_connection(L, engine).coefficients
        cartan = cartan_tensor(L, engine)
        dphi = vertical_derivative(phi, engine)
        samples = bundle.domain.sample(3, 0)
        for field in (spray, berwald, chern, cartan):
            field(*samples)
        refs = [weakref.ref(obj) for obj in (
            L, spray.coefficients, phi, stencil, berwald, chern, cartan,
            dphi, bundle.domain)]
        del (bundle, L, spray, phi, stencil, berwald, chern, cartan, dphi,
             field)
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one store per Lagrangian

_KINDS = {
    "ell": lambda L, e: L.ell_field(),
    "phi": lambda L, e: L.phi_field(),
    "phi_inverse": lambda L, e: fundamental_tensor(L).inverse_field(),
    "spray": lambda L, e: canonical_spray(L, e).coefficients,
    "nonlinear": lambda L, e: raise_connection(
        canonical_spray(L, e), e).coefficients,
    "dphi": dv_phi,
    "berwald": lambda L, e: berwald_connection(L, e).coefficients,
    "chern": lambda L, e: chern_connection(L, e).coefficients,
    "cartan": cartan_tensor,
}


@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("name", ["conformal2", "quartic2"])
def test_the_store_holds_one_node_per_kind_and_method(name, method):
    engine = DiffEngine(method)
    L = get_example(name).lagrangian
    first = {kind: get(L, engine) for kind, get in _KINDS.items()}
    again = {kind: get(L, DiffEngine(method)) for kind, get in _KINDS.items()}
    assert all(again[kind] is first[kind] for kind in _KINDS)
    assert sorted(kind for kind, _ in L._store) == sorted(_KINDS)
    assert all(node is first[kind] for (kind, _), node in L._store.items())
    assert L.kept("spray", lambda: pytest.fail("built twice"),
                  engine) is first["spray"]


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_chern_and_cartan_share_one_dv_phi(method):
    engine = DiffEngine(method)
    L = get_example("quartic2").lagrangian
    chern_connection(L, engine)
    cartan = cartan_tensor(L, engine)
    assert cartan_tensor(L, DiffEngine(method)) is cartan
    dphi = dv_phi(L, engine)
    assert vertical_derivative(L.phi_field(), engine) is dphi
    assert any(op is dphi for op in cartan.operands[1].operands)
    assert sum(kind == "dphi" for kind, _ in L._store) == 1


_CORE = {"ell", "phi", "phi_inverse"}
_PER_METHOD = {"spray", "nonlinear", "dphi", "berwald", "chern", "cartan",
               "iota_berwald", "iota_chern"}


@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("name", ["conformal2", "quartic2"])
def test_the_store_after_a_report(monkeypatch, name, method):
    """What a report keeps on its energy.  ell, phi and its inverse are read
    through chains, so they sit under "analytic"; landsberg_kernel reads the
    analytic dv phi under either method.  A new kept kind shows here."""
    built = []
    monkeypatch.setattr(cli, "get_example",
                        lambda n: built.append(get_example(n)) or built[-1])
    cli.run_suite(cli.RunConfig(
        example=name, checks=applicable_checks(get_example(name)),
        samples=4, seed=0, tolerance=1e-6, method=method))
    expected = ({(kind, "analytic") for kind in _CORE | {"dphi"}}
                | {(kind, method) for kind in _PER_METHOD})
    assert set(built[0].lagrangian._store) == expected
