"""End-to-end acceptance properties for the whole ladder.

Each test covers one numbered claim and prints a single verdict line with
the tolerance it enforces, so `pytest tests/test_acceptance.py -v -s` reads
as a checklist.  Nothing here is tuned per example: every bound is the
documented one.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (ActionFunctional, AnisotropicConnection, DiffEngine,
                      LinearConnection, TensorField, add, berwald_connection,
                      canonical_spray, cartan_tensor, chern_connection,
                      classical_linear, coherence_defect, constant_field,
                      decompose, destroy_residues, dv_phi, embed_trivial,
                      evaluate_action, extend_functional, gauge_symmetrize,
                      geodesic_integrate, induced_nonlinear,
                      is_strongly_regular, landsberg_tensor, legendre_residue,
                      linear_from_pair, liouville_contract, lower_connection,
                      nonlinear_residue, project_intrinsic, raise_connection,
                      reconstruct, restrict_functional, scalar_power, scale,
                      signature_at, tensor_product, torsion,
                      transform_connection, vertical_derivative, wick_metric,
                      zero_field)
from anifield.catalog import example_names, get_example
from anifield.checks import kernel_shift
from anifield.cli import main
from anifield.fields import Y, _is_zero
from anifield.linear import b_matrix

ANALYTIC = DiffEngine("analytic")
FD4 = DiffEngine("fd4")

_BUILTIN = [n for n in example_names() if "(" not in n] + ["wick(0.5)"]
_LAGRANGIAN_NAMES = ["euclidean2", "minkowski2", "conformal2", "quartic2"]


def _verdict(num, name, passed, detail):
    print(f"[criterion {num:02d}] {name}: "
          f"{'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num}: {detail}"


def _skew_ell(domain):
    """ell = (y1 - y2, y1 + y2) with its exact chain."""
    ddell = TensorField(domain, 0, 2, 0.0,
                        lambda xs, ys: np.tile([[1.0, -1.0], [1.0, 1.0]],
                                               (len(xs), 1, 1)),
                        dy=lambda: zero_field(domain, 0, 3, -1.0))
    return TensorField(domain, 0, 1, 1.0,
                       lambda xs, ys: np.stack([ys[:, 0] - ys[:, 1],
                                                ys[:, 0] + ys[:, 1]], axis=-1),
                       dy=ddell, name="skew_ell")


def test_01_euler_ladder_identity():
    """iota_C after dv multiplies by the homogeneity, on every catalog field."""
    worst_fd = 0.0
    worst_exact = 0.0
    for name in _BUILTIN:
        bundle = get_example(name)
        xs, ys = bundle.domain.sample(200, seed=101)
        for field in bundle.fields.values():
            hooked_fd = liouville_contract(vertical_derivative(field, FD4))
            legs = [(hooked_fd, False)]
            if field.chain(Y) is not None:
                hooked = liouville_contract(vertical_derivative(field, ANALYTIC))
                legs.append((hooked, True))
            for x, y in zip(xs, ys):
                base = field(x, y)
                scale_ref = 1.0 + np.max(np.abs(base))
                for hooked_field, exact in legs:
                    defect = np.max(np.abs(hooked_field(x, y)
                                           - field.alpha * base)) / scale_ref
                    if exact:
                        worst_exact = max(worst_exact, defect)
                    else:
                        worst_fd = max(worst_fd, defect)
    ok = worst_fd < 1e-6 and worst_exact < 1e-12
    _verdict(1, "euler ladder identity", ok,
             f"fd4 max rel defect {worst_fd:.2e} < 1e-6, "
             f"analytic {worst_exact:.2e} < 1e-12")


def test_02_decomposition_round_trip():
    euc = get_example("euclidean2")
    targets = [wick_metric(euc.lagrangian, 0.5).field, _skew_ell(euc.domain)]
    xs, ys = euc.domain.sample(200, seed=102)
    worst_total = 0.0
    worst_residue = 0.0
    for field in targets:
        split = decompose(field, round(field.alpha) + field.s, ANALYTIC)
        assert split.base.s == 0
        total = reconstruct(split, ANALYTIC)
        hooks = [liouville_contract(res) for res in split.residues]
        for x, y in zip(xs, ys):
            worst_total = max(worst_total,
                              np.max(np.abs(total(x, y) - field(x, y))))
            for hook in hooks:
                worst_residue = max(worst_residue,
                                    np.max(np.abs(hook(x, y))))
    ok = worst_total < 1e-8 and worst_residue < 1e-6
    _verdict(2, "decomposition round trip", ok,
             f"reconstruction {worst_total:.2e} < 1e-8, "
             f"residue contraction {worst_residue:.2e} < 1e-6")


def test_03_legendre_residue():
    worst_grad = 0.0
    for name in _LAGRANGIAN_NAMES:
        bundle = get_example(name)
        res = legendre_residue(
            vertical_derivative(bundle.lagrangian.field, ANALYTIC), ANALYTIC)
        xs, ys = bundle.domain.sample(200, seed=103)
        for x, y in zip(xs, ys):
            worst_grad = max(worst_grad, np.max(np.abs(res(x, y))))

    euc = get_example("euclidean2")
    res = legendre_residue(_skew_ell(euc.domain), ANALYTIC)
    xs, ys = euc.domain.sample(50, seed=104)
    worst_skew = max(
        np.max(np.abs(res(x, y) - np.array([-y[1], y[0]])))
        for x, y in zip(xs, ys))
    ok = worst_grad < 1e-6 and worst_skew < 1e-8
    _verdict(3, "legendre residue", ok,
             f"gradients {worst_grad:.2e} < 1e-6, "
             f"skew one-form {worst_skew:.2e} < 1e-8")


def test_04_wick_signature_table():
    euc = get_example("euclidean2")
    phi = euc.lagrangian.phi_field()
    x0 = np.zeros(2)
    v = np.array([1.0, 0.0])
    table_ok = True

    g0 = wick_metric(euc.lagrangian, 0.0)
    table_ok &= signature_at(g0, x0, v) == (2, 0, 0)
    g1 = wick_metric(euc.lagrangian, -1.0)
    eigs = np.linalg.eigvalsh(g1.field(x0, v))
    table_ok &= int(np.sum(np.abs(eigs) < 1e-8)) == 1
    g2 = wick_metric(euc.lagrangian, -2.0)
    table_ok &= signature_at(g2, x0, v) == (1, 1, 0)

    worst = 0.0
    xs, ys = euc.domain.sample(200, seed=105)
    for kappa in (0.0, -1.0, -2.0):
        g = wick_metric(euc.lagrangian, kappa)
        flattened = destroy_residues(g.field, engine=ANALYTIC)
        expected = scale(phi, 1.0 + kappa)
        for x, y in zip(xs, ys):
            worst = max(worst,
                        np.max(np.abs(flattened(x, y) - expected(x, y))))
    ok = table_ok and worst < 1e-6
    _verdict(4, "wick signature table", ok,
             f"signatures at v=(1,0) exact, "
             f"destroyed metric vs (1+kappa)phi {worst:.2e} < 1e-6")


def test_05_canonical_spray_and_named_connections():
    conformal = get_example("conformal2")
    G = canonical_spray(conformal.lagrangian, ANALYTIC)
    xs, ys = conformal.domain.sample(200, seed=106)
    worst_spray = max(
        np.max(np.abs(G.coefficients(x, y)
                      - np.array([0.5 * (y[0] ** 2 - y[1] ** 2),
                                  y[0] * y[1]])))
        for x, y in zip(xs, ys))

    # Levi-Civita symbols of exp(2 x1) (dx1^2 + dx2^2), derived directly
    # from the conformal factor gradient
    lam = np.array([1.0, 0.0])
    eye = np.eye(2)
    levi = (np.einsum("ij,k->ijk", eye, lam)
            + np.einsum("ik,j->ijk", eye, lam)
            - np.einsum("jk,i->ijk", eye, lam))
    worst_gamma = 0.0
    for conn in (berwald_connection(conformal.lagrangian, ANALYTIC),
                 chern_connection(conformal.lagrangian, ANALYTIC)):
        for x, y in zip(xs[:50], ys[:50]):
            worst_gamma = max(worst_gamma,
                              np.max(np.abs(conn.coefficients(x, y) - levi)))

    worst_lan = 0.0
    for name in _BUILTIN:
        bundle = get_example(name)
        if bundle.lagrangian is None or not _is_zero(
                dv_phi(bundle.lagrangian, ANALYTIC)):
            continue
        lan = landsberg_tensor(bundle.lagrangian, ANALYTIC)
        bxs, bys = bundle.domain.sample(50, seed=107)
        for x, y in zip(bxs, bys):
            worst_lan = max(worst_lan, np.max(np.abs(lan(x, y))))

    quartic = get_example("quartic2")
    hooked = liouville_contract(landsberg_tensor(quartic.lagrangian, ANALYTIC))
    qxs, qys = quartic.domain.sample(50, seed=108)
    worst_hook = max(np.max(np.abs(hooked(x, y))) for x, y in zip(qxs, qys))

    ok = (worst_spray < 1e-6 and worst_gamma < 1e-6
          and worst_lan < 1e-6 and worst_hook < 1e-6)
    _verdict(5, "canonical spray and named connections", ok,
             f"spray oracle {worst_spray:.2e}, berwald=chern=levi-civita "
             f"{worst_gamma:.2e}, riemannian landsberg {worst_lan:.2e}, "
             f"quartic iota(Lan) {worst_hook:.2e}, all < 1e-6")


def test_06_torsion_residue_identity():
    handmade = get_example("handmadeN")
    N = handmade.nonlinear
    delta = nonlinear_residue(N, ANALYTIC)
    half_tor_y = scale(liouville_contract(torsion(N, ANALYTIC)), 0.5)
    hooked = liouville_contract(delta)
    xs, ys = handmade.domain.sample(200, seed=109)
    worst_eq = max(np.max(np.abs(delta(x, y) - half_tor_y(x, y)))
                   for x, y in zip(xs, ys))
    worst_hook = max(np.max(np.abs(hooked(x, y))) for x, y in zip(xs, ys))
    ok = worst_eq < 1e-8 and worst_hook < 1e-8
    _verdict(6, "torsion residue identity", ok,
             f"residue vs half torsion hook {worst_eq:.2e} < 1e-8, "
             f"iota(residue) {worst_hook:.2e} < 1e-8")


def _polynomial_gamma(domain, rng):
    c = rng.normal(size=(4, 2, 2, 2))

    def fn(xs, ys, c=c):
        x1, x2 = xs[:, 0, None, None, None], xs[:, 1, None, None, None]
        return c[0] + c[1] * x1 + c[2] * x2 + c[3] * x1 * x2

    return AnisotropicConnection(TensorField(domain, 1, 2, 0.0, fn,
                                             name="poly_gamma"))


def test_07_linear_connection_round_trips():
    conformal = get_example("conformal2")
    domain = conformal.domain
    rng = np.random.default_rng(110)
    xs, ys = domain.sample(3, seed=111)
    energy_root = scalar_power(
        get_example("euclidean2").lagrangian.field, -0.5)

    worst_embed = 0.0
    for _ in range(100):
        gamma = _polynomial_gamma(domain, rng)
        back = project_intrinsic(embed_trivial(gamma))
        for x, y in zip(xs, ys):
            worst_embed = max(worst_embed,
                              np.max(np.abs(back.coefficients(x, y)
                                            - gamma.coefficients(x, y))))

    worst_pair = 0.0
    for _ in range(20):
        gamma = _polynomial_gamma(domain, rng)
        block = tensor_product(
            constant_field(domain, 0.1 * rng.normal(size=(2, 2, 2)), 1, 2),
            energy_root, "ijk,->ijk", 1, 2)
        conn = linear_from_pair(gamma, block)
        back = project_intrinsic(conn)
        for x, y in zip(xs, ys):
            worst_pair = max(
                worst_pair,
                np.max(np.abs(back.coefficients(x, y)
                              - gamma.coefficients(x, y))),
                np.max(np.abs(conn.gamma2(x, y) - block(x, y))))

    worst_b = 0.0
    for seed in range(5):
        shift = kernel_shift(domain,
                             np.random.default_rng(seed).normal(size=(2, 2, 2, 2)))
        in_kernel_block = tensor_product(shift, energy_root,
                                         "ijk,->ijk", 1, 2)
        conn = LinearConnection(_polynomial_gamma(domain, rng).coefficients,
                                in_kernel_block)
        for x, y in zip(xs, ys):
            B, regular = b_matrix(conn, x, y)
            assert regular
            worst_b = max(worst_b, np.max(np.abs(B - np.eye(2))))

    worst_induced = 0.0
    regular_ok = True
    for bundle in (conformal, get_example("quartic2")):
        N0 = raise_connection(canonical_spray(bundle.lagrangian, ANALYTIC),
                              ANALYTIC)
        cxs, cys = bundle.domain.sample(25, seed=112)
        for kind in ("berwald", "chern", "hashiguchi", "cartan"):
            conn = classical_linear(bundle.lagrangian, kind, ANALYTIC)
            induced = induced_nonlinear(conn)
            for x, y in zip(cxs, cys):
                regular_ok &= is_strongly_regular(conn, x, y, tol=1e-9)
                worst_induced = max(
                    worst_induced,
                    np.max(np.abs(induced.coefficients(x, y)
                                  - N0.coefficients(x, y))))

    ok = (worst_embed < 1e-8 and worst_pair < 1e-8 and worst_b < 1e-8
          and regular_ok and worst_induced < 1e-6)
    _verdict(7, "linear connection round trips", ok,
             f"quotient of trivial lift {worst_embed:.2e} < 1e-8 on 100 "
             f"polynomial inputs, pair round trip {worst_pair:.2e} < 1e-8, "
             f"B vs identity {worst_b:.2e} < 1e-8, classical kinds regular "
             f"and induce N within {worst_induced:.2e} < 1e-6")


def test_08_cocycle_coherence():
    quad = get_example("quadchart")
    t = quad.transition
    xs, ys = quad.domain.sample(200, seed=113)

    G = canonical_spray(quad.lagrangian, ANALYTIC)
    N = raise_connection(G, ANALYTIC)
    gamma = AnisotropicConnection(
        vertical_derivative(N.coefficients, ANALYTIC))
    ell = quad.lagrangian.ell_field()

    worst_commute = 0.0
    for obj in (G, N, gamma, ell):
        for value in coherence_defect(obj, t, xs, ys, ANALYTIC).values():
            worst_commute = max(worst_commute, value.max())

    Gt = transform_connection(G, t)
    Nt = transform_connection(N, t)
    gt = transform_connection(gamma, t)
    worst_closed = 0.0
    for x, y in zip(xs, ys):
        xt, yt = t.push_point(x, y)
        worst_closed = max(
            worst_closed,
            abs(Gt.coefficients(xt, yt)[0] + yt[1] ** 2),
            abs(Nt.coefficients(xt, yt)[0, 1] + 2.0 * yt[1]),
            abs(gt.coefficients(xt, yt)[0, 1, 1] + 2.0))

    ok = worst_commute < 1e-6 and worst_closed < 1e-8
    _verdict(8, "cocycle coherence", ok,
             f"transform/derivative commutation {worst_commute:.2e} < 1e-6 "
             f"on 200 samples, closed forms {worst_closed:.2e} < 1e-8")


def test_09_functional_laws():
    conformal = get_example("conformal2")

    def spray_density(G, xs, ys):
        g = G.coefficients(xs, ys)
        return np.sum(g * g, axis=-1) + np.sum(ys * ys, axis=-1)

    def nonlinear_density(N, xs, ys):
        n = N.coefficients(xs, ys)
        return np.sum(n * n, axis=(1, 2)) + n[:, 0, 0]

    def gamma_density(gamma, xs, ys):
        g = gamma.coefficients(xs, ys)
        return np.sum(g * g, axis=(1, 2, 3)) + np.sum(g, axis=(1, 2, 3))

    worst_roundtrip = 0.0
    S_spray = ActionFunctional("spray", spray_density, conformal.domain,
                               count=24, seed=114)
    G = canonical_spray(conformal.lagrangian, ANALYTIC)
    direct = evaluate_action(S_spray, G)
    back = restrict_functional(extend_functional(S_spray, ANALYTIC), ANALYTIC)
    worst_roundtrip = max(worst_roundtrip,
                          abs(evaluate_action(back, G) - direct))

    S_nl = ActionFunctional("nonlinear", nonlinear_density, conformal.domain,
                            count=24, seed=115)
    N = raise_connection(G, ANALYTIC)
    back_nl = restrict_functional(extend_functional(S_nl, ANALYTIC), ANALYTIC)
    worst_roundtrip = max(worst_roundtrip,
                          abs(evaluate_action(back_nl, N)
                              - evaluate_action(S_nl, N)))

    S_gamma = ActionFunctional("anisotropic", gamma_density, conformal.domain,
                               count=24, seed=116)
    gamma = berwald_connection(conformal.lagrangian, ANALYTIC)
    back_gamma = restrict_functional(extend_functional(S_gamma), ANALYTIC)
    worst_roundtrip = max(worst_roundtrip,
                          abs(evaluate_action(back_gamma, gamma)
                              - evaluate_action(S_gamma, gamma)))

    sym = gauge_symmetrize(S_gamma, ANALYTIC)
    baseline = evaluate_action(sym, gamma)
    worst_shift = 0.0
    for seed in range(40):
        shift = kernel_shift(conformal.domain,
                             np.random.default_rng(seed).normal(size=(2, 2, 2, 2)))
        shifted = AnisotropicConnection(add(gamma.coefficients, shift))
        worst_shift = max(worst_shift,
                          abs(evaluate_action(sym, shifted) - baseline))
    handmade = get_example("handmadeN")
    S_hand = ActionFunctional("nonlinear", nonlinear_density, handmade.domain,
                              count=24, seed=117)
    sym_hand = gauge_symmetrize(S_hand, ANALYTIC)
    base_hand = evaluate_action(sym_hand, handmade.nonlinear)
    for seed in range(10):
        shift = kernel_shift(handmade.domain,
                             np.random.default_rng(seed).normal(size=(2, 2, 2)),
                             rank=1)
        shifted = type(handmade.nonlinear)(
            add(handmade.nonlinear.coefficients, shift))
        worst_shift = max(worst_shift,
                          abs(evaluate_action(sym_hand, shifted) - base_hand))

    worst_pair = 0.0
    for name in _LAGRANGIAN_NAMES:
        bundle = get_example(name)
        S = ActionFunctional("anisotropic", gamma_density, bundle.domain,
                             count=24, seed=118)
        sym_b = gauge_symmetrize(S, ANALYTIC)
        worst_pair = max(
            worst_pair,
            abs(evaluate_action(sym_b,
                                chern_connection(bundle.lagrangian, ANALYTIC))
                - evaluate_action(sym_b,
                                  berwald_connection(bundle.lagrangian,
                                                     ANALYTIC))))

    ok = worst_roundtrip < 1e-9 and worst_shift < 1e-9 and worst_pair < 1e-9
    _verdict(9, "functional laws", ok,
             f"extend-then-restrict {worst_roundtrip:.2e} < 1e-9, gauge "
             f"blindness over 50 shifts {worst_shift:.2e} < 1e-9, "
             f"chern vs berwald {worst_pair:.2e} < 1e-9")


def test_10_geodesic_flows():
    euc = get_example("euclidean2")
    tr = geodesic_integrate(canonical_spray(euc.lagrangian, ANALYTIC),
                            np.zeros(2), np.array([1.0, 2.0]), 0.01, 100)
    x_end, _ = tr.points[-1]
    endpoint = np.max(np.abs(x_end - np.array([1.0, 2.0])))

    conformal = get_example("conformal2")
    L = conformal.lagrangian
    x0 = np.zeros(2)
    y0 = np.array([0.6, 0.8])
    tr2 = geodesic_integrate(canonical_spray(L, ANALYTIC), x0, y0, 1e-3, 1000)
    L0 = L(x0, y0)
    drift = max(abs(L(x, y) - L0) for x, y in tr2) / abs(L0)

    ok = tr.completed and endpoint < 1e-10 and tr2.completed and drift < 1e-6
    _verdict(10, "geodesic flows", ok,
             f"euclidean endpoint error {endpoint:.2e} < 1e-10, conformal "
             f"relative energy drift {drift:.2e} < 1e-6 over 1000 steps")


def test_11_cli_determinism(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "example": "conformal2",
        "checks": ["euler", "canonical_spray_oracle", "legendre_residue"],
        "samples": 20, "seed": 9,
    }))
    code_a = main(["check", str(good)])
    out_a = capsys.readouterr().out
    code_b = main(["check", str(good)])
    out_b = capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "example": "quartic2", "checks": ["euler"], "samples": 20,
        "seed": 9, "method": "fd4", "tolerance": 1e-14,
    }))
    code_fail = main(["check", str(bad)])
    out_fail = capsys.readouterr().out
    failed_report = json.loads(out_fail)["reports"][0]

    ok = (code_a == 0 and code_b == 0 and out_a == out_b
          and code_fail == 1 and failed_report["pass"] is False)
    _verdict(11, "cli determinism", ok,
             f"byte-identical reports ({len(out_a)} bytes), exit codes "
             f"0/0/1 track pass/fail")
