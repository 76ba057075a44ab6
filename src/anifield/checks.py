"""Named verification checks runnable on the built-in examples.

Each check measures a worst-case defect of an identity over seeded
samples and passes when the defect stays under the configured tolerance
(the signature table instead counts mismatched sign patterns).  The CLI
composes these into reports; the vocabulary lives in CHECKS and
applicability is decided per bundle by `applicable_checks`.

A check is added as a body under `@_check(name, *needs)`; it applies to
a bundle on which none of the attributes named in `needs` is None.  The
body gets `(bundle, engine, xs, ys, config, feed)` and only feeds
defects; the runner the decorator returns builds the engine, draws the
samples, keeps the worst defect and writes the `CheckReport`.  A body
returns its sample count only when that is not `len(xs)`.
"""

from dataclasses import dataclass

import numpy as np

from .atlas import coherence_defect, transform_connection
from .connections import (AnisotropicConnection, NonlinearConnection, Spray,
                          berwald_connection, canonical_spray,
                          chern_connection, geodesic_integrate,
                          landsberg_tensor, nonlinear_residue,
                          raise_connection, torsion)
from .errors import LevelError
from .fields import (DiffEngine, TensorField, _first, _row_dot, _row_max_abs,
                     add, constant_field, homogeneity_defect,
                     liouville_contract, scalar_power, scale, tensor_product,
                     zero_field)
from .functionals import (ActionFunctional, evaluate_action,
                          extend_functional, gauge_symmetrize,
                          restrict_functional)
from .ladder import decompose, destroy_residues, reconstruct
from .linear import (classical_linear, induced_nonlinear,
                     is_strongly_regular, project_intrinsic)
from .metrics import (lagrangian_of_metric, legendre_of, legendre_residue,
                      signature_at)

_ANALYTIC = DiffEngine("analytic")


@dataclass
class CheckReport:
    check: str
    max_abs_defect: float
    samples_used: int
    passed: bool
    worst_sample: dict | None

    def as_dict(self):
        return {
            "check": self.check,
            "max_abs_defect": float(self.max_abs_defect),
            "pass": bool(self.passed),
            "samples_used": int(self.samples_used),
            "worst_sample": self.worst_sample,
        }


class _Worst:
    """Worst defect over everything fed, in the order it was fed.

    A feed gives defects for one sample (x, y) or for a (B, dim) batch; a
    batch's defects have one row per sample, with one column per quantity
    compared there.  The first largest defect wins, reading each feed row
    by row, and a NaN defect counts as the worst of all, so that a NaN can
    never pass.
    """

    def __init__(self):
        self.value = 0.0
        self.sample = None

    def feed(self, defects, xs, ys):
        if np.isnan(self.value):
            return
        xs = np.reshape(np.asarray(xs, dtype=float), (-1, np.shape(xs)[-1]))
        ys = np.reshape(np.asarray(ys, dtype=float), xs.shape)
        rows = np.asarray(defects, dtype=float).reshape(len(xs), -1)
        flat = rows.ravel()
        nan = np.isnan(flat)
        i = _first(nan) if nan.any() else int(np.argmax(flat))
        if self.sample is None or nan[i] or flat[i] > self.value:
            row = i // rows.shape[1]
            self.value = float(flat[i])
            self.sample = {"x": xs[row].tolist(), "y": ys[row].tolist()}


def _columns(*values):
    """Per-sample defects of several compared quantities, one column each:
    the largest |entry| of each sample's components."""
    return np.stack([_row_max_abs(v) for v in values], axis=1)


CHECKS = {}
_NEEDS = {}


def _check(name, *needs, tolerance=None):
    """Register a check body as `CHECKS[name]`, applicable to the bundles
    on which every attribute in `needs` is set; a `tolerance` given here
    replaces the configured one."""
    def register(body):
        def run(bundle, config):
            xs, ys = bundle.domain.sample(config.samples, config.seed)
            worst = _Worst()
            used = body(bundle, DiffEngine(config.method),
                        xs, ys, config, worst.feed)
            tol = config.tolerance if tolerance is None else tolerance
            return CheckReport(name, worst.value,
                               len(xs) if used is None else used,
                               worst.value < tol, worst.sample)
        run.__name__, run.__doc__ = body.__name__, body.__doc__
        CHECKS[name] = run
        _NEEDS[name] = needs
        return run
    return register


def euclidean_energy_field(domain):
    """<y, y> with its full chain, on any domain; handy shift ingredient."""
    ddell = constant_field(domain, 2.0 * np.eye(domain.dim), 0, 2)
    ell = TensorField(domain, 0, 1, 1.0, lambda xs, ys: 2.0 * ys, dy=ddell,
                      dx=lambda: zero_field(domain, 0, 2, 1.0), name="2y")
    return TensorField(domain, 0, 0, 2.0,
                       lambda xs, ys: _row_dot(ys, ys),
                       dy=ell, dx=lambda: zero_field(domain, 0, 1, 2.0),
                       name="<y,y>")


def kernel_shift(domain, coeffs, rank=2):
    """An exactly in-kernel shift of covariant rank 1 or 2 at the matching
    connection-ladder homogeneity (2 - rank), from constant seed coefficients.

    Starts from W = (c . y) scaled to the right homogeneity by a power of
    |y| (full analytic chain, so the kernel projection is exact) and strips
    the derivative-image part.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    W = liouville_contract(
        constant_field(domain, coeffs, 1, coeffs.ndim - 1, name="c"))
    if rank == 2:
        W = tensor_product(W, scalar_power(euclidean_energy_field(domain), -0.5),
                           "ijk,->ijk", 1, 2, name="shift_raw")
    elif rank != 1:
        raise LevelError(f"kernel shifts come in ranks 1 and 2, not {rank}")
    split = decompose(W, round(W.alpha) + 1, _ANALYTIC)
    return split.residues[-1]


@_check("euler")
def check_euler(bundle, engine, xs, ys, config, feed):
    """Euler defect dv(T) . y - alpha T, relative, over every bundle field."""
    for field in bundle.fields.values():
        defect = homogeneity_defect(field, xs, ys, engine)
        ref = 1.0 + _row_max_abs(field(xs, ys))
        feed(_row_max_abs(defect) / ref, xs, ys)


@_check("ladder_roundtrip", "lagrangian")
def check_ladder_roundtrip(bundle, engine, xs, ys, config, feed):
    """Ground-floor split and reassembly of the bundle's metric objects."""
    targets = [bundle.lagrangian.ell_field(), bundle.lagrangian.phi_field()]
    if bundle.metric is not None:
        targets.append(bundle.metric.field)
    for field in targets:
        split = decompose(field, round(field.alpha) + field.s, engine)
        rebuilt = reconstruct(split, engine)
        kernels = [liouville_contract(res) for res in split.residues]
        feed(_columns(rebuilt(xs, ys) - field(xs, ys),
                      *(hooked(xs, ys) for hooked in kernels)), xs, ys)


@_check("legendre_residue", "lagrangian")
def check_legendre_residue(bundle, engine, xs, ys, config, feed):
    """The gradient of an energy has no Legendre-type residue."""
    res = legendre_residue(legendre_of(bundle.lagrangian), engine)
    feed(_row_max_abs(res(xs, ys)), xs, ys)


@_check("wick_identity", "metric", "kappa")
def check_wick_identity(bundle, engine, xs, ys, config, feed):
    """Hooking y into a wick metric scales the base by 1 + kappa; destroying
    its residues recovers (1 + kappa) phi; its energy is (1 + kappa) L / 2."""
    kappa = bundle.kappa
    g = bundle.metric.field
    phi = bundle.lagrangian.phi_field()
    L = bundle.lagrangian.field
    hooked = liouville_contract(g)
    destroyed = destroy_residues(g, engine=engine)
    energy = lagrangian_of_metric(bundle.metric).field
    target = (1.0 + kappa) * phi(xs, ys)
    feed(_columns(hooked(xs, ys) - (target @ ys[:, :, None])[:, :, 0],
                  destroyed(xs, ys) - target,
                  energy(xs, ys) - (1.0 + kappa) * L(xs, ys) / 2.0), xs, ys)


@_check("signature_table", "metric", "kappa", tolerance=1.0)
def check_signature_table(bundle, engine, xs, ys, config, feed):
    """Eigenvalue signs of the wick metric follow the kappa thresholds.

    The defect is the number of samples whose signature disagrees with the
    prediction, so the check passes only with zero mismatches.
    """
    kappa = bundle.kappa
    p, m, z = signature_at(bundle.lagrangian.phi_field(), xs[0], ys[0])
    if kappa > -1.0:
        expected = (p, m, z)
    elif kappa == -1.0:
        expected = (p - 1, m, z + 1)
    else:
        expected = (p - 1, m + 1, z)
    feed(0.0, xs[0], ys[0])
    counts = signature_at(bundle.metric, xs, ys)
    wrong = np.any([c != e for c, e in zip(counts, expected)], axis=0)
    if wrong.any():
        last = len(wrong) - 1 - _first(wrong[::-1])
        feed(float(np.sum(wrong)), xs[last], ys[last])


@_check("canonical_spray_oracle", "lagrangian")
def check_canonical_spray_oracle(bundle, engine, xs, ys, config, feed):
    """Canonical spray against its closed form (zero for x-independent
    energies)."""
    spray = canonical_spray(bundle.lagrangian, engine)
    oracle = bundle.spray_oracle
    if oracle is None:
        oracle = lambda xs, ys: np.zeros_like(ys)
    feed(_row_max_abs(spray(xs, ys) - oracle(xs, ys)), xs, ys)


@_check("landsberg_kernel", "lagrangian")
def check_landsberg_kernel(bundle, engine, xs, ys, config, feed):
    """iota kills the Landsberg tensor; Riemannian energies kill it outright."""
    lan = landsberg_tensor(bundle.lagrangian, engine)
    hooked = liouville_contract(lan)
    compared = [hooked(xs, ys)]
    if bundle.riemannian:
        compared.append(lan(xs, ys))
    feed(_columns(*compared), xs, ys)


@_check("torsion_residue", "nonlinear")
def check_torsion_residue(bundle, engine, xs, ys, config, feed):
    """residue(N) = (1/2) torsion . y, and iota kills the residue."""
    N = bundle.nonlinear
    res = nonlinear_residue(N, engine)
    half_tor = scale(liouville_contract(torsion(N, engine)), 0.5)
    hooked = liouville_contract(res)
    feed(_columns(res(xs, ys) - half_tor(xs, ys), hooked(xs, ys)), xs, ys)


@_check("cocycle_coherence", "transition")
def check_cocycle_coherence(bundle, engine, xs, ys, config, feed):
    """Transform-then-operate equals operate-then-transform across the
    bundle's transition, plus the closed cocycle forms on the flat plane."""
    t = bundle.transition
    flat_spray = Spray(zero_field(bundle.domain, 1, 0, 2.0))
    flat_N = NonlinearConnection(zero_field(bundle.domain, 1, 1, 1.0))
    flat_gamma = AnisotropicConnection(zero_field(bundle.domain, 1, 2, 0.0))
    moved_spray = transform_connection(flat_spray, t)
    moved_N = transform_connection(flat_N, t)
    moved_gamma = transform_connection(flat_gamma, t)
    xts, yts = t.push_point(xs, ys)
    G = moved_spray(xts, yts)
    N_expect = np.zeros((len(xs), 2, 2))
    N_expect[:, 0, 1] = -2.0 * yts[:, 1]
    gamma_expect = np.zeros((2, 2, 2))
    gamma_expect[0, 1, 1] = -2.0
    feed(_columns(G[:, 0] + yts[:, 1] ** 2, G[:, 1],
                  moved_N(xts, yts) - N_expect,
                  moved_gamma(xts, yts) - gamma_expect), xs, ys)

    for obj in (flat_spray, flat_N, flat_gamma,
                bundle.lagrangian.ell_field()):
        for defect in coherence_defect(obj, t, xs, ys, engine).values():
            feed(defect, xs, ys)


@_check("linear_roundtrip", "lagrangian")
def check_linear_roundtrip(bundle, engine, xs, ys, config, feed):
    """The four classical linear connections are strongly regular, induce
    the canonical N, and project back onto their source connections."""
    L = bundle.lagrangian
    Nhat = raise_connection(canonical_spray(L, engine), engine).coefficients
    sources = {"berwald": berwald_connection(L, engine).coefficients,
               "chern": chern_connection(L, engine).coefficients}
    for kind in ("berwald", "chern", "hashiguchi", "cartan"):
        conn = classical_linear(L, kind, engine)
        induced = induced_nonlinear(conn).coefficients
        back = project_intrinsic(conn).coefficients
        source = sources["berwald" if kind in ("berwald", "hashiguchi")
                         else "chern"]
        # An irregular sample scores 1; a regular one scores 0 there,
        # which never beats the (non-negative) defects fed beside it.
        irregular = ~is_strongly_regular(conn, xs, ys, tol=1e-9)
        feed(np.column_stack([
            irregular.astype(float),
            _columns(induced(xs, ys) - Nhat(xs, ys),
                     back(xs, ys) - source(xs, ys))]), xs, ys)


@_check("functional_laws", "lagrangian")
def check_functional_laws(bundle, engine, xs, ys, config, feed):
    """Extend-then-restrict is the identity; gauge-symmetrized functionals
    ignore in-kernel shifts and cannot tell Chern from Berwald."""
    L = bundle.lagrangian
    domain = bundle.domain
    count = min(config.samples, 32)

    def spray_density(G, xs, ys):
        g = G(xs, ys)
        return _row_dot(g, g) + _row_dot(ys, ys)

    spray_action = ActionFunctional("spray", spray_density, domain,
                                    count=count, seed=config.seed)
    spray = canonical_spray(L, engine)
    direct = evaluate_action(spray_action, spray)
    roundtrip = evaluate_action(
        restrict_functional(extend_functional(spray_action, engine), engine),
        spray)
    feed(abs(direct - roundtrip) / (1.0 + abs(direct)),
         spray_action.xs[0], spray_action.ys[0])

    gamma_action = ActionFunctional(
        "anisotropic",
        lambda g, xs, ys: np.sum((g(xs, ys) ** 2).reshape(len(xs), -1),
                                 axis=1),
        domain, count=count, seed=config.seed + 7)
    sym = gauge_symmetrize(gamma_action, engine)
    berwald = berwald_connection(L, engine)
    base_val = evaluate_action(sym, berwald)

    rng = np.random.default_rng(config.seed + 13)
    shift = kernel_shift(domain, rng.normal(size=(2, 2, 2, 2)))
    shifted = AnisotropicConnection(add(berwald.coefficients, shift))
    feed(abs(evaluate_action(sym, shifted) - base_val) / (1.0 + abs(base_val)),
         gamma_action.xs[0], gamma_action.ys[0])

    chern = chern_connection(L, engine)
    feed(abs(evaluate_action(sym, chern) - base_val) / (1.0 + abs(base_val)),
         gamma_action.xs[0], gamma_action.ys[0])
    return count


@_check("geodesic_conservation", "lagrangian")
def check_geodesic_conservation(bundle, engine, xs, ys, config, feed):
    """The energy is constant along canonical-spray geodesics."""
    L = bundle.lagrangian
    spray = canonical_spray(L, engine)
    path = geodesic_integrate(spray, xs[0], ys[0], 1e-3, 200)
    energy = L.field(path.xs, path.ys)
    e0 = float(energy[0])
    feed(np.abs(energy - e0) / max(1e-12, abs(e0)), path.xs, path.ys)
    if not path.completed:
        feed(1.0, xs[0], ys[0])
    return len(path)


def applicable_checks(bundle):
    return sorted(name for name, needs in _NEEDS.items()
                  if all(getattr(bundle, need) is not None for need in needs))
