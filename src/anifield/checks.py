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

`feed(*compared, at=None, relative_to=None)` is the one way a body
reports a defect.  A compared TensorField is evaluated at `at`, a pair
(xs, ys) of (B, dim) arrays or one sample, by default the check's own
samples; anything else holds one row per sample of `at`, or is a number
for one sample.  A difference is fed as `subtract(a, b)`.  Each (sample,
quantity) defect is the largest |entry| of its row; given `relative_to`
(a field, an array or a number), it is divided by 1 + the largest |entry|
of that sample's reference.  The worst defect is the first largest, read
feed by feed and row by row, starting at the check's first sample with
0.0; a NaN defect is the worst of all, so that a NaN can never pass.
"""

from dataclasses import dataclass

import numpy as np

from .atlas import coherence_defect, transform_connection
from .connections import (AnisotropicConnection, NonlinearConnection, Spray,
                          berwald_connection, canonical_spray,
                          chern_connection, dv_phi, geodesic_integrate,
                          landsberg_tensor, nonlinear_residue,
                          raise_connection, torsion)
from .errors import LevelError
from .fields import (DiffEngine, TensorField, _first, _is_zero, _row_dot,
                     _row_max_abs, add, constant_field, form_field,
                     homogeneity_defect, liouville_contract, scalar_power,
                     scale, subtract, tensor_product, zero_field)
from .functionals import (ActionFunctional, evaluate_action,
                          extend_functional, gauge_symmetrize,
                          restrict_functional)
from .ladder import decompose, destroy_residues, reconstruct
from .linear import classical_linear, induced_nonlinear, project_intrinsic
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
    """Worst defect over everything fed to `feed`; see the module
    docstring for what a feed takes and how its defects are read."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys
        self.value = 0.0
        self.sample = {"x": xs[0].tolist(), "y": ys[0].tolist()}

    def feed(self, *compared, at=None, relative_to=None):
        xs, ys = (self.xs, self.ys) if at is None else at
        xs = np.reshape(np.asarray(xs, dtype=float), (-1, self.xs.shape[1]))
        ys = np.reshape(np.asarray(ys, dtype=float), xs.shape)

        def largest(values):
            if isinstance(values, TensorField):
                values = values(xs, ys)
            return _row_max_abs(np.reshape(values, (len(xs), -1)))

        # evaluate even after a NaN: a field that raises must still raise
        rows = np.stack([largest(v) for v in compared], axis=1)
        if relative_to is not None:
            rows = rows / (1.0 + largest(relative_to))[:, None]
        if np.isnan(self.value):
            return
        flat = rows.ravel()
        nan = np.isnan(flat)
        i = _first(nan) if nan.any() else int(np.argmax(flat))
        if nan[i] or flat[i] > self.value:
            row = i // rows.shape[1]
            self.value = float(flat[i])
            self.sample = {"x": xs[row].tolist(), "y": ys[row].tolist()}


CHECKS = {}
_NEEDS = {}


def _check(name, *needs, tolerance=None):
    """Register a check body as `CHECKS[name]`, applicable to the bundles
    on which every attribute in `needs` is set; a `tolerance` given here
    replaces the configured one."""
    def register(body):
        def run(bundle, config):
            xs, ys = bundle.domain.sample(config.samples, config.seed)
            worst = _Worst(xs, ys)
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


def kernel_shift(domain, coeffs, rank=2):
    """An exactly in-kernel shift of covariant rank 1 or 2 at the matching
    connection-ladder homogeneity (2 - rank), from constant seed coefficients
    of type (1, rank + 1) on `domain`.

    Starts from W = (c . y), for rank 2 scaled to homogeneity 0 by
    |y|^-1, the power of the form leaf |y|^2 = form_field(I, 2) (exact
    chains, so the kernel projection is exact), and strips the
    derivative-image part.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    W = liouville_contract(
        constant_field(domain, coeffs, 1, coeffs.ndim - 1, name="c"))
    if rank == 2:
        energy = form_field(domain, np.eye(domain.dim), 2, name="|y|^2")
        W = tensor_product(W, scalar_power(energy, -0.5),
                           "ijk,->ijk", 1, 2, name="shift_raw")
    elif rank != 1:
        raise LevelError(f"kernel shifts come in ranks 1 and 2, not {rank}")
    split = decompose(W, round(W.alpha) + 1, _ANALYTIC)
    return split.residues[-1]


@_check("euler")
def check_euler(bundle, engine, xs, ys, config, feed):
    """Euler defect dv(T) . y - alpha T, relative, over every bundle field."""
    for field in bundle.fields.values():
        feed(homogeneity_defect(field, xs, ys, engine), relative_to=field)


@_check("ladder_roundtrip", "lagrangian")
def check_ladder_roundtrip(bundle, engine, xs, ys, config, feed):
    """Ground-floor split and reassembly of the bundle's metric objects."""
    targets = [bundle.lagrangian.ell_field(), bundle.lagrangian.phi_field()]
    if bundle.metric is not None:
        targets.append(bundle.metric.field)
    for field in targets:
        split = decompose(field, round(field.alpha) + field.s, engine)
        feed(subtract(reconstruct(split, engine), field),
             *map(liouville_contract, split.residues))


@_check("legendre_residue", "lagrangian")
def check_legendre_residue(bundle, engine, xs, ys, config, feed):
    """The gradient of an energy has no Legendre-type residue."""
    feed(legendre_residue(legendre_of(bundle.lagrangian), engine))


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
    feed(hooked(xs, ys) - (target @ ys[:, :, None])[:, :, 0],
         destroyed(xs, ys) - target,
         energy(xs, ys) - (1.0 + kappa) * L(xs, ys) / 2.0)


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
    counts = signature_at(bundle.metric, xs, ys)
    wrong = np.any([c != e for c, e in zip(counts, expected)], axis=0)
    if wrong.any():
        last = len(wrong) - 1 - _first(wrong[::-1])
        feed(float(np.sum(wrong)), at=(xs[last], ys[last]))


@_check("canonical_spray_oracle", "lagrangian")
def check_canonical_spray_oracle(bundle, engine, xs, ys, config, feed):
    """Canonical spray against its closed form (zero for x-independent
    energies)."""
    spray = canonical_spray(bundle.lagrangian, engine).coefficients
    oracle = bundle.spray_oracle
    feed(spray if oracle is None else spray(xs, ys) - oracle(xs, ys))


@_check("landsberg_kernel", "lagrangian")
def check_landsberg_kernel(bundle, engine, xs, ys, config, feed):
    """iota kills the Landsberg tensor; Riemannian energies, whose analytic
    dv phi is a structural zero (Deicke), kill it outright."""
    lan = landsberg_tensor(bundle.lagrangian, engine)
    compared = [liouville_contract(lan)]
    if _is_zero(dv_phi(bundle.lagrangian, _ANALYTIC)):
        compared.append(lan)
    feed(*compared)


@_check("torsion_residue", "nonlinear")
def check_torsion_residue(bundle, engine, xs, ys, config, feed):
    """residue(N) = (1/2) torsion . y, and iota kills the residue."""
    N = bundle.nonlinear
    res = nonlinear_residue(N, engine)
    half_tor = scale(liouville_contract(torsion(N, engine)), 0.5)
    feed(subtract(res, half_tor), liouville_contract(res))


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
    feed(G[:, 0] + yts[:, 1] ** 2, G[:, 1], moved_N(xts, yts) - N_expect,
         moved_gamma(xts, yts) - gamma_expect)

    for obj in (flat_spray, flat_N, flat_gamma,
                bundle.lagrangian.ell_field()):
        for defect in coherence_defect(obj, t, xs, ys, engine).values():
            feed(defect)


@_check("linear_roundtrip", "lagrangian")
def check_linear_roundtrip(bundle, engine, xs, ys, config, feed):
    """Each classical linear connection is strongly regular, |Gamma2 . y| = 0,
    induces the canonical N and projects back onto its source connection."""
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
        feed(conn.hooked_vertical_field(), subtract(induced, Nhat),
             subtract(back, source))


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
    feed(direct - roundtrip, at=(spray_action.xs[0], spray_action.ys[0]),
         relative_to=direct)

    gamma_action = ActionFunctional(
        "anisotropic",
        lambda g, xs, ys: np.sum((g(xs, ys) ** 2).reshape(len(xs), -1),
                                 axis=1),
        domain, count=count, seed=config.seed + 7)
    sym = gauge_symmetrize(gamma_action, engine)
    berwald = berwald_connection(L, engine)
    base_val = evaluate_action(sym, berwald)

    rng = np.random.default_rng(config.seed + 13)
    shift = kernel_shift(domain, rng.normal(size=(domain.dim,) * 4))
    shifted = AnisotropicConnection(add(berwald.coefficients, shift))
    first = (gamma_action.xs[0], gamma_action.ys[0])
    feed(evaluate_action(sym, shifted) - base_val, at=first,
         relative_to=base_val)
    chern = chern_connection(L, engine)
    feed(evaluate_action(sym, chern) - base_val, at=first,
         relative_to=base_val)
    return count


@_check("geodesic_conservation", "lagrangian")
def check_geodesic_conservation(bundle, engine, xs, ys, config, feed):
    """The energy is constant along canonical-spray geodesics."""
    L = bundle.lagrangian
    spray = canonical_spray(L, engine)
    path = geodesic_integrate(spray, xs[0], ys[0], 1e-3, 200)
    energy = L.field(path.xs, path.ys)
    e0 = float(energy[0])
    feed(np.abs(energy - e0) / max(1e-12, abs(e0)), at=(path.xs, path.ys))
    if not path.completed:
        feed(1.0, at=(xs[0], ys[0]))
    return len(path)


def applicable_checks(bundle):
    return sorted(name for name, needs in _NEEDS.items()
                  if all(getattr(bundle, need) is not None for need in needs))
