"""Anisotropic tensor fields on conic subsets of the slit tangent bundle.

A field of type (r, s) assigns to every admissible pair (x, y) an array of
components with r contravariant slots first and s covariant slots after
them.  Positive homogeneity of degree alpha means T(x, lambda*y) =
lambda**alpha * T(x, y) for lambda > 0.  The vertical derivative appends
its index as the final covariant slot and lowers alpha by one; the
Liouville contraction closes the final covariant slot against y and
raises alpha by one.

Every field is evaluated on a batch of samples: calling a field with two
(B, dim) arrays returns the components of all B samples stacked along a
leading axis, shape (B, *components).  Calling it with one-dimensional x
and y evaluates a batch of one and drops the sample axis again.

A field is a node of a graph.  A hand-written leaf's closure `fn(xs, ys)`
computes its components from the samples; a combinator's closure
`fn(xs, ys, *values)` computes them from the values of its operands.  On
its first call a field compiles the graph beneath it into a flat plan,
its nodes in the order a depth-first walk would evaluate them, and every
later call runs that plan on the batch (tape evaluation, as in Griewank
and Walther, "Evaluating Derivatives", 2008).  One memo rule holds.  A
call on a batch of two or more samples runs the plan under one memo key,
the bytes of the batch, and every node of the plan but a folded constant
memoizes its values under it, whether or not the field called is folded:
a node shared by several fields, a guard included, runs once per batch
across all of them.  Every other run memoizes nothing: a call on one
sample, a one-sample stencil's run of its child on its perturbed rows,
and a geodesic's check of a folded spray's guards on a block of stage
points.

Differentiation is controlled by a DiffEngine.  Fields may carry attached
derivative fields (built analytically, or assembled by the combinators in
this module through sum/product rules); the "analytic" method uses them
when present and falls back to the five-point stencil, while "fd4" always
uses the stencil for a varying field.  Under either method one rule holds
for a constant: its derivative is a structural zero guarded by the
constant's guards and by each guard's derivative, never a stencil, and
unguarded it is a bare zero.  A field remembers the stencils and zeros
taken of it, weakly and per axis and method, so graphs built apart share
one such node, its plan and its memo.  It remembers a resolved chain too,
strongly, except where the chain would hold the field itself (an inverse,
a reciprocal, and what their chains build): such a chain is held weakly,
so no graph is a reference cycle.

The combinators fold constants while they build the graph: a node whose
components are the same at every sample carries them as `const`, and a
combinator over such nodes returns a folded node instead of a closure
that recomputes the same array on every batch.  A structural zero is a
constant with all components zero; a product with one is zero, and a sum
with one is the other term.  Folding never widens where a field is
defined: a fold that drops an operand keeps the nodes beneath it that can
raise (inverses, powers and reciprocals, and stencils over them) as
`guards`, and evaluates them on each batch before it returns its constant.
"""

from __future__ import annotations

import functools
import math
import weakref

import numpy as np

from .errors import DegeneracyError, DivisionError, DomainError, RankError, ShapeError

_EPS = float(np.finfo(float).eps)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_MEMO_LIMIT = 4096
_PIVOT_FLOOR = 1e-12  # the smallest scaled pivot `pivot_inverse` accepts
_Y_SHELL = (0.5, 2.0)  # the radii between which `ConicDomain.sample` draws y

# The two axes a field is differentiated along: vertically in y, which
# lowers alpha by one, and in the chart coordinates x, which keeps it.
# Either way the derivative index is appended as the last covariant slot.
Y, X = 0, 1


class ConicDomain:
    """Open conic set of admissible (x, y) pairs over a coordinate box.

    Parameters
    ----------
    dim : int
        Dimension of the chart (x and y both live in R^dim).
    membership : callable
        Predicate (x, y) -> bool, called with two (dim,) float64 arrays
        of a finite state.  Must be invariant under y -> lambda*y for
        lambda > 0.  The slit condition y != 0 is enforced separately.
    x_box : array_like, optional
        Pairs (lo, hi) per coordinate bounding the sampling box in x.
        Defaults to [-1, 1] in every coordinate.  Samples draw y in the
        shell of radii `_Y_SHELL`, 0.5 to 2.
    excluded : iterable, optional
        Extra predicates (x, y) -> bool; a sample is rejected while any of
        them is true.  Used to keep quadrature away from thin margins near
        the boundary of the cone without shrinking the domain itself.

    One admissibility rule decides membership: the state is finite, y is
    not zero, and the predicate accepts it.  `admits` applies it to one
    state given as Python floats and as arrays, `contains` to one state
    of arrays, and `first_refused` to a batch of states, row after row.
    """

    def __init__(self, dim, membership=None, x_box=None, excluded=(),
                 name=""):
        self.dim = int(dim)
        self.membership = membership
        if x_box is None:
            x_box = [(-1.0, 1.0)] * self.dim
        self.x_box = np.asarray(x_box, dtype=float).reshape(self.dim, 2)
        self.excluded = tuple(excluded)
        self.name = name
        self._drawn = {}

    def contains(self, x, y):
        """Whether (x, y) is an admissible pair: two (dim,) states that
        `admits`."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            return False
        return self.admits(x.tolist(), y.tolist(), (x, y))

    def admits(self, x, y, arrays):
        """The admissibility rule on a float state: x and y are lists of
        dim Python floats, all finite, y is not zero, and the membership
        predicate accepts the pair.  The predicate gets `arrays`, the same
        state as a pair of (dim,) float64 arrays."""
        if not all(map(math.isfinite, x + y)) or not any(y):
            return False
        if self.membership is None:
            return True
        return bool(self.membership(*arrays))

    def first_refused(self, xs, ys):
        """The admissibility rule on an (n, dim) float64 batch of states:
        the index of the first row `admits` refuses, or n if it admits
        every row.  The finite and y != 0 tests run on the whole batch at
        once; the predicate then gets (dim,) float64 views of the rows,
        in row order and only up to the first refused row, so it runs on
        the same states, in the same order, as one `admits` per row until
        the first refusal."""
        finite = np.isfinite(xs)
        finite &= np.isfinite(ys)
        refused = np.flatnonzero(~(np.logical_and.reduce(finite, axis=1)
                                   & np.logical_or.reduce(ys, axis=1)))
        stop = int(refused[0]) if len(refused) else len(xs)
        inside = self.membership
        if inside is not None:
            for i, (x, y) in enumerate(zip(xs[:stop], ys[:stop])):
                if not inside(x, y):
                    return i
        return stop

    def sample(self, count, seed):
        """Draw `count` admissible (x, y) pairs; reproducible for a given seed.

        A draw is kept on the domain, so drawing the same (count, seed)
        again costs two copies; the caller owns the arrays it gets.
        """
        key = (int(count), int(seed))
        drawn = self._drawn.get(key)
        if drawn is None:
            drawn = self._drawn[key] = self._draw(*key)
        return drawn[0].copy(), drawn[1].copy()

    def _draw(self, count, seed):
        rng = np.random.default_rng(seed)
        lo, hi = self.x_box[:, 0], self.x_box[:, 1]
        rmin, rmax = _Y_SHELL
        xs = np.empty((count, self.dim))
        ys = np.empty((count, self.dim))
        for i in range(count):
            for _ in range(4000):
                x = lo + rng.random(self.dim) * (hi - lo)
                d = rng.normal(size=self.dim)
                nrm = np.linalg.norm(d)
                if nrm < 1e-12:
                    continue
                y = (rmin + rng.random() * (rmax - rmin)) * d / nrm
                if not self.contains(x, y):
                    continue
                if any(p(x, y) for p in self.excluded):
                    continue
                xs[i], ys[i] = x, y
                break
            else:
                raise DomainError(
                    f"sampler for domain {self.name!r} exhausted its rejection "
                    f"budget; the admissible cone is too thin for the shell")
        return xs, ys


class DiffEngine:
    """Differentiation policy.

    method "analytic" uses a field's attached derivative when one exists and
    falls back to the stencil; "fd4" always uses the five-point stencil
    (-f2 + 8 f1 - 8 f-1 + f-2) / (12 h), whose step follows from how deeply
    it is nested (see `_step`), the same rule in x and y.  Under both, a
    constant's derivative is a guarded zero (`_derivative`), not a stencil.
    """

    def __init__(self, method="analytic"):
        if method not in ("analytic", "fd4"):
            raise ValueError(f"unknown differentiation method {method!r}")
        self.method = method

    def __repr__(self):
        return f"DiffEngine(method={self.method!r})"


DEFAULT_ENGINE = DiffEngine()


class TensorField:
    """A type-(r, s) field T(x, y) on a conic domain, alpha-homogeneous in y.

    `fn(xs, ys)` takes (B, dim) arrays of samples and must return the
    components of every sample, shape (B,) + (dim,) * (r + s), with
    contravariant slots first.  `dy` and `dx` optionally attach the exact
    derivative along y / along x as another TensorField (or a thunk
    producing one, resolved once); both append their index last and are
    read back through `chain(Y)` / `chain(X)`.

    Calling the field with (B, dim) arrays returns (B, *components); with
    one-dimensional x and y it evaluates a batch of one and returns the
    components alone.  The first call compiles the plan of the graph
    beneath the field.  On a batch of two or more samples the plan runs
    under one memo key, the bytes of the batch, and every node of it but
    a folded one memoizes its values per batch (at most `_MEMO_LIMIT`
    batches, then it starts afresh).  On one sample the plan memoizes
    nothing.  Every returned or memoized array is read-only.  A leaf's
    output is checked for its shape on every batch, and copied when it
    shares memory with the samples, which the caller still owns.

    `operands` is None for a hand-written leaf.  A combinator's node
    lists the nodes whose values its `fn(xs, ys, *values)` takes, in
    order; the plan evaluates them first.

    `const` holds the read-only components of a node that is the same at
    every sample, and is None for a node that varies.  A folded node is
    never memoized: it evaluates its guards, which are its operands, and
    returns its constant stacked over the batch.  `guards` are the nodes
    beneath this one that can raise: a folded node evaluates them on each
    batch, and they memoize as any node does; an ordinary one reaches them
    through its operands.  `raises` marks a node that can raise
    itself, so that a fold dropping it keeps it as a guard; a node never
    lists itself.

    `depth` is the number of stencils nested beneath and at this node: 0
    for a leaf and a folded node, the largest depth of its operands for a
    combinator, and 1 + its child's for a stencil.
    """

    __slots__ = ("domain", "r", "s", "alpha", "name", "const", "guards",
                 "raises", "operands", "depth", "_fn", "_chains", "_memo",
                 "_plan", "_stencils", "__weakref__")

    def __init__(self, domain, r, s, alpha, fn, dy=None, dx=None, name="",
                 const=None, guards=(), raises=False, operands=None,
                 depth=0):
        self.domain = domain
        self.r = int(r)
        self.s = int(s)
        self.alpha = float(alpha)
        self.name = name
        self.const = const
        self.guards = guards
        self.raises = raises
        self.operands = operands
        self.depth = depth
        self._fn = fn
        self._chains = [dy, dx]
        self._memo = {}
        self._plan = None
        self._stencils = None

    @property
    def rank(self):
        return (self.r, self.s)

    def component_shape(self):
        return (self.domain.dim,) * (self.r + self.s)

    def __call__(self, x, y):
        xs = np.ascontiguousarray(x, dtype=float)
        ys = np.ascontiguousarray(y, dtype=float)
        single = xs.ndim == 1
        if single:
            xs, ys = xs[None], ys[None]
        dim = self.domain.dim
        if xs.shape != ys.shape or xs.ndim != 2 or xs.shape[1] != dim:
            raise ShapeError(
                f"field {self.name!r} takes x and y of shape (dim,) or "
                f"(B, dim) with dim={dim}, got {np.shape(x)} and "
                f"{np.shape(y)}")
        if len(xs) > 1:
            key = (xs.tobytes(), ys.tobytes())
            val = self._memo.get(key)
            if val is None:
                val = _run(self, key, xs, ys)
        else:
            val = _run(self, None, xs, ys)
            val.setflags(write=False)
        return val[0, ...] if single else val

    def chain(self, axis):
        """Attached exact derivative along `axis` (Y or X), or None."""
        chain = self._chains[axis]
        if isinstance(chain, _HeldWeakly):
            built = chain()
            if built is None:
                self._chains[axis] = None
            return built
        if callable(chain) and not isinstance(chain, TensorField):
            chain = self._chains[axis] = chain()
        return chain

    def __repr__(self):
        tag = self.name or "field"
        return f"<{tag}: type ({self.r},{self.s}), alpha={self.alpha:g}>"


def _compile(node, index, entries):
    """Append to `entries` the plan entries of `node` and of the nodes
    beneath it that `index` (node -> plan index) does not hold yet, and
    return `entries`; `_compile(root, {}, [])` is the plan of `root`.

    A plan has one entry per node, operands before the nodes that take
    them and the root last, in the post-order of a depth-first walk that
    visits each node's operands in the order its `fn` takes them: the
    order a recursive evaluation would compute them in.  A stencil's
    child is not walked, as it runs a plan of its own.  An entry holds
    the node's memo (None for a folded node), its `fn`, the plan indices
    of its operands and, for a hand-written leaf, what checking its
    output needs.  It holds no node, so a plan adds no reference cycle.
    """
    operands = node.operands
    if operands is None:
        entries.append((node._memo, node._fn, (), (
            node.component_shape(), node.name, node.r, node.s)))
    else:
        for op in operands:
            if op not in index:
                _compile(op, index, entries)
        entries.append((None if node.const is not None else node._memo,
                        node._fn, tuple(map(index.__getitem__, operands)),
                        None))
    index[node] = len(index)
    return entries


def _run(field, key, xs, ys):
    """Run the plan of `field`, compiled on its first run, on the (B, dim)
    batch (xs, ys); the value of `field`.

    Under a memo `key`, the bytes of the batch, a node whose memo holds
    `key` is read from there.  The nodes beneath it are looked up too;
    they were computed with it on that batch, so they hold `key` as well,
    unless their own memo has started afresh since, and then they are
    computed again.  Every computed value is made read-only and stored
    under `key`, except that a folded node returns its constant again and
    stores nothing.  With `key` None the run memoizes nothing: no node is
    looked up, stored or made read-only.
    """
    plan = field._plan
    if plan is None:
        plan = field._plan = _compile(field, {}, [])
    vals = []
    push = vals.append
    for memo, fn, slots, leaf in plan:
        if key is not None and memo is not None:
            val = memo.get(key)
            if val is not None:
                push(val)
                continue
        val = fn(xs, ys, *map(vals.__getitem__, slots))
        if leaf is not None:
            val = _checked(val, xs, ys, *leaf)
        if key is not None:
            val.setflags(write=False)
            if memo is not None:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                memo[key] = val
        push(val)
    return val


def _checked(val, xs, ys, comp, name, r, s):
    """A leaf's output as a float array of shape (B, *comp); its own copy
    when it shares memory with the samples, which the caller still owns."""
    val = np.asarray(val, dtype=float)
    want = (len(xs),) + comp
    if val.shape != want:
        raise ShapeError(
            f"field {name!r} returned shape {val.shape}, declared type "
            f"({r}, {s}) on {len(xs)} samples needs {want}")
    if val is xs or val is ys or val.base is not None and (
            np.may_share_memory(val, xs) or np.may_share_memory(val, ys)):
        val = val.copy()
    return val


def _require_inside(domain, x, y):
    """Raise ShapeError unless (x, y) is one point or a (B, dim) batch of
    the domain's dimension, and DomainError naming the first sample of
    (x, y) outside `domain`.  The batch is checked in one pass of
    `domain.first_refused`, so its predicate runs on the rows up to that
    sample and no further."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = domain.dim
    if x.shape != y.shape or x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ShapeError(
            f"point x={x.tolist()}, y={y.tolist()} does not fit domain "
            f"{domain.name!r} of dim={dim}")
    xs, ys = x.reshape(-1, dim), y.reshape(-1, dim)
    i = domain.first_refused(xs, ys)
    if i < len(xs):
        raise DomainError(
            f"point x={xs[i].tolist()}, y={ys[i].tolist()} is outside "
            f"domain {domain.name!r}")


def _require_type(field, r, s, alpha, what):
    """Raise ShapeError, naming `what` needs it, unless `field` has type
    (r, s) and homogeneity alpha."""
    if field.rank != (r, s) or float(field.alpha) != alpha:
        raise ShapeError(
            f"{what} needs a type-({r}, {s}) field of homogeneity "
            f"{_exact(alpha)}, got ({field.r}, {field.s}) at "
            f"alpha={_exact(field.alpha)}")


def _exact(alpha):
    """alpha printed with `:g` when that reads back as alpha, else repr."""
    text = f"{alpha:g}"
    return text if float(text) == alpha else repr(alpha)


def _first(mask):
    """Index of the first true entry of a boolean sample mask."""
    return int(np.argmax(mask))


def _sample_at(xs, ys, i):
    return (xs[i].tolist(), ys[i].tolist())


def _row_dot(a, b):
    """Dot product of matching rows of two (B, n) arrays, each row taken
    with the same BLAS dot product as `a[i] @ b[i]`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_max_abs(values):
    """Largest |entry| of each sample's components, NaN if any is NaN."""
    values = np.asarray(values, dtype=float)
    return np.max(np.abs(values).reshape(len(values), -1), axis=1)


def evaluate(field, x, y):
    """Components of `field` at (x, y), after checking domain membership."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_inside(field.domain, x, y)
    return field(x, y)


# ---------------------------------------------------------------------------
# constructors and folding


def _guards_of(operands):
    """The guards a node over `operands` carries: each operand that can
    raise, and the guards of every other operand, once each."""
    out = ()
    for f in operands:
        for g in (f,) if f.raises else f.guards:
            if g not in out:
                out += (g,)
    return out


def _node(domain, r, s, alpha, fn, chains, name, operands, raises=False):
    """An ordinary node over `operands`, whose values `fn(xs, ys, *values)`
    takes on each batch."""
    depth = 0
    for f in operands:  # a plain loop, as in `_along`
        if f.depth > depth:
            depth = f.depth
    return TensorField(domain, r, s, alpha, fn, *chains, name=name,
                       guards=_guards_of(operands), raises=raises,
                       operands=operands, depth=depth)


def _folded(domain, r, s, alpha, values, operands, name):
    """A node with the constant components `values`, folded from `operands`.

    Its operands are the operands' guards, which it evaluates on each
    batch before it returns the constant; it memoizes nothing itself.  Its
    chain along either axis is the zero over its guards and their chains
    (`_zero_over`), held weakly while a weak chain is being built.
    """
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    want = (domain.dim,) * (r + s)
    if values.shape != want:
        raise ShapeError(f"constant components have shape {values.shape}, "
                         f"declared type ({r}, {s}) needs {want}")
    guards = _guards_of(operands)
    chains = [functools.partial(_zero_over, domain, r, s, alpha, guards, axis)
              for axis in (Y, X)]
    if _HeldWeakly.building:
        chains = map(_HeldWeakly, chains)

    def fn(xs, ys, *guarded):
        out = np.empty((len(xs),) + values.shape)
        out[...] = values
        return out

    return TensorField(domain, r, s, alpha, fn, *chains, name=name,
                       const=values, guards=guards, operands=guards)


def _zero_over(domain, r, s, alpha, guards, axis, engine=None):
    """The derivative along `axis` of a type-(r, s) constant of homogeneity
    alpha guarded by `guards`: a zero guarded by them and by each guard's
    derivative, its chain when `engine` is None (then None if a guard has
    none) and `_derivative` under `engine` otherwise."""
    derived = []
    for g in guards:
        d = g.chain(axis) if engine is None else _derivative(g, axis, engine)
        if d is None:
            return None
        derived.append(d)
    return _folded(domain, r, s + 1, alpha - 1.0 if axis == Y else alpha,
                   np.zeros((domain.dim,) * (r + s + 1)),
                   guards + tuple(derived), "0")


def _is_zero(field):
    """Whether `field` is a structural zero, guarded or not."""
    return field.const is not None and not field.const.any()


def zero_field(domain, r, s, alpha, name="0"):
    return _folded(domain, r, s, alpha, np.zeros((domain.dim,) * (r + s)),
                   (), name)


def constant_field(domain, values, r, s, name="const"):
    """Field with components independent of x and y (hence 0-homogeneous)."""
    return _folded(domain, r, s, 0.0, values, (), name)


def form_field(domain, T, hooked, name=""):
    """T(y, ..., y, .): the constant symmetric covariant tensor T of order
    k with `hooked` of its slots taken by y, a type-(0, k - hooked) field
    of homogeneity `hooked`.

    Its y-chain is form_field(hooked * T, hooked - 1), exact because T is
    symmetric, and its x-chain is zero; with no slot hooked it is
    `constant_field(T)`.  Each slot is hooked by its own einsum, which
    takes every row through the same loop, so a row's bits depend on that
    row alone.  Raises ShapeError unless T has shape (dim,) * k, is
    symmetric to round-off, and 0 <= hooked <= k."""
    T = np.array(T, dtype=float)
    k, dim = T.ndim, domain.dim
    if T.shape != (dim,) * k or not 0 <= hooked <= k:
        raise ShapeError(f"a form of shape {T.shape} on dim={dim} cannot "
                         f"take {hooked} hooked slots")
    tol = 1e-12 * (1.0 + np.max(np.abs(T), initial=0.0))
    if any(np.max(np.abs(T - np.swapaxes(T, i, i + 1))) > tol
           for i in range(k - 1)):
        raise ShapeError("form_field needs a symmetric tensor")
    name = name or f"form{k},{hooked}"
    if hooked == 0:
        return constant_field(domain, T, 0, k, name=name)
    T.flags.writeable = False

    def fn(xs, ys):
        out = np.einsum("za,a...->z...", ys, T)
        for _ in range(hooked - 1):
            out = np.einsum("za,za...->z...", ys, out)
        return out

    return TensorField(domain, 0, k - hooked, float(hooked), fn,
                       dy=lambda: form_field(domain, hooked * T, hooked - 1,
                                             f"dv({name})"),
                       dx=lambda: zero_field(domain, 0, k - hooked + 1,
                                             float(hooked)),
                       name=name)


def liouville_field(domain):
    """The canonical vertical vector field with components y^i."""
    return TensorField(
        domain, 1, 0, 1.0, lambda xs, ys: ys.copy(),
        dy=lambda: constant_field(domain, np.eye(domain.dim), 1, 1,
                                  name="id"),
        dx=lambda: zero_field(domain, 1, 1, 1.0),
        name="liouville")


# ---------------------------------------------------------------------------
# algebra; every combinator propagates attached derivatives when it can


def _along(axis, rule, operands):
    """`rule` applied to the operands' chains along `axis`; None when an
    operand has no chain there."""
    # A plain loop: building a graph resolves thousands of chains, and a
    # comprehension would add a frame to each.
    chains = []
    for f in operands:
        chains.append(f.chain(axis))
    return None if None in chains else rule(*chains)


def _chains(rule, *operands, weak=False):
    """The [dy, dx] thunks of a combinator's result, whose derivative along
    either axis follows from `rule` and the operands' chains along it.
    They hold what they build weakly when `weak` is set, and for every
    node built while such a chain is being built (see `_HeldWeakly`)."""
    thunks = [functools.partial(_along, axis, rule, operands)
              for axis in (Y, X)]
    return ([*map(_HeldWeakly, thunks)] if weak or _HeldWeakly.building
            else thunks)


class _HeldWeakly:
    """A chain thunk that holds the chain it builds weakly.

    The derivative of an inverse or a reciprocal takes the node itself as
    an operand, and the derivative of each node inside that derivative
    takes the derivative again.  A node holding such a chain strongly
    would make a reference cycle, and the node and everything beneath it
    would outlive their last user until the cyclic collector ran.  So
    those chains, and the chains of every node built while one is being
    built, are held weakly: each lives as long as a graph that uses it,
    and is built again after.  A missing chain is remembered for good."""

    __slots__ = ("_build", "_ref")
    building = 0    # how many of these are building their chain right now

    def __init__(self, build):
        self._build = build
        self._ref = None

    def __call__(self):
        chain = None if self._ref is None else self._ref()
        if chain is None:
            _HeldWeakly.building += 1
            try:
                chain = self._build()
            finally:
                _HeldWeakly.building -= 1
            if chain is not None:
                self._ref = weakref.ref(chain)
        return chain


def _fresh_letter(used):
    for c in _LETTERS:
        if c not in used:
            return c
    raise ValueError("ran out of index letters")


@functools.cache
def _einsum_parts(subscripts, count):
    """(inputs, output) of the einsum `subscripts`, checked once per string:
    ShapeError unless it has `count` inputs and its output letters are
    distinct and each one appears in an input."""
    lhs, out = subscripts.split("->")
    ins = tuple(lhs.split(","))
    if len(ins) != count or len(set(out)) != len(out) or set(out) - set(lhs):
        raise ShapeError(f"subscripts {subscripts!r} need {count} inputs "
                         f"and distinct output letters, each in an input")
    return ins, out


def add(a, b, name=""):
    """a + b; see `_sum`."""
    return _sum(a, b, False, name or f"({a.name}+{b.name})")


def subtract(a, b, name=""):
    """a - b, one node as a sum is; see `_sum`."""
    return _sum(a, b, True, name or f"({a.name}-{b.name})")


def _sum(a, b, minus, name):
    """a + b, or a - b if `minus`.  Two constants fold; an unguarded zero
    b gives a, an unguarded zero a gives b or scale(b, -1); else one node,
    whose chains follow this rule.  IEEE u - v is bitwise u + (-1.0 * v)."""
    if (a.r, a.s) != (b.r, b.s):
        raise ShapeError(f"cannot add types {a.rank} and {b.rank}")
    if a.alpha != b.alpha:
        raise ShapeError(f"cannot add homogeneities {_exact(a.alpha)} and "
                         f"{_exact(b.alpha)}")
    if a.const is not None and b.const is not None:
        return _folded(a.domain, a.r, a.s, a.alpha,
                       a.const - b.const if minus else a.const + b.const,
                       (a, b), name)
    if _is_zero(b) and not b.guards:
        return a
    if _is_zero(a) and not a.guards:
        return scale(b, -1.0) if minus else b
    if minus:
        return _node(a.domain, a.r, a.s, a.alpha, lambda xs, ys, u, v: u - v,
                     _chains(subtract, a, b), name, (a, b))
    return _node(a.domain, a.r, a.s, a.alpha, lambda xs, ys, u, v: u + v,
                 _chains(add, a, b), name, (a, b))


def scale(a, c, name=""):
    c = float(c)
    name = name or f"{c:g}*{a.name}"
    if a.const is not None:
        return _folded(a.domain, a.r, a.s, a.alpha, c * a.const, (a,), name)
    return _node(a.domain, a.r, a.s, a.alpha, lambda xs, ys, u: c * u,
                 _chains(lambda da: scale(da, c), a), name, (a,))


def tensor_product(a, b, subscripts, r, s, name=""):
    """einsum-style product/contraction of two fields.

    `subscripts` follows numpy.einsum ("ilc,cjk->ijk" etc.).  The result is
    declared type (r, s); its homogeneity is the sum of the factors'.  The
    attached derivatives follow the product rule, with the derivative index
    appended after `subscripts`' output indices.
    """
    (sa, sb), out = _einsum_parts(subscripts, 2)
    if (len(sa), len(sb), len(out)) != (a.r + a.s, b.r + b.s, r + s):
        raise ShapeError(f"subscripts {subscripts!r} do not fit types "
                         f"{a.rank} and {b.rank} into ({r}, {s})")
    batched = f"...{sa},...{sb}->...{out}"

    def rule(da, db):
        z = _fresh_letter(subscripts)
        t1 = tensor_product(da, b, f"{sa}{z},{sb}->{out}{z}", r, s + 1)
        t2 = tensor_product(a, db, f"{sa},{sb}{z}->{out}{z}", r, s + 1)
        return add(t1, t2)

    name = name or f"({a.name}*{b.name})"
    alpha = a.alpha + b.alpha
    if a.const is not None and b.const is not None:
        return _folded(a.domain, r, s, alpha,
                       np.einsum(subscripts, a.const, b.const), (a, b), name)
    if _is_zero(a) or _is_zero(b):
        return _folded(a.domain, r, s, alpha,
                       np.zeros((a.domain.dim,) * len(out)), (a, b), name)
    return _node(a.domain, r, s, alpha,
                 lambda xs, ys, u, v: np.einsum(batched, u, v),
                 _chains(rule, a, b), name, (a, b))


def reindex(field, subscripts, name=""):
    """Single-operand einsum; pure slot permutation, homogeneity unchanged.

    Raises ShapeError unless `subscripts` permutes the field's slots."""
    (lhs,), out = _einsum_parts(subscripts, 1)
    if not len(lhs) == len(out) == field.r + field.s:
        raise ShapeError(f"subscripts {subscripts!r} do not permute the "
                         f"slots of type {field.rank}")
    batched = f"...{lhs}->...{out}"

    def rule(da):
        z = _fresh_letter(subscripts)
        return reindex(da, f"{lhs}{z}->{out}{z}")

    name = name or f"perm({field.name})"
    if field.const is not None:
        return _folded(field.domain, field.r, field.s, field.alpha,
                       np.einsum(subscripts, field.const), (field,), name)
    return _node(field.domain, field.r, field.s, field.alpha,
                 lambda xs, ys, u: np.einsum(batched, u),
                 _chains(rule, field), name, (field,))


def pivot_inverse(mat, sample=None):
    """Invert a small matrix, or a stack of them, by partial-pivot elimination.

    `mat` has shape (n, n) or (B, n, n); each matrix of a stack goes
    through the same row operations it would get on its own.  Raises
    DegeneracyError when a row is zero, a scaled pivot falls below
    `_PIVOT_FLOOR` = 1e-12 or is NaN, or an entry is NaN or infinite, so
    near-singular inputs fail loudly instead of returning garbage.  A
    degenerate matrix with a non-finite entry is named as such, whichever
    of these stopped its elimination.  The error carries `sample`; for a
    stack, `sample` may be the pair (xs, ys) of (B, dim) sample arrays,
    and the error then names the sample of the first degenerate matrix.

    One matrix, of shape (n, n) or (1, n, n), is eliminated on Python
    floats, where numpy's per-call cost would outweigh the arithmetic; a
    stack of several is eliminated with numpy, all matrices at once.  Both
    take the same row operations in the same IEEE double arithmetic, so
    they return the same bits and raise the same errors.
    """
    mat = np.asarray(mat, dtype=float)
    single = mat.ndim == 2
    stack = mat[None] if single else mat
    n = stack.shape[-1]
    if stack.shape == (1, n, n) and n:
        inverse, failures = _eliminate(stack[0].tolist(), n)
    else:
        inverse, failures = _eliminate_stack(stack)
    if failures:
        i = min(failures)
        why = failures[i]
        if not np.isfinite(stack[i]).all():
            why = "matrix has a non-finite entry"
        where = sample
        if not single and sample is not None:
            where = _sample_at(sample[0], sample[1], i)
        raise DegeneracyError(why, sample=where)
    return inverse[0] if single else inverse


def _eliminate(rows, n):
    """Gauss-Jordan elimination of one matrix, given as its `n` rows, lists
    of Python floats that it extends by the identity and eliminates in
    place, with the row operations `_eliminate_stack` applies to a stack
    of one: (inverse of shape (1, n, n), {}), or (None, {0: why})."""
    scale = []
    for row in rows:
        s = 0.0
        for v in row:
            v = abs(v)
            if v > s:
                s = v
            elif v != v:  # a NaN scales its row to NaN, as np.max does
                s = v
                break
        if s == 0.0:
            return None, {0: "matrix has a zero row"}
        scale.append(s)
    for row, unit in zip(rows, _identity(n).tolist()):
        row.extend(unit)
    for col in range(n):
        # as np.argmax picks: the first NaN, else the first largest pivot
        k, best = col, abs(rows[col][col]) / scale[col]
        for r in range(col + 1, n):
            if best != best:
                break
            p = abs(rows[r][col]) / scale[r]
            if p > best or p != p:
                k, best = r, p
        if not best >= _PIVOT_FLOOR:
            return None, {0: f"scaled pivot {best:.3e} below "
                             f"{_PIVOT_FLOOR:.0e} in column {col}"}
        if k != col:
            rows[col], rows[k] = rows[k], rows[col]
            scale[col], scale[k] = scale[k], scale[col]
        pivot = rows[col][col]
        top = rows[col] = [v / pivot for v in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0.0:
                rows[r] = [v - f * t for v, t in zip(rows[r], top)]
    return np.array(rows)[None, :, n:], {}


def _eliminate_stack(stack):
    """Gauss-Jordan elimination of a (B, n, n) stack with scaled partial
    pivoting: (inverses, {}), or (None, {index: why}) naming each
    degenerate matrix by its first reason."""
    count, n = stack.shape[0], stack.shape[-1]
    rows = np.arange(count)
    aug = np.empty((count, n, 2 * n))
    aug[:, :, :n] = stack
    aug[:, :, n:] = _identity(n)
    row_scale = np.abs(stack).max(axis=-1)
    failures = {}  # matrix index -> why it is degenerate, first reason only
    if np.count_nonzero(row_scale == 0.0):
        zero = (row_scale == 0.0).any(axis=-1)
        for i in np.flatnonzero(zero):
            failures[i] = "matrix has a zero row"
        _retire(aug, row_scale, zero)
    for col in range(n):
        # an inf entry makes an inf/inf pivot: NaN, degenerate as in
        # `_eliminate`, and as quiet
        with np.errstate(invalid="ignore", divide="ignore"):
            pivots = np.abs(aug[:, col:, col]) / row_scale[:, col:]
        k = pivots.argmax(axis=-1)
        best = pivots[rows, k]
        low = ~(best >= _PIVOT_FLOOR)  # a NaN pivot is degenerate too
        if np.count_nonzero(low):
            for i in np.flatnonzero(low):
                failures.setdefault(
                    i, f"scaled pivot {best[i]:.3e} below "
                       f"{_PIVOT_FLOOR:.0e} in column {col}")
            _retire(aug, row_scale, low)
            k[low] = 0
        if np.count_nonzero(k):
            k += col
            aug[rows, col], aug[rows, k] = aug[rows, k], aug[rows, col]
            row_scale[rows, col], row_scale[rows, k] = (row_scale[rows, k],
                                                        row_scale[rows, col])
        aug[:, col] /= aug[:, col, col, None]
        for rr in range(n):
            if rr != col:
                f = aug[:, rr, col, None]
                np.subtract(aug[:, rr], f * aug[:, col], out=aug[:, rr],
                            where=f != 0.0)
    if failures:
        return None, failures
    return aug[:, :, n:], {}


@functools.lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _retire(aug, row_scale, mask):
    """Replace the degenerate matrices of a stack by the identity, so that
    eliminating the rest of the stack divides by no zero pivot; their
    results are never returned."""
    eye = _identity(aug.shape[1])
    aug[mask] = np.hstack([eye, eye])
    row_scale[mask] = 1.0


def matrix_inverse(a, name=""):
    """Pointwise inverse of a field whose components form a square matrix.

    The result swaps the variance of the two slots and negates alpha.  Its
    attached derivative along either axis is -A^{-1} (dA) A^{-1} when A
    carries one there.
    """
    if a.r + a.s != 2:
        raise ShapeError("matrix_inverse needs a two-slot field")
    r_out, s_out = a.s, a.r

    def fn(xs, ys, m):
        return pivot_inverse(m, sample=(xs, ys))

    def rule(da):
        inv = this()
        half = tensor_product(inv, da, "ip,pqz->iqz", r_out, s_out + 1)
        full = tensor_product(half, inv, "iqz,qj->ijz", r_out, s_out + 1)
        return scale(full, -1.0)

    name = name or f"inv({a.name})"
    if a.const is not None:
        try:
            return _folded(a.domain, r_out, s_out, -a.alpha,
                           pivot_inverse(a.const), (a,), name)
        except DegeneracyError:
            pass    # stays a node that names the sample when evaluated
    inv_field = _node(a.domain, r_out, s_out, -a.alpha, fn,
                      _chains(rule, a, weak=True), name, (a,), raises=True)
    this = weakref.ref(inv_field)
    return inv_field


def scalar_power(a, exponent, name=""):
    """a ** exponent for a scalar field; chain rule supplies derivatives.

    Homogeneity multiplies by the exponent.  A vanishing base with a
    negative exponent, or a negative base with a fractional one, raises
    DivisionError at the offending sample.
    """
    if a.r or a.s:
        raise ShapeError("scalar_power needs a type-(0, 0) field")
    p = float(exponent)

    def fn(xs, ys, v):
        vanishing = (v == 0.0) & (p < 0.0)
        bad = vanishing | ((v < 0.0) & (not p.is_integer()))
        if bad.any():
            i = _first(bad)
            what = ("vanishes" if vanishing[i]
                    else f"is negative under exponent {p:g}")
            raise DivisionError(f"scalar field {a.name!r} {what}",
                                sample=_sample_at(xs, ys, i))
        return v ** p

    # The chains along y and x share one power p - 1, so a fold that drops
    # it keeps one guard, not two.
    below = functools.cache(lambda: scalar_power(a, p - 1.0))

    def rule(da):
        return scale(tensor_product(below(), da, ",z->z", 0, 1), p)

    return _node(a.domain, 0, 0, p * a.alpha, fn, _chains(rule, a),
                 name or f"({a.name})^{p:g}", (a,), raises=True)


def scalar_reciprocal(a, name=""):
    """1 / a for a scalar field; vanishing denominators raise DivisionError."""
    if a.r or a.s:
        raise ShapeError("scalar_reciprocal needs a type-(0, 0) field")

    def fn(xs, ys, v):
        if np.any(v == 0.0):
            raise DivisionError(
                f"scalar field {a.name!r} vanishes",
                sample=_sample_at(xs, ys, _first(v == 0.0)))
        return 1.0 / v

    def rule(da):
        rec = this()
        sq = tensor_product(rec, rec, ",->", 0, 0)
        return scale(tensor_product(sq, da, ",z->z", 0, 1), -1.0)

    chains = _chains(rule, a, weak=True)
    rec_field = _node(a.domain, 0, 0, -a.alpha, fn, chains,
                      name or f"1/({a.name})", (a,), raises=True)
    this = weakref.ref(rec_field)
    return rec_field


# ---------------------------------------------------------------------------
# differentiation


_OFFSETS = np.array([2.0, 1.0, -1.0, -2.0])
_OFFSET_FLOATS = tuple(_OFFSETS.tolist())


def _step(depth, top):
    """Step of a stencil nested `depth` deep at a sample whose largest
    |coordinate|, at least 1, is `top` (a float or an array):
    eps**(1/(4 + depth)) * top, where truncation h**p meets round-off
    eps / h**k for a p = 4 stencil of a k-th derivative (Fornberg, Math.
    Comp. 51, 1988)."""
    return _EPS ** (1.0 / (4 + depth)) * top


def _stencil(field, x, y, wiggle_y, depth):
    """Five-point derivative of `field` in y (or x) at the (B, dim) samples,
    index appended last, for a stencil node of nesting `depth`.  The child
    is evaluated once, on all 4 * dim perturbed copies of the batch; each
    sample gets its own step (`_step`).

    A batch of one sample takes its step, its perturbed rows and the
    combination of the child's values on Python floats, where numpy's
    per-call cost would outweigh the arithmetic, and runs the child with
    no memo key: no other call shares its perturbed rows.  Both forms
    take the same IEEE double operations in the same order, so they return
    the same bits.  A sample with a non-finite coordinate, a step that
    makes 12 h or a perturbed coordinate overflow, or a combination that
    is not finite goes to the array form, so NaN, inf and numpy's warnings
    stay those of the array form."""
    base, other = (y, x) if wiggle_y else (x, y)
    count, n = base.shape
    rows = (_one_sample_rows(base, other, depth) if count == 1 and n
            else None)
    if rows is None:
        h = _step(depth, np.maximum(1.0, np.max(np.abs(base), axis=-1)))
        moved = np.empty((n, 4, count, n))
        moved[...] = base
        axis = np.arange(n)
        moved[axis, :, :, axis] += _OFFSETS[:, None] * h
        fixed = np.empty((4 * n, count, n))
        fixed[...] = other
        moved, fixed = moved.reshape(-1, n), fixed.reshape(-1, n)
        vals = field(fixed, moved) if wiggle_y else field(moved, fixed)
    else:
        moved, fixed, h = rows
        vals = (_run(field, None, fixed, moved) if wiggle_y
                else _run(field, None, moved, fixed))
    comp = vals.shape[1:]
    cols = None if rows is None else _one_sample_combination(vals, h, n)
    if cols is None:
        vals = vals.reshape((n, 4, count) + comp)
        f_pp, f_p, f_m, f_mm = vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 3]
        step = np.reshape(h, (count,) + (1,) * len(comp))
        cols = (-f_pp + 8.0 * f_p - 8.0 * f_m + f_mm) / (12.0 * step)
    return cols.transpose(tuple(range(1, cols.ndim)) + (0,))


def _one_sample_rows(base, other, depth):
    """(moved, fixed, h): the (4 * dim, dim) perturbed and fixed rows of
    the stencil of a one-sample batch, and its step, built on Python
    floats; None when a coordinate, 12 h or a perturbed coordinate is not
    finite."""
    b = base[0].tolist()
    total = sum(b) + sum(other[0].tolist())
    if total - total != 0.0:    # inf or NaN, or a sum that overflowed
        return None
    top = max(1.0, *map(abs, b))
    h = _step(depth, top)
    # the combination divides by 12 h; top + 2 h bounds every |b + off h|
    if not (12.0 * h < math.inf and top + 2.0 * h < math.inf):
        return None
    moved = []
    for i, bi in enumerate(b):
        for off in _OFFSET_FLOATS:
            row = b.copy()
            row[i] = bi + off * h
            moved += row
    n = len(b)
    return (np.array(moved).reshape(4 * n, n),
            other.repeat(4 * n, axis=0), h)


def _one_sample_combination(vals, h, n):
    """The stencil combination of a one-sample batch on Python floats, of
    shape (dim, 1, *components) as in the array form; None when an entry
    is not finite."""
    d = 12.0 * h
    # the four values of each (coordinate, component) pair in a row
    quads = iter(vals.reshape(n, 4, -1).transpose(0, 2, 1).ravel().tolist())
    cols = [(-f_pp + 8.0 * f_p - 8.0 * f_m + f_mm) / d
            for f_pp, f_p, f_m, f_mm in zip(quads, quads, quads, quads)]
    total = sum(cols)
    if total - total != 0.0:    # inf or NaN, or a sum that overflowed
        return None
    return np.array(cols).reshape((n, 1) + vals.shape[1:])


def _swap_last_two(field):
    total = field.r + field.s
    letters = _LETTERS[:total]
    flipped = letters[:-2] + letters[-1] + letters[-2]
    return reindex(field, f"{letters}->{flipped}")


def _fd(field, axis, engine):
    """Stencil derivative of the varying `field` along `axis`; a constant
    never gets one (see `_derivative`).  It has no exact chain along
    `axis`; along the other axis it has one when `field` does there:
    commute, differentiate that chain along `axis`, and swap the two
    appended indices back.  A stencil over nodes that can raise evaluates
    them at the perturbed samples, so it can raise itself."""
    alpha, tag = ((field.alpha - 1.0, "fd_dv") if axis == Y
                  else (field.alpha, "fd_dx"))
    chains = _chains(
        lambda ch: _swap_last_two(_derivative(ch, axis, engine)), field)
    chains[axis] = None
    depth = 1 + field.depth
    return TensorField(field.domain, field.r, field.s + 1, alpha,
                       lambda xs, ys: _stencil(field, xs, ys, axis == Y,
                                               depth),
                       *chains, name=f"{tag}({field.name})",
                       guards=_guards_of((field,)),
                       raises=field.raises or bool(field.guards), operands=(),
                       depth=depth)


def _derivative(field, axis, engine):
    """The attached chain along `axis` under the "analytic" method when
    there is one; else the stencil of a varying field, and for a constant
    the zero guarded by its guards and their derivatives under `engine`
    (`_zero_over`), as its chain is: one rule under both methods.

    `field` remembers what it builds here, per axis and method, as `chain`
    remembers a resolved chain, so callers under that method get the same
    node, with its plan and its memo.  The key is the method, not the
    engine: each check makes its own engine, and the stencil's chain along
    the other axis follows the method.  The node is held weakly, since a
    stencil's closure holds `field`: it lives as long as a graph that uses
    it, and is built again after.  The holder is made on first use."""
    engine = engine or DEFAULT_ENGINE
    if engine.method == "analytic":
        chain = field.chain(axis)
        if chain is not None:
            return chain
    held = field._stencils
    if held is None:
        held = field._stencils = weakref.WeakValueDictionary()
    key = (axis, engine.method)
    built = held.get(key)
    if built is None:
        built = held[key] = (
            _fd(field, axis, engine) if field.const is None else _zero_over(
                field.domain, field.r, field.s, field.alpha, field.guards,
                axis, engine))
    return built


def vertical_derivative(field, engine=None):
    """The field with components dT/dy^k, index appended last, alpha - 1."""
    return _derivative(field, Y, engine)


def x_derivative(field, engine=None):
    """Chart derivative dT/dx^k, appended last.  Not tensorial; alpha kept.

    The result is an ingredient for connection-building within one chart,
    not an object that transforms between charts on its own.
    """
    return _derivative(field, X, engine)


def liouville_contract(field):
    """Close the final covariant slot against y; raises alpha by one."""
    if field.s == 0:
        raise RankError(
            f"field {field.name!r} has no covariant slot to contract")
    total = field.r + field.s
    letters = _LETTERS[:total]
    sub = f"{letters},{letters[-1]}->{letters[:-1]}"
    return tensor_product(field, liouville_field(field.domain), sub,
                          field.r, field.s - 1,
                          name=f"iota({field.name})")


def homogeneity_defect(field, x, y, engine=None):
    """Euler defect (dT . y) - alpha T at one admissible sample, or at each
    sample of a (B, dim) batch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_inside(field.domain, x, y)
    dT = vertical_derivative(field, engine)
    hook = y.reshape(y.shape[:-1] + (1,) * (field.r + field.s) + y.shape[-1:])
    return (np.einsum("...a,...a->...", dT(x, y), hook)
            - field.alpha * field(x, y))
