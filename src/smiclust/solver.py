"""Analytic clustering solver.

The clustering objective is a quadratic form ``sum_y a_y' U a_y`` over
orthonormal coefficient vectors, with

    U = K' (2 I + 2 g M + g^2 M^2 - 2 e C + e^2 C^2) K'

where K' is the link-edited kernel, M/C the must-/cannot-link matrices and
g, e >= 0 the link strengths.  The global maximizer is the matrix of top-c
eigenvectors of U; assignments come from the sign-fixed, clipped and
normalized eigenvectors.  Out-of-sample points are labeled through the
unmodified kernel against the training set.  :func:`cluster` is the one
pipeline; with no links and g = e = 0, U = 2 K^2 and it gives the labels of
unsupervised SMIC (the top eigenvectors of K), which the tests hold it to.

No n x n array lies between the input and the labels, or between a model
and its predictions.  The training kernel K and the query kernel are built
as CSR by :mod:`smiclust.kernel` from a k-d tree: the tree proposes each
point's t nearest plus one, their distances are recomputed exactly as
``cdist`` gives them, and a row whose next candidate ties its t-th distance
to within a relative 1e-9 is settled on a ball query of the same tree at
that distance, keeping the lower-index neighbours.  U is never formed
either: :class:`ObjectiveMatrix` keeps K' and the fused inner matrix
``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2`` as CSR, B formed from the M and
C that :func:`smiclust.kernel.apply_constraints` built once and K' carries,
and applies ``U v`` as three sparse products, and :func:`top_eigenpairs`
takes the top c + 1 pairs (at most n - 1) from one ARPACK Lanczos call on
that operator, deflating for more only on a tie, a graph in parts or
c >= n - 1; the n-th pair is the orthogonal complement of the other n - 1.
``B = (I + g M)^2 + (I - e C)^2``, so U is positive semi-definite; a c-th
eigenvalue that is not above the rounding-noise floor means rank(U) < c and
is refused.

That solve runs to machine precision, but the labels need less.  On a
connected graph with c + 1 <= n - 1, :func:`cluster` first stops ARPACK at a
loose relative accuracy and bounds, from each pair's residual and its gap
(Davis-Kahan sin-theta), how far the machine-precision pairs can lie from the
loose ones.  :func:`_certified_labels` keeps the loose labels only if no
point in those bounds changes a tie, the rank refusal, a sign or an argmax;
otherwise :func:`top_eigenpairs` runs as above and gives the same result as
without the loose solve.  So the labels never depend on which solve gave
them, while a model's ``phi`` and ``lam`` may differ below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .data import ConstraintSet, Dataset, checked_json, empty_constraints, load_json, save_json
from .kernel import KernelMatrix, apply_constraints, check_hyperparameters, local_scaling_kernel
from .kernel import query_kernel
from .kernel import nearest_neighbors  # noqa: F401  re-exported; perfbench/tracer.py wraps it

MODEL_SCHEMA = "smiclust-model-v1"
# predict scores its queries at most max(this, n) at a time.
_QUERY_BLOCK = 1 << 12
# cluster's first eigensolve stops at this relative accuracy (ARPACK's tol); its
# labels stand only where _certified_labels proves them equal to the tol-0 solve's.
_LOOSE_TOL = 1e-6
# Residual, relative to the largest eigenvalue, allowed for rounding in the tol-0
# solve and in the residuals _certified_labels computes.
_ROUNDING_RESIDUAL = 1e-12
# fix_signs orients a column whose entry sum is within this share of its 1-norm
# by the column's first entry that clears that tolerance.
_SIGN_TOL = 1e-8


class PredictionError(RuntimeError):
    """Out-of-sample prediction was refused (non-positive leading eigenvalue)."""


@dataclass(frozen=True, eq=False)
class ObjectiveMatrix:
    """The clustering objective's quadratic form ``U = K' B K'``, held by its sparse factors.

    ``inner`` is ``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2``.  :meth:`matvec`
    applies U as three sparse products and never forms it.
    """

    kernel: sparse.csr_matrix
    inner: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.kernel.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.kernel @ (self.inner @ (self.kernel @ v))


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Eigenpairs and kernel settings retained for out-of-sample prediction.

    ``phi`` holds the sign-fixed top-c eigenvectors (orthonormal columns),
    ``lam`` the matching eigenvalues in descending order.
    """

    phi: np.ndarray
    lam: np.ndarray
    c: int
    t: int
    gamma: float
    eta: float
    train_features: np.ndarray
    train_sigma: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        features = np.asarray(self.train_features, dtype=float)
        sigma = np.asarray(self.train_sigma, dtype=float)
        n = len(phi) if phi.ndim else 0
        c, (t,) = check_hyperparameters(n, self.c, [self.t], [self.gamma], [self.eta])
        if phi.shape[1:] != (c,):
            raise ValueError(f"phi must be n x c with c = {c}, got shape {phi.shape}")
        if lam.shape != (c,):
            raise ValueError(f"lam (the eigenvalues) must have length {c}, got shape {lam.shape}")
        if not np.isfinite(lam).all():
            raise ValueError(f"lam (the eigenvalues) must be finite, got {lam.tolist()}")
        if features.ndim != 2 or features.shape[0] != n or not features.shape[1]:
            raise ValueError(
                f"train_features must be a matrix of {n} rows and at least one column, "
                f"got shape {features.shape}"
            )
        _check_entries("train_features", features, np.isfinite(features), "finite")
        if sigma.shape != (n,):
            raise ValueError(f"train_sigma must be a vector of {n} scales, got shape {sigma.shape}")
        _check_entries("train_sigma", sigma, np.isfinite(sigma) & (sigma >= 0), "finite and >= 0")
        gram = phi.T @ phi
        if not np.allclose(gram, np.eye(c), atol=1e-8):
            raise ValueError("phi columns must be orthonormal")
        descending = np.r_[True, np.diff(lam) <= 1e-10]
        _check_entries("lam (the eigenvalues)", lam, descending, "sorted in descending order")
        checked = dict(phi=phi, lam=lam, c=c, t=t, train_features=features, train_sigma=sigma)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _check_entries(name: str, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Refuse ``values`` unless ``ok`` holds everywhere; the message names the first bad entry."""
    if not ok.all():
        k = tuple(np.argwhere(~ok)[0].tolist())
        at = k[0] if len(k) == 1 else k
        raise ValueError(f"{name} must be {rule}, got {float(values[k])!r} at index {at}")


def objective_matrix(kernel: KernelMatrix, gamma: float, eta: float, c: int) -> ObjectiveMatrix:
    """U = K' B K' with ``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2``, as a matrix-free operator.

    M is ``kernel.must + I`` and C is ``kernel.cannot``, as :func:`apply_constraints`
    built them; a kernel it did not edit has M = I and no C.  B is built once as
    canonical CSR; the cannot-link terms are left out when ``eta`` is 0.  The
    arguments are held to :func:`check_hyperparameters`.
    """
    check_hyperparameters(kernel.n, c, (), [gamma], [eta])
    eye = sparse.identity(kernel.n, format="csr")
    must = eye if kernel.must is None else kernel.must + eye
    inner = 2.0 * eye + 2.0 * gamma * must + gamma**2 * (must @ must)
    if eta != 0 and kernel.cannot is not None:
        inner = inner - 2.0 * eta * kernel.cannot + eta**2 * (kernel.cannot @ kernel.cannot)
    inner.sort_indices()
    return ObjectiveMatrix(kernel=kernel.csr, inner=inner)


def _canonical_eigenbasis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Gram-Schmidt over the projections of the standard basis vectors, taken in
    ascending sample-index order, so repeated eigenvalues yield the same
    eigenvectors on every run and platform.
    """
    n, m = block.shape
    accepted: list[np.ndarray] = []
    for k in range(n):
        v = block[k, :].copy()  # coordinates of P e_k in the eigenspace basis
        for a in accepted:
            v -= (a @ v) * a
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            accepted.append(v / norm)
        if len(accepted) == m:
            break
    return block @ np.column_stack(accepted)


def _tie_tolerance(w: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.abs(w).max()))


def _canonical_top(w: np.ndarray, v: np.ndarray, c: int) -> int:
    """Canonicalize, in place, each group of tied eigenvalues among the first c.

    ``w`` is descending and ``v`` holds the matching columns.  Returns where
    the group holding position c ends.
    """
    tol = _tie_tolerance(w)
    start = 0
    while start < c:
        stop = start + 1
        while stop < len(w) and w[stop - 1] - w[stop] <= tol:
            stop += 1
        if stop - start > 1:
            v[:, start:stop] = _canonical_eigenbasis(v[:, start:stop])
        start = stop
    return start


def _group_floor(w: np.ndarray, v: np.ndarray, c: int) -> float:
    """Canonicalize ``(w, v)`` in place; a further pair above the result joins the group at c.

    U is positive semi-definite, so a group at c that is not positive means
    rank(U) < c: refused.
    """
    stop = _canonical_top(w, v, c)
    noise = _tie_tolerance(w)
    if w[stop - 1] <= noise:
        raise RuntimeError(
            f"U has rank below c={c}: eigenvalue {c} is not above the rounding-noise floor "
            f"{noise:.3g}, so there are not c clusters to find"
        )
    return w[stop - 1] - noise


def _connected(matrix) -> bool:
    """Whether ``matrix.kernel`` joins all n indices into one graph."""
    # Imported on first use: the package adds tens of milliseconds to start-up,
    # and predict and the other commands never solve an eigenproblem.
    from scipy.sparse.csgraph import connected_components

    return connected_components(matrix.kernel, directed=False, return_labels=False) == 1


def _start_vector(n: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(n)  # fixed start: same pairs every run


def _ritz_pairs(apply, n: int, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The top k Ritz pairs of the symmetric operator ``apply``, descending, by one ARPACK call.

    ``tol`` is ARPACK's relative accuracy; 0 means machine precision.  An
    ARPACK failure propagates (a ``RuntimeError``).
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    operator = LinearOperator((n, n), matvec=apply, dtype=float)
    w, v = eigsh(operator, k=k, which="LA", v0=_start_vector(n), tol=tol)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def top_eigenpairs(matrix, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest-c eigenvalues (algebraic order, descending) and eigenvectors, any c <= n.

    ``matrix`` is a symmetric operator with ``n``, ``matvec`` and ``kernel`` (a
    sparse matrix whose edges join indices the operator connects), such as
    :class:`ObjectiveMatrix`.  One ARPACK Lanczos call on ``matvec``, to machine
    precision, asks for c + 1 pairs, at most n - 1; an ARPACK failure propagates
    (a ``RuntimeError``).
    One start vector can miss copies of a repeated eigenvalue, which in practice
    come from parts of ``matrix.kernel`` not connected to each other.  So on a
    graph in parts, a tie among the pairs found or fewer than c + 1 of them,
    each further pair is the top pair of ``U - V diag(w) V'``, until that lies
    below the group at c by more than the tie tolerance (relative to the largest
    eigenvalue) or all n are found.  The n-th pair is the start vector projected
    off the other n - 1, with its Rayleigh quotient.  Tie groups are
    canonicalized, so the result is deterministic.
    """
    n = matrix.n
    c, _ = check_hyperparameters(n, c)
    split = not _connected(matrix)
    apply = matrix.matvec
    w, v = np.zeros(0), np.zeros((n, 0))  # n = 1: the one pair is the last pair below
    if n > 1:
        w, v = _ritz_pairs(apply, n, min(c + 1, n - 1), 0.0)
    while True:
        order = np.argsort(-w, kind="stable")
        w, v = w[order], v[:, order]
        floor = _group_floor(w, v, c) if len(w) >= c else -np.inf  # c = n: one pair to go
        untied = len(w) > c and not split and np.all(w[:-1] - w[1:] > _tie_tolerance(w))
        if len(w) == n or untied:
            return w[:c], v[:, :c]
        if len(w) == n - 1:
            v0 = _start_vector(n)
            x = v0 - v @ (v.T @ v0)
            x -= v @ (v.T @ x)  # projected twice, to orthogonality at rounding level
            x /= np.linalg.norm(x)
            top, vector = np.array([x @ apply(x)]), x[:, None]
        else:
            def deflated(x, w=w, v=v):
                return apply(x) - v @ (w * (v.T @ x))

            top, vector = _ritz_pairs(deflated, n, 1, 0.0)
        if top[0] < floor:
            return w[:c], v[:, :c]
        w, v = np.append(w, top), np.hstack([v, vector])


def _certified_labels(matrix, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, eigenvalues and sign-fixed eigenvectors from a loose solve, if they are exact.

    ARPACK stops the c + 1 pairs at the relative accuracy ``_LOOSE_TOL``, and
    one block product gives each pair's residual ``r = ||U v - theta v||``,
    widened by ``_ROUNDING_RESIDUAL`` of the largest eigenvalue for rounding
    here and in :func:`top_eigenpairs`.  Taking the pairs for the top c + 1 of
    U, as :func:`top_eigenpairs` does on a connected graph, each eigenvalue of
    its tol-0 solve lies within ``r + rounding`` of theta, and each of its
    retained eigenvectors within ``e = sqrt(2) (r + rounding) / (gap - 3 max r)``
    of the loose one up to sign (Davis-Kahan sin-theta, applied to both
    solves), where the gap is to the nearest other theta.  The loose result
    is returned only if no point in those intervals and balls changes a
    decision the labels take: a tie among the c + 1 eigenvalues, the rank
    refusal, the sum that orients each column in :func:`fix_signs` (a column
    left to its rounding rule fails), a clipped column that could die, or a
    point's argmax in :func:`assign_clusters`.  Otherwise None: the tol-0
    solve gives the labels.
    """
    n = matrix.n
    if c + 1 > n - 1 or not _connected(matrix):
        return None
    w, v = _ritz_pairs(matrix.matvec, n, c + 1, _LOOSE_TOL)
    rounding = _ROUNDING_RESIDUAL * float(np.abs(w).max())
    r = np.linalg.norm(matrix.matvec(v) - v * w, axis=0) + rounding
    shift = r + rounding  # how far the tol-0 eigenvalues can lie from w
    tie = _tie_tolerance(np.abs(w) + shift)
    drops = w[:-1] - w[1:]
    if np.any(drops - shift[:-1] - shift[1:] <= tie) or w[c - 1] - shift[c - 1] <= tie:
        return None
    gaps = np.minimum(np.r_[np.inf, drops], np.r_[drops, np.inf])[:c]
    if np.any(gaps <= 3.0 * r.max()):
        return None
    wiggle = np.sqrt(2.0) * shift[:c] / (gaps - 3.0 * r.max())  # bounds a column's 2-norm move
    slack = np.sqrt(n) * wiggle  # bounds its 1-norm move
    phi = v[:, :c]
    sums, mass = phi.sum(axis=0), np.abs(phi).sum(axis=0)
    if np.any(np.abs(sums) - slack <= _SIGN_TOL * (mass + slack)):
        return None
    phi_tilde = fix_signs(phi)
    clipped = np.maximum(phi_tilde, 0.0)
    total = clipped.sum(axis=0)
    if np.any(total <= slack):
        return None
    labels = assign_clusters(phi_tilde)
    zero = phi_tilde + wiggle <= 0.0  # clipped to exactly 0 in either solve
    low = np.where(zero, 0.0, np.maximum(clipped - wiggle, 0.0) / (total + slack))
    high = np.where(zero, 0.0, (clipped + wiggle) / (total - slack))
    rows = np.arange(n)
    won = low[rows, labels - 1]
    high[rows, labels - 1] = -np.inf
    if not np.all((won > high.max(axis=1)) | zero.all(axis=1)):
        return None
    return labels, w[:c], phi_tilde


def fix_signs(phi: np.ndarray) -> np.ndarray:
    """Resolve each eigenvector's sign so its entry sum is non-negative, up to rounding.

    A sum within ``_SIGN_TOL * ||phi_y||_1`` of zero is rounding noise (an
    eigenvector antisymmetric across mirrored groups sums to about 0), so
    such a column is oriented by its first entry whose magnitude clears that
    tolerance; an all-zero column is left as is.
    """
    phi = np.asarray(phi, dtype=float)
    out = phi.copy()
    for y in range(phi.shape[1]):
        s = phi[:, y].sum()
        tol = _SIGN_TOL * np.abs(phi[:, y]).sum()
        if abs(s) <= tol:
            clear = np.flatnonzero(np.abs(phi[:, y]) > tol)
            if clear.size == 0:
                continue
            s = phi[clear[0], y]
        if s < 0:
            out[:, y] = -out[:, y]
    return out


def assign_clusters(phi_tilde: np.ndarray) -> np.ndarray:
    """Cluster labels in ``{1, ..., c}`` from sign-fixed eigenvectors.

    Sample i goes to ``argmax_y [max(0, phi_y)]_i / (max(0, phi_y)' 1)``; a
    column whose clipped vector is all zero falls back to its absolute values.
    Ties go to the smallest label.
    """
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    clipped = np.maximum(phi_tilde, 0.0)
    dead = ~clipped.any(axis=0)
    clipped[:, dead] = np.abs(phi_tilde[:, dead])
    sums = clipped.sum(axis=0)
    sums[sums == 0] = 1.0  # entirely-zero column: scores stay 0
    scores = clipped / sums
    return np.argmax(scores, axis=1) + 1


def cluster(
    ds: Dataset,
    cs: ConstraintSet | None,
    t: int,
    gamma: float,
    eta: float,
    c: int,
) -> tuple[np.ndarray, ClusterModel]:
    """Full pipeline: kernel, link editing, eigensolve, assignment.

    Returns the label vector (values ``1..c``) and a :class:`ClusterModel`
    carrying everything needed for out-of-sample prediction.
    """
    c, (t,) = check_hyperparameters(ds.n, c, [t], [gamma], [eta])
    if cs is None:
        cs = empty_constraints(ds.n)
    edited = apply_constraints(local_scaling_kernel(ds.features, t), cs)
    matrix = objective_matrix(edited, gamma, eta, c)
    certified = _certified_labels(matrix, c)
    if certified is None:
        lam, phi = top_eigenpairs(matrix, c)
        phi_tilde = fix_signs(phi)
        labels = assign_clusters(phi_tilde)
    else:
        labels, lam, phi_tilde = certified
    model = ClusterModel(
        phi=phi_tilde, lam=lam, c=c, t=edited.t, gamma=float(gamma), eta=float(eta),
        train_features=ds.features, train_sigma=edited.sigma,
    )
    return labels, model


def _query_kernel(model: ClusterModel, x: np.ndarray, tree: cKDTree | None = None):
    """The unmodified kernel rows of queries ``x`` against the model's training set, as CSR.

    See :func:`smiclust.kernel.query_kernel` for the rule; ``tree``, if given,
    is the k-d tree over the training features.
    """
    return query_kernel(model.train_features, model.train_sigma, model.t, x, tree)


def predict(model: ClusterModel, x) -> int | np.ndarray:
    """Out-of-sample labels for one point or a batch of points.

    Scores each cluster as ``max(0, sum_i K(x', x_i) phi_y[i])`` normalized by
    ``lam_y * max(0, phi_y)' 1`` and returns the argmax (ties to the smallest
    label).  Refuses to predict when any retained eigenvalue is non-positive
    up to the tie tolerance, since the score normalization is then meaningless.

    The queries are sorted once (stably) along the coordinate they spread
    widest, scored in consecutive runs of that order of ``max(_QUERY_BLOCK, n)``
    rows, and their labels put back in input order.  So the query kernel of a
    large batch is never held whole (peak memory follows the model, not the
    batch), and each block covers a narrow slab: a training point is
    ball-queried only by the blocks its radius reaches, about one.  The floor
    of n amortizes each block's remaining training-side work; the k-d tree
    over the training points is built once per call.  A query's kernel row
    depends only on that query and the training set, so the labels depend
    neither on the blocks nor on the order of the batch.  Neither do the
    refusals, with one exception: the k-d tree refuses a ball query when a
    block's bounding box lies about 1.3e154 from a training point whose radius
    reaches that box, even when every real distance is finite.  A block's box
    lies inside the batch's, so blocks add no refusal, and far queries that
    sort into different blocks may pass where one block holding them all
    would be refused.
    """
    if np.any(model.lam <= _tie_tolerance(model.lam)):
        raise PredictionError(
            "cannot predict: non-positive eigenvalue (up to rounding) among the top-c "
            f"(eigenvalues: {model.lam.tolist()}); U has rank below c, which cluster refuses"
        )
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"queries must be one point or a 2-d array of points, got shape {x.shape}")
    _check_entries("queries", x, np.isfinite(x), "finite")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.train_features.shape[1]:
        raise ValueError(
            f"query dimension {x.shape[1]} does not match training dimension "
            f"{model.train_features.shape[1]}"
        )
    denom = model.lam * np.maximum(model.phi, 0.0).sum(axis=0)
    positive = denom > 0
    labels = np.empty(x.shape[0], dtype=np.intp)
    step = max(_QUERY_BLOCK, model.phi.shape[0])
    widest = np.argmax(np.ptp(x, axis=0)) if len(x) else 0
    order = np.argsort(x[:, widest], kind="stable")
    tree = cKDTree(model.train_features)
    for start in range(0, x.shape[0], step):
        block = order[start:start + step]
        numer = np.maximum(_query_kernel(model, x[block], tree) @ model.phi, 0.0)
        scores = np.where(positive, numer / np.where(positive, denom, 1.0), -np.inf)
        labels[block] = np.argmax(scores, axis=1) + 1
    return int(labels[0]) if single else labels


def save_model(model: ClusterModel, path) -> None:
    """Persist a model as a versioned JSON document."""
    save_json(path, {
        "schema": MODEL_SCHEMA,
        "c": model.c,
        "t": model.t,
        "gamma": model.gamma,
        "eta": model.eta,
        "eigenvalues": model.lam.tolist(),
        "phi": model.phi.tolist(),
        "train_features": model.train_features.tolist(),
        "train_sigma": model.train_sigma.tolist(),
    })


def load_model(path) -> ClusterModel:
    """Read a model written by :func:`save_model`; a bad document raises ``ValueError``."""
    doc = checked_json(load_json(path), "model")
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {schema!r}, expected {MODEL_SCHEMA!r}")
    fields = ("c", "t", "gamma", "eta", "eigenvalues", "phi", "train_features", "train_sigma")
    checked_json(doc, "model", required=fields)
    return ClusterModel(
        phi=_numeric_field(doc, "phi"),
        lam=_numeric_field(doc, "eigenvalues"),
        c=doc["c"],
        t=doc["t"],
        gamma=_numeric_field(doc, "gamma", scalar=True),
        eta=_numeric_field(doc, "eta", scalar=True),
        train_features=_numeric_field(doc, "train_features"),
        train_sigma=_numeric_field(doc, "train_sigma"),
    )


def _numeric_field(doc: dict, key: str, scalar: bool = False):
    """Model field ``key`` as a float, or as a float array; refuses a ragged or non-numeric one."""
    try:
        value = np.array(doc[key])
    except ValueError:  # ragged nesting
        value = np.array(None)
    if value.dtype.kind not in "iuf" or (scalar and value.ndim):
        kind = "a number" if scalar else "a rectangular array of numbers"
        raise ValueError(f"model field {key!r} must be {kind}")
    return float(value) if scalar else value.astype(float, copy=False)
