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
``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2`` as CSR and applies ``U v`` as
three sparse products, and :func:`top_eigenpairs` takes the top c + 1 pairs
(at most n - 1) from one ARPACK Lanczos call on that operator, deflating for
more only on a tie, a graph in parts or c >= n - 1; the n-th pair is the
orthogonal complement of the other n - 1.  ``B = (I + g M)^2 + (I - e C)^2``,
so U is positive semi-definite; a c-th eigenvalue that is not positive means
rank(U) < c and is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .data import ConstraintSet, Dataset, empty_constraints
from .kernel import KernelMatrix, apply_constraints, local_scaling_kernel, query_kernel
from .kernel import _link_matrix, check_hyperparameters
from .kernel import nearest_neighbors  # noqa: F401  re-exported; perfbench/tracer.py wraps it

MODEL_SCHEMA = "smiclust-model-v1"


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
        if phi.shape[1:] != (c,) or lam.shape != (c,):
            raise ValueError("phi must be n x c and lam length c")
        if not np.isfinite(lam).all():
            raise ValueError(f"lam (the eigenvalues) must be finite, got {lam.tolist()}")
        if features.ndim != 2 or features.shape[0] != n or not np.isfinite(features).all():
            raise ValueError(f"train_features must be finite with {n} rows, got {features.shape}")
        if sigma.shape != (n,) or not np.isfinite(sigma).all() or np.any(sigma < 0):
            raise ValueError(f"train_sigma must be {n} finite scales >= 0, got {sigma.shape}")
        gram = phi.T @ phi
        if not np.allclose(gram, np.eye(c), atol=1e-8):
            raise ValueError("phi columns must be orthonormal")
        if np.any(np.diff(lam) > 1e-10):
            raise ValueError("lam must be sorted in descending order")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "train_features", features)
        object.__setattr__(self, "train_sigma", sigma)


def objective_matrix(
    kernel: KernelMatrix, cs: ConstraintSet, gamma: float, eta: float, c: int
) -> ObjectiveMatrix:
    """U = K' B K' with ``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2``, as a matrix-free operator.

    B is built once as canonical CSR; the cannot-link terms are left out when
    ``eta`` is 0.  The arguments are held to :func:`check_hyperparameters`.
    """
    check_hyperparameters(kernel.n, c, (), [gamma], [eta])
    if cs.n != kernel.n:
        raise ValueError(f"constraint set n={cs.n} does not match kernel n={kernel.n}")
    must = _link_matrix(cs.must_links, cs.n, 1.0)
    inner = 2.0 * sparse.identity(cs.n, format="csr") + 2.0 * gamma * must
    inner = inner + gamma**2 * (must @ must)
    if eta != 0:
        cannot = _link_matrix(cs.cannot_links, cs.n, 0.0)
        inner = inner - 2.0 * eta * cannot + eta**2 * (cannot @ cannot)
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
    floor = w[stop - 1] - _tie_tolerance(w)
    if floor <= 0:
        raise RuntimeError(
            f"U has rank below c={c}: eigenvalue {c} is {w[c - 1]:.3g}, "
            "not above rounding noise, so there are not c clusters to find"
        )
    return floor


def top_eigenpairs(matrix, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest-c eigenvalues (algebraic order, descending) and eigenvectors, any c <= n.

    ``matrix`` is a symmetric operator with ``n``, ``matvec`` and ``kernel`` (a
    sparse matrix whose edges join indices the operator connects), such as
    :class:`ObjectiveMatrix`.  One ARPACK Lanczos call on ``matvec`` asks for
    c + 1 pairs, at most n - 1; an ARPACK failure propagates (a ``RuntimeError``).
    One start vector can miss copies of a repeated eigenvalue, which in practice
    come from parts of ``matrix.kernel`` not connected to each other.  So on a
    graph in parts, a tie among the pairs found or fewer than c + 1 of them,
    each further pair is the top pair of ``U - V diag(w) V'``, until that lies
    below the group at c by more than the tie tolerance (relative to the largest
    eigenvalue) or all n are found.  The n-th pair is the start vector projected
    off the other n - 1, with its Rayleigh quotient.  Tie groups are
    canonicalized, so the result is deterministic.
    """
    # Imported on first use: the package adds tens of milliseconds to start-up,
    # and predict and the other commands never solve an eigenproblem.
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = matrix.n
    c, _ = check_hyperparameters(n, c)
    split = connected_components(matrix.kernel, directed=False, return_labels=False) > 1
    apply = matrix.matvec
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed start: same pairs every run
    w, v = np.zeros(0), np.zeros((n, 0))  # n = 1: the one pair is the last pair below
    if n > 1:
        operator = LinearOperator((n, n), matvec=apply, dtype=float)
        w, v = eigsh(operator, k=min(c + 1, n - 1), which="LA", v0=v0)
    while True:
        order = np.argsort(-w, kind="stable")
        w, v = w[order], v[:, order]
        floor = _group_floor(w, v, c) if len(w) >= c else -np.inf  # c = n: one pair to go
        untied = len(w) > c and not split and np.all(w[:-1] - w[1:] > _tie_tolerance(w))
        if len(w) == n or untied:
            return w[:c], v[:, :c]
        if len(w) == n - 1:
            x = v0 - v @ (v.T @ v0)
            x -= v @ (v.T @ x)  # projected twice, to orthogonality at rounding level
            x /= np.linalg.norm(x)
            top, vector = np.array([x @ apply(x)]), x[:, None]
        else:
            deflated = LinearOperator(
                (n, n), matvec=lambda x, w=w, v=v: apply(x) - v @ (w * (v.T @ x)), dtype=float
            )
            top, vector = eigsh(deflated, k=1, which="LA", v0=v0)
        if top[0] < floor:
            return w[:c], v[:, :c]
        w, v = np.append(w, top), np.hstack([v, vector])


def fix_signs(phi: np.ndarray) -> np.ndarray:
    """Resolve each eigenvector's sign so its entry sum is non-negative, up to rounding.

    A sum within ``1e-8 * ||phi_y||_1`` of zero is rounding noise (an
    eigenvector antisymmetric across mirrored groups sums to about 0), so
    such a column is oriented by its first entry whose magnitude clears that
    tolerance; an all-zero column is left as is.
    """
    phi = np.asarray(phi, dtype=float)
    out = phi.copy()
    for y in range(phi.shape[1]):
        s = phi[:, y].sum()
        tol = 1e-8 * np.abs(phi[:, y]).sum()
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
    lam, phi = top_eigenpairs(objective_matrix(edited, cs, gamma, eta, c), c)
    phi_tilde = fix_signs(phi)
    model = ClusterModel(
        phi=phi_tilde,
        lam=lam,
        c=c,
        t=edited.t,
        gamma=float(gamma),
        eta=float(eta),
        train_features=ds.features,
        train_sigma=edited.sigma,
    )
    return assign_clusters(phi_tilde), model


def _query_kernel(model: ClusterModel, x: np.ndarray) -> sparse.csr_matrix:
    """The unmodified kernel rows of queries ``x`` against the model's training set, as CSR.

    See :func:`smiclust.kernel.query_kernel` for the rule.
    """
    return query_kernel(model.train_features, model.train_sigma, model.t, x)


def predict(model: ClusterModel, x) -> int | np.ndarray:
    """Out-of-sample labels for one point or a batch of points.

    Scores each cluster as ``max(0, sum_i K(x', x_i) phi_y[i])`` normalized by
    ``lam_y * max(0, phi_y)' 1`` and returns the argmax (ties to the smallest
    label).  Refuses to predict when any retained eigenvalue is non-positive
    up to the tie tolerance, since the score normalization is then meaningless.
    """
    if np.any(model.lam <= _tie_tolerance(model.lam)):
        raise PredictionError(
            "cannot predict: non-positive eigenvalue (up to rounding) among the top-c "
            f"(eigenvalues: {model.lam.tolist()}); U has rank below c, which cluster refuses"
        )
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.train_features.shape[1]:
        raise ValueError(
            f"query dimension {x.shape[1]} does not match training dimension "
            f"{model.train_features.shape[1]}"
        )
    k_new = _query_kernel(model, x)
    numer = np.maximum(k_new @ model.phi, 0.0)
    denom = model.lam * np.maximum(model.phi, 0.0).sum(axis=0)
    scores = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), -np.inf)
    labels = np.argmax(scores, axis=1) + 1
    return int(labels[0]) if single else labels


def save_model(model: ClusterModel, path) -> None:
    """Persist a model as a versioned JSON document."""
    doc = {
        "schema": MODEL_SCHEMA,
        "c": model.c,
        "t": model.t,
        "gamma": model.gamma,
        "eta": model.eta,
        "eigenvalues": model.lam.tolist(),
        "phi": model.phi.tolist(),
        "train_features": model.train_features.tolist(),
        "train_sigma": model.train_sigma.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path) -> ClusterModel:
    """Read a model written by :func:`save_model`; a bad document raises ``ValueError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"a model must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {schema!r}, expected {MODEL_SCHEMA!r}")
    for key in ("c", "t", "gamma", "eta", "eigenvalues", "phi", "train_features", "train_sigma"):
        if key not in doc:
            raise ValueError(f"model field {key!r} is missing")
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
