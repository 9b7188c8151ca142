"""Scalar kernel dictionary, trace-normalized Gram matrices, empirical features.

Each kernel operates on one input partition (the lagged past of a single
series) or, for the unpartitioned variant, on the full input vector.
Training Gram matrices are rescaled to trace n and the factor is kept on the
spec so test-time cross-Gram blocks use the same scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    NormFactorMissingError,
    NotPSDError,
)

#: (kind, parameter) pairs applied to every input partition by default.
DEFAULT_DICTIONARY = (
    ("linear", None),
    ("polynomial", 2),
    ("polynomial", 3),
    ("gaussian", 0.5),
    ("gaussian", 1.0),
    ("gaussian", 2.0),
)

#: Relative eigenvalue cutoff when factoring Gram matrices.
RANK_TOL = 1e-10


@dataclass
class KernelSpec:
    """One dictionary entry bound to an input partition.

    kind is 'linear', 'polynomial' (param = degree >= 2, inhomogeneous
    (1 + <u,v>)^degree) or 'gaussian' (param = width w, exp(-||u-v||^2/(2 w^2))).
    partition is the source-series index, or None for the full input vector.
    norm_factor is filled by gram_matrix.
    """

    kind: str
    param: float | None = None
    partition: int | None = None
    norm_factor: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            self.param = None
        elif self.kind == "polynomial":
            if self.param is None or int(self.param) != self.param or self.param < 2:
                raise ValueError(f"polynomial degree must be an integer >= 2, got {self.param}")
            self.param = int(self.param)
        elif self.kind == "gaussian":
            if self.param is None or self.param <= 0:
                raise ValueError(f"gaussian width must be positive, got {self.param}")
            self.param = float(self.param)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def label(self) -> str:
        part = "full" if self.partition is None else str(self.partition)
        if self.kind == "linear":
            return f"linear[{part}]"
        return f"{self.kind}({self.param:g})[{part}]"


@dataclass
class GramStack:
    """The l normalized training Gram matrices, one (l, n, n) array, with
    their specs (a list of n x n matrices is stacked on construction).

    group_index[d] is the (partition j, within-partition i) pair of kernel d;
    kernels sharing a partition are contiguous.
    """

    grams: np.ndarray
    specs: list[KernelSpec]
    group_index: list[tuple[int, int]]

    def __post_init__(self):
        self.grams = np.asarray(self.grams, dtype=float)

    @property
    def n_kernels(self) -> int:
        return self.grams.shape[0]

    @property
    def n_train(self) -> int:
        return self.grams[0].shape[0]


@dataclass
class FeatureStack:
    """Per-kernel factors Phi with Phi Phi^T reproducing the Gram matrix."""

    features: list[np.ndarray]
    ranks: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.ranks:
            self.ranks = [phi.shape[1] for phi in self.features]


def make_specs(partitions, dictionary=DEFAULT_DICTIONARY) -> list[KernelSpec]:
    """Instantiate the dictionary on each partition, partition-major order."""
    return [KernelSpec(kind=kind, param=param, partition=part)
            for part in partitions for kind, param in dictionary]


def group_index_of(specs) -> list[tuple[int, int]]:
    """(group g, position i within the group) of every kernel, kernels sharing
    a partition forming one group, numbered in order of first appearance."""
    group_index = []
    seen: dict = {}
    counts: dict = {}
    for spec in specs:
        g = seen.setdefault(spec.partition, len(seen))
        i = counts.get(g, 0)
        counts[g] = i + 1
        group_index.append((g, i))
    return group_index


def partition_columns(spec: KernelSpec, partition_map) -> list[int] | slice:
    """Input columns this kernel sees; the full row when partition is None."""
    if spec.partition is None:
        return slice(None)
    return partition_map[spec.partition]


def kernel_eval(spec: KernelSpec, u, v) -> float:
    """Raw (unnormalized) kernel value for a single pair of vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"vectors of shapes {u.shape} and {v.shape}")
    if spec.kind == "linear":
        return float(u @ v)
    if spec.kind == "polynomial":
        return float((1.0 + u @ v) ** spec.param)
    diff = u - v
    return float(np.exp(-(diff @ diff) / (2.0 * spec.param**2)))


def _raw_gram(spec: KernelSpec, rows: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Vectorized kernel evaluation; rows of `other` (default `rows`) index the result rows."""
    X = np.asarray(rows, dtype=float)
    Z = X if other is None else np.asarray(other, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise DimensionMismatchError(
            f"incompatible row sets {Z.shape} and {X.shape}"
        )
    if spec.kind == "linear":
        return Z @ X.T
    if spec.kind == "polynomial":
        # square-and-multiply, not libm pow: degree 2 is bitwise x**2, each
        # product moves the result by at most about one ulp, and a degree
        # read from a config or model file costs log2(degree) products
        base = 1.0 + Z @ X.T
        out = None
        degree = spec.param
        while True:
            if degree & 1:
                if out is None:
                    out = base
                else:
                    out *= base
            degree >>= 1
            if not degree:
                return out
            base = base * base  # a new array: `out` may still be the old one
    sq = (
        np.sum(Z * Z, axis=1)[:, None]
        - 2.0 * (Z @ X.T)
        + np.sum(X * X, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * spec.param**2))


def gram_matrix(spec: KernelSpec, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Training Gram matrix rescaled to trace n; stores the factor on the spec."""
    # an overflowing entry overflows a diagonal one too (Cauchy-Schwarz), so
    # the trace check below reports it as a DegenerateKernelError
    with np.errstate(over="ignore"):
        G = _raw_gram(spec, rows)
        G = 0.5 * (G + G.T)
        tr = float(np.trace(G))
    n = G.shape[0]
    if not (np.isfinite(tr) and tr >= 1e-12):  # inf: the kernel overflowed
        raise DegenerateKernelError(f"{spec.label()}: Gram trace {tr:.3e}")
    rho = n / tr
    spec.norm_factor = rho
    return rho * G, rho


def cross_gram(spec: KernelSpec, train_rows: np.ndarray, test_rows: np.ndarray) -> np.ndarray:
    """Kernel block between test and training rows, using the training scale factor."""
    if spec.norm_factor is None:
        raise NormFactorMissingError(
            f"{spec.label()}: gram_matrix must run on training data first"
        )
    return spec.norm_factor * _raw_gram(spec, train_rows, test_rows)


def empirical_features(K: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Factor a PSD matrix as Phi Phi^T by eigendecomposition.

    Columns correspond to eigenvalues above tol * max eigenvalue; small
    negative eigenvalues (numerical noise) are dropped, clearly negative
    ones raise NotPSDError.
    """
    K = np.asarray(K, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (K + K.T))
    top = float(vals[-1])
    if top <= 0.0:
        raise NotPSDError("matrix has no positive eigenvalue")
    if vals[0] < -10.0 * tol * top:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -10*tol*max ({top:.3e})")
    keep = vals > tol * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def build_gram_stack(inputs: np.ndarray, partition_map, dictionary=DEFAULT_DICTIONARY,
                     partitions=None) -> GramStack:
    """Normalized Gram matrices for every dictionary kernel on every partition.

    `partitions` defaults to one partition per series; pass [None] for the
    unpartitioned full-input variant.
    """
    if partitions is None:
        partitions = list(range(len(partition_map)))
    specs = make_specs(partitions, dictionary)
    n = inputs.shape[0]
    grams = np.empty((len(specs), n, n))  # filled in place: no second copy
    for d, spec in enumerate(specs):
        cols = partition_columns(spec, partition_map)
        grams[d], _ = gram_matrix(spec, inputs[:, cols])
    return GramStack(grams=grams, specs=specs, group_index=group_index_of(specs))


def build_feature_stack(stack: GramStack, tol: float = RANK_TOL) -> FeatureStack:
    return FeatureStack(features=[empirical_features(K, tol) for K in stack.grams])


def build_cross_stack(stack: GramStack, train_inputs: np.ndarray, new_inputs: np.ndarray,
                      partition_map) -> list[np.ndarray]:
    """Cross-Gram blocks (n_new x n_train) for every kernel in the stack."""
    out = []
    for spec in stack.specs:
        cols = partition_columns(spec, partition_map)
        out.append(cross_gram(spec, train_inputs[:, cols], new_inputs[:, cols]))
    return out
