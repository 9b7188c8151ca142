"""Scalar kernel dictionary, trace-normalized Gram matrices, empirical features.

Each kernel operates on one input partition (the lagged past of a single
series) or, for the unpartitioned variant, on the full input vector. The
kernels of one partition are evaluated together, from one inner-product
matrix and, when a Gaussian is among them, one squared-distance matrix.
Training Grams (build_gram_stack) are held once each, as packed lower
triangles, rescaled to trace n, and the factor is kept on the spec;
cross_gram, the one cross-Gram builder, applies it to test-time blocks, for
serving and for build_cross_stack alike. What a
cross-Gram block needs of the training rows alone (the rows and their half
squared norms) can be prepared once as TrainingRows, whose leading axis
stacks partitions: one cross_gram call then evaluates every partition that
shares a kernel layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ConfigError,
    DegenerateKernelError,
    DimensionMismatchError,
    NormFactorMissingError,
    NotPSDError,
    data_array,
    real_number,
    whole_number,
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


@dataclass(frozen=True)
class KernelSpec:
    """One dictionary entry bound to an input partition.

    kind is 'linear' (param None), 'polynomial' (param = degree >= 2,
    inhomogeneous (1 + <u,v>)^degree) or 'gaussian' (param = width w, with w
    and w^2 positive floats, exp(-||u-v||^2/(2 w^2))).
    partition is the source-series index, or None for the full input vector.
    norm_factor, the training Gram's scale to trace n, is given to the spec
    build_gram_stack makes with that Gram and rescales every cross-Gram
    block. A wrongly typed value raises ConfigError. A spec is frozen:
    dataclasses.replace makes a changed copy, checked again.
    """

    kind: str
    param: float | None = None
    partition: int | None = None
    norm_factor: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.param is not None:
                raise ConfigError(f"a linear kernel takes no parameter, got {self.param!r}")
        elif self.kind in ("polynomial", "gaussian"):
            object.__setattr__(self, "param", real_number(self.param, "kernel parameter"))
            if self.kind == "polynomial":
                if int(self.param) != self.param or self.param < 2:
                    raise ConfigError(f"polynomial degree {self.param} is not an integer >= 2")
                object.__setattr__(self, "param", int(self.param))
            elif not (self.param > 0.0 and 0.0 < self.param * self.param < math.inf):
                raise ConfigError(f"gaussian width {self.param}: it and its square must be > 0")
        else:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.partition is not None:
            object.__setattr__(self, "partition", whole_number(self.partition, "kernel partition"))
        if self.norm_factor is not None:
            object.__setattr__(self, "norm_factor",
                               real_number(self.norm_factor, "kernel norm_factor"))
            if not self.norm_factor > 0:
                raise ConfigError(f"{self.label()}: norm_factor {self.norm_factor} is not > 0")

    def label(self) -> str:
        part = "full" if self.partition is None else str(self.partition)
        if self.kind == "linear":
            return f"linear[{part}]"
        return f"{self.kind}({self.param:g})[{part}]"


@dataclass
class GramStack:
    """The l normalized training Gram matrices with their specs. Each Gram is
    symmetric and held once, as its lower triangle in LAPACK packed order
    (column by column, n(n+1)/2 entries): packed is one (l, n(n+1)/2) array,
    half the bytes of the dense (l, n, n) stack. gram(d) unpacks one Gram;
    GramStack.of packs dense ones.

    group_index[d], kernel d's (group, position) pair, is derived from the
    specs (group_index_of), a partition's kernels forming one contiguous
    group (sizes: group_sizes). build_gram_stack writes each kernel's packed
    row from its partition's shared products and rescales it there, making
    each spec with its norm_factor.
    """

    packed: np.ndarray
    specs: list[KernelSpec]

    @classmethod
    def of(cls, grams, specs) -> GramStack:
        """Pack the lower triangles of dense n x n Grams, one per spec, read as
        one (l, n, n) array by data_array; a non-square Gram or another count
        of specs raises DimensionMismatchError."""
        grams = data_array(grams, 3, "Grams")
        if not 0 < len(grams) == len(specs) or grams.shape[1] != grams.shape[2]:
            raise DimensionMismatchError(f"Grams of shape {grams.shape} are not one stack of "
                                         f"square matrices for {len(specs)} specs")
        return cls(np.stack([lapack.dtrttp(K, uplo="L")[0] for K in grams]), specs)

    @property
    def group_index(self) -> list[tuple[int, int]]:
        return group_index_of(self.specs)

    @property
    def n_kernels(self) -> int:
        return self.packed.shape[0]

    @property
    def n_train(self) -> int:
        return (math.isqrt(8 * self.packed.shape[1] + 1) - 1) // 2

    def gram(self, d: int) -> np.ndarray:
        """Kernel d's Gram, unpacked into an exactly symmetric n x n array."""
        n = self.n_train
        K = lapack.dtpttr(n, self.packed[d], uplo="L")[0]
        np.copyto(K, K.T, where=np.tri(n, k=-1, dtype=bool).T)  # mirror the lower triangle
        return K


@dataclass
class FeatureStack:
    """Per-kernel factors Phi with Phi Phi^T reproducing the Gram matrix."""

    features: list[np.ndarray]

    @property
    def ranks(self) -> list[int]:
        return [phi.shape[1] for phi in self.features]


@dataclass(frozen=True)
class TrainingRows:
    """The (P, n, p) float training rows of P input partitions (read by
    data_array), prepared for cross-Gram blocks: their half squared norms
    -||x||^2 / 2, (P, n), are derived from them on construction."""

    rows: np.ndarray
    half_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", data_array(self.rows, 3, "training rows"))
        object.__setattr__(self, "half_sq", -0.5 * np.sum(self.rows * self.rows, axis=-1))


def make_specs(partitions, dictionary=DEFAULT_DICTIONARY) -> list[KernelSpec]:
    """Instantiate the dictionary on each partition, partition-major order."""
    if not dictionary:
        raise ConfigError("kernels must list at least one kernel")
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


def group_sizes(group_index) -> np.ndarray:
    """Sizes of the contiguous groups of a group index, in order; a group
    whose kernels are not contiguous raises DimensionMismatchError."""
    gids = [g for g, _ in group_index]
    if any(later < earlier for earlier, later in zip(gids, gids[1:])):
        raise DimensionMismatchError("the kernels of one group must be contiguous")
    return np.unique(gids, return_counts=True)[1]


def partition_columns(spec: KernelSpec, partition_map) -> list[int] | slice:
    """Input columns this kernel sees; the full row when partition is None."""
    if spec.partition is None:
        return slice(None)
    return partition_map[spec.partition]


def _inhomogeneous_power(G: np.ndarray, degree: int, out: np.ndarray) -> None:
    """out <- (1 + G) ** degree by square-and-multiply, not libm pow: degree 2
    is bitwise (1 + G) * (1 + G), each product moves the result by at most
    about one ulp, and a degree read from a config or model file costs
    log2(degree) products. A power of two is squared in `out` itself; any
    other degree squares into its own temporary."""
    low = degree & -degree  # the lowest set bit
    squares = out if degree == low else np.empty_like(G)
    np.add(G, 1.0, out=squares)
    for _ in range(low.bit_length() - 1):
        squares *= squares
    if squares is not out:
        np.copyto(out, squares)
    degree >>= low.bit_length()
    while degree:  # the bits above it
        squares *= squares
        if degree & 1:
            out *= squares
        degree >>= 1


def _shared_products(X: np.ndarray, Z: np.ndarray, x_half: np.ndarray, G: np.ndarray,
                     half_sq: np.ndarray | None) -> None:
    """What every kernel of one input partition is computed from, written in
    place: G <- <u,v> between rows Z (r, p) and X (n, p), or a leading axis
    of partitions that share a kernel layout, and half_sq <- -||u-v||^2 / 2
    unless it is None. x_half holds X's half squared norms -||x||^2 / 2.
    With Z is X both are exactly symmetric: <u,v> comes from one syrk and
    the rest elementwise."""
    np.matmul(Z, X.swapaxes(-1, -2), out=G)
    if half_sq is not None:
        # -||u-v||^2 / 2 = <u,v> - ||u||^2 / 2 - ||v||^2 / 2, clipped at 0
        z_half = x_half if Z is X else -0.5 * np.sum(Z * Z, axis=-1)
        np.add(z_half[..., :, None], x_half[..., None, :], out=half_sq)
        half_sq += G
        np.minimum(half_sq, 0.0, out=half_sq)


def _kernel_values(specs, slots, G: np.ndarray, half_sq: np.ndarray | None) -> None:
    """Raw kernel values slots[i] <- k_i, in spec order, of kernels sharing one
    input partition: elementwise from its G = <u,v> and half_sq = -||u-v||^2 / 2
    (None without a Gaussian), dense blocks or packed rows. G may be a linear
    kernel's slot and half_sq the last Gaussian's: no kernel writes G, and
    none reads half_sq after the last Gaussian writes it."""
    for spec, K in zip(specs, slots):
        if spec.kind == "linear":
            if K is not G:
                np.copyto(K, G)
        elif spec.kind == "polynomial":
            _inhomogeneous_power(G, spec.param, K)
        else:
            np.divide(half_sq, spec.param**2, out=K)
            np.exp(K, out=K)


def cross_gram(specs, train, test_rows) -> np.ndarray:
    """Kernel blocks between test and training rows, each scaled by its
    training factor; a spec without one raises NormFactorMissingError.

    With training rows `train` (n_train, p) and test rows (n_test, p), one
    KernelSpec gives its (n_test, n_train) block, and a list of k specs on
    one input partition (the rows hold that partition's columns) gives their
    (k, n_test, n_train) blocks, all from one <u,v> and one -||u-v||^2 / 2;
    block i equals cross_gram(specs[i], ...) bit for bit.

    With `train` a TrainingRows of P partitions, test rows (P, n_test, p)
    and specs P lists of k specs with one (kind, param) layout, one call
    gives the (k, P, n_test, n_train) blocks of all P partitions, block
    [i, j] equal to cross_gram(specs[j][i], train.rows[j], test_rows[j]) bit
    for bit. Kernel-major, each kernel's blocks are one contiguous array for
    the elementwise passes. Test rows, and training rows not given as a
    TrainingRows, are read by data_array.
    """
    if not isinstance(train, TrainingRows):
        X = data_array(train, 2, "training rows")
        one = isinstance(specs, KernelSpec)
        blocks = cross_gram([[specs] if one else list(specs)], TrainingRows(X[None]),
                            data_array(test_rows, 2, "test rows")[None])
        return blocks[0, 0] if one else blocks[:, 0]
    Z = data_array(test_rows, 3, "test rows")
    P, n, p = train.rows.shape
    if Z.shape[0] != P or Z.shape[2] != p or len(specs) != P:
        raise DimensionMismatchError(f"test rows {Z.shape} and {len(specs)} spec lists "
                                     f"for training rows {train.rows.shape}")
    layout = [(spec.kind, spec.param) for spec in specs[0]]
    for part in specs:
        if [(spec.kind, spec.param) for spec in part] != layout:
            raise DimensionMismatchError("stacked partitions must share one kernel layout")
        for spec in part:
            if spec.norm_factor is None:
                raise NormFactorMissingError(
                    f"{spec.label()}: build_gram_stack must run on training data first"
                )
    blocks = np.empty((len(layout), P, Z.shape[1], n))
    # <u,v> is held in the first linear kernel's block and -||u-v||^2 / 2 in
    # the last Gaussian's, until each is written over by its own kernel
    slots = list(blocks)
    linear = [K for (kind, _), K in zip(layout, slots) if kind == "linear"]
    gaussians = [K for (kind, _), K in zip(layout, slots) if kind == "gaussian"]
    G = linear[0] if linear else np.empty(blocks.shape[1:])
    half_sq = gaussians[-1] if gaussians else None
    _shared_products(train.rows, Z, train.half_sq, G, half_sq)
    _kernel_values(specs[0], slots, G, half_sq)
    blocks *= np.array([[spec.norm_factor for spec in part] for part in specs]).T[:, :, None, None]
    return blocks


def empirical_features(K: np.ndarray) -> np.ndarray:
    """Factor a PSD matrix as Phi Phi^T by eigendecomposition.

    Columns correspond to eigenvalues above RANK_TOL * max eigenvalue; small
    negative eigenvalues (numerical noise) are dropped, clearly negative
    ones raise NotPSDError.
    """
    K = data_array(K, 2, "matrix")
    if not 0 < K.shape[0] == K.shape[1]:
        raise DimensionMismatchError(f"a matrix of shape {K.shape} is not square")
    vals, vecs = np.linalg.eigh(0.5 * (K + K.T))
    top = float(vals[-1])
    if top <= 0.0:
        raise NotPSDError("matrix has no positive eigenvalue")
    if vals[0] < -10.0 * RANK_TOL * top:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -10*RANK_TOL*max ({top:.3e})")
    keep = vals > RANK_TOL * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def build_gram_stack(inputs: np.ndarray, partition_map, dictionary=DEFAULT_DICTIONARY,
                     partitions=None) -> GramStack:
    """Normalized Gram matrices for every dictionary kernel on every partition,
    rescaled to trace n, as one packed GramStack whose specs are made with
    their factors.

    Each partition's dense <u,v> and, when a Gaussian is among its kernels,
    -||u-v||^2 / 2 are made once and packed (lapack.dtrttp); every kernel of
    the partition is then written elementwise straight into its packed row,
    so no dense Gram is ever made. Each trace is read off the packed
    diagonal. `partitions` defaults to one partition per series; pass [None]
    for the unpartitioned full-input variant, whose rows are a view of
    `inputs`.
    """
    inputs = data_array(inputs, 2, "inputs")
    if partitions is None:
        partitions = list(range(len(partition_map)))
    specs = make_specs(partitions, dictionary)
    n = inputs.shape[0]
    packed = np.empty((len(specs), n * (n + 1) // 2))
    j = np.arange(n)
    diagonal = j * n - j * (j - 1) // 2  # packed index of entry (j, j)
    bounds = np.cumsum([0, *group_sizes(group_index_of(specs))])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        X = inputs[:, partition_columns(specs[lo], partition_map)]
        G = np.empty((n, n))
        half_sq = np.empty((n, n)) if any(s.kind == "gaussian" for s in specs[lo:hi]) else None
        # an overflowing entry overflows a diagonal one too (Cauchy-Schwarz), so
        # the trace check below reports it as a DegenerateKernelError
        with np.errstate(over="ignore"):
            _shared_products(X, X, -0.5 * np.sum(X * X, axis=-1), G, half_sq)
            # both are exactly symmetric: their transposes, Fortran-ordered
            # views, pack without a copy
            G, half_sq = [None if P is None else lapack.dtrttp(P.T, uplo="L")[0]
                          for P in (G, half_sq)]
            _kernel_values(specs[lo:hi], list(packed[lo:hi]), G, half_sq)
        for d in range(lo, hi):
            tr = float(packed[d, diagonal].sum())
            if not (np.isfinite(tr) and tr >= 1e-12):  # inf: the kernel overflowed
                raise DegenerateKernelError(f"{specs[d].label()}: Gram trace {tr:.3e}")
            specs[d] = replace(specs[d], norm_factor=n / tr)
            packed[d] *= specs[d].norm_factor
    return GramStack(packed=packed, specs=specs)


def build_feature_stack(stack: GramStack) -> FeatureStack:
    return FeatureStack(features=[empirical_features(stack.gram(d))
                                  for d in range(stack.n_kernels)])


def build_cross_stack(specs, train_inputs: np.ndarray, new_inputs: np.ndarray,
                      partition_map) -> np.ndarray:
    """Cross-Gram blocks (l, n_new, n_train) for every one of the l specs,
    whose norm factors were stored with their training Grams, filled one
    partition at a time by cross_gram; a partition's specs are contiguous."""
    train_inputs = data_array(train_inputs, 2, "training inputs")
    new_inputs = data_array(new_inputs, 2, "new inputs")
    out = np.empty((len(specs), new_inputs.shape[0], train_inputs.shape[0]))
    bounds = np.cumsum([0, *group_sizes(group_index_of(specs))])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = partition_columns(specs[lo], partition_map)
        out[lo:hi] = cross_gram(specs[lo:hi], train_inputs[:, cols], new_inputs[:, cols])
    return out
