import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import elementwise_grams, kernel_eval

from nlvar.errors import (
    BadDataError,
    ConfigError,
    DegenerateKernelError,
    DimensionMismatchError,
    NormFactorMissingError,
    NotPSDError,
)
from nlvar.kernels import (
    DEFAULT_DICTIONARY,
    GramStack,
    KernelSpec,
    TrainingRows,
    build_cross_stack,
    build_feature_stack,
    build_gram_stack,
    cross_gram,
    empirical_features,
    group_index_of,
    group_sizes,
    make_specs,
)


def test_eval_gaussian_at_zero_distance():
    spec = KernelSpec("gaussian", 0.5)
    u = np.array([1.0, -2.0, 0.3])
    assert kernel_eval(spec, u, u) == pytest.approx(1.0, abs=0)


def test_eval_linear_inner_product():
    assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_eval_polynomial_inhomogeneous():
    # <u, v> = 2 -> (1 + 2)^2
    assert kernel_eval(KernelSpec("polynomial", 2), [2.0], [1.0]) == 9.0


def test_eval_rejects_mismatched_vectors():
    with pytest.raises(DimensionMismatchError):
        kernel_eval(KernelSpec("linear"), [1.0, 2.0], [1.0])


def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("polynomial", 1)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", -0.5)
    with pytest.raises(ConfigError):
        KernelSpec("sigmoid", 1.0)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", 1e-200)  # its square underflows to 0


def _gram(kind, param, rows):
    """One kernel's training Gram on the full rows, and its spec, which
    holds the norm factor."""
    stack = build_gram_stack(rows, [], [(kind, param)], [None])
    return stack.gram(0), stack.specs[0]


def test_gram_trace_equals_sample_size():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((9, 4))
    for kind, param in DEFAULT_DICTIONARY:
        G, spec = _gram(kind, param, rows)
        assert abs(np.trace(G) - 9.0) < 1e-8
        raw_trace = sum(kernel_eval(spec, u, u) for u in rows)
        assert spec.norm_factor == pytest.approx(9.0 / raw_trace, rel=1e-12)


def test_gram_gaussian_diagonal_constant():
    rng = np.random.default_rng(1)
    G, spec = _gram("gaussian", 1.0, rng.standard_normal((6, 3)))
    np.testing.assert_allclose(np.diag(G), spec.norm_factor, rtol=1e-12)


def test_gram_linear_orthonormal_rows_is_identity():
    G, spec = _gram("linear", None, np.eye(3))
    assert spec.norm_factor == pytest.approx(1.0)
    np.testing.assert_allclose(G, np.eye(3), atol=1e-15)


def test_gram_psd_and_symmetric_by_independent_eigensolver():
    rng = np.random.default_rng(2)
    rows = 2.0 * rng.standard_normal((6, 5))
    for kind, param in DEFAULT_DICTIONARY:
        G, _ = _gram(kind, param, rows)
        assert np.max(np.abs(G - G.T)) < 1e-10
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * 6


def test_gram_degenerate_trace_raises():
    with pytest.raises(DegenerateKernelError):
        _gram("linear", None, np.zeros((4, 3)))
    # a kernel that overflows has an infinite trace
    with pytest.raises(DegenerateKernelError):
        _gram("polynomial", 10**9, np.ones((4, 3)))


def test_cross_gram_consistent_with_training():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((7, 2))
    G, spec = _gram("polynomial", 3, rows)
    np.testing.assert_allclose(cross_gram(spec, rows, rows), G, atol=1e-12)


def test_cross_gram_gaussian_peaks_at_matching_point():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((8, 3))
    _, spec = _gram("gaussian", 1.0, rows)
    block = cross_gram(spec, rows, rows[[5]])
    assert block.shape == (1, 8)
    assert np.argmax(block[0]) == 5
    assert block[0, 5] == pytest.approx(spec.norm_factor, rel=1e-12)


def test_cross_gram_matches_elementwise_oracle():
    rng = np.random.default_rng(5)
    train = rng.standard_normal((6, 4))
    test = rng.standard_normal((3, 4))
    # degrees 4 and 5 take more than one repeated product
    for kind, param in DEFAULT_DICTIONARY + (("polynomial", 4), ("polynomial", 5)):
        _, spec = _gram(kind, param, train)
        block = cross_gram(spec, train, test)
        expected = np.array(
            [[spec.norm_factor * kernel_eval(spec, u, v) for v in train] for u in test]
        )
        np.testing.assert_allclose(block, expected, rtol=1e-12, atol=1e-14)


def test_cross_gram_requires_norm_factor():
    with pytest.raises(NormFactorMissingError):
        cross_gram(KernelSpec("linear"), np.ones((2, 2)), np.ones((1, 2)))


def test_features_identity():
    phi = empirical_features(np.eye(3))
    np.testing.assert_allclose(phi @ phi.T, np.eye(3), atol=1e-12)


def test_features_rank_one():
    phi = empirical_features(np.ones((2, 2)))
    assert phi.shape == (2, 1)
    np.testing.assert_allclose(np.abs(phi), np.ones((2, 1)), rtol=1e-12)


def test_features_reconstruct_random_psd():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 8))
    K = A @ A.T
    phi = empirical_features(K)
    err = np.linalg.norm(phi @ phi.T - K) / np.linalg.norm(K)
    assert err < 1e-8


def test_features_drop_null_directions():
    A = np.random.default_rng(7).standard_normal((6, 2))
    K = A @ A.T  # rank 2
    phi = empirical_features(K)
    assert phi.shape[1] == 2
    assert np.linalg.norm(phi @ phi.T - K) / np.linalg.norm(K) < 1e-8


def test_features_reject_indefinite():
    K = np.diag([1.0, -0.5])
    with pytest.raises(NotPSDError):
        empirical_features(K)


def _embedded(rng, n=12, m=3, p=4):
    inputs = rng.standard_normal((n, m * p))
    partition_map = [[j * p + k for k in range(p)] for j in range(m)]
    return inputs, partition_map


def test_stack_layout_and_factor_fidelity():
    rng = np.random.default_rng(8)
    inputs, partition_map = _embedded(rng)
    stack = build_gram_stack(inputs, partition_map)
    assert stack.n_kernels == 3 * len(DEFAULT_DICTIONARY)
    assert stack.group_index[: len(DEFAULT_DICTIONARY)] == [
        (0, i) for i in range(len(DEFAULT_DICTIONARY))
    ]
    feats = build_feature_stack(stack)
    for d, phi in enumerate(feats.features):
        K = stack.gram(d)
        assert np.linalg.norm(phi @ phi.T - K) < 1e-8 * np.linalg.norm(K)


def test_partition_isolation():
    rng = np.random.default_rng(9)
    inputs, partition_map = _embedded(rng)
    stack = build_gram_stack(inputs, partition_map)
    perturbed = inputs.copy()
    perturbed[:, partition_map[1]] += rng.standard_normal((12, 4))
    perturbed[:, partition_map[2]] *= -2.0
    stack2 = build_gram_stack(perturbed, partition_map)
    nk = len(DEFAULT_DICTIONARY)
    for d in range(nk):  # partition 0 untouched -> bit-identical grams
        assert np.array_equal(stack.gram(d), stack2.gram(d))
    assert not np.array_equal(stack.gram(nk), stack2.gram(nk))


def test_full_partition_specs():
    specs = make_specs([None])
    assert len(specs) == len(DEFAULT_DICTIONARY)
    assert all(spec.partition is None for spec in specs)
    assert group_index_of(specs) == [(0, i) for i in range(len(DEFAULT_DICTIONARY))]


def test_group_sizes_of_contiguous_and_non_contiguous_layouts():
    assert list(group_sizes(group_index_of(make_specs([0, 1, 2])))) == [6, 6, 6]
    assert list(group_sizes(group_index_of(make_specs([None])))) == [6]
    assert list(group_sizes([(0, 0), (1, 0), (2, 0)])) == [1, 1, 1]
    with pytest.raises(DimensionMismatchError, match="contiguous"):
        group_sizes([(0, 0), (1, 0), (0, 1)])


def test_cross_stack_walks_the_stack_group_index():
    rng = np.random.default_rng(14)
    inputs, partition_map = _embedded(rng)
    stack = build_gram_stack(inputs, partition_map, (("linear", None), ("gaussian", 1.0)))
    # partitions 0 and 1 interleaved: group index (0, 0), (1, 0), (0, 1), (1, 1), ...
    specs = [stack.specs[d] for d in (0, 2, 1, 3, 4, 5)]
    with pytest.raises(DimensionMismatchError, match="contiguous"):
        build_cross_stack(specs, inputs, inputs[:3], partition_map)


#: (dictionary, partitions) pairs whose stacks must equal per-spec Grams
STACK_CASES = {
    "default": (DEFAULT_DICTIONARY, None),
    "full input": (DEFAULT_DICTIONARY, [None]),
    "no linear": ((("polynomial", 3), ("gaussian", 1.0), ("polynomial", 2)), None),
    "degrees 4 and 5": ((("linear", None), ("polynomial", 4), ("polynomial", 5)), None),
    "gaussians only": ((("gaussian", 0.5), ("gaussian", 2.0)), None),
    "repeated entry": (DEFAULT_DICTIONARY + (("linear", None), ("gaussian", 1.0)), None),
    "kinds out of order": ((("gaussian", 0.5), ("polynomial", 3), ("linear", None),
                            ("gaussian", 2.0)), None),
}


@pytest.mark.parametrize("dictionary, partitions", STACK_CASES.values(), ids=STACK_CASES)
def test_stack_equals_per_spec_grams(dictionary, partitions):
    # the stack shares <u,v> and ||u-v||^2 within a partition; each kernel
    # alone must give the same Gram and factor, and the elementwise oracle too
    rng = np.random.default_rng(10)
    inputs, partition_map = _embedded(rng)
    stack = build_gram_stack(inputs, partition_map, dictionary, partitions)
    for spec, K in zip(stack.specs, map(stack.gram, range(stack.n_kernels))):
        rows = inputs[:, slice(None) if spec.partition is None else partition_map[spec.partition]]
        G, alone = _gram(spec.kind, spec.param, rows)
        rho = alone.norm_factor
        assert np.abs(K - G).max() <= 1e-13 * np.abs(G).max(), spec.label()
        assert spec.norm_factor == rho, spec.label()
        expected = [[rho * kernel_eval(spec, u, v) for v in rows] for u in rows]
        np.testing.assert_allclose(K, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dictionary, partitions", STACK_CASES.values(), ids=STACK_CASES)
def test_stacked_grams_are_exactly_symmetric(dictionary, partitions):
    rng = np.random.default_rng(11)
    inputs, partition_map = _embedded(rng, n=40)
    stack = build_gram_stack(inputs, partition_map, dictionary, partitions)
    for spec, K in zip(stack.specs, map(stack.gram, range(stack.n_kernels))):
        assert np.array_equal(K, K.T), spec.label()


@pytest.mark.parametrize("dictionary, partitions", STACK_CASES.values(), ids=STACK_CASES)
def test_packed_stack_equals_the_elementwise_oracle_bit_for_bit(dictionary, partitions):
    # each kernel is written into its packed row elementwise from its
    # partition's packed products, so nothing may move by a bit
    rng = np.random.default_rng(18)
    inputs, partition_map = _embedded(rng, n=40)
    stack = build_gram_stack(inputs, partition_map, dictionary, partitions)
    grams, factors = elementwise_grams(inputs, partition_map, dictionary, partitions)
    assert [spec.norm_factor for spec in stack.specs] == factors
    lower_by_column = np.triu_indices(40)  # of the transpose: LAPACK's packed order
    assert stack.packed.shape == (len(grams), 40 * 41 // 2)
    for d, (spec, K) in enumerate(zip(stack.specs, grams)):
        assert np.array_equal(stack.packed[d], K.T[lower_by_column]), spec.label()
        assert np.array_equal(stack.gram(d), K), spec.label()


def test_building_the_stack_never_holds_a_dense_stack():
    # the packed rows are half the dense stack's bytes, and each partition's
    # dense products are dropped before the next partition's are made
    rng = np.random.default_rng(19)
    inputs, partition_map = _embedded(rng, n=300, m=5, p=5)
    tracemalloc.start()
    try:
        stack = build_gram_stack(inputs, partition_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.n_kernels == 30
    assert peak < stack.n_kernels * 300**2 * 8, peak


def test_packing_dense_grams_rejects_ragged_non_square_and_non_finite_input():
    specs = [KernelSpec("linear", partition=0, norm_factor=1.0)] * 2
    for grams in ([np.eye(3), np.eye(4)], [np.ones((3, 2))] * 2,
                  [[[1.0, 0.0], [0.0]], np.eye(2)], []):
        with pytest.raises(DimensionMismatchError):
            GramStack.of(grams, specs[:len(grams)])
    for bad in (np.nan, np.inf):
        with pytest.raises(BadDataError):
            GramStack.of([np.eye(2), np.diag([1.0, bad])], specs)
    stack = GramStack.of([np.eye(3), 2.0 * np.ones((3, 3))], specs)
    assert (stack.n_kernels, stack.n_train) == (2, 3)
    assert np.array_equal(stack.gram(1), 2.0 * np.ones((3, 3)))


@pytest.mark.parametrize("dictionary, partitions", STACK_CASES.values(), ids=STACK_CASES)
def test_cross_stack_equals_per_spec_cross_grams(dictionary, partitions):
    rng = np.random.default_rng(12)
    inputs, partition_map = _embedded(rng)
    new_inputs = rng.standard_normal((5, inputs.shape[1]))
    stack = build_gram_stack(inputs, partition_map, dictionary, partitions)
    blocks = build_cross_stack(stack.specs, inputs, new_inputs, partition_map)
    assert len(blocks) == stack.n_kernels
    for spec, block in zip(stack.specs, blocks):
        cols = slice(None) if spec.partition is None else partition_map[spec.partition]
        alone = cross_gram(spec, inputs[:, cols], new_inputs[:, cols])
        assert np.array_equal(block, alone), spec.label()


@pytest.mark.parametrize("dictionary", [
    DEFAULT_DICTIONARY,
    (("gaussian", 0.5), ("gaussian", 1.0), ("gaussian", 2.0)),
    (("polynomial", 3),),
], ids=["default", "gaussians only", "one kernel"])
def test_cross_gram_of_a_partition_equals_per_spec_blocks(dictionary):
    # one <u,v> and one -||u-v||^2 / 2 serve the whole partition, and each
    # block must equal the kernel's own cross_gram bit for bit
    rng = np.random.default_rng(15)
    inputs, partition_map = _embedded(rng)
    new_inputs = rng.standard_normal((7, inputs.shape[1]))
    stack = build_gram_stack(inputs, partition_map, dictionary)
    cols = partition_map[1]
    specs = [spec for spec in stack.specs if spec.partition == 1]
    blocks = cross_gram(specs, inputs[:, cols], new_inputs[:, cols])
    assert blocks.shape == (len(dictionary), 7, inputs.shape[0])
    for spec, block in zip(specs, blocks):
        alone = cross_gram(spec, inputs[:, cols], new_inputs[:, cols])
        assert alone.shape == (7, inputs.shape[0])
        assert np.array_equal(block, alone), spec.label()


@pytest.mark.parametrize("n_new", [1, 7])
def test_stacked_cross_gram_equals_each_partitions_blocks(n_new):
    # one call over P partitions with one kernel layout: block [i, j] must
    # equal kernel i's own cross_gram on partition j bit for bit
    rng = np.random.default_rng(16)
    inputs, partition_map = _embedded(rng, m=4)
    new_inputs = rng.standard_normal((n_new, inputs.shape[1]))
    stack = build_gram_stack(inputs, partition_map)
    parts = [0, 2, 3]
    grid = [[spec for spec in stack.specs if spec.partition == j] for j in parts]
    train = TrainingRows(np.stack([inputs[:, partition_map[j]] for j in parts]))
    Z = np.stack([new_inputs[:, partition_map[j]] for j in parts])
    blocks = cross_gram(grid, train, Z)
    assert blocks.shape == (len(DEFAULT_DICTIONARY), len(parts), n_new, inputs.shape[0])
    for j, part in enumerate(parts):
        cols = partition_map[part]
        for i, spec in enumerate(grid[j]):
            alone = cross_gram(spec, inputs[:, cols], new_inputs[:, cols])
            assert np.array_equal(blocks[i, j], alone), spec.label()


def test_a_stacks_group_index_and_half_squared_norms_are_derived_from_their_source():
    # a GramStack held any group index beside its specs, and TrainingRows any
    # half squared norms beside its rows
    specs = [KernelSpec("linear", partition=0, norm_factor=1.0),
             KernelSpec("linear", partition=1, norm_factor=1.0)]
    stack = GramStack.of([np.eye(2)] * 2, specs)
    assert "group_index" not in {f.name for f in dataclasses.fields(GramStack)}
    assert stack.group_index == group_index_of(stack.specs) == [(0, 0), (1, 0)]
    rows = np.random.default_rng(18).standard_normal((2, 5, 3))
    assert [f.name for f in dataclasses.fields(TrainingRows) if f.init] == ["rows"]
    assert np.array_equal(TrainingRows(rows).half_sq, -np.sum(rows * rows, axis=-1) / 2)
    with pytest.raises(TypeError):
        TrainingRows(rows, np.zeros((2, 5)))


def test_stacked_cross_gram_rejects_mixed_layouts_and_unnormalized_kernels():
    rng = np.random.default_rng(17)
    inputs, partition_map = _embedded(rng)
    stack = build_gram_stack(inputs, partition_map)
    train = TrainingRows(np.stack([inputs[:, partition_map[j]] for j in (0, 1)]))
    Z = train.rows[:, :3]
    grid = [stack.specs[:6], stack.specs[6:12]]
    with pytest.raises(DimensionMismatchError, match="layout"):
        cross_gram([grid[0], grid[1][::-1]], train, Z)
    with pytest.raises(DimensionMismatchError):
        cross_gram(grid, train, Z[:1])
    with pytest.raises(NormFactorMissingError):
        cross_gram([grid[0], [KernelSpec(s.kind, s.param, 1) for s in grid[1]]], train, Z)


def test_overflowing_kernel_in_a_stack_raises_without_a_warning():
    rng = np.random.default_rng(13)
    inputs, partition_map = _embedded(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateKernelError, match="polynomial"):
            build_gram_stack(10.0 * inputs, partition_map,
                             DEFAULT_DICTIONARY + (("polynomial", 10**9),))
        with pytest.raises(DegenerateKernelError):
            _gram("polynomial", 3 * 2**20, 10.0 * inputs)
