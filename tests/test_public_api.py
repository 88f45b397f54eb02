"""The package's public names: exactly the intended list, each one bound."""

import jlproj

PUBLIC = [
    "AchlioptasSparse",
    "CdfResult",
    "CheckResult",
    "CollisionTailReport",
    "ConstructionKind",
    "DenseGaussian",
    "DenseTransform",
    "ExperimentConfig",
    "FourthMomentReport",
    "GraphSparse",
    "GridSpec",
    "InputBatch",
    "InputVector",
    "Rademacher",
    "ResourceLimitError",
    "SeedSpec",
    "SparseColumnLayout",
    "SweepResult",
    "SweepRow",
    "TailReport",
    "VarianceReport",
    "WorkCounter",
    "__version__",
    "apply",
    "collision_tail_check",
    "derive_stream",
    "desk_scale_config",
    "distortion",
    "distortion_batch",
    "empirical_cdf",
    "fourth_moment_check",
    "gaussian_variance_check",
    "hypergeometric_pmf",
    "load_transform",
    "quantile",
    "required_k",
    "run_cdf",
    "run_input_sparsity_sweep",
    "run_k_sweep",
    "run_sparsity_sweep",
    "run_verification",
    "sample_collision_counts",
    "sample_sparse_unit_batch",
    "sample_transform",
    "sample_unit_sphere",
    "sample_unit_sphere_batch",
    "save_transform",
    "tail_bound_report",
]


def test_public_api():
    assert sorted(jlproj.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(jlproj, name), name
