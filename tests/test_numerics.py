import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    DimensionError,
    MissingReductionError,
    NumericalError,
    cca_fits,
    cca_transform,
    pca_fits,
    pca_transform,
    rcca_residual,
)
from mmfuse.numerics import GRAM_BOUND, GRAM_MIN_SIDE

from conftest import fit_cca, fit_pca

# Fixed 4x3 instance; expected values frozen from an independent
# eigendecomposition-of-covariance oracle computed before the build.
PCA_X = np.array([[1.0, 2.0, 3.0],
                  [2.0, 4.0, 1.0],
                  [3.0, 1.0, 2.0],
                  [4.0, 3.0, 4.0]])
PCA_COMPONENTS = np.array([[0.63245553203367588, 0.44721359549995793],
                           [-0.31622776601683766, 0.89442719099991574],
                           [0.70710678118654735, 0.0]])
PCA_VARIANCES = np.array([2.4120226591665963, 1.6666666666666672])
PCA_SCORES = np.array([[-0.4370160244488213, -1.118033988749895],
                       [-1.8512295868219155, 1.118033988749895],
                       [0.43701602444882076, -1.1180339887498947],
                       [1.851229586821916, 1.1180339887498947]])

# Five fixed instances with first canonical correlations frozen from a
# brute-force grid oracle over unit-norm direction pairs.
CCA_INSTANCES = [
    (
        [[0.4076, 1.8456], [-0.2409, -0.0915], [0.1606, -0.4041],
         [0.5123, 0.5299], [-0.5293, -1.154], [0.9689, 0.3578],
         [-0.8644, -0.3721]],
        [[-0.837, 2.1869], [0.3082, -0.5533], [-0.8308, -0.2482],
         [-0.8045, 0.0828], [1.6478, -0.535], [-1.4702, 0.9634],
         [1.6728, -0.0606]],
        0.978047606260,
    ),
    (
        [[-0.3923, -0.6409], [0.5517, -0.0294], [0.8344, -0.2494],
         [-0.0762, 0.2975], [1.6722, 1.0666], [-0.6003, -0.2011],
         [-0.4977, 1.2823], [0.605, 0.7573]],
        [[-0.17, 0.7827], [0.7689, -0.1252], [0.0155, -0.1787],
         [-0.3954, -0.7012], [1.0248, -0.4743], [-0.2575, -0.0541],
         [-0.1814, -0.3892], [0.294, -0.125]],
        0.900693479096,
    ),
    (
        [[0.1773, -0.2332], [1.8783, 0.2914], [-0.3916, 1.6645],
         [-0.0899, -0.8477], [-2.072, 0.8288], [-0.8005, -0.2854],
         [0.2826, 0.1758], [1.5334, 0.4183]],
        [[-0.0952, -0.8565], [0.5251, 0.0995], [2.1258, 0.5618],
         [-0.318, -0.697], [0.0787, 0.662], [-0.4475, -0.4343],
         [0.2289, 0.4686], [1.1894, -0.3359]],
        0.967326536830,
    ),
    (
        [[1.0387, 0.6417], [0.2046, 1.5636], [1.9382, 0.8185],
         [-0.5705, 1.4711], [0.7409, -1.1148], [0.7414, 0.432],
         [-1.1195, -1.4274]],
        [[0.728, -0.7124], [0.3526, -0.1766], [1.253, -0.7629],
         [1.5553, -0.4694], [-0.5804, 0.3341], [0.491, 0.1042],
         [-1.3267, 1.39]],
        0.937993792457,
    ),
    (
        [[0.766, 0.3605], [-0.3742, -0.4532], [-1.0289, -2.8122],
         [-0.0703, -0.6964], [-0.8444, 0.423], [-1.0881, -0.2336]],
        [[0.997, -0.7367], [-1.0227, 0.6567], [-3.6277, 3.3687],
         [-0.9981, 0.4554], [-0.236, -0.3516], [-1.236, 0.5698]],
        0.998212567677,
    ),
]


class TestPca:
    def test_matches_eigendecomposition_oracle(self):
        model = fit_pca(PCA_X, 2)
        np.testing.assert_allclose(model.components, PCA_COMPONENTS, atol=1e-8)
        np.testing.assert_allclose(model.explained_variance, PCA_VARIANCES, atol=1e-8)

    def test_transform_matches_oracle_scores(self):
        model = fit_pca(PCA_X, 2)
        np.testing.assert_allclose(pca_transform(model, PCA_X), PCA_SCORES, atol=1e-8)

    def test_rank_one_data_k1_captures_everything(self):
        direction = np.array([1.0, -2.0, 0.5])
        X = np.outer(np.arange(1.0, 6.0), direction)
        model = fit_pca(X, 1)
        total = np.sum((X - X.mean(axis=0)) ** 2) / (X.shape[0] - 1)
        assert model.explained_variance[0] == pytest.approx(total, rel=1e-12)
        reconstructed = pca_transform(model, X) @ model.components.T + model.mean
        np.testing.assert_allclose(reconstructed, X, atol=1e-10)

    def test_full_k_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        model = fit_pca(X, 3)
        Z = pca_transform(model, X)
        for i in range(10):
            for j in range(10):
                orig = np.linalg.norm(X[i] - X[j])
                proj = np.linalg.norm(Z[i] - Z[j])
                assert proj == pytest.approx(orig, abs=1e-8)

    def test_mean_row_maps_to_zero(self):
        model = fit_pca(PCA_X, 2)
        out = pca_transform(model, model.mean.reshape(1, -1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            fit_pca(PCA_X, 0)
        with pytest.raises(DimensionError):
            fit_pca(PCA_X, 4)  # exceeds both n-1 and d

    def test_rank_deficient_trailing_zero_variance(self):
        X = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0]))
        model = fit_pca(X, 2)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
        # components stay orthonormal even past the rank
        np.testing.assert_allclose(
            model.components.T @ model.components, np.eye(2), atol=1e-8
        )

    def test_transform_dim_mismatch(self):
        model = fit_pca(PCA_X, 2)
        with pytest.raises(DimensionError):
            pca_transform(model, np.ones((2, 4)))

    def test_deterministic_bit_identical(self):
        a = fit_pca(PCA_X, 2)
        b = fit_pca(PCA_X, 2)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    def test_variance_bounded_by_total(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = rng.normal(size=(12, 5))
            total = np.sum((X - X.mean(axis=0)) ** 2) / (X.shape[0] - 1)
            for k in (1, 3, 5):
                model = fit_pca(X, k)
                explained = model.explained_variance.sum()
                assert explained <= total + 1e-9
                np.testing.assert_allclose(
                    model.components.T @ model.components, np.eye(k), atol=1e-8
                )
            assert fit_pca(X, 5).explained_variance.sum() == pytest.approx(
                total, rel=1e-10
            )


class TestCca:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        model = fit_cca(X, X, 3, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    def test_column_permutation_keeps_correlation_one(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 3))
        model = fit_cca(X, X[:, [2, 0, 1]], 3, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    @pytest.mark.parametrize("X,Y,expected", CCA_INSTANCES)
    def test_first_correlation_matches_grid_oracle(self, X, Y, expected):
        model = fit_cca(np.array(X), np.array(Y), 1, ridge=1e-6)
        assert model.correlations[0] == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("X,Y,expected", CCA_INSTANCES)
    def test_projection_reproduces_oracle_scores(self, X, Y, expected):
        X, Y = np.array(X), np.array(Y)
        model = fit_cca(X, Y, 1, ridge=1e-6)
        a = cca_transform(model, X, "textual")[:, 0]
        b = cca_transform(model, Y, "visual")[:, 0]
        a = a - a.mean()
        b = b - b.mean()
        corr = abs(a @ b) / np.sqrt((a @ a) * (b @ b))
        assert corr == pytest.approx(expected, abs=1e-3)

    def test_stored_correlations_are_definitional(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 4))
        Y = X @ rng.normal(size=(4, 3)) + 0.3 * rng.normal(size=(20, 3))
        model = fit_cca(X, Y, 3, ridge=1e-3)
        Xp = cca_transform(model, X, "textual")
        Yp = cca_transform(model, Y, "visual")
        for j in range(3):
            a = Xp[:, j] - Xp[:, j].mean()
            b = Yp[:, j] - Yp[:, j].mean()
            corr = (a @ b) / np.sqrt((a @ a) * (b @ b))
            assert corr == pytest.approx(model.correlations[j], abs=1e-6)

    def test_mean_row_maps_to_zero(self):
        X, Y, _ = CCA_INSTANCES[0]
        model = fit_cca(np.array(X), np.array(Y), 1, ridge=1e-6)
        out = cca_transform(model, model.mean_x.reshape(1, -1), "textual")
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_swap_symmetry(self):
        X = np.array(CCA_INSTANCES[1][0])
        Y = np.array(CCA_INSTANCES[1][1])
        ab = fit_cca(X, Y, 2, ridge=1e-6)
        ba = fit_cca(Y, X, 2, ridge=1e-6)
        np.testing.assert_allclose(ab.correlations, ba.correlations, atol=1e-8)
        np.testing.assert_allclose(ab.proj_x, ba.proj_y, atol=1e-8)
        np.testing.assert_allclose(ab.proj_y, ba.proj_x, atol=1e-8)

    def test_affine_invariance_at_zero_ridge(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            X = rng.normal(size=(12, 2))
            Y = X @ rng.normal(size=(2, 2)) + 0.4 * rng.normal(size=(12, 2))
            while True:
                A = rng.normal(size=(2, 2))
                if abs(np.linalg.det(A)) > 0.3:
                    break
            base = fit_cca(X, Y, 2, ridge=0.0)
            warped = fit_cca(X @ A, Y, 2, ridge=0.0)
            np.testing.assert_allclose(
                base.correlations, warped.correlations, atol=1e-6
            )

    def test_row_count_mismatch(self):
        with pytest.raises(AlignmentError):
            fit_cca(np.ones((4, 2)), np.ones((5, 2)), 1)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 3))
        with pytest.raises(DimensionError):
            fit_cca(X, Y, 3)  # k > min(d1, d2)

    def test_singular_needs_ridge(self):
        X = np.ones((6, 2)) * np.arange(6.0).reshape(-1, 1)  # rank 1
        Y = np.random.default_rng(10).normal(size=(6, 2))
        with pytest.raises(NumericalError, match="ridge"):
            fit_cca(X, Y, 1, ridge=0.0)
        fit_cca(X, Y, 1, ridge=1e-3)  # same data succeeds with loading

    def test_deterministic_bit_identical(self):
        X = np.array(CCA_INSTANCES[2][0])
        Y = np.array(CCA_INSTANCES[2][1])
        a = fit_cca(X, Y, 2, ridge=1e-4)
        b = fit_cca(X, Y, 2, ridge=1e-4)
        assert np.array_equal(a.proj_x, b.proj_x)
        assert np.array_equal(a.proj_y, b.proj_y)
        assert np.array_equal(a.correlations, b.correlations)

    def test_transform_side_validation(self):
        X, Y, _ = CCA_INSTANCES[0]
        model = fit_cca(np.array(X), np.array(Y), 1)
        with pytest.raises(ValueError):
            cca_transform(model, np.array(X), "either")
        with pytest.raises(DimensionError):
            cca_transform(model, np.ones((2, 5)), "textual")

    def test_sample_correlation_of_transforms_matches(self):
        # per-component sample correlation between the two projected fit
        # sides equals the stored correlations
        X = np.array(CCA_INSTANCES[3][0])
        Y = np.array(CCA_INSTANCES[3][1])
        model = fit_cca(X, Y, 2, ridge=1e-6)
        Xp = cca_transform(model, X, "textual")
        Yp = cca_transform(model, Y, "visual")
        for j in range(2):
            a = Xp[:, j] - Xp[:, j].mean()
            b = Yp[:, j] - Yp[:, j].mean()
            corr = (a @ b) / np.sqrt((a @ a) * (b @ b))
            assert corr == pytest.approx(model.correlations[j], abs=1e-6)


def _layer_a(X, a):
    """The PCA of ``X`` at ``a`` and its output: uncorrelated principal scores."""
    fit = fit_pca(X, a)
    return fit, pca_transform(fit, X)


class TestVarianceWhitening:
    """``cca_fits(..., variances=...)`` whitens principal scores by their PCA variances.

    In exact arithmetic the covariance of a layer-a output is the diagonal
    of its fit's variances, so the fit is the one that whitens by ``eigh``
    up to rounding: measured on these inputs, projected tables differ by at
    most 2.3e-10 of their largest magnitude and correlations by 1.8e-15.
    """

    TABLE_TOL = 1e-9
    CORRELATION_TOL = 1e-14

    @staticmethod
    def latent_pair():
        """A random 200 x 150 and 200 x 200 pair sharing a 20-d latent signal."""
        rng = np.random.default_rng(22)
        latent = rng.normal(size=(200, 20))
        X = latent @ rng.normal(size=(20, 150)) + rng.normal(size=(200, 150))
        Y = latent @ rng.normal(size=(20, 200)) + rng.normal(size=(200, 200))
        return X, Y

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    @pytest.mark.parametrize("inputs", ["planted", "random"])
    def test_matches_the_eigh_whitening(self, planted, inputs, ridge):
        if inputs == "planted":
            textual, visual, _ = planted
            (X, Y), a, ks = (textual.matrix, visual.matrix), 3, [1, 2, 3]
        else:
            (X, Y), a, ks = self.latent_pair(), 100, [1, 10, 50, 100]
        (fx, zx), (fy, zy) = _layer_a(X, a), _layer_a(Y, a)
        by_variance = cca_fits(zx, zy, ks, ridge,
                               variances=(fx.explained_variance, fy.explained_variance))
        by_eigh = cca_fits(zx, zy, ks, ridge)
        for k in ks:
            got, want = by_variance[k], by_eigh[k]
            for side, z in (("textual", zx), ("visual", zy)):
                table = cca_transform(want, z, side)
                np.testing.assert_allclose(cca_transform(got, z, side), table, rtol=0,
                                           atol=self.TABLE_TOL * np.abs(table).max())
            np.testing.assert_allclose(got.correlations, want.correlations,
                                       rtol=0, atol=self.CORRELATION_TOL)

    def test_no_covariance_is_decomposed(self, monkeypatch):
        import mmfuse.numerics as numerics

        (fx, zx), (fy, zy) = (_layer_a(m, 30) for m in self.latent_pair())
        calls = []
        real = numerics._decompose

        def decompose(routine, matrix, what, **kwargs):
            calls.append((routine.__name__, what))
            return real(routine, matrix, what, **kwargs)

        monkeypatch.setattr(numerics, "_decompose", decompose)
        cca_fits(zx, zy, [1, 5, 30], variances=(fx.explained_variance, fy.explained_variance))
        assert calls == [("svd", "whitened cross covariance")]

    def test_rank_deficient_output_at_zero_ridge_is_singular(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 4))   # rank 2
        Y = rng.normal(size=(12, 4))
        (fx, zx), (fy, zy) = _layer_a(X, 3), _layer_a(Y, 3)
        assert fx.explained_variance[2] <= 1e-20 * fx.explained_variance[0]
        variances = (fx.explained_variance, fy.explained_variance)
        text = "first-view covariance is singular; refit with a positive ridge"
        for whitening in (variances, None):
            with pytest.raises(NumericalError, match=f"^{text}$"):
                fit_cca(zx, zy, 1, ridge=0.0, variances=whitening)
        # the second view is checked the same way
        with pytest.raises(NumericalError, match="^second-view covariance is singular"):
            fit_cca(zy, zx, 1, ridge=0.0, variances=variances[::-1])
        fit_cca(zx, zy, 1, ridge=1e-3, variances=variances)   # loading fits it

    def test_variances_must_match_the_widths(self):
        (fx, zx), (fy, zy) = _layer_a(PCA_X, 2), _layer_a(PCA_X[::-1], 2)
        with pytest.raises(ValueError, match="variances must have lengths"):
            cca_fits(zx, zy, [1], variances=(fx.explained_variance[:1], fy.explained_variance))


def _loop_fix_signs(components):
    """Reference: per column, flip when the first largest-magnitude entry is negative."""
    flips = np.ones(components.shape[1])
    for j in range(components.shape[1]):
        i = int(np.argmax(np.abs(components[:, j])))
        if components[i, j] < 0:
            flips[j] = -1.0
    return components * flips, flips


class TestFixSigns:
    CASES = {
        # tied largest magnitudes of opposite sign: the first one decides
        "tie_negative_first": [[-2.0, 1.0], [2.0, -1.0], [0.5, 1.0]],
        "tie_positive_first": [[2.0, 3.0], [1.0, 0.0], [-2.0, -3.0]],
        "zero_column": [[0.0, -1.0], [0.0, 0.5], [0.0, 0.25]],
        "negative_zero_column": [[-0.0, 1.0], [-0.0, -2.0]],
        "k_1": [[0.3], [-0.9], [0.9], [-0.1]],
        "one_row": [[-1.0, 2.0, -0.0]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flips_match_the_per_column_loop(self, case):
        from mmfuse.numerics import _fix_signs

        components = np.array(self.CASES[case])
        fixed, flips = _fix_signs(components)
        ref_fixed, ref_flips = _loop_fix_signs(components)
        assert np.array_equal(flips, ref_flips)
        assert fixed.tobytes() == ref_fixed.tobytes()

    def test_random_tied_blocks_match_the_loop(self):
        from mmfuse.numerics import _fix_signs

        rng = np.random.default_rng(4)
        for _ in range(50):
            components = rng.integers(-2, 3, size=(rng.integers(1, 6), rng.integers(1, 6)))
            components = components.astype(np.float64)
            fixed, flips = _fix_signs(components)
            ref_fixed, ref_flips = _loop_fix_signs(components)
            assert np.array_equal(flips, ref_flips)
            assert fixed.tobytes() == ref_fixed.tobytes()


class TestPrefixFits:
    """``pca_fits``/``cca_fits``: one decomposition, and per k the one-k fit exactly."""

    @staticmethod
    def assert_same_fit(fit, single):
        if isinstance(fit, Exception):
            assert isinstance(single, Exception)
            assert (type(fit), str(fit)) == (type(single), str(single))
            return
        for name in fit.__dataclass_fields__:
            assert np.array_equal(getattr(fit, name), getattr(single, name)), name

    @staticmethod
    def decompositions(monkeypatch):
        import mmfuse.numerics as numerics

        calls = []
        real = numerics._decompose

        def counted(routine, matrix, what, **kwargs):
            calls.append(routine.__name__)
            return real(routine, matrix, what, **kwargs)

        monkeypatch.setattr(numerics, "_decompose", counted)
        return calls

    @pytest.mark.parametrize("rank", [6, 3])
    def test_pca_fits_are_the_single_fits(self, monkeypatch, rank):
        rng = np.random.default_rng(rank)
        X = rng.normal(size=(12, rank)) @ rng.normal(size=(rank, 6))
        ks = [0, 1, 2, 4, 6, 7]
        calls = self.decompositions(monkeypatch)
        fits = pca_fits(X, ks)
        assert calls == ["svd"] and list(fits) == ks
        for k in ks:
            self.assert_same_fit(fits[k], pca_fits(X, [k])[k])
        assert isinstance(fits[0], DimensionError) and isinstance(fits[7], DimensionError)

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    def test_cca_fits_are_the_single_fits(self, monkeypatch, ridge):
        # rank-3 first view: at ridge 0 its covariance is singular and every
        # in-range k carries that one failure
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3)) @ rng.normal(size=(3, 5))
        Y = rng.normal(size=(15, 5))
        ks = [1, 3, 5, 6]
        calls = self.decompositions(monkeypatch)
        fits = cca_fits(X, Y, ks, ridge)
        assert calls == ["eigh", "eigh", "svd"] if ridge else ["eigh"]
        for k in ks:
            self.assert_same_fit(fits[k], cca_fits(X, Y, [k], ridge)[k])
        assert isinstance(fits[6], DimensionError)
        assert all(isinstance(fits[k], NumericalError) for k in ks[:3]) == (ridge == 0.0)

    def test_shared_failures_map_every_k(self, monkeypatch):
        X = np.array(PCA_X)
        X[0, 0] = np.nan
        calls = self.decompositions(monkeypatch)
        for fits in (pca_fits(X, [1, 2]), cca_fits(X, PCA_X, [1, 2]), pca_fits(PCA_X, [0, 9])):
            assert all(isinstance(fit, (NumericalError, DimensionError)) for fit in fits.values())
        assert calls == []
        for ridge in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
                cca_fits(PCA_X, PCA_X, [1], ridge=ridge)

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("X, ks", [
        (PCA_X, [100]),             # no k in range: nothing left to decompose
        (PCA_X, []),
        (PCA_X[:2], [1]),           # too few rows to fit
        (np.full((4, 2), np.nan), [1]),
    ])
    def test_bad_ridge_is_rejected_before_the_inputs(self, X, ks, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            cca_fits(X, X, ks, ridge=ridge)


def _direct_pca(X, k):
    """Mean, components and variances at k from a direct SVD of the centred input."""
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    components, _ = _loop_fix_signs(vt[:k].T)
    return mean, components, np.maximum(s[:k] ** 2 / (len(X) - 1), 0.0)


class TestTallPca:
    """A tall input (``n >= 2 * d``) takes the Gram route, as a wide one does.

    At ``d >= GRAM_MIN_SIDE`` it is decomposed by one ``eigh`` of its d x d
    Gram ``Cᵀ C`` and no QR. Below that side, or where the Gram is too
    ill-conditioned, it falls back to the SVD of the R factor of its QR
    factorization: bitwise the direct SVD.
    """

    @staticmethod
    def ks(X):
        """Both ends and the middle of the valid k of ``X``, and one k past each end."""
        m = min(X.shape[0] - 1, X.shape[1])
        return [0, 1, 2, m // 2, m - 1, m, m + 1]

    @staticmethod
    def gram():
        """Well-conditioned tall inputs at sides from ``GRAM_MIN_SIDE`` to the paper's 300."""
        rng = np.random.default_rng(41)
        for n, d in ((32, 16), (40, 20), (600, 100), (600, 150), (5000, 300)):
            yield f"{n} x {d}", rng.normal(size=(n, d))

    @staticmethod
    def fallback():
        """Tall inputs below ``GRAM_MIN_SIDE``, then ill-conditioned ones at d >= 16."""
        rng = np.random.default_rng(42)
        d = 7
        yield "n = 2d", rng.normal(size=(2 * d, d))
        yield "n = 2d + 1", rng.normal(size=(2 * d + 1, d))
        yield "below the side", rng.normal(size=(200, GRAM_MIN_SIDE - 1))
        d = 20
        yield "rank-deficient", rng.normal(size=(60, 3)) @ rng.normal(size=(3, d))
        yield "duplicate column", rng.normal(size=(50, d))[:, [*range(d - 1), 1]]
        yield "constant", np.full((50, d), 2.5)
        yield "tied", np.repeat(rng.integers(-2, 3, size=(5, d)).astype(float), 10, axis=0)
        smallest = (0.9 * GRAM_BOUND) ** 0.5
        yield "below the bound", _with_spectrum(rng, 80, 30, np.geomspace(1, smallest, 30))

    def test_tall_inputs_take_one_gram_eigh(self, pca_routines):
        calls = pca_routines
        for name, X in self.gram():
            d = X.shape[1]
            calls.clear()
            fits = pca_fits(X, self.ks(X)[1:-1])
            assert calls == [("eigh", (d, d))], name
            TestGramPca.assert_near_svd(fits, X, 1e-12)

    def test_fallbacks_take_qr_then_the_svd_of_r_bitwise(self, pca_routines):
        calls = pca_routines
        for name, X in self.fallback():
            n, d = X.shape
            calls.clear()
            fits = pca_fits(X, list(range(1, d + 1)))
            qr_svd = [("qr", (n, d)), ("svd", (d, d))]
            assert calls == (qr_svd if d < GRAM_MIN_SIDE else [("eigh", (d, d)), *qr_svd]), name
            TestGramPca.assert_direct_svd(fits, X)

    def test_prefix_fits_are_the_single_fits_bitwise(self):
        for _, X in [*self.gram(), *self.fallback()]:
            ks = self.ks(X)
            fits = pca_fits(X, ks)
            for k in ks:
                TestPrefixFits.assert_same_fit(fits[k], pca_fits(X, [k])[k])

    @pytest.mark.parametrize("d, failure", [
        # the Gram scales the input exactly, so only the variance overflows
        (20, "PCA variance contains non-finite values"),
        # below GRAM_MIN_SIDE the QR's column norm overflows first
        (7, "centered PCA input contains non-finite values"),
    ])
    def test_an_overflowing_centred_column_norm(self, pca_routines, d, failure):
        # rows +a, -a in turn: the column means are exactly 0, the norms overflow
        a = np.random.default_rng(50).uniform(-1.0, 1.0, size=(20, d)) * 1e308
        X = np.stack([a, -a], axis=1).reshape(40, d)
        assert not X.mean(axis=0).any()
        calls = pca_routines
        fits = pca_fits(X, [1, d])
        assert {k: repr(fit) for k, fit in fits.items()} == dict.fromkeys(
            [1, d], repr(NumericalError(failure)))
        routes = [("eigh", (d, d))] if d >= GRAM_MIN_SIDE else [("qr", (40, d)), ("svd", (d, d))]
        assert calls == routes


def _with_spectrum(rng, n, d, s):
    """A centred n x d input whose nonzero singular values are ``s``."""
    u = rng.normal(size=(n, len(s)))
    u, _ = np.linalg.qr(u - u.mean(axis=0))
    v, _ = np.linalg.qr(rng.normal(size=(d, len(s))))
    return (u * s) @ v.T


class TestGramPca:
    """An input, tall or wide, is decomposed through the ``eigh`` of its smaller Gram matrix.

    Where a side is below ``GRAM_MIN_SIDE``, that Gram is too
    ill-conditioned, or its ``eigh`` fails, the input is decomposed by the
    direct SVD, bitwise.
    """

    @staticmethod
    def assert_near_svd(fits, X, tol):
        for k, fit in fits.items():
            mean, components, variance = _direct_pca(X, k)
            assert fit.mean.tobytes() == mean.tobytes(), k
            np.testing.assert_allclose(fit.components, components, rtol=0, atol=tol)
            # an eigenvalue's error is relative to the largest one
            np.testing.assert_allclose(fit.explained_variance, variance,
                                       rtol=0, atol=tol * variance[0])

    @staticmethod
    def assert_direct_svd(fits, X):
        for k, fit in fits.items():
            for got, want in zip((fit.mean, fit.components, fit.explained_variance),
                                 _direct_pca(X, k)):
                assert got.tobytes() == want.tobytes(), k

    @staticmethod
    def all_ks(X):
        return list(range(1, min(X.shape[0] - 1, X.shape[1]) + 1))

    def test_inputs_below_twice_their_width_take_the_smaller_gram(self, pca_routines):
        rng = np.random.default_rng(43)
        d = 20
        calls = pca_routines
        for n, gram in ((2 * d - 1, d), (d + 1, d), (d, d), (GRAM_MIN_SIDE, GRAM_MIN_SIDE)):
            X = rng.normal(size=(n, d))
            calls.clear()
            fits = pca_fits(X, [1, 2])
            assert calls == [("eigh", (gram, gram))], n
            self.assert_near_svd(fits, X, 1e-12)
        # a side below GRAM_MIN_SIDE is decomposed directly
        for shape in ((GRAM_MIN_SIDE - 1, d), (2 * GRAM_MIN_SIDE - 3, GRAM_MIN_SIDE - 1), (4, 3)):
            X = rng.normal(size=shape)
            calls.clear()
            fits = pca_fits(X, [1, 2])
            assert calls == [("svd", shape)], shape
            self.assert_direct_svd(fits, X)

    @staticmethod
    def wide():
        rng = np.random.default_rng(44)
        for n, d in ((40, 100), (16, 17), (30, 31), (60, 60), (61, 60), (119, 60)):
            yield (n, d), 3.0 + rng.normal(size=(n, d))
            latent = rng.normal(size=(n, 10))
            yield (n, d), np.tanh(latent @ rng.normal(size=(10, d)) / 3
                                  + 0.5 * rng.normal(size=(n, d)))

    def test_matches_an_svd_oracle(self, pca_routines):
        calls = pca_routines
        for (n, d), X in self.wide():
            calls.clear()
            fits = pca_fits(X, self.all_ks(X))
            side = min(n, d)
            assert calls == [("eigh", (side, side))], (n, d)
            self.assert_near_svd(fits, X, 1e-11)

    def test_prefix_fits_are_the_single_fits_bitwise(self):
        rng = np.random.default_rng(45)
        rank_deficient = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 30))
        for _, X in [*self.wide(), ("fallback", rank_deficient)]:
            m = min(X.shape[0] - 1, X.shape[1])
            ks = [0, 1, m // 2, m, m + 1]
            fits = pca_fits(X, ks)
            for k in ks:
                TestPrefixFits.assert_same_fit(fits[k], pca_fits(X, [k])[k])

    @staticmethod
    def ill_conditioned():
        rng = np.random.default_rng(46)
        yield "rank-deficient, n < d", rng.normal(size=(20, 3)) @ rng.normal(size=(3, 30))
        yield "rank-deficient, d <= n", rng.normal(size=(30, 3)) @ rng.normal(size=(3, 20))
        yield "duplicate rows", rng.normal(size=(12, 30))[[*range(12), 0, 1, 2, 3, 4, 5]]
        yield "constant", np.full((20, 30), 2.5)
        # the smallest eigenvalue any k reads just below the bound
        smallest = (0.9 * GRAM_BOUND) ** 0.5
        yield "below the bound, n < d", _with_spectrum(rng, 20, 50, np.geomspace(1, smallest, 19))
        yield "below the bound, d <= n", _with_spectrum(rng, 50, 30, np.geomspace(1, smallest, 30))

    def test_ill_conditioned_inputs_fall_back_to_the_direct_svd_bitwise(self, pca_routines):
        calls = pca_routines
        for name, X in self.ill_conditioned():
            n, d = X.shape
            calls.clear()
            fits = pca_fits(X, self.all_ks(X))
            side = min(n, d)
            assert calls == [("eigh", (side, side)), ("svd", (n, d))], name
            self.assert_direct_svd(fits, X)

    def test_a_spectrum_just_above_the_bound_takes_the_gram(self, pca_routines):
        rng = np.random.default_rng(47)
        smallest = (1.1 * GRAM_BOUND) ** 0.5
        calls = pca_routines
        for n, d in ((20, 50), (50, 30), (80, 30)):
            X = _with_spectrum(rng, n, d, np.geomspace(1, smallest, min(n - 1, d)))
            calls.clear()
            fits = pca_fits(X, self.all_ks(X))
            assert calls == [("eigh", (min(n, d),) * 2)], (n, d)
            self.assert_near_svd(fits, X, 1e-8)

    @pytest.mark.parametrize("shape", [(17, 30), (30, 20), (40, 20)])
    def test_extreme_magnitudes_keep_their_status(self, pca_routines, shape):
        X = np.random.default_rng(48).normal(size=shape)
        calls = pca_routines
        ks = self.all_ks(X)
        overflowing = pca_fits(X * 1e200, ks)
        assert {k: repr(fit) for k, fit in overflowing.items()} == dict.fromkeys(
            ks, repr(NumericalError("PCA variance contains non-finite values")))
        tiny = X * 1e-160
        fits = pca_fits(tiny, ks)
        assert calls == [("eigh", (min(shape),) * 2)] * 2
        for k, fit in fits.items():
            mean, components, variance = _direct_pca(tiny, k)
            assert fit.mean.tobytes() == mean.tobytes()
            np.testing.assert_allclose(fit.components, components, rtol=0, atol=1e-11)
            # the variances are subnormal: a few units of 5e-324 apart
            assert np.max(np.abs(fit.explained_variance - variance)) <= 8 * 5e-324

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_centred_input(self, pca_routines):
        X = np.full((20, 30), 1.7e308)
        X[0] = -1.7e308
        calls = pca_routines
        fits = pca_fits(X, [1, 2])
        assert calls == []
        assert {k: repr(fit) for k, fit in fits.items()} == dict.fromkeys(
            [1, 2], repr(NumericalError("centered PCA input contains non-finite values")))

    def test_a_failing_svd_leaves_the_gram_route(self, monkeypatch):
        X = next(self.wide())[1]
        gram_fits = pca_fits(X, [1, 5])

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for k, fit in pca_fits(X, [1, 5]).items():
            TestPrefixFits.assert_same_fit(fit, gram_fits[k])
        rank_deficient = next(self.ill_conditioned())[1]
        with pytest.raises(NumericalError, match="centered PCA input: SVD did not converge"):
            fit_pca(rank_deficient, 2)

    @pytest.mark.parametrize("failure", ["no convergence", "non-finite"])
    def test_a_failing_eigh_falls_back_to_the_direct_svd(self, monkeypatch, failure, pca_routines):
        real_eigh = np.linalg.eigh

        def eigh(matrix):
            if failure == "no convergence":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            lam, vecs = real_eigh(matrix)
            lam[0] = np.nan
            return lam, vecs

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        calls = pca_routines
        for _, X in self.wide():
            calls.clear()
            fits = pca_fits(X, self.all_ks(X))
            assert [routine for routine, _ in calls] == ["eigh", "svd"]
            self.assert_direct_svd(fits, X)

    def test_the_gram_route_holds_no_second_centred_copy(self, pca_routines):
        """``Cᵀ C`` drops the centred input before its ``eigh``; ``C Cᵀ`` divides Vᵀ in place.

        Peaks traced by ``tracemalloc`` (numpy's arrays; LAPACK's workspace
        is not traced): 1.67 and 2.42 times the input's size, against 3.0
        and 3.8 when a second centred copy and the Gram were kept.
        """
        import tracemalloc

        rng = np.random.default_rng(49)
        calls = pca_routines
        for (n, d), bound in (((1500, 1000), 2.0), ((600, 1500), 2.75)):
            X = rng.normal(size=(n, d))
            calls.clear()
            tracemalloc.start()
            try:
                pca_fits(X, [1, 10])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert calls == [("eigh", (min(n, d),) * 2)], (n, d)
            assert peak < bound * X.nbytes, (n, d, peak / X.nbytes)


class TestResidual:
    def test_zero_when_projection_equals_original(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(rcca_residual(X, X), np.zeros_like(X))

    def test_definitional_subtraction(self):
        out = rcca_residual(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])
        )
        np.testing.assert_array_equal(out, np.array([[1.0, 1.0], [2.0, 3.0]]))

    def test_residual_plus_projected_recovers_original_exactly(self):
        # dyadic values keep the fp subtraction exact
        rng = np.random.default_rng(12)
        original = rng.integers(-512, 512, size=(8, 4)) / 1024.0
        projected = rng.integers(-512, 512, size=(8, 4)) / 1024.0
        residual = rcca_residual(original, projected)
        assert np.array_equal(residual + projected, original)

    def test_dim_fallback_composes_pca_then_subtracts(self):
        from mmfuse import pca_transform

        rng = np.random.default_rng(13)
        original = rng.normal(size=(10, 3))
        projected = rng.normal(size=(10, 2))
        reducer = fit_pca(original, 2)
        out = rcca_residual(original, projected, pca=reducer)
        expected = pca_transform(reducer, original) - projected
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_missing_reducer(self):
        with pytest.raises(MissingReductionError):
            rcca_residual(np.ones((4, 3)), np.ones((4, 2)))

    def test_reducer_shape_mismatch(self):
        reducer = fit_pca(np.random.default_rng(14).normal(size=(8, 4)), 2)
        with pytest.raises(DimensionError):
            rcca_residual(np.ones((4, 3)), np.ones((4, 2)), pca=reducer)



class TestNumericalFailures:
    """Overflow and LAPACK failures surface as NumericalError, never raw numpy errors."""

    def test_non_finite_input(self):
        X = np.array(PCA_X)
        X[0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            fit_pca(X, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_pca_fit(self):
        X = np.array(PCA_X)
        X[0, 0] = 1e200
        with pytest.raises(NumericalError, match="non-finite"):
            fit_pca(X, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_cca_fit(self):
        X, Y, _ = CCA_INSTANCES[0]
        X = np.array(X)
        X[0, 0] = 1e200
        with pytest.raises(NumericalError, match="covariance"):
            fit_cca(X, np.array(Y), 1)

    def test_lapack_non_convergence(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_pca(PCA_X, 2)
