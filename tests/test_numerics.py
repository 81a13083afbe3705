import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    CcaModel,
    DimensionError,
    NumericalError,
    PcaModel,
    cca_fit,
    cca_transform,
    pca_fit,
    pca_transform,
    rcca_residual,
)
from mmfuse.numerics import GRAM_BOUND, GRAM_MIN_SIDE

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
        model = pca_fit(PCA_X, 2)
        np.testing.assert_allclose(model.components, PCA_COMPONENTS, atol=1e-8)
        np.testing.assert_allclose(model.explained_variance, PCA_VARIANCES, atol=1e-8)

    def test_transform_matches_oracle_scores(self):
        model = pca_fit(PCA_X, 2)
        np.testing.assert_allclose(pca_transform(model, PCA_X), PCA_SCORES, atol=1e-8)

    def test_rank_one_data_k1_captures_everything(self):
        direction = np.array([1.0, -2.0, 0.5])
        X = np.outer(np.arange(1.0, 6.0), direction)
        model = pca_fit(X, 1)
        total = np.sum((X - X.mean(axis=0)) ** 2) / (X.shape[0] - 1)
        assert model.explained_variance[0] == pytest.approx(total, rel=1e-12)
        reconstructed = pca_transform(model, X) @ model.components.T + model.mean
        np.testing.assert_allclose(reconstructed, X, atol=1e-10)

    def test_full_k_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        model = pca_fit(X, 3)
        Z = pca_transform(model, X)
        for i in range(10):
            for j in range(10):
                orig = np.linalg.norm(X[i] - X[j])
                proj = np.linalg.norm(Z[i] - Z[j])
                assert proj == pytest.approx(orig, abs=1e-8)

    def test_mean_row_maps_to_zero(self):
        model = pca_fit(PCA_X, 2)
        out = pca_transform(model, model.mean.reshape(1, -1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            pca_fit(PCA_X, 0)
        with pytest.raises(DimensionError):
            pca_fit(PCA_X, 4)  # exceeds both n-1 and d

    def test_rank_deficient_trailing_zero_variance(self):
        X = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0]))
        model = pca_fit(X, 2)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
        # components stay orthonormal even past the rank
        np.testing.assert_allclose(
            model.components.T @ model.components, np.eye(2), atol=1e-8
        )

    def test_transform_dim_mismatch(self):
        model = pca_fit(PCA_X, 2)
        with pytest.raises(DimensionError):
            pca_transform(model, np.ones((2, 4)))

    def test_deterministic_bit_identical(self):
        a = pca_fit(PCA_X, 2)
        b = pca_fit(PCA_X, 2)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    def test_variance_bounded_by_total(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = rng.normal(size=(12, 5))
            total = np.sum((X - X.mean(axis=0)) ** 2) / (X.shape[0] - 1)
            for k in (1, 3, 5):
                model = pca_fit(X, k)
                explained = model.explained_variance.sum()
                assert explained <= total + 1e-9
                np.testing.assert_allclose(
                    model.components.T @ model.components, np.eye(k), atol=1e-8
                )
            assert pca_fit(X, 5).explained_variance.sum() == pytest.approx(
                total, rel=1e-10
            )


class TestCca:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        model = cca_fit(X, X, 3, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    def test_column_permutation_keeps_correlation_one(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 3))
        model = cca_fit(X, X[:, [2, 0, 1]], 3, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    @pytest.mark.parametrize("X,Y,expected", CCA_INSTANCES)
    def test_first_correlation_matches_grid_oracle(self, X, Y, expected):
        model = cca_fit(np.array(X), np.array(Y), 1, ridge=1e-6)
        assert model.correlations[0] == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("X,Y,expected", CCA_INSTANCES)
    def test_projection_reproduces_oracle_scores(self, X, Y, expected):
        X, Y = np.array(X), np.array(Y)
        model = cca_fit(X, Y, 1, ridge=1e-6)
        a = cca_transform(model, X, "textual")[:, 0]
        b = cca_transform(model, Y, "visual")[:, 0]
        a = a - a.mean()
        b = b - b.mean()
        corr = abs(a @ b) / np.sqrt((a @ a) * (b @ b))
        assert corr == pytest.approx(expected, abs=1e-3)

    @staticmethod
    def projected_correlations(model, X, Y):
        """Per component, the sample correlation of the projected fit data."""
        Xp = cca_transform(model, X, "textual")
        Yp = cca_transform(model, Y, "visual")
        a = Xp - Xp.mean(axis=0)
        b = Yp - Yp.mean(axis=0)
        return np.einsum("ij,ij->j", a, b) / np.sqrt(
            np.einsum("ij,ij->j", a, a) * np.einsum("ij,ij->j", b, b))

    @pytest.mark.parametrize("ridge", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("route", ["eigh", "variances"])
    def test_stored_correlations_are_definitional(self, route, ridge):
        # the closed form from the SVD is what projecting the fit data gives,
        # whitened by eigh on raw input or by a PCA's variances on its scores
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 4))
        Y = X @ rng.normal(size=(4, 3)) + 0.3 * rng.normal(size=(20, 3))
        variances = None
        if route == "variances":
            (fx, X), (fy, Y) = _layer_a(X, 3), _layer_a(Y, 3)
            variances = (fx.explained_variance, fy.explained_variance)
        model = cca_fit(X, Y, 3, ridge=ridge, variances=variances)
        np.testing.assert_allclose(model.correlations, self.projected_correlations(model, X, Y),
                                   rtol=0, atol=1e-10)

    def test_stored_correlations_of_a_wide_rank_deficient_fit(self):
        # n < d with every third column zero: ridge makes the fit; the leading
        # components, which ridge does not dominate, are definitional too
        rng = np.random.default_rng(41)
        latent = rng.normal(size=(10, 3))
        X = latent @ rng.normal(size=(3, 15)) + 0.2 * rng.normal(size=(10, 15))
        Y = latent @ rng.normal(size=(3, 18)) + 0.2 * rng.normal(size=(10, 18))
        X[:, ::3] = 0.0
        Y[:, ::3] = 0.0
        model = cca_fit(X, Y, 9, ridge=1e-3)
        np.testing.assert_allclose(model.correlations[:3],
                                   self.projected_correlations(model, X, Y)[:3],
                                   rtol=0, atol=1e-10)

    def test_mean_row_maps_to_zero(self):
        X, Y, _ = CCA_INSTANCES[0]
        model = cca_fit(np.array(X), np.array(Y), 1, ridge=1e-6)
        out = cca_transform(model, model.mean_x.reshape(1, -1), "textual")
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_swap_symmetry(self):
        X = np.array(CCA_INSTANCES[1][0])
        Y = np.array(CCA_INSTANCES[1][1])
        ab = cca_fit(X, Y, 2, ridge=1e-6)
        ba = cca_fit(Y, X, 2, ridge=1e-6)
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
            base = cca_fit(X, Y, 2, ridge=0.0)
            warped = cca_fit(X @ A, Y, 2, ridge=0.0)
            np.testing.assert_allclose(
                base.correlations, warped.correlations, atol=1e-6
            )

    def test_row_count_mismatch(self):
        with pytest.raises(AlignmentError):
            cca_fit(np.ones((4, 2)), np.ones((5, 2)), 1)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 3))
        with pytest.raises(DimensionError):
            cca_fit(X, Y, 3)  # k > min(d1, d2)

    def test_singular_needs_ridge(self):
        X = np.ones((6, 2)) * np.arange(6.0).reshape(-1, 1)  # rank 1
        Y = np.random.default_rng(10).normal(size=(6, 2))
        with pytest.raises(NumericalError, match="ridge"):
            cca_fit(X, Y, 1, ridge=0.0)
        cca_fit(X, Y, 1, ridge=1e-3)  # same data succeeds with loading

    def test_deterministic_bit_identical(self):
        X = np.array(CCA_INSTANCES[2][0])
        Y = np.array(CCA_INSTANCES[2][1])
        a = cca_fit(X, Y, 2, ridge=1e-4)
        b = cca_fit(X, Y, 2, ridge=1e-4)
        assert np.array_equal(a.proj_x, b.proj_x)
        assert np.array_equal(a.proj_y, b.proj_y)
        assert np.array_equal(a.correlations, b.correlations)

    def test_transform_side_validation(self):
        X, Y, _ = CCA_INSTANCES[0]
        model = cca_fit(np.array(X), np.array(Y), 1)
        with pytest.raises(ValueError):
            cca_transform(model, np.array(X), "either")
        with pytest.raises(DimensionError):
            cca_transform(model, np.ones((2, 5)), "textual")

    def test_sample_correlation_of_transforms_matches(self):
        # per-component sample correlation between the two projected fit
        # sides equals the stored correlations
        X = np.array(CCA_INSTANCES[3][0])
        Y = np.array(CCA_INSTANCES[3][1])
        model = cca_fit(X, Y, 2, ridge=1e-6)
        Xp = cca_transform(model, X, "textual")
        Yp = cca_transform(model, Y, "visual")
        for j in range(2):
            a = Xp[:, j] - Xp[:, j].mean()
            b = Yp[:, j] - Yp[:, j].mean()
            corr = (a @ b) / np.sqrt((a @ a) * (b @ b))
            assert corr == pytest.approx(model.correlations[j], abs=1e-6)


def _layer_a(X, a):
    """The PCA of ``X`` at ``a`` and its output: uncorrelated principal scores."""
    fit = pca_fit(X, a)
    return fit, pca_transform(fit, X)


class TestVarianceWhitening:
    """``cca_fit(..., variances=...)`` whitens principal scores by their PCA variances.

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
        variances = (fx.explained_variance, fy.explained_variance)
        for k in ks:
            got, want = cca_fit(zx, zy, k, ridge, variances=variances), cca_fit(zx, zy, k, ridge)
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
        cca_fit(zx, zy, 30, variances=(fx.explained_variance, fy.explained_variance))
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
                cca_fit(zx, zy, 1, ridge=0.0, variances=whitening)
        # the second view is checked the same way
        with pytest.raises(NumericalError, match="^second-view covariance is singular"):
            cca_fit(zy, zx, 1, ridge=0.0, variances=variances[::-1])
        cca_fit(zx, zy, 1, ridge=1e-3, variances=variances)   # loading fits it

    def test_variances_must_match_the_widths(self):
        (fx, zx), (fy, zy) = _layer_a(PCA_X, 2), _layer_a(PCA_X[::-1], 2)
        with pytest.raises(ValueError, match="variances must have lengths"):
            cca_fit(zx, zy, 1, variances=(fx.explained_variance[:1], fy.explained_variance))


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
    """``pca_fit``/``cca_fit``: one model per fit, and the fit at k is the leading k of a wider one."""

    @staticmethod
    def assert_same_fit(fit, single):
        for name in fit.__dataclass_fields__:
            assert np.array_equal(getattr(fit, name), getattr(single, name)), name

    @staticmethod
    def leading(model, k):
        """``model`` cut to its leading ``k`` components."""
        if isinstance(model, PcaModel):
            return PcaModel(mean=model.mean, components=model.components[:, :k],
                            explained_variance=model.explained_variance[:k])
        return CcaModel(mean_x=model.mean_x, mean_y=model.mean_y, proj_x=model.proj_x[:, :k],
                        proj_y=model.proj_y[:, :k], correlations=model.correlations[:k],
                        ridge=model.ridge)

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
    def test_a_pca_fit_is_the_leading_k_of_the_widest(self, monkeypatch, rank):
        rng = np.random.default_rng(rank)
        X = rng.normal(size=(12, rank)) @ rng.normal(size=(rank, 6))
        calls = self.decompositions(monkeypatch)
        widest = pca_fit(X, 6)
        assert calls == ["svd"] and widest.k == 6
        for k in (1, 2, 4):
            calls.clear()
            self.assert_same_fit(pca_fit(X, k), self.leading(widest, k))
            assert calls == ["svd"]

    @pytest.mark.parametrize("by_variances", [False, True])
    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    def test_a_cca_fit_is_the_leading_k_of_the_widest(self, monkeypatch, ridge, by_variances):
        """Projections bitwise where each side is whitened by its variances, else to rounding.

        The correlations, taken from the projected fit data, agree to
        rounding either way. The first view has rank 3: at ridge 0 its
        covariance is singular, and the fit fails at every k with that one
        failure.
        """
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3)) @ rng.normal(size=(3, 5))
        Y = rng.normal(size=(15, 5))
        variances = None
        if by_variances:
            (fx, X), (fy, Y) = _layer_a(X, 5), _layer_a(Y, 5)
            variances = (fx.explained_variance, fy.explained_variance)
        calls = self.decompositions(monkeypatch)
        if ridge == 0.0:
            for k in (1, 3, 5):
                with pytest.raises(NumericalError) as info:
                    cca_fit(X, Y, k, ridge, variances=variances)
                assert str(info.value) == (
                    "first-view covariance is singular; refit with a positive ridge")
            assert calls == ([] if by_variances else ["eigh"] * 3)
            return
        widest = cca_fit(X, Y, 5, ridge, variances=variances)
        assert calls == (["svd"] if by_variances else ["eigh", "eigh", "svd"])
        for k in (1, 3):
            fit, cut = cca_fit(X, Y, k, ridge, variances=variances), self.leading(widest, k)
            exact = ["mean_x", "mean_y", "ridge"] + (["proj_x", "proj_y"] if by_variances else [])
            for name in exact:
                assert np.array_equal(getattr(fit, name), getattr(cut, name)), name
            for name in ("proj_x", "proj_y", "correlations"):
                np.testing.assert_allclose(getattr(fit, name), getattr(cut, name),
                                           rtol=1e-12, atol=1e-14)

    def test_bad_inputs_raise_before_any_decomposition(self, monkeypatch):
        """Non-finite input, then misalignment, then too few rows, then the range of k."""
        nan = np.array(PCA_X)
        nan[0, 0] = np.nan
        calls = self.decompositions(monkeypatch)
        failures = [
            (lambda: pca_fit(nan, 9), NumericalError, "X contains non-finite values"),
            (lambda: pca_fit(PCA_X[:1], 9), DimensionError, "PCA needs at least 2 rows"),
            (lambda: pca_fit(PCA_X, 0), DimensionError,
             "PCA dimension k=0 outside [1, min(n-1=3, d=3)]"),
            (lambda: pca_fit(PCA_X[:3], 3), DimensionError,
             "PCA dimension k=3 outside [1, min(n-1=2, d=3)]"),
            (lambda: cca_fit(PCA_X[:2], nan[:3], 9), NumericalError,
             "Y contains non-finite values"),
            (lambda: cca_fit(PCA_X[:2], PCA_X, 9), AlignmentError,
             "row counts differ: X has 2, Y has 4"),
            (lambda: cca_fit(PCA_X[:2], PCA_X[:2], 9), DimensionError,
             "CCA needs at least 3 rows"),
            (lambda: cca_fit(PCA_X, PCA_X[:, :2], 3), DimensionError,
             "CCA dimension k=3 outside [1, min(d1=3, d2=2, n-1=3)]"),
            (lambda: cca_fit(PCA_X, PCA_X, 0), DimensionError,
             "CCA dimension k=0 outside [1, min(d1=3, d2=3, n-1=3)]"),
        ]
        for fit, error, text in failures:
            with pytest.raises(error) as info:
                fit()
            assert type(info.value) is error and str(info.value) == text
        assert calls == []

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("X, k", [
        (PCA_X, 100),               # k out of range
        (PCA_X[:2], 1),             # too few rows to fit
        (np.full((4, 2), np.nan), 1),
    ])
    def test_bad_ridge_is_rejected_before_the_inputs(self, X, k, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            cca_fit(X, X, k, ridge=ridge)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            cca_fit(X, X[:1], k, ridge=ridge)   # misaligned rows


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
        """Both ends and the middle of the valid k of ``X``."""
        m = min(X.shape[0] - 1, X.shape[1])
        return [1, 2, m // 2, m - 1, m]

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
            fit = pca_fit(X, d)
            assert calls == [("eigh", (d, d))], name
            TestGramPca.assert_near_svd(fit, X, 1e-12)

    def test_fallbacks_take_qr_then_the_svd_of_r_bitwise(self, pca_routines):
        calls = pca_routines
        for name, X in self.fallback():
            n, d = X.shape
            calls.clear()
            fit = pca_fit(X, d)
            qr_svd = [("qr", (n, d)), ("svd", (d, d))]
            assert calls == (qr_svd if d < GRAM_MIN_SIDE else [("eigh", (d, d)), *qr_svd]), name
            TestGramPca.assert_direct_svd(fit, X)

    def test_prefix_fits_are_the_single_fits_bitwise(self):
        """``pca_fit(X, k)`` is bitwise the leading k of ``pca_fit(X, m)``, on either route."""
        for name, X in [*self.gram(), *self.fallback()]:
            *ks, m = self.ks(X)
            widest = pca_fit(X, m)
            for k in ks:
                TestPrefixFits.assert_same_fit(pca_fit(X, k), TestPrefixFits.leading(widest, k))
            for k in (0, m + 1):
                with pytest.raises(DimensionError, match=f"^PCA dimension k={k} outside"):
                    pca_fit(X, k)

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
        routes = [("eigh", (d, d))] if d >= GRAM_MIN_SIDE else [("qr", (40, d)), ("svd", (d, d))]
        for k in (1, d):
            calls.clear()
            with pytest.raises(NumericalError) as info:
                pca_fit(X, k)
            assert repr(info.value) == repr(NumericalError(failure))
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
    def assert_near_svd(fit, X, tol):
        mean, components, variance = _direct_pca(X, fit.k)
        assert fit.mean.tobytes() == mean.tobytes()
        np.testing.assert_allclose(fit.components, components, rtol=0, atol=tol)
        # an eigenvalue's error is relative to the largest one
        np.testing.assert_allclose(fit.explained_variance, variance,
                                   rtol=0, atol=tol * variance[0])

    @staticmethod
    def assert_direct_svd(fit, X):
        for got, want in zip((fit.mean, fit.components, fit.explained_variance),
                             _direct_pca(X, fit.k)):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def widest(X):
        """The largest k of ``X``: its fit holds every smaller one as a prefix."""
        return min(X.shape[0] - 1, X.shape[1])

    def test_inputs_below_twice_their_width_take_the_smaller_gram(self, pca_routines):
        rng = np.random.default_rng(43)
        d = 20
        calls = pca_routines
        for n, gram in ((2 * d - 1, d), (d + 1, d), (d, d), (GRAM_MIN_SIDE, GRAM_MIN_SIDE)):
            X = rng.normal(size=(n, d))
            calls.clear()
            fit = pca_fit(X, 2)
            assert calls == [("eigh", (gram, gram))], n
            self.assert_near_svd(fit, X, 1e-12)
        # a side below GRAM_MIN_SIDE is decomposed directly
        for shape in ((GRAM_MIN_SIDE - 1, d), (2 * GRAM_MIN_SIDE - 3, GRAM_MIN_SIDE - 1), (4, 3)):
            X = rng.normal(size=shape)
            calls.clear()
            fit = pca_fit(X, 2)
            assert calls == [("svd", shape)], shape
            self.assert_direct_svd(fit, X)

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
            fit = pca_fit(X, self.widest(X))
            side = min(n, d)
            assert calls == [("eigh", (side, side))], (n, d)
            self.assert_near_svd(fit, X, 1e-11)

    def test_prefix_fits_are_the_single_fits_bitwise(self):
        """``pca_fit(X, k)`` is bitwise the leading k of ``pca_fit(X, m)``, on either route."""
        rng = np.random.default_rng(45)
        rank_deficient = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 30))
        for _, X in [*self.wide(), ("fallback", rank_deficient)]:
            m = self.widest(X)
            widest = pca_fit(X, m)
            for k in (1, m // 2, m - 1):
                TestPrefixFits.assert_same_fit(pca_fit(X, k), TestPrefixFits.leading(widest, k))
            for k in (0, m + 1):
                with pytest.raises(DimensionError, match=f"^PCA dimension k={k} outside"):
                    pca_fit(X, k)

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
            fit = pca_fit(X, self.widest(X))
            side = min(n, d)
            assert calls == [("eigh", (side, side)), ("svd", (n, d))], name
            self.assert_direct_svd(fit, X)

    def test_a_spectrum_just_above_the_bound_takes_the_gram(self, pca_routines):
        rng = np.random.default_rng(47)
        smallest = (1.1 * GRAM_BOUND) ** 0.5
        calls = pca_routines
        for n, d in ((20, 50), (50, 30), (80, 30)):
            X = _with_spectrum(rng, n, d, np.geomspace(1, smallest, min(n - 1, d)))
            calls.clear()
            fit = pca_fit(X, self.widest(X))
            assert calls == [("eigh", (min(n, d),) * 2)], (n, d)
            self.assert_near_svd(fit, X, 1e-8)

    @pytest.mark.parametrize("shape", [(17, 30), (30, 20), (40, 20)])
    def test_extreme_magnitudes_keep_their_status(self, pca_routines, shape):
        X = np.random.default_rng(48).normal(size=shape)
        calls = pca_routines
        m = self.widest(X)
        for k in (1, m):
            calls.clear()
            with pytest.raises(NumericalError) as info:
                pca_fit(X * 1e200, k)
            assert repr(info.value) == repr(NumericalError("PCA variance contains non-finite values"))
            assert calls == [("eigh", (min(shape),) * 2)]
        tiny = X * 1e-160
        calls.clear()
        fit = pca_fit(tiny, m)
        assert calls == [("eigh", (min(shape),) * 2)]
        mean, components, variance = _direct_pca(tiny, m)
        assert fit.mean.tobytes() == mean.tobytes()
        np.testing.assert_allclose(fit.components, components, rtol=0, atol=1e-11)
        # the variances are subnormal: a few units of 5e-324 apart
        assert np.max(np.abs(fit.explained_variance - variance)) <= 8 * 5e-324

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_centred_input(self, pca_routines):
        X = np.full((20, 30), 1.7e308)
        X[0] = -1.7e308
        calls = pca_routines
        for k in (1, 2):
            with pytest.raises(NumericalError) as info:
                pca_fit(X, k)
            assert repr(info.value) == repr(
                NumericalError("centered PCA input contains non-finite values"))
        assert calls == []

    def test_a_failing_svd_leaves_the_gram_route(self, monkeypatch):
        X = next(self.wide())[1]
        gram_fits = {k: pca_fit(X, k) for k in (1, 5)}

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for k, fit in gram_fits.items():
            TestPrefixFits.assert_same_fit(pca_fit(X, k), fit)
        rank_deficient = next(self.ill_conditioned())[1]
        with pytest.raises(NumericalError, match="centered PCA input: SVD did not converge"):
            pca_fit(rank_deficient, 2)

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
            fit = pca_fit(X, self.widest(X))
            assert [routine for routine, _ in calls] == ["eigh", "svd"]
            self.assert_direct_svd(fit, X)

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
                pca_fit(X, 10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert calls == [("eigh", (min(n, d),) * 2)], (n, d)
            assert peak < bound * X.nbytes, (n, d, peak / X.nbytes)


class TestCcaMemory:
    @pytest.mark.parametrize("route", ["eigh", "variances"])
    def test_a_tall_fit_holds_its_centred_inputs_and_no_projection(self, route):
        """A CCA of two tall inputs peaks at their centred copies, 2 times one input's size.

        Peaks traced by ``tracemalloc`` at 20000 x 20: 2.02 times, against
        4.03 when the fit projected its data to take the correlations.
        """
        import tracemalloc

        rng = np.random.default_rng(50)
        latent = rng.normal(size=(20000, 5))
        X, Y = (latent @ rng.normal(size=(5, 20)) + rng.normal(size=(20000, 20)) for _ in range(2))
        variances = None
        if route == "variances":
            (fx, X), (fy, Y) = _layer_a(X, 20), _layer_a(Y, 20)
            variances = (fx.explained_variance, fy.explained_variance)
        tracemalloc.start()
        try:
            cca_fit(X, Y, 20, variances=variances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * X.nbytes, peak / X.nbytes


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

    def test_a_wider_signal_is_reduced_before_the_subtraction(self):
        rng = np.random.default_rng(13)
        original = rng.normal(size=(10, 3))
        projected = rng.normal(size=(10, 2))
        reducer = pca_fit(original, 2)
        out = rcca_residual(pca_transform(reducer, original), projected)
        np.testing.assert_array_equal(out, pca_transform(reducer, original) - projected)

    @pytest.mark.parametrize("d, k", [(3, 2), (2, 3)])
    def test_unequal_widths(self, d, k):
        with pytest.raises(DimensionError,
                           match=rf"^widths differ: original {d}, projected {k}$"):
            rcca_residual(np.ones((4, d)), np.ones((4, k)))



class TestNumericalFailures:
    """Overflow and LAPACK failures surface as NumericalError, never raw numpy errors."""

    def test_non_finite_input(self):
        X = np.array(PCA_X)
        X[0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            pca_fit(X, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_pca_fit(self):
        X = np.array(PCA_X)
        X[0, 0] = 1e200
        with pytest.raises(NumericalError, match="non-finite"):
            pca_fit(X, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_cca_fit(self):
        X, Y, _ = CCA_INSTANCES[0]
        X = np.array(X)
        X[0, 0] = 1e200
        with pytest.raises(NumericalError, match="covariance"):
            cca_fit(X, np.array(Y), 1)

    def test_lapack_non_convergence(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            pca_fit(PCA_X, 2)
