import itertools

import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    Configuration,
    ConfigurationError,
    EmbeddingTable,
    GridSpec,
    NumericalError,
    ScoringModel,
    apply_configuration,
    cca_fit,
    concat_table,
    describe_configuration,
    enumerate_configurations,
    format_configuration,
    output_dimension,
    load_configuration,
    parse_configuration,
    pca_fit,
    validate_configuration,
)
from mmfuse.composition import MOTIFS, canonical_key, used_motifs


class TestValidate:
    def test_unequal_dims_block_fusion_without_pca(self):
        cfg = Configuration(layer_b="cca", fusion_dim=50, output_side="both",
                            layer_c="li", alpha=0.5)
        violations = validate_configuration(cfg, 500, 4096)
        assert any("same dimensionality" in v for v in violations)

    def test_known_good_mixed_configuration(self):
        cfg = Configuration(
            layer_a="pca", pca_dim=200,
            layer_b="cca_plus_rcca", fusion_dim=200,
            cca_side="visual", rcca_side="textual",
            layer_c="li", alpha=0.4,
        )
        assert validate_configuration(cfg, 500, 4096) == []

    def test_mixed_fusion_requires_combination(self):
        cfg = Configuration(
            layer_a="pca", pca_dim=100,
            layer_b="cca_plus_rcca", fusion_dim=100,
            cca_side="visual", rcca_side="textual",
        )
        violations = validate_configuration(cfg, 500, 4096)
        assert any("layer-c combination" in v for v in violations)

    def test_both_sides_require_combination(self):
        cfg = Configuration(layer_b="cca", fusion_dim=2, output_side="both")
        assert validate_configuration(cfg, 4, 4)

    def test_bare_configuration_needs_a_side(self):
        assert validate_configuration(Configuration(), 4, 4)
        assert validate_configuration(Configuration(output_side="textual"), 4, 4) == []

    def test_combination_needs_two_inputs(self):
        cfg = Configuration(layer_b="cca", fusion_dim=2, output_side="textual",
                            layer_c="li", alpha=0.5)
        assert validate_configuration(cfg, 4, 4)

    def test_alpha_range(self):
        cfg = Configuration(layer_c="li", alpha=1.5)
        assert any("alpha" in v for v in validate_configuration(cfg, 4, 4))

    def test_pca_dim_capped_by_smaller_input(self):
        cfg = Configuration(layer_a="pca", pca_dim=600, output_side="textual")
        assert validate_configuration(cfg, 500, 4096)

    def test_fusion_dim_capped_by_layer_a_output(self):
        cfg = Configuration(layer_a="pca", pca_dim=100, layer_b="cca",
                            fusion_dim=200, output_side="textual")
        assert validate_configuration(cfg, 500, 4096)


class TestApply:
    def test_identity_config_returns_input_table(self, small_tables):
        textual, visual = small_tables
        model = apply_configuration(Configuration(output_side="visual"), textual, visual)
        assert model.layer_c == "none" and model.second is None
        assert np.array_equal(model.first.matrix, visual.matrix)
        assert model.first.vocab == visual.vocab

    def test_raw_li_pairs_the_two_tables(self, small_tables):
        textual, visual = small_tables
        cfg = Configuration(layer_c="li", alpha=0.3)
        model = apply_configuration(cfg, textual, visual)
        assert model.layer_c == "li" and model.alpha == 0.3
        assert np.array_equal(model.first.matrix, textual.matrix)
        assert np.array_equal(model.second.matrix, visual.matrix)

    def test_pca_only_textual(self, small_tables):
        from mmfuse import pca_transform

        textual, visual = small_tables
        cfg = Configuration(layer_a="pca", pca_dim=2, output_side="textual")
        model = apply_configuration(cfg, textual, visual)
        expected = pca_transform(pca_fit(textual.matrix, 2), textual.matrix)
        np.testing.assert_array_equal(model.first.matrix, expected)

    def test_concat_dim_is_sum(self, small_tables):
        textual, visual = small_tables
        model = apply_configuration(Configuration(layer_c="concat"), textual, visual)
        fused = concat_table(model)
        assert fused.dim == textual.dim + visual.dim
        np.testing.assert_array_equal(
            fused.matrix, np.hstack([textual.matrix, visual.matrix])
        )

    def test_concat_normalization_is_off_by_default_and_per_block(self, small_tables):
        textual, visual = small_tables
        cfg = Configuration(layer_c="concat")
        plain = apply_configuration(cfg, textual, visual)
        assert np.array_equal(concat_table(plain).matrix[:, :4], textual.matrix)
        normed = concat_table(apply_configuration(cfg, textual, visual, normalize_concat=True))
        left = normed.matrix[:, :4]
        right = normed.matrix[:, 4:]
        np.testing.assert_allclose(np.linalg.norm(left, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(right, axis=1), 1.0, atol=1e-12)

    def test_normalized_concat_of_an_overflowing_row_is_a_numerical_error(self, small_tables):
        # the row's norm overflows: it used to be divided down to a zero row
        textual, visual = small_tables
        big = visual.matrix.copy()
        big[1, 0] = 1e200
        visual = EmbeddingTable(visual.vocab, big, name="visual")
        cfg = Configuration(layer_c="concat")
        with pytest.raises(NumericalError, match="row norm overflows"):
            apply_configuration(cfg, textual, visual, normalize_concat=True)
        assert concat_table(apply_configuration(cfg, textual, visual)).matrix[1, 4] == 1e200

    def test_mixed_fusion_orders_textual_derived_first(self, small_tables):
        textual, visual = small_tables
        cfg = Configuration(
            layer_b="cca_plus_rcca", fusion_dim=2,
            cca_side="visual", rcca_side="textual",
            layer_c="li", alpha=0.4,
        )
        model = apply_configuration(cfg, textual, visual)
        assert model.first.name.startswith("rcca(")   # textual-derived residual
        assert model.second.name.startswith("cca(")

    def test_same_modality_mix_orders_cca_first(self, small_tables):
        textual, visual = small_tables
        cfg = Configuration(
            layer_b="cca_plus_rcca", fusion_dim=2,
            cca_side="textual", rcca_side="textual",
            layer_c="li", alpha=0.4,
        )
        model = apply_configuration(cfg, textual, visual)
        assert model.first.name.startswith("cca(")
        assert model.second.name.startswith("rcca(")

    def test_rcca_uses_pca_fallback_when_dims_differ(self, small_tables):
        from mmfuse import cca_transform, pca_transform

        textual, visual = small_tables
        cfg = Configuration(layer_b="rcca", fusion_dim=2, output_side="textual")
        model = apply_configuration(cfg, textual, visual)
        fit = cca_fit(textual.matrix, visual.matrix, 2, ridge=cfg.ridge)
        projected = cca_transform(fit, textual.matrix, "textual")
        reducer = pca_fit(textual.matrix, 2)
        expected = pca_transform(reducer, textual.matrix) - projected
        np.testing.assert_array_equal(model.first.matrix, expected)

    @staticmethod
    def table_oracle(textual, visual, a_dim, f_dim, origin, side, ridge, width=None):
        """One input table of a configuration, built here from its fits and transforms.

        A side's PCA at k, as a layer-a output or an R-CCA reducer, is its
        PCA fit at ``width`` and applied, cut to its first k columns; the
        CCA is fit at the widest dim its two inputs allow and applied, cut
        to its first ``f_dim`` columns. With no ``width``, each is fit at
        its own dim.
        """
        from mmfuse import cca_transform, pca_transform, rcca_residual

        raw = {"textual": textual.matrix, "visual": visual.matrix}

        def pca_at(s, k):
            pca = pca_fit(raw[s], width or k)
            return pca_transform(pca, raw[s])[:, :k], pca.explained_variance[:k]

        signal, variances = raw, None
        if a_dim:
            parts = {s: pca_at(s, a_dim) for s in raw}
            signal = {s: scores for s, (scores, _) in parts.items()}
            # principal scores are uncorrelated: whitened by their variances
            variances = tuple(var for _, var in parts.values())
        if not origin:
            return signal[side]
        x, y = signal["textual"], signal["visual"]
        k = min(x.shape[1], y.shape[1], x.shape[0] - 1) if width else f_dim
        fit = cca_fit(x, y, k, ridge=ridge, variances=variances)
        projected = cca_transform(fit, signal[side], side)[:, :f_dim]
        own = signal[side]
        if origin == "cca":
            return projected
        if own.shape[1] == f_dim:
            return rcca_residual(own, projected)
        # a wider signal, a raw table or a layer-a output, is reduced by its
        # side's PCA at f_dim: the leading columns of its principal scores
        return rcca_residual(pca_at(side, f_dim)[0], projected)

    @pytest.mark.parametrize("layers, tables", [
        ("layer_a=none layer_b=none:side=T layer_c=none", [("", "textual", "textual")]),
        ("layer_a=none layer_b=none:side=V layer_c=none", [("", "visual", "visual")]),
        ("layer_a=pca:3 layer_b=none:side=T layer_c=none", [("", "textual", "pca3(textual)")]),
        ("layer_a=pca:3 layer_b=none:side=V layer_c=none", [("", "visual", "pca3(visual)")]),
        ("layer_a=none layer_b=cca:2:out=both layer_c=concat",
         [("cca", "textual", "cca(textual,2)"), ("cca", "visual", "cca(visual,2)")]),
        ("layer_a=pca:3 layer_b=cca:2:out=both layer_c=li:0.5",
         [("cca", "textual", "cca(pca3(textual),2)"), ("cca", "visual", "cca(pca3(visual),2)")]),
        # a raw side wider than the fusion dim is reduced by its PCA there
        ("layer_a=none layer_b=rcca:2:out=both layer_c=li:0.5",
         [("rcca", "textual", "rcca(textual,2)"), ("rcca", "visual", "rcca(visual,2)")]),
        # a raw side as wide as the fusion dim: plain subtraction
        ("layer_a=none layer_b=rcca:4:out=both layer_c=concat",
         [("rcca", "textual", "rcca(textual,4)"), ("rcca", "visual", "rcca(visual,4)")]),
        ("layer_a=pca:3 layer_b=rcca:2:out=both layer_c=concat",
         [("rcca", "textual", "rcca(pca3(textual),2)"),
          ("rcca", "visual", "rcca(pca3(visual),2)")]),
        ("layer_a=none layer_b=cca_plus_rcca:2:cca=T:rcca=V layer_c=concat",
         [("cca", "textual", "cca(textual,2)"), ("rcca", "visual", "rcca(visual,2)")]),
        ("layer_a=pca:3 layer_b=cca_plus_rcca:2:cca=V:rcca=T layer_c=li:0.4",
         [("rcca", "textual", "rcca(pca3(textual),2)"), ("cca", "visual", "cca(pca3(visual),2)")]),
    ])
    def test_each_table_kind_matches_its_fits(self, small_tables, layers, tables):
        """Every kind of input table, bit for bit, against fits and transforms called directly.

        Each side's PCA is fit once, at the widest dim both sides allow, and
        cut, and so is the CCA of the two layer-a outputs; fitting each dim
        on its own agrees up to rounding.
        """
        textual, visual = small_tables
        config = parse_configuration(layers)
        model = apply_configuration(config, textual, visual)
        built = [model.first] if model.second is None else [model.first, model.second]
        assert [table.name for table in built] == [label for _, _, label in tables]
        width = min(len(textual.vocab) - 1, textual.dim, visual.dim)
        for table, (origin, side, _) in zip(built, tables):
            args = (textual, visual, config.pca_dim, config.fusion_dim, origin, side, config.ridge)
            expected = self.table_oracle(*args, width=width)
            assert table.matrix.shape == expected.shape
            assert table.matrix.tobytes() == expected.tobytes()
            np.testing.assert_allclose(table.matrix, self.table_oracle(*args), rtol=0, atol=1e-12)

    def test_invalid_config_raises_with_violations(self, small_tables):
        textual, visual = small_tables
        with pytest.raises(ConfigurationError) as exc:
            apply_configuration(Configuration(), textual, visual)
        assert exc.value.violations

    def test_unaligned_tables_rejected(self, small_tables):
        textual, _ = small_tables
        other = EmbeddingTable(("a", "b"), np.eye(2), name="visual")
        with pytest.raises(AlignmentError):
            apply_configuration(Configuration(output_side="textual"), textual, other)

    def test_reapplication_is_bit_identical(self, small_tables):
        textual, visual = small_tables
        cfg = Configuration(layer_a="pca", pca_dim=3, layer_b="rcca", fusion_dim=2,
                            output_side="both", layer_c="li", alpha=0.7)
        m1 = apply_configuration(cfg, textual, visual)
        m2 = apply_configuration(cfg, textual, visual)
        assert np.array_equal(m1.first.matrix, m2.first.matrix)
        assert np.array_equal(m1.second.matrix, m2.second.matrix)

    def test_vocabulary_always_preserved(self, small_tables):
        textual, visual = small_tables
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5)
        for cfg in enumerate_configurations(textual.dim, visual.dim, grid):
            model = apply_configuration(cfg, textual, visual)
            assert model.vocab == textual.vocab


class TestScoringModel:
    VOCAB = ("a", "b")
    FIRST = EmbeddingTable(VOCAB, [[1.0, 0.0], [0.0, 1.0]], name="first")
    SECOND = EmbeddingTable(VOCAB, [[1.0, 1.0], [0.0, 1.0]], name="second")
    OTHER = EmbeddingTable(("a", "c"), [[1.0, 1.0], [0.0, 1.0]], name="other")

    @pytest.mark.parametrize("second, kwargs, error", [
        (SECOND, {}, ValueError),                                   # none with a second table
        (None, {"layer_c": "concat"}, ValueError),                  # concat of one table
        (None, {"layer_c": "li", "alpha": 0.5}, ValueError),        # li of one table
        (SECOND, {"layer_c": "li"}, ValueError),                    # li without alpha
        (SECOND, {"layer_c": "li", "alpha": 1.5}, ValueError),      # alpha out of [0, 1]
        (SECOND, {"layer_c": "concat", "alpha": 0.5}, ValueError),  # alpha on concat
        (None, {"alpha": 0.5}, ValueError),                         # alpha on one table
        (SECOND, {"layer_c": "bogus"}, ValueError),                 # unknown motif
        (OTHER, {"layer_c": "li", "alpha": 0.5}, AlignmentError),
        (OTHER, {"layer_c": "concat"}, AlignmentError),
    ])
    def test_constructor_checks(self, second, kwargs, error):
        with pytest.raises(error):
            ScoringModel(self.FIRST, second, **kwargs)

    @pytest.mark.parametrize("second, kwargs", [
        (None, {}),
        (SECOND, {"layer_c": "concat", "normalize": True}),
        (SECOND, {"layer_c": "li", "alpha": 0.0}),
        (SECOND, {"layer_c": "li", "alpha": 1.0}),
    ])
    def test_valid_models_build(self, second, kwargs):
        assert ScoringModel(self.FIRST, second, **kwargs).vocab == self.VOCAB


class TestLayerAReducer:
    """A layer-a output's R-CCA reducer at k is its leading k coordinates."""

    @staticmethod
    def layer_a_parts(textual, visual, a_dim, f_dim, ridge):
        """Layer-a outputs and their CCA projections, fitted here step by step.

        Each side is fit at the widest dim both sides allow and projected;
        its layer-a output is the first ``a_dim`` columns, whitened by their
        variances, as principal scores. Their CCA is fit at ``a_dim``, the
        widest dim they allow, and each projection cut to its first
        ``f_dim`` columns.
        """
        from mmfuse import cca_transform, pca_transform

        tables = {"textual": textual.matrix, "visual": visual.matrix}
        width = min(len(textual.vocab) - 1, textual.dim, visual.dim)
        pcas = {side: pca_fit(m, width) for side, m in tables.items()}
        z = {side: pca_transform(pcas[side], m)[:, :a_dim] for side, m in tables.items()}
        fit = cca_fit(z["textual"], z["visual"], a_dim, ridge=ridge,
                      variances=tuple(pcas[side].explained_variance[:a_dim] for side in z))
        return z, {side: cca_transform(fit, z[side], side)[:, :f_dim] for side in z}

    def test_residual_subtracts_the_leading_coordinates(self, planted):
        from mmfuse import pca_transform

        textual, visual, _ = planted
        cfg = parse_configuration("layer_a=pca:3 layer_b=rcca:2:out=both layer_c=li:0.5")
        model = apply_configuration(cfg, textual, visual)
        z, projected = self.layer_a_parts(textual, visual, 3, 2, cfg.ridge)
        variances = pca_fit(textual.matrix, 3).explained_variance
        assert np.all(np.diff(variances) < 0)   # distinct variances: one valid PCA
        for table, side in ((model.first, "textual"), (model.second, "visual")):
            lead = z[side][:, :2]
            np.testing.assert_array_equal(table.matrix, lead - projected[side])
            # the leading coordinates are centred, up to rounding
            np.testing.assert_allclose(lead.mean(axis=0), 0.0, rtol=0, atol=1e-14)
            # the SVD of the output this replaces gives the same reduction up to rounding
            svd = pca_transform(pca_fit(z[side], 2), z[side]) - projected[side]
            np.testing.assert_allclose(table.matrix, svd, rtol=0, atol=1e-9)
        # the leading coordinates carry the layer-a fit's leading variances
        np.testing.assert_allclose(np.var(z["textual"][:, :2], axis=0, ddof=1),
                                   variances[:2], rtol=1e-12)

    def test_tied_variances_take_the_coordinate_axes(self):
        from mmfuse.composition import layer_a, leading

        # centred rows with singular values 3, 3, 2, 1: the top two variances tie
        rng = np.random.default_rng(4)
        n = 20
        basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 4))]))
        rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        vocab = tuple(f"w{i:02d}" for i in range(n))
        textual = EmbeddingTable(vocab, basis[:, 1:] * [3.0, 3.0, 2.0, 1.0] @ rotation.T,
                                 name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(n, 4)), name="visual")
        cfg = parse_configuration("layer_a=pca:3 layer_b=rcca:1:out=T layer_c=none")
        z, projected = self.layer_a_parts(textual, visual, 3, 1, cfg.ridge)
        variances = np.var(z["textual"], axis=0, ddof=1)
        np.testing.assert_allclose(variances, [9 / (n - 1), 9 / (n - 1), 4 / (n - 1)])
        # any unit vector of the tied plane is a valid PCA at 1; the reducer takes axis 1
        fits = layer_a({"textual": textual.matrix, "visual": visual.matrix}, [cfg])
        reduced = leading(fits["textual"], 1, textual.matrix.shape)
        np.testing.assert_allclose(reduced, z["textual"][:, :1], rtol=0, atol=1e-12)
        first = apply_configuration(cfg, textual, visual).first.matrix
        np.testing.assert_array_equal(first, reduced - projected["textual"])
        for _ in range(3):
            again = apply_configuration(cfg, textual, visual).first.matrix
            assert again.tobytes() == first.tobytes()


def _independent_enumeration(dim_t, dim_v, dims, alphas, ridge):
    """Plain nested loops mirroring the layer rules, for cross-checking.

    Emits in the sweep's order: layer-a dim ascending, then layer-b
    variant, layer-b dim, sides, layer-c variant, alpha.
    """
    sides = ("textual", "visual")
    out = []
    for a_dim in [None] + [d for d in dims if d <= min(dim_t, dim_v)]:
        base = {"ridge": ridge}
        if a_dim is not None:
            base |= {"layer_a": "pca", "pca_dim": a_dim}
        ta = a_dim or dim_t
        va = a_dim or dim_v
        for side in sides:
            out.append(Configuration(**base, output_side=side))
        out.append(Configuration(**base, layer_c="concat"))
        for alpha in alphas:
            out.append(Configuration(**base, layer_c="li", alpha=alpha))
        if ta != va:
            continue
        for variant in ("cca", "rcca"):
            for f in [d for d in dims if d <= ta]:
                for side in sides:
                    out.append(Configuration(
                        **base, layer_b=variant, fusion_dim=f, output_side=side))
                out.append(Configuration(
                    **base, layer_b=variant, fusion_dim=f, output_side="both",
                    layer_c="concat"))
                for alpha in alphas:
                    out.append(Configuration(
                        **base, layer_b=variant, fusion_dim=f, output_side="both",
                        layer_c="li", alpha=alpha))
        for f in [d for d in dims if d <= ta]:
            for s_c in sides:
                for s_r in sides:
                    out.append(Configuration(
                        **base, layer_b="cca_plus_rcca", fusion_dim=f,
                        cca_side=s_c, rcca_side=s_r, layer_c="concat"))
                    for alpha in alphas:
                        out.append(Configuration(
                            **base, layer_b="cca_plus_rcca", fusion_dim=f,
                            cca_side=s_c, rcca_side=s_r, layer_c="li", alpha=alpha))
    return out


def _motifs(config):
    """The motifs a configuration applies, read off its layer fields."""
    return {config.layer_a, config.layer_c, *config.layer_b.split("_plus_")} - {"none"}


class TestEnumerate:
    @pytest.mark.parametrize("dim_t, dim_v, grid, dims, alphas", [
        (100, 100, GridSpec(alpha_step=0.5), [50, 100], [0.0, 0.5, 1.0]),
        (4, 6, GridSpec(dim_step=2, dim_min=2, alpha_step=0.5), [2, 4], [0.0, 0.5, 1.0]),
        (6, 4, GridSpec(dim_step=2, dim_min=2, alpha_step=0.5), [2, 4], [0.0, 0.5, 1.0]),
        (6, 6, GridSpec(dim_step=2, dim_min=1, alpha_step=0.5), [1, 3, 5], [0.0, 0.5, 1.0]),
        # a step that does not divide 1 stops short of it
        (4, 4, GridSpec(dim_step=1, dim_min=1, alpha_step=0.3), [1, 2, 3, 4],
         [0.0, 0.3, 0.6, 0.9]),
        (500, 4096, GridSpec(), list(range(50, 501, 50)), [i / 10 for i in range(11)]),
    ])
    def test_matches_independent_enumeration(self, dim_t, dim_v, grid, dims, alphas):
        oracle = _independent_enumeration(dim_t, dim_v, dims, alphas, grid.ridge)
        assert enumerate_configurations(dim_t, dim_v, grid) == oracle

    @pytest.mark.parametrize("dim_t, dim_v", [(4, 4), (6, 4)])
    def test_every_motif_filter_keeps_the_configurations_it_names(self, dim_t, dim_v):
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5)
        oracle = _independent_enumeration(dim_t, dim_v, [2, 4], [0.0, 0.5, 1.0], grid.ridge)
        kept = {}
        for size in range(len(MOTIFS) + 1):
            for motifs in itertools.combinations(MOTIFS, size):
                filtered = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5, motif_filter=motifs)
                expected = [cfg for cfg in oracle if _motifs(cfg) <= set(motifs)]
                assert enumerate_configurations(dim_t, dim_v, filtered) == expected, motifs
                kept[motifs] = expected
        # the empty filter keeps the two unimodal baselines; all five motifs, everything
        assert kept[()] == [Configuration(output_side="textual"),
                            Configuration(output_side="visual")]
        assert kept[MOTIFS] == oracle

    def test_count_matches_hand_enumerated_oracle(self):
        grid = GridSpec(dim_step=50, dim_min=50, alpha_step=0.5)
        configs = enumerate_configurations(100, 100, grid)
        assert len(configs) == 158  # frozen from the pre-build hand count
        oracle = _independent_enumeration(
            100, 100, [50, 100], [0.0, 0.5, 1.0], grid.ridge
        )
        assert set(configs) == set(oracle)
        assert len(configs) == len(oracle)

    def test_no_fusion_on_unequal_dims(self):
        grid = GridSpec()
        configs = enumerate_configurations(500, 4096, grid)
        for cfg in configs:
            if cfg.layer_b != "none":
                assert cfg.layer_a == "pca"
            if cfg.layer_b == "cca_plus_rcca":
                assert cfg.layer_c in ("concat", "li")

    def test_every_config_valid(self):
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5)
        for cfg in enumerate_configurations(4, 6, grid):
            assert validate_configuration(cfg, 4, 6) == []

    def test_emitted_in_canonical_order_without_duplicates(self):
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.25)
        configs = enumerate_configurations(6, 6, grid)
        keys = [canonical_key(c) for c in configs]
        assert keys == sorted(keys)
        assert len(set(configs)) == len(configs)

    def test_motif_filter_li_only(self):
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5,
                        motif_filter=frozenset({"li"}))
        configs = enumerate_configurations(4, 4, grid)
        with_li = [c for c in configs if c.layer_c == "li"]
        for cfg in with_li:
            assert cfg.layer_a == "none" and cfg.layer_b == "none"
        assert with_li  # the raw-pair interpolations are present
        for cfg in configs:
            assert used_motifs(cfg) <= {"li"}

    def test_alpha_grid_hits_exact_endpoints(self):
        grid = GridSpec(alpha_step=0.1)
        alphas = grid.alphas()
        assert alphas[0] == 0.0 and alphas[-1] == 1.0
        assert len(alphas) == 11


class TestOutputDimension:
    @pytest.mark.parametrize("dim_t, dim_v", [(4, 4), (4, 6), (6, 4)])
    def test_measures_the_applied_tables(self, dim_t, dim_v):
        rng = np.random.default_rng(11)
        vocab = tuple(f"w{i:02d}" for i in range(12))
        textual = EmbeddingTable(vocab, rng.normal(size=(12, dim_t)), name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(12, dim_v)), name="visual")
        grid = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5)
        for cfg in enumerate_configurations(dim_t, dim_v, grid):
            model = apply_configuration(cfg, textual, visual)
            widths = [model.first.dim] + ([model.second.dim] if model.second else [])
            expected = {"concat": sum(widths), "li": max(widths)}.get(cfg.layer_c)
            if expected is None:
                expected, = widths
            assert output_dimension(cfg, dim_t, dim_v) == expected, cfg

    @pytest.mark.parametrize("cfg,expected", [
        (Configuration(output_side="textual"), 10),
        (Configuration(output_side="visual"), 20),
        (Configuration(layer_c="concat"), 30),
        (Configuration(layer_c="li", alpha=0.5), 20),
        (Configuration(layer_a="pca", pca_dim=5, output_side="visual"), 5),
        (Configuration(layer_a="pca", pca_dim=5, layer_b="cca", fusion_dim=3,
                       output_side="textual"), 3),
        (Configuration(layer_a="pca", pca_dim=5, layer_b="rcca", fusion_dim=3,
                       output_side="both", layer_c="concat"), 6),
        (Configuration(layer_a="pca", pca_dim=5, layer_b="cca_plus_rcca",
                       fusion_dim=3, cca_side="textual", rcca_side="visual",
                       layer_c="li", alpha=0.5), 3),
    ])
    def test_measure(self, cfg, expected):
        assert output_dimension(cfg, 10, 20) == expected


class TestSerialization:
    def test_reference_mixed_configuration_form(self):
        cfg = Configuration(
            layer_a="pca", pca_dim=200,
            layer_b="cca_plus_rcca", fusion_dim=200,
            cca_side="visual", rcca_side="textual",
            layer_c="li", alpha=0.4, ridge=0.001,
        )
        text = format_configuration(cfg)
        assert text.splitlines() == [
            "layer_a=pca:200",
            "layer_b=cca_plus_rcca:200:cca=V:rcca=T",
            "layer_c=li:0.4",
            "ridge=0.001",
        ]
        assert parse_configuration(text) == cfg

    def test_round_trip_over_full_enumeration(self):
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.1, ridge=1e-6)
        for cfg in enumerate_configurations(4, 4, grid):
            assert parse_configuration(format_configuration(cfg)) == cfg
            assert parse_configuration(format_configuration(cfg, sep=" ")) == cfg

    def test_unimodal_side_round_trips(self):
        cfg = Configuration(output_side="visual")
        text = format_configuration(cfg)
        assert "layer_b=none:side=V" in text
        assert parse_configuration(text) == cfg

    @pytest.mark.parametrize("text", [
        "layer_a=pca layer_b=none layer_c=none",
        "layer_a=none layer_b=cca:2 layer_c=none",
        "layer_a=none layer_b=none layer_c=li",
        "layer_a=none layer_b=none",
        "layer_a=none layer_a=none layer_b=none layer_c=none",
        "layer_a=none layer_b=wat:3:out=T layer_c=none",
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_configuration(text)

    @pytest.mark.parametrize("text, message", [
        ("layer_a=pca:1.5 layer_b=none:side=T layer_c=none", "bad layer_a 'pca:1.5'"),
        ("layer_a=none layer_b=cca:x:out=T layer_c=none", "bad layer_b 'cca:x:out=T'"),
        ("layer_a=none layer_b=cca_plus_rcca:2.0:cca=T:rcca=V layer_c=concat",
         "bad layer_b 'cca_plus_rcca:2.0:cca=T:rcca=V'"),
        ("layer_a=none layer_b=none layer_c=li:abc", "bad layer_c 'li:abc'"),
        ("layer_a=none layer_b=none:side=T layer_c=none ridge=abc", "bad ridge 'abc'"),
        ("layer_a=none layer_b=none:side=T:V layer_c=none", "bad layer_b 'none:side=T:V'"),
    ])
    def test_bad_field_names_its_key(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_configuration(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, key", [
        ("layer_a=none layer_b=none:side=T layer_c=none rigde=0.5", "rigde"),
        ("layer_a=none layer_b=none:side=T layer_c=none Ridge=0.5", "Ridge"),
        ("layer_a=none layer_b=none:side=T layer_c=none alpha=0.5", "alpha"),
        ("layer_a=none layer_b=none:side=T layer_c=none =0.5", ""),
        ("layer_a=none layer_b=none:side=T layer_d=none", "layer_d"),
    ])
    def test_unknown_key_is_an_error(self, text, key):
        with pytest.raises(ValueError) as info:
            parse_configuration(text)
        assert str(info.value) == f"unknown configuration key {key!r}"

    def test_configuration_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "best.cfg"
        text = "layer_a=pca:4\nlayer_b=cca:2:out=V\nlayer_c=none\nridge=0.001\n"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert load_configuration(path) == parse_configuration(text)

    def test_describe_examples(self):
        cfg = Configuration(
            layer_a="pca", pca_dim=200,
            layer_b="cca_plus_rcca", fusion_dim=200,
            cca_side="visual", rcca_side="textual",
            layer_c="li", alpha=0.4,
        )
        assert describe_configuration(cfg) == "PCA(200) / CCA(V,200)+R-CCA(T,200) / LI(0.4)"
        assert describe_configuration(Configuration(output_side="textual")) == "RAW(T)"
        assert describe_configuration(
            Configuration(layer_a="pca", pca_dim=50, output_side="visual")
        ) == "PCA(50) / RAW(V)"
