import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmfuse
from mmfuse import Benchmark, EmbeddingTable, save_benchmark, save_embeddings
from mmfuse.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def workspace(tmp_path):
    """Toy embeddings and benchmark files on disk plus an output dir."""
    rng = np.random.default_rng(3)
    vocab = tuple(f"w{i:02d}" for i in range(20))
    textual = EmbeddingTable(vocab, rng.normal(size=(20, 6)), name="textual")
    visual = EmbeddingTable(vocab, rng.normal(size=(20, 4)), name="visual")
    save_embeddings(textual, tmp_path / "text.vecs")
    save_embeddings(visual, tmp_path / "image.vecs")
    pairs = tuple(
        (vocab[i], vocab[j], float(rng.uniform(0, 10)))
        for i in range(8) for j in range(i + 1, 8)
    )
    save_benchmark(Benchmark("toy", pairs), tmp_path / "toy.tsv")
    pairs2 = tuple(
        (vocab[i], vocab[j], float(rng.uniform(0, 10)))
        for i in range(10, 16) for j in range(i + 1, 16)
    )
    save_benchmark(Benchmark("toy2", pairs2), tmp_path / "toy2.tsv")
    (tmp_path / "good.cfg").write_text(
        "layer_a=pca:2\nlayer_b=cca:2:out=V\nlayer_c=none\nridge=0.001\n"
    )
    (tmp_path / "bad.cfg").write_text(
        "layer_a=none\nlayer_b=cca:2:out=V\nlayer_c=none\nridge=0.001\n"
    )
    return tmp_path


def common(ws, *extra):
    return [
        "--text-vecs", str(ws / "text.vecs"),
        "--image-vecs", str(ws / "image.vecs"),
        "--bench", str(ws / "toy.tsv"),
        *extra,
    ]


def command_args(ws, command):
    """The inputs ``command`` needs on the workspace, without ``--out``."""
    if command == "search":
        return common(ws, *TestSearch.ARGS)
    config = ["--config", str(ws / "good.cfg")]
    return [*(common(ws) if command != "apply" else common(ws)[:4]), *config]


class TestEval:
    def test_happy_path_writes_reports(self, workspace, capsys):
        code = main(["eval", *common(workspace), "--out", str(workspace / "out"),
                     "--config", str(workspace / "good.cfg")])
        assert code == EXIT_OK
        text = (workspace / "out" / "eval_report.txt").read_text()
        assert "toy" in text and "PCA(2) / CCA(V,2)" in text
        tsv = (workspace / "out" / "eval_report.tsv").read_text().splitlines()
        assert len(tsv) == 2
        assert "rho" in capsys.readouterr().out or True

    def test_missing_embeddings_path_exits_2(self, workspace, capsys):
        code = main([
            "eval", "--text-vecs", str(workspace / "nope.vecs"),
            "--image-vecs", str(workspace / "image.vecs"),
            "--bench", str(workspace / "toy.tsv"),
            "--out", str(workspace / "out"),
            "--config", str(workspace / "good.cfg"),
        ])
        assert code == EXIT_INPUT
        assert not (workspace / "out" / "eval_report.txt").exists()

    def test_invalid_config_lists_violations_verbatim(self, workspace, capsys):
        from mmfuse import Configuration, validate_configuration

        code = main(["eval", *common(workspace), "--out", str(workspace / "out"),
                     "--config", str(workspace / "bad.cfg")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        expected = validate_configuration(
            Configuration(layer_b="cca", fusion_dim=2, output_side="visual",
                          ridge=0.001),
            6, 4,
        )
        for violation in expected:
            assert violation in err

    def test_usage_error_exits_1(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--no-such-flag"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_inputs_exit_2(self, workspace, capsys):
        code = main(["eval", "--out", str(workspace / "out")])
        assert code == EXIT_INPUT
        assert "--text-vecs" in capsys.readouterr().err


class TestSearch:
    ARGS = ["--dim-step", "2", "--dim-min", "2", "--alpha-step", "0.5"]

    def test_sweep_writes_reports_and_summary(self, workspace, capsys):
        out = workspace / "out"
        code = main(["search", *common(workspace), "--out", str(out), *self.ARGS])
        assert code == EXIT_OK
        assert (out / "toy.report.txt").exists()
        assert (out / "toy.report.tsv").exists()
        assert "best configuration per benchmark" in (out / "summary.txt").read_text()
        assert (out / "run.log").exists()

    # every command, since no command takes it any more
    @pytest.mark.parametrize("command", ["search", "eval", "cross", "apply"])
    def test_the_removed_workers_flag_is_a_usage_error(self, workspace, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, *command_args(workspace, command), "--out", str(workspace / "out"),
                  "--workers", "2"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith("mmfuse: error: unrecognized arguments: --workers 2\n")
        assert not (workspace / "out").exists()

    @pytest.mark.filterwarnings("default::RuntimeWarning")   # as a console run shows them
    def test_a_warning_is_one_line_of_its_message(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        vocab = tuple(f"w{i:02d}" for i in range(12))
        text = rng.normal(size=(12, 4))
        text[0] = 0.0
        save_embeddings(EmbeddingTable(vocab, text), tmp_path / "text.vecs")
        save_embeddings(EmbeddingTable(vocab, rng.normal(size=(12, 4))), tmp_path / "image.vecs")
        save_benchmark(Benchmark("toy", tuple((vocab[i], vocab[j], float(i + j))
                                              for i in range(12) for j in range(i + 1, 12, 4))),
                       tmp_path / "toy.tsv")
        code = main(["search", "--text-vecs", str(tmp_path / "text.vecs"),
                     "--image-vecs", str(tmp_path / "image.vecs"),
                     "--bench", str(tmp_path / "toy.tsv"), "--out", str(tmp_path / "out"),
                     *self.ARGS])
        assert code == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        # w00 is in 3 pairs, and only the raw textual table keeps its zero row
        assert [line for line in err if not line.endswith(" configurations")] == [
            "warning: 3 degenerate zero-norm pair scores set to 0 in 'textual' on 'toy'"]
        assert not [line for line in err if ".py:" in line or "warnings.warn" in line]

    def test_motif_restriction(self, workspace):
        out = workspace / "li_only"
        code = main(["search", *common(workspace), "--out", str(out),
                     *self.ARGS, "--motifs", "li"])
        assert code == EXIT_OK
        tsv = (out / "toy.report.tsv").read_text().splitlines()[1:]
        for line in tsv:
            config = line.split("\t")[7]
            assert "layer_a=none" in config
            assert "cca" not in config and "pca" not in config

    def test_unknown_motif_exits_2(self, workspace, capsys):
        code = main(["search", *common(workspace),
                     "--out", str(workspace / "out"), "--motifs", "svd"])
        assert code == EXIT_INPUT
        assert "unknown motifs" in capsys.readouterr().err

    @pytest.mark.parametrize("in_manifest", [False, True])
    def test_unknown_motif_message_names_the_cli_choices(self, workspace, capsys, in_manifest):
        # the CLI rejects the names before GridSpec sees them, with its own message
        out = workspace / "out"
        if in_manifest:
            manifest = workspace / "run.manifest"
            manifest.write_text("motifs=PCA,li,svd\n")
            extra = ["--manifest", str(manifest)]
        else:
            extra = ["--motifs", "PCA,li,svd"]
        code = main(["search", *common(workspace), "--out", str(out), *self.ARGS, *extra])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: unknown motifs: ['PCA', 'svd'] (choose from pca, cca, rcca, concat, li)\n")
        assert not out.exists()

    @pytest.mark.parametrize("motifs", ["", ",", " , "])
    @pytest.mark.parametrize("in_manifest", [False, True])
    def test_motifs_naming_no_motif_exit_2(self, workspace, capsys, motifs, in_manifest):
        # an empty filter would sweep every configuration, not the motif-free ones
        out = workspace / "out"
        if in_manifest:
            manifest = workspace / "run.manifest"
            manifest.write_text(f"motifs={motifs}\n")
            extra = ["--manifest", str(manifest)]
        else:
            extra = ["--motifs", motifs]
        code = main(["search", *common(workspace), "--out", str(out), *self.ARGS, *extra])
        assert code == EXIT_INPUT
        given = motifs.strip() if in_manifest else motifs  # a manifest value is stripped
        assert capsys.readouterr().err == (
            f"error: no motif in {given!r} (choose from pca, cca, rcca, concat, li)\n")
        assert not out.exists()

    def test_multiple_benchmarks(self, workspace):
        out = workspace / "multi"
        code = main(["search", *common(workspace, "--bench", str(workspace / "toy2.tsv")),
                     "--out", str(out), *self.ARGS])
        assert code == EXIT_OK
        assert (out / "toy.report.tsv").exists()
        assert (out / "toy2.report.tsv").exists()
        summary = (out / "summary.txt").read_text()
        assert "toy:" in summary and "toy2:" in summary

    @pytest.mark.parametrize("first, second", [
        ("a/toy.tsv", "b/toy.tsv"),
        ("a b.tsv", "a_b.tsv"),
    ])
    def test_benchmarks_sharing_a_report_name_exit_2(
        self, workspace, capsys, first, second
    ):
        benches = []
        for name in (first, second):
            path = workspace / "benches" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes((workspace / "toy.tsv").read_bytes())
            benches += ["--bench", str(path)]
        # a malformed vectors file: the clash is found before any vectors are read
        (workspace / "text.vecs").write_text("a 1\nb\n")
        out = workspace / "out"
        code = main(["search", "--text-vecs", str(workspace / "text.vecs"),
                     "--image-vecs", str(workspace / "image.vecs"), *benches,
                     "--out", str(out), *self.ARGS])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert benches[1] in err and benches[3] in err
        assert list(out.glob("*.report.*")) == []
        assert not out.exists()


class TestCross:
    def test_rows_per_benchmark(self, workspace):
        out = workspace / "cross"
        code = main(["cross", *common(workspace, "--bench", str(workspace / "toy2.tsv")),
                     "--out", str(out), "--config", str(workspace / "good.cfg")])
        assert code == EXIT_OK
        lines = (out / "cross_report.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 benchmarks
        assert lines[1].startswith("toy\t")
        assert lines[2].startswith("toy2\t")

    def test_self_row_matches_search_best(self, workspace):
        out_search = workspace / "s"
        assert main(["search", *common(workspace), "--out", str(out_search),
                     "--dim-step", "2", "--dim-min", "2", "--alpha-step", "0.5"]) == EXIT_OK
        tsv = (out_search / "toy.report.tsv").read_text().splitlines()
        best_fields = tsv[1].split("\t")
        best_rho, best_config = best_fields[2], best_fields[7]
        cfg_path = workspace / "best.cfg"
        cfg_path.write_text(best_config.replace(" ", "\n") + "\n")
        out_cross = workspace / "c"
        assert main(["cross", *common(workspace), "--out", str(out_cross),
                     "--config", str(cfg_path)]) == EXIT_OK
        cross_rho = (out_cross / "cross_report.tsv").read_text().splitlines()[1].split("\t")[1]
        assert cross_rho == best_rho


class TestApply:
    def test_single_output(self, workspace):
        out = workspace / "applied"
        code = main([
            "apply", "--text-vecs", str(workspace / "text.vecs"),
            "--image-vecs", str(workspace / "image.vecs"),
            "--out", str(out), "--config", str(workspace / "good.cfg"),
        ])
        assert code == EXIT_OK
        from mmfuse import load_embeddings

        fused = load_embeddings(out / "fused.vecs")
        assert fused.dim == 2 and len(fused) == 20

    def test_pair_output(self, workspace):
        cfg = workspace / "li.cfg"
        cfg.write_text("layer_a=none\nlayer_b=none\nlayer_c=li:0.4\nridge=0.001\n")
        out = workspace / "applied_pair"
        code = main([
            "apply", "--text-vecs", str(workspace / "text.vecs"),
            "--image-vecs", str(workspace / "image.vecs"),
            "--out", str(out), "--config", str(cfg),
        ])
        assert code == EXIT_OK
        assert (out / "fused_first.vecs").exists()
        assert (out / "fused_second.vecs").exists()
        assert "alpha=0.4" in (out / "scoring.txt").read_text()

    @staticmethod
    def apply_concat(ws, out, *extra):
        cfg = ws / "concat.cfg"
        cfg.write_text("layer_a=none\nlayer_b=none\nlayer_c=concat\nridge=0.001\n")
        return main(["apply", "--text-vecs", str(ws / "text.vecs"),
                     "--image-vecs", str(ws / "image.vecs"),
                     "--out", str(out), "--config", str(cfg), *extra])

    def test_concat_rows_are_the_tables_side_by_side(self, workspace):
        from mmfuse import load_embeddings

        out = workspace / "concat"
        assert self.apply_concat(workspace, out) == EXIT_OK
        textual = load_embeddings(workspace / "text.vecs")
        visual = load_embeddings(workspace / "image.vecs")
        fused = load_embeddings(out / "fused.vecs")
        assert fused.vocab == textual.vocab
        np.testing.assert_array_almost_equal(
            fused.matrix, np.hstack([textual.matrix, visual.matrix]), decimal=6)

    def test_normalized_concat_blocks_have_unit_norm(self, workspace):
        from mmfuse import load_embeddings

        out = workspace / "concat"
        assert self.apply_concat(workspace, out, "--normalize-concat") == EXIT_OK
        fused = load_embeddings(out / "fused.vecs")
        assert fused.dim == 6 + 4
        for block in (fused.matrix[:, :6], fused.matrix[:, 6:]):
            np.testing.assert_allclose(np.linalg.norm(block, axis=1), 1.0, atol=1e-5)

    def test_concat_scoring_names_one_table(self, workspace):
        out = workspace / "concat"
        assert self.apply_concat(workspace, out) == EXIT_OK
        assert (out / "scoring.txt").read_text() == "single table=fused.vecs\n"

    def test_normalized_concat_of_an_overflowing_row_exits_3(self, workspace, capsys):
        from mmfuse import load_embeddings

        visual = load_embeddings(workspace / "image.vecs")
        big = visual.matrix.copy()
        big[3, 0] = 1e200
        save_embeddings(EmbeddingTable(visual.vocab, big), workspace / "image.vecs")
        out = workspace / "concat"
        assert self.apply_concat(workspace, out, "--normalize-concat") == EXIT_NUMERIC
        assert "row norm overflows" in capsys.readouterr().err
        assert not (out / "fused.vecs").exists()


# the flags only search reads
SWEEP_ONLY = [("--ridge", "nan"), ("--dim-step", "3"), ("--dim-min", "2"),
              ("--alpha-step", "0.5"), ("--motifs", "pca")]


class TestManifest:
    def test_manifest_file_supplies_flags(self, workspace):
        manifest = workspace / "run.manifest"
        manifest.write_text(
            f"text_vecs={workspace / 'text.vecs'}\n"
            f"image_vecs={workspace / 'image.vecs'}\n"
            f"bench={workspace / 'toy.tsv'}\n"
            f"out={workspace / 'from_manifest'}\n"
            "dim_step=2\ndim_min=2\nalpha_step=0.5\n"
        )
        code = main(["search", "--manifest", str(manifest)])
        assert code == EXIT_OK
        assert (workspace / "from_manifest" / "toy.report.tsv").exists()

    def test_manifest_with_a_byte_order_mark(self, workspace):
        manifest = workspace / "run.manifest"
        manifest.write_text(
            f"\ufeffout={workspace / 'from_manifest'}\n"
            "dim_step=2\ndim_min=2\nalpha_step=0.5\n", encoding="utf-8",
        )
        code = main(["search", *common(workspace), "--manifest", str(manifest)])
        assert code == EXIT_OK
        assert (workspace / "from_manifest" / "toy.report.tsv").exists()

    def test_flags_override_manifest(self, workspace):
        manifest = workspace / "run.manifest"
        manifest.write_text(
            f"text_vecs={workspace / 'text.vecs'}\n"
            f"image_vecs={workspace / 'image.vecs'}\n"
            f"bench={workspace / 'toy.tsv'}\n"
            f"out={workspace / 'a'}\n"
            "dim_step=2\ndim_min=2\nalpha_step=0.5\n"
        )
        code = main(["search", "--manifest", str(manifest),
                     "--out", str(workspace / "b")])
        assert code == EXIT_OK
        assert (workspace / "b" / "summary.txt").exists()
        assert not (workspace / "a").exists()

    def test_unknown_manifest_key(self, workspace, capsys):
        manifest = workspace / "bad.manifest"
        manifest.write_text("format=binary\n")
        code = main(["search", "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        assert "unknown manifest key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, first, second", [
        ("bench", "toy.tsv", "toy2.tsv"),
        ("dim_step", "2", "3"),
    ])
    def test_repeated_manifest_key_exits_2(self, workspace, capsys, key, first, second):
        if key == "bench":
            first, second = workspace / first, workspace / second
        manifest = workspace / "run.manifest"
        manifest.write_text(f"# one key twice\n{key}={first}\n\n{key}={second}\n")
        out = workspace / "out"
        code = main(["search", "--text-vecs", str(workspace / "text.vecs"),
                     "--image-vecs", str(workspace / "image.vecs"), "--out", str(out),
                     "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {manifest}:4: duplicate manifest key {key!r}\n"
        )
        assert not out.exists()

    def test_manifest_line_without_a_value_exits_2(self, workspace, capsys):
        manifest = workspace / "run.manifest"
        manifest.write_text("dim_step=2\nnormalize_concat\n")
        out = workspace / "out"
        code = main(["search", *common(workspace), "--out", str(out),
                     "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {manifest}:2: expected key=value\n"
        assert not out.exists()

    def test_non_numeric_manifest_value_exits_2(self, workspace, capsys):
        manifest = workspace / "run.manifest"
        manifest.write_text("dim_min=2\ndim_step=many\n")
        code = main(["search", *common(workspace), "--out", str(workspace / "out"),
                     "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        assert f"{manifest}:2: bad value 'many' for dim_step" in capsys.readouterr().err

    def test_manifest_flag_spellings(self, workspace):
        def report(name, *extra, line=None):
            manifest = workspace / f"{name}.manifest"
            manifest.write_text(f"normalize_concat={line}\n" if line is not None else "")
            out = workspace / name
            assert main(["search", *common(workspace), "--out", str(out), *TestSearch.ARGS,
                         "--motifs", "concat", "--manifest", str(manifest), *extra]) == EXIT_OK
            return (out / "toy.report.tsv").read_bytes()

        off, on = report("off"), report("on", "--normalize-concat")
        assert off != on
        for i, line in enumerate(["0", "false", "No", " FALSE "]):
            assert report(f"false{i}", line=line) == off
        for i, line in enumerate(["1", "true", "YES", "True"]):
            assert report(f"true{i}", line=line) == on

    @pytest.mark.parametrize("value", ["ture", "", "2", "on"])
    def test_bad_manifest_flag_exits_2(self, workspace, capsys, value):
        manifest = workspace / "run.manifest"
        manifest.write_text(f"dim_step=2\nnormalize_concat={value}\n")
        out = workspace / "out"
        code = main(["search", *common(workspace), "--out", str(out),
                     "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{manifest}:2: bad value {value!r} for normalize_concat" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["search", "eval", "cross", "apply"])
    def test_the_removed_workers_key_exits_2(self, workspace, capsys, command):
        manifest = workspace / "run.manifest"
        manifest.write_text("workers=2\n")
        code = main([command, *command_args(workspace, command), "--out", str(workspace / "out"),
                     "--manifest", str(manifest)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {manifest}:1: unknown manifest key 'workers'\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("source, ridge", [("flag", "nan"), ("flag", "inf"),
                                               ("manifest", "nan"), ("manifest", "-inf")])
    def test_non_finite_ridge_exits_2(self, workspace, capsys, source, ridge):
        manifest = workspace / "run.manifest"
        manifest.write_text(f"ridge={ridge}\n" if source == "manifest" else "")
        extra = ["--ridge", ridge] if source == "flag" else []
        out = workspace / "out"
        code = main(["search", *common(workspace), "--out", str(out),
                     "--manifest", str(manifest), *TestSearch.ARGS, *extra])
        assert code == EXIT_INPUT
        assert f"ridge must be finite and >= 0, got {float(ridge)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--dim-step", "0", "dim_step must be >= 1, got 0"),
        ("--dim-min", "0", "dim_min must be >= 1, got 0"),
        ("--alpha-step", "1.5", "alpha_step must be in (0, 1], got 1.5"),
        ("--alpha-step", "1e-300",
         "alpha_step must be at least 1e-12, the resolution alphas are rounded to, got 1e-300"),
    ])
    def test_rejected_grid_creates_no_out(self, workspace, capsys, flag, value, message):
        out = workspace / "new" / "out"
        code = main(["search", *common(workspace), "--out", str(out), flag, value])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "new").exists()

    @pytest.mark.parametrize("ridge", ["inf", "nan"])
    def test_non_finite_config_ridge_exits_2(self, workspace, capsys, ridge):
        config = workspace / "ridge.cfg"
        config.write_text(f"layer_a=pca:2\nlayer_b=cca:2:out=V\nlayer_c=none\nridge={ridge}\n")
        code = main(["eval", *common(workspace), "--out", str(workspace / "out"),
                     "--config", str(config)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "ridge must be finite and >= 0" in err and "invalid value" not in err

    @pytest.mark.parametrize("line", ["bench=", "bench= , "])
    def test_manifest_naming_no_benchmark_is_a_missing_bench(self, workspace, capsys, line):
        manifest = workspace / "run.manifest"
        manifest.write_text(f"{line}\n")
        out = workspace / "out"
        code = main(["search", "--text-vecs", str(workspace / "text.vecs"),
                     "--image-vecs", str(workspace / "image.vecs"), "--out", str(out),
                     "--manifest", str(manifest), *TestSearch.ARGS])
        assert code == EXIT_INPUT
        assert "missing required inputs: --bench" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *((command, flag, value) for command in ("eval", "cross", "apply")
          for flag, value in SWEEP_ONLY),
        ("apply", "--bench", "toy.tsv"),
    ])
    def test_flags_a_command_does_not_use_exit_2(self, workspace, capsys, command, flag,
                                                 value):
        out = workspace / "out"
        code = main([command, "--text-vecs", str(workspace / "text.vecs"),
                     "--image-vecs", str(workspace / "image.vecs"), "--out", str(out),
                     "--config", str(workspace / "good.cfg"),
                     *(["--bench", str(workspace / "toy.tsv")] if command != "apply" else []),
                     flag, str(workspace / value) if flag == "--bench" else value])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {command} does not take {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "cross", "apply"])
    def test_manifest_keys_a_command_does_not_use_are_ignored(self, workspace, command):
        # invalid for a search, and a malformed benchmark file apply never reads
        (workspace / "broken.tsv").write_text("not a benchmark\n")
        manifest = workspace / "run.manifest"
        manifest.write_text("ridge=nan\ndim_step=0\ndim_min=-1\nalpha_step=2\n"
                            "motifs=svd\n"
                            + (f"bench={workspace / 'broken.tsv'}\n" if command == "apply" else ""))
        args = ["--text-vecs", str(workspace / "text.vecs"),
                "--image-vecs", str(workspace / "image.vecs"),
                "--config", str(workspace / "good.cfg"),
                *(["--bench", str(workspace / "toy.tsv")] if command != "apply" else [])]
        assert main([command, *args, "--out", str(workspace / "plain")]) == EXIT_OK
        assert main([command, *args, "--out", str(workspace / "manifest"),
                     "--manifest", str(manifest)]) == EXIT_OK
        for path in sorted((workspace / "plain").iterdir()):
            if path.name != "run.log":
                assert (workspace / "manifest" / path.name).read_bytes() == path.read_bytes()

    def test_search_ignores_a_manifest_config(self, workspace):
        # one manifest may serve eval and search: search never reads its config
        grid = ["--dim-step", "2", "--dim-min", "2", "--alpha-step", "0.5"]
        outs = []
        for name, config in (("missing", workspace / "nope.cfg"),
                             ("existing", workspace / "good.cfg")):
            manifest = workspace / f"{name}.manifest"
            manifest.write_text(f"config={config}\n")
            outs.append(workspace / name)
            assert main(["search", *common(workspace), *grid, "--out", str(outs[-1]),
                         "--manifest", str(manifest)]) == EXIT_OK
        first, second = outs
        names = sorted(p.name for p in first.iterdir() if p.name != "run.log")
        assert names == ["summary.txt", "toy.report.tsv", "toy.report.txt"]
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_missing_manifest_file(self, workspace, capsys):
        code = main(["search", "--manifest", str(workspace / "nope.manifest")])
        assert code == EXIT_INPUT
        assert "cannot read manifest" in capsys.readouterr().err

    def test_directory_as_vectors_file_exits_2(self, workspace, capsys):
        code = main([
            "eval", "--text-vecs", str(workspace),  # a directory, not a file
            "--image-vecs", str(workspace / "image.vecs"),
            "--bench", str(workspace / "toy.tsv"),
            "--out", str(workspace / "out"),
            "--config", str(workspace / "good.cfg"),
        ])
        assert code == EXIT_INPUT


# every subcommand's options, in order, as (option strings, dest, type, action, const, help)
_COMMON_OPTIONS = [
    (["-h", "--help"], "help", None, "_HelpAction", None, "show this help message and exit"),
    (["--text-vecs"], "text_vecs", None, "_StoreAction", None, "textual embedding text file"),
    (["--image-vecs"], "image_vecs", None, "_StoreAction", None, "visual embedding text file"),
    (["--bench"], "bench", None, "_AppendAction", None, "benchmark file (repeatable)"),
    (["--out"], "out", None, "_StoreAction", None, "output directory"),
    (["--manifest"], "manifest", None, "_StoreAction", None,
     "key=value file supplying any flag"),
    (["--dim-step"], "dim_step", int, "_StoreAction", None, None),
    (["--dim-min"], "dim_min", int, "_StoreAction", None, None),
    (["--alpha-step"], "alpha_step", float, "_StoreAction", None, None),
    (["--ridge"], "ridge", float, "_StoreAction", None, None),
    (["--motifs"], "motifs", None, "_StoreAction", None,
     "comma-separated subset of: pca, cca, rcca, concat, li"),
    (["--normalize-concat"], "normalize_concat", None, "_StoreConstAction", True,
     "row-normalize each block before concatenation"),
]
_CONFIG_OPTION = (["--config"], "config", None, "_StoreAction", None,
                  "configuration file (key=value lines)")


class TestParserSurface:
    """The flags each subcommand takes, pinned without argparse's help layout."""

    @staticmethod
    def subcommands():
        from mmfuse.cli import build_parser
        parser = build_parser()
        subs, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return subs

    def test_commands_and_their_help(self):
        subs = self.subcommands()
        assert [(a.dest, a.help) for a in subs._choices_actions] == [
            ("eval", "evaluate one configuration on each benchmark"),
            ("search", "exhaustive configuration sweep per benchmark"),
            ("cross", "evaluate one configuration across all benchmarks"),
            ("apply", "apply a configuration and save the fused vectors"),
        ]

    @pytest.mark.parametrize("command", ["eval", "search", "cross", "apply"])
    def test_options_of_each_command(self, command):
        options = [
            (a.option_strings, a.dest, a.type, type(a).__name__, a.const, a.help)
            for a in self.subcommands().choices[command]._actions
        ]
        # a flag the command refuses is parsed only to be rejected, so help hides it
        hidden = [] if command == "search" else [flag for flag, _ in SWEEP_ONLY]
        hidden += ["--bench"] if command == "apply" else []
        expected = [(*option[:-1], argparse.SUPPRESS if option[0][0] in hidden else option[-1])
                    for option in _COMMON_OPTIONS]
        expected += [] if command == "search" else [_CONFIG_OPTION]
        assert options == expected


class TestExitCodes:
    def test_undefined_eval_result_exits_3(self, tmp_path):
        rng = np.random.default_rng(8)
        vocab = ("a", "b", "c")
        save_embeddings(EmbeddingTable(vocab, rng.normal(size=(3, 2))),
                        tmp_path / "t.vecs")
        save_embeddings(EmbeddingTable(vocab, rng.normal(size=(3, 2))),
                        tmp_path / "v.vecs")
        # benchmark entirely outside the vocabulary -> empty outcome
        save_benchmark(Benchmark("afar", (("x", "y", 1.0), ("y", "z", 2.0))),
                       tmp_path / "afar.tsv")
        (tmp_path / "cfg").write_text(
            "layer_a=none\nlayer_b=none:side=T\nlayer_c=none\n"
        )
        code = main([
            "eval", "--text-vecs", str(tmp_path / "t.vecs"),
            "--image-vecs", str(tmp_path / "v.vecs"),
            "--bench", str(tmp_path / "afar.tsv"),
            "--out", str(tmp_path / "out"), "--config", str(tmp_path / "cfg"),
        ])
        assert code == EXIT_NUMERIC
        # the report is still written, with the explicit empty outcome
        assert "n/a" in (tmp_path / "out" / "eval_report.txt").read_text()

    def test_search_with_no_covered_pair_exits_3(self, workspace, capsys):
        save_benchmark(Benchmark("afar", (("x", "y", 1.0), ("y", "z", 2.0))),
                       workspace / "afar.tsv")
        out = workspace / "out"
        code = main([
            "search", "--text-vecs", str(workspace / "text.vecs"),
            "--image-vecs", str(workspace / "image.vecs"),
            "--bench", str(workspace / "afar.tsv"), "--out", str(out),
            *TestSearch.ARGS,
        ])
        assert code == EXIT_NUMERIC
        assert "no successful configuration" in capsys.readouterr().err
        rows = (out / "afar.report.tsv").read_text().splitlines()[1:]
        assert rows and all(row.split("\t")[1] != "ok" for row in rows)
        assert (out / "afar.report.txt").exists()
        assert "afar: no successful configuration" in (out / "summary.txt").read_text()

    def test_infinite_image_value_exits_2(self, workspace, capsys):
        path = workspace / "image.vecs"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].split()[0] + " 0 inf 0 0"
        path.write_text("\n".join(lines) + "\n")
        code = main(["search", *common(workspace), "--out", str(workspace / "out"),
                     *TestSearch.ARGS])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}:4: non-finite value" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("layers", ["layer_b=none:side=T\nlayer_c=none",
                                        "layer_b=none\nlayer_c=concat"])
    def test_eval_on_constant_tables_exits_3(self, tmp_path, capsys, layers):
        vocab = ("a", "b", "c", "d")
        save_embeddings(EmbeddingTable(vocab, np.tile([1.0, 2.0], (4, 1))), tmp_path / "t.vecs")
        save_embeddings(EmbeddingTable(vocab, np.tile([3.0, -1.0, 0.5], (4, 1))),
                        tmp_path / "v.vecs")
        save_benchmark(Benchmark("flat", (("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0))),
                       tmp_path / "flat.tsv")
        (tmp_path / "cfg").write_text(f"layer_a=none\n{layers}\n")
        code = main([
            "eval", "--text-vecs", str(tmp_path / "t.vecs"),
            "--image-vecs", str(tmp_path / "v.vecs"),
            "--bench", str(tmp_path / "flat.tsv"),
            "--out", str(tmp_path / "out"), "--config", str(tmp_path / "cfg"),
        ])
        assert code == EXIT_NUMERIC
        # every pair scores the same cosine: no rank correlation
        assert "n/a" in (tmp_path / "out" / "eval_report.txt").read_text()
        assert "undefined correlation" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("w02 0.5 0.5", "4: expected 4 values, found 2"),
        ("w02 0.5 0.5 0.5 0.5 0.5", "4: expected 4 values, found 5"),
    ])
    def test_ragged_row_exits_2_with_its_line(self, workspace, capsys, line, message):
        path = workspace / "image.vecs"
        lines = path.read_text().splitlines()
        lines[3] = line
        path.write_text("\n".join(lines) + "\n")
        code = main(["search", *common(workspace), "--out", str(workspace / "out"),
                     *TestSearch.ARGS])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}:{message}" in err
        assert "Traceback" not in err

    def test_header_dim_disagreeing_with_the_rows_exits_2(self, workspace, capsys):
        path = workspace / "image.vecs"
        lines = path.read_text().splitlines()
        assert lines[0] == "20 4"
        lines[0] = "20 5"
        path.write_text("\n".join(lines) + "\n")
        code = main(["search", *common(workspace), "--out", str(workspace / "out"),
                     *TestSearch.ARGS])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}:2: row has 4 values but header declares dim 5" in err
        assert "Traceback" not in err


class TestRejectedInputLeavesNoOut:
    """A file rejected once it is read leaves no output directory behind."""

    @staticmethod
    def run(workspace, command, config):
        args = [command, "--text-vecs", str(workspace / "text.vecs"),
                "--image-vecs", str(workspace / "image.vecs"),
                "--config", str(config), "--out", str(workspace / "out")]
        if command == "eval":
            args += ["--bench", str(workspace / "toy.tsv")]
        return main(args)

    @pytest.mark.parametrize("command", ["eval", "apply"])
    def test_unparsable_configuration_names_its_file(self, workspace, capsys, command):
        config = workspace / "bogus.cfg"
        config.write_text("layer_a=bogus\nlayer_b=none\nlayer_c=none\n")
        assert self.run(workspace, command, config) == EXIT_INPUT
        # the file as a whole is at fault, not one of its lines
        assert capsys.readouterr().err == f"error: {config}: bad layer_a 'bogus'\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "apply"])
    @pytest.mark.parametrize("text, message", [
        ("layer_a=pca:1.5\nlayer_b=none:side=T\nlayer_c=none\n", "bad layer_a 'pca:1.5'"),
        ("layer_a=none\nlayer_b=none\nlayer_c=li:abc\n", "bad layer_c 'li:abc'"),
        ("layer_a=none\nlayer_b=none:side=T\nlayer_c=none\nridge=abc\n", "bad ridge 'abc'"),
    ])
    def test_unparsable_number_names_its_key(self, workspace, capsys, command, text, message):
        config = workspace / "best.cfg"
        config.write_text(text)
        assert self.run(workspace, command, config) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "apply"])
    @pytest.mark.parametrize("text, message", [
        ("layer_a=none\nlayer_b\nlayer_c=none\n", "malformed configuration token 'layer_b'"),
        ("layer_a=none\nlayer_b=cca:2:out=X\nlayer_c=none\n",
         "bad out 'X' (expected T, V or both)"),
        ("layer_a=none\nlayer_b=cca:2:side=V\nlayer_c=none\n",
         "expected out=... in layer_b, got 'side=V'"),
    ])
    def test_malformed_token_names_its_file(self, workspace, capsys, command, text, message):
        config = workspace / "best.cfg"
        config.write_text(text)
        assert self.run(workspace, command, config) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "apply"])
    def test_a_directory_as_configuration(self, workspace, capsys, command):
        config = workspace / "configs"
        config.mkdir()
        assert self.run(workspace, command, config) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {config}: [Errno 21] Is a directory: '{config}'\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "apply"])
    def test_unknown_configuration_key_names_its_file(self, workspace, capsys, command):
        config = workspace / "best.cfg"
        config.write_text("layer_a=none\nlayer_b=none:side=T\nlayer_c=none\nrigde=0.5\n")
        assert self.run(workspace, command, config) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: unknown configuration key 'rigde'\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "apply"])
    def test_invalid_configuration(self, workspace, capsys, command):
        assert self.run(workspace, command, workspace / "bad.cfg") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: configuration is invalid:\n  - ")
        assert not (workspace / "out").exists()

    def test_malformed_vectors_file_on_search(self, workspace, capsys):
        path = workspace / "text.vecs"
        lines = path.read_text().splitlines()
        lines[3] = "w02 0.5"
        path.write_text("\n".join(lines) + "\n")
        code = main(["search", *common(workspace), "--out", str(workspace / "out"),
                     *TestSearch.ARGS])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}:4: expected 6 values, found 1\n"
        assert not (workspace / "out").exists()


class TestFailureBeforeOutputLeavesNoOut:
    """``--out`` is created by a command's first output, whatever fails before it."""

    ALLOCATION = ("Unable to allocate 128. MiB for an array with shape (4096, 4096) "
                  "and data type float64")

    @staticmethod
    def run(workspace, command, *extra):
        args = [command, "--text-vecs", str(workspace / "text.vecs"),
                "--image-vecs", str(workspace / "image.vecs"),
                "--out", str(workspace / "out"), *extra]
        if command != "apply":
            args += ["--bench", str(workspace / "toy.tsv")]
        if command != "search":
            args += ["--config", str(workspace / "good.cfg")]
        return main(args)

    @staticmethod
    def last_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    @staticmethod
    def overflow_visual_scores(workspace):
        """Visual column 0 at 1e200, scored alone by ``good.cfg``: every pair score is nan."""
        from mmfuse import load_embeddings

        visual = load_embeddings(workspace / "image.vecs")
        big = visual.matrix.copy()
        big[:, 0] = 1e200
        save_embeddings(EmbeddingTable(visual.vocab, big), workspace / "image.vecs")
        (workspace / "good.cfg").write_text(
            "layer_a=none\nlayer_b=none:side=V\nlayer_c=none\n")

    @pytest.mark.parametrize("command", ["eval", "cross"])
    def test_non_finite_pair_scores(self, workspace, capsys, command):
        self.overflow_visual_scores(workspace)
        assert self.run(workspace, command) == EXIT_NUMERIC
        assert self.last_line(capsys) == "error: non-finite pair scores on 'toy'"
        assert not (workspace / "out").exists()

    def test_normalized_concat_of_an_overflowing_row(self, workspace, capsys):
        from mmfuse import load_embeddings

        visual = load_embeddings(workspace / "image.vecs")
        big = visual.matrix.copy()
        big[3, 0] = 1e200
        save_embeddings(EmbeddingTable(visual.vocab, big), workspace / "image.vecs")
        out = workspace / "out"
        assert TestApply.apply_concat(workspace, out, "--normalize-concat") == EXIT_NUMERIC
        assert "row norm overflows" in self.last_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, what", [
        ("search", TestSearch.ARGS, "PCA"),
        # a layer-a group's CCA, after layer a has been fit
        ("search", TestSearch.ARGS, "whitened cross covariance"),
        ("eval", (), "PCA"),
        ("cross", (), "whitened cross covariance"),
        ("apply", (), "PCA"),
    ], ids=["search", "search-group-cca", "eval", "cross", "apply"])
    @pytest.mark.parametrize("text", [ALLOCATION, ""], ids=["numpy-text", "no-text"])
    def test_out_of_memory_exits_3(self, workspace, capsys, monkeypatch, command, extra, what,
                                   text):
        import mmfuse.numerics as numerics

        real = numerics._decompose

        def decompose(routine, matrix, name, **kwargs):
            if what in name:
                raise MemoryError(text)
            return real(routine, matrix, name, **kwargs)

        monkeypatch.setattr(numerics, "_decompose", decompose)
        assert self.run(workspace, command, *extra) == EXIT_NUMERIC
        expected = f"error: out of memory: {text}" if text else "error: out of memory"
        assert self.last_line(capsys) == expected
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["search", "eval", "apply"])
    def test_out_naming_a_file_is_reported_at_the_first_write(self, workspace, capsys,
                                                               command):
        out = workspace / "out"
        out.write_text("kept\n")
        extra = TestSearch.ARGS if command == "search" else ()
        assert self.run(workspace, command, *extra) == EXIT_INPUT
        *progress, last = capsys.readouterr().err.splitlines()
        assert last == f"error: [Errno 17] File exists: '{out}'"
        if command == "search":   # the sweep runs before its first report is written
            assert progress and all(line.endswith(" configurations") for line in progress)
        else:
            assert progress == []
        assert out.read_text() == "kept\n"


class TestReportRho:
    def test_every_ok_rho_parses_as_a_plain_float(self, workspace):
        two = common(workspace, "--bench", str(workspace / "toy2.tsv"))
        cfg = ["--config", str(workspace / "good.cfg")]
        assert main(["search", *two, "--out", str(workspace / "s"),
                     *TestSearch.ARGS]) == EXIT_OK
        assert main(["eval", *two, "--out", str(workspace / "e"), *cfg]) == EXIT_OK
        assert main(["cross", *two, "--out", str(workspace / "c"), *cfg]) == EXIT_OK
        rhos = []
        for name in ("toy.report.tsv", "toy2.report.tsv"):
            for line in (workspace / "s" / name).read_text().splitlines()[1:]:
                fields = line.split("\t")
                if fields[1] == "ok":
                    rhos.append(fields[2])
        for path in (workspace / "e" / "eval_report.tsv",
                     workspace / "c" / "cross_report.tsv"):
            rhos += [line.split("\t")[1] for line in path.read_text().splitlines()[1:]]
        assert len(rhos) > 4
        for rho in rhos:
            assert -1.0 <= float(rho) <= 1.0


class TestMalformedInput:
    @pytest.mark.parametrize("kind", ["embeddings", "benchmark", "config", "manifest"])
    def test_non_utf8_file_exits_2_with_its_line(self, workspace, capsys, kind):
        manifest = workspace / "run.manifest"
        manifest.write_text(f"out={workspace / 'out'}\ndim_step=2\n")
        path = {
            "embeddings": workspace / "text.vecs",
            "benchmark": workspace / "toy.tsv",
            "config": workspace / "good.cfg",
            "manifest": manifest,
        }[kind]
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"".join(lines))
        code = main(["eval", *common(workspace), "--manifest", str(manifest),
                     "--config", str(workspace / "good.cfg")])
        assert code == EXIT_INPUT
        assert f"{path}:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["embeddings", "benchmark", "config", "manifest"])
    def test_byte_order_mark_changes_no_output(self, workspace, capsys, kind):
        manifest = workspace / "run.manifest"
        manifest.write_text("dim_step=2\n")
        args = ["eval", *common(workspace), "--manifest", str(manifest),
                "--config", str(workspace / "good.cfg")]
        assert main([*args, "--out", str(workspace / "plain")]) == EXIT_OK
        path = {
            "embeddings": workspace / "text.vecs",
            "benchmark": workspace / "toy.tsv",
            "config": workspace / "good.cfg",
            "manifest": manifest,
        }[kind]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main([*args, "--out", str(workspace / "bom")]) == EXIT_OK
        for name in ("eval_report.txt", "eval_report.tsv"):
            assert (workspace / "bom" / name).read_bytes() == \
                (workspace / "plain" / name).read_bytes()
        assert "28/28" in (workspace / "bom" / "eval_report.txt").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_value_fails_entries_not_the_sweep(self, workspace):
        path = workspace / "image.vecs"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split()[0] + " 1e200 0 0 0"
        path.write_text("\n".join(lines) + "\n")
        out = workspace / "out"
        code = main(["search", *common(workspace), "--out", str(out), *TestSearch.ARGS])
        assert code == EXIT_OK
        statuses = [line.split("\t")[1]
                    for line in (out / "toy.report.tsv").read_text().splitlines()[1:]]
        assert "failed" in statuses
        assert "non-finite" in (out / "toy.report.txt").read_text()


class TestMutatedInputs:
    """Seeded mutations of every input file end in exit 0, 2 or 3, never in an exception."""

    CASES = 75   # per command
    INSERTS = (b"\t", b"\r", b"\x0b", "\x85".encode(), b"\x00", b"\xef\xbb\xbf", b"nan",
               b"1e400", b"1_0", b"=", b",")
    INVALID_UTF8 = (b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80")

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        """The bytes of a 24-word 6-d and a 22-word 5-d table, a 15-pair benchmark,
        a configuration and a manifest."""
        path = tmp_path_factory.mktemp("originals")
        rng = np.random.default_rng(5)
        vocab = tuple(f"w{i:02d}" for i in range(24))
        save_embeddings(EmbeddingTable(vocab, rng.normal(size=(24, 6))), path / "text.vecs")
        save_embeddings(EmbeddingTable(vocab[:22], rng.normal(size=(22, 5))), path / "image.vecs")
        save_benchmark(Benchmark("toy", tuple((vocab[i], vocab[j], float(rng.uniform(0, 10)))
                                              for i in range(6) for j in range(i + 1, 6))),
                       path / "toy.tsv")
        (path / "fused.cfg").write_text(
            "layer_a=pca:4\nlayer_b=cca:3:out=both\nlayer_c=li:0.5\nridge=0.001\n")
        (path / "run.manifest").write_text(
            "dim_step=2\ndim_min=2\nalpha_step=0.5\nmotifs=pca,cca,rcca,concat,li\n"
            "normalize_concat=no\n")
        return {p.name: p.read_bytes() for p in path.iterdir()}

    def mutate(self, data, rng):
        """``data`` with one mutation, and its description."""
        at = int(rng.integers(len(data) + 1))
        kind = int(rng.integers(4))
        if kind == 0:
            return data[:at] + data[at + 1:], f"delete byte {at}"
        if kind == 1:
            insert = self.INSERTS[rng.integers(len(self.INSERTS))]
            return data[:at] + insert + data[at:], f"insert {insert!r} at {at}"
        if kind == 2:
            lines = data.splitlines(keepends=True) or [b""]
            i = int(rng.integers(len(lines)))
            line, op = lines[i], ("duplicate", "delete", "truncate")[rng.integers(3)]
            lines[i:i + 1] = {"duplicate": [line, line], "delete": [],
                              "truncate": [line[:rng.integers(len(line) + 1)]]}[op]
            return b"".join(lines), f"{op} line {i + 1}"
        splice = self.INVALID_UTF8[rng.integers(len(self.INVALID_UTF8))]
        return data[:at] + splice + data[at:], f"splice {splice!r} at {at}"

    @pytest.mark.parametrize("command, seed", [("search", 1), ("eval", 2), ("cross", 3),
                                               ("apply", 4)])
    def test_no_exception_escapes(self, tmp_path, capsys, originals, command, seed):
        rng = np.random.default_rng(seed)
        names = sorted(originals)
        for case in range(self.CASES):
            files = dict(originals)
            done = []
            for _ in range(1 + rng.integers(3)):
                name = names[rng.integers(len(names))]
                files[name], what = self.mutate(files[name], rng)
                done.append(f"{name}: {what}")
            where = tmp_path / str(case)
            where.mkdir()
            for name, data in files.items():
                (where / name).write_bytes(data)
            args = [command, "--text-vecs", str(where / "text.vecs"),
                    "--image-vecs", str(where / "image.vecs"),
                    "--manifest", str(where / "run.manifest"), "--out", str(where / "out")]
            if command != "apply":
                args += ["--bench", str(where / "toy.tsv")]
            if command != "search":
                args += ["--config", str(where / "fused.cfg")]
            try:
                code = main(args)
            except Exception as exc:
                raise AssertionError(f"case {case} ({'; '.join(done)}) raised") from exc
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC), (case, done)
            capsys.readouterr()


class TestAtomicReports:
    def test_failed_write_keeps_previous_report(self, tmp_path):
        from mmfuse.cli import _write

        path = tmp_path / "summary.txt"
        _write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            _write(path, "new\n\ud800\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]


def _spawn(cwd, *args, **env):
    """Run ``python -m mmfuse.cli`` (or ``python -c``) in a fresh process on this mmfuse.

    ``env`` holds environment variables set for that process only.
    """
    src = str(Path(mmfuse.__file__).parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = list(args) if args[0] == "-c" else ["-m", "mmfuse.cli", *args]
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def signed_pairs(path):
    """25 words in exact +/- pairs, ``w01`` = -``w00`` up to ``w23`` = -``w22``, and a zero ``w24``.

    The textual rows are 12-d and the visual rows 16-d, written to 3
    decimals, so ``w24``'s row is zero in every table a sweep builds.
    Benchmark ``b`` holds the 24 pairs with ``w24`` and every third of
    the others: 124 pairs, 24 of them degenerate in every table.
    """
    rng = np.random.default_rng(34)
    words = [f"w{i:02d}" for i in range(25)]
    for name, dim in (("text.vecs", 12), ("image.vecs", 16)):
        half = rng.integers(-999, 1000, size=(12, dim))
        rows = np.zeros((25, dim), dtype=np.int64)
        rows[0:24:2], rows[1:24:2] = half, -half
        lines = [f"25 {dim}"] + [word + " " + " ".join("%.3f" % (k / 1000) for k in row)
                                 for word, row in zip(words, rows)]
        (path / name).write_text("\n".join(lines) + "\n")
    pairs = [(i, 24) for i in range(24)] + [(i, j) for i in range(24)
                                            for j in range(i + 1, 24, 3)]
    (path / "b.tsv").write_text("".join(f"{words[i]}\t{words[j]}\t{(i + 2 * j) % 7}\n"
                                        for i, j in pairs))


class TestProcessEntry:
    """``python -m mmfuse.cli`` and the console script end through ``cli.run``."""

    @staticmethod
    def outputs(out):
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.log"}

    @pytest.mark.parametrize("command, extra", [
        ("search", ("--bench", "toy.tsv", "--bench", "toy2.tsv", *TestSearch.ARGS)),
        ("apply", ("--config", "good.cfg")),
    ])
    def test_a_finished_command_matches_main(self, workspace, capsys, monkeypatch, command,
                                             extra):
        args = [command, "--text-vecs", "text.vecs", "--image-vecs", "image.vecs", *extra]
        done = _spawn(workspace, *args, "--out", "spawned")
        assert done.returncode == EXIT_OK, done.stderr
        monkeypatch.chdir(workspace)
        assert main([*args, "--out", "in-process"]) == EXIT_OK
        printed = capsys.readouterr()
        assert done.stdout == printed.out.replace("in-process", "spawned")
        assert done.stderr == printed.err
        # every file complete, and no temporary file left beside them
        spawned = self.outputs(workspace / "spawned")
        assert spawned == self.outputs(workspace / "in-process")
        assert not [name for name in spawned if name.endswith(".tmp")]
        assert (workspace / "spawned" / "run.log").exists()

    @pytest.mark.parametrize("args, code, last", [
        (("bogus",), EXIT_USAGE, "invalid choice: 'bogus'"),
        (("search", "--text-vecs", "text.vecs", "--image-vecs", "image.vecs", "--out", "out"),
         EXIT_INPUT, "error: missing required inputs: --bench"),
    ], ids=["usage", "missing-input"])
    def test_a_rejected_command_exits_with_its_code(self, workspace, args, code, last):
        done = _spawn(workspace, *args)
        assert done.returncode == code
        assert done.stdout == ""
        assert last in done.stderr.splitlines()[-1]
        assert "Traceback" not in done.stderr
        assert not (workspace / "out").exists()

    def test_non_finite_pair_scores_exit_3(self, workspace):
        TestFailureBeforeOutputLeavesNoOut.overflow_visual_scores(workspace)
        done = _spawn(workspace, "eval", "--text-vecs", "text.vecs", "--image-vecs", "image.vecs",
                      "--bench", "toy.tsv", "--config", "good.cfg", "--out", "out")
        assert done.returncode == EXIT_NUMERIC
        assert done.stderr.splitlines()[-1] == "error: non-finite pair scores on 'toy'"
        assert not (workspace / "out").exists()

    @pytest.fixture
    def freezes(self, monkeypatch):
        import gc

        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
        return calls

    @pytest.mark.parametrize("extra, code", [
        (("--bench", "toy.tsv", *TestSearch.ARGS), EXIT_OK),
        ((), EXIT_INPUT),
    ], ids=["ok", "missing-bench"])
    def test_run_returns_the_code_of_main_and_freezes_once(self, workspace, capsys, monkeypatch,
                                                           freezes, extra, code):
        from mmfuse.cli import run

        monkeypatch.chdir(workspace)
        monkeypatch.setattr("sys.argv", ["mmfuse", "search", "--text-vecs", "text.vecs",
                                         "--image-vecs", "image.vecs", "--out", "out", *extra])
        assert run() == code
        assert len(freezes) == 1

    def test_run_freezes_once_when_main_exits(self, capsys, monkeypatch, freezes):
        from mmfuse.cli import run

        monkeypatch.setattr("sys.argv", ["mmfuse", "--help"])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == EXIT_OK
        assert "usage: mmfuse" in capsys.readouterr().out
        assert len(freezes) == 1

    def test_main_never_freezes(self, workspace, capsys, freezes):
        assert main(["search", *common(workspace), "--out", str(workspace / "out"),
                     *TestSearch.ARGS]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["--help"])
        assert freezes == []

    def test_a_search_imports_no_thread_pool(self, workspace):
        script = (
            "import sys, numpy\n"
            "before = 'concurrent.futures' in sys.modules\n"
            "import mmfuse.cli\n"
            "imported = 'concurrent.futures' in sys.modules\n"
            "code = mmfuse.cli.main(['search', '--text-vecs', 'text.vecs', '--image-vecs',"
            " 'image.vecs', '--bench', 'toy.tsv', '--out', 'out',"
            f" *{TestSearch.ARGS!r}])\n"
            "print(before, imported, 'concurrent.futures' in sys.modules, code)\n"
        )
        done = _spawn(workspace, "-c", script)
        assert done.returncode == 0, done.stderr
        before, imported, swept, code = done.stdout.splitlines()[-1].split()
        assert code == str(EXIT_OK)
        # numpy does not load the pool itself, so mmfuse never did
        if before == "False":
            assert (imported, swept) == ("False", "False")

    def test_a_search_prints_each_groups_warnings_before_its_progress(self, tmp_path):
        """Four layer-a groups, each warning about its tables, then reporting its progress."""
        signed_pairs(tmp_path)
        args = ("search", "--text-vecs", "text.vecs", "--image-vecs", "image.vecs",
                "--bench", "b.tsv", "--dim-step", "4", "--dim-min", "4")
        runs = [_spawn(tmp_path, *args, "--out", f"out-{seed}", PYTHONHASHSEED=seed)
                for seed in ("0", "12345")]
        assert [done.returncode for done in runs] == [EXIT_OK] * 2, runs[0].stderr
        assert runs[1].stderr == runs[0].stderr
        lines = runs[0].stderr.splitlines()
        assert len(lines) == 76
        warning = re.compile(r"warning: 24 degenerate zero-norm pair scores set to 0 "
                             r"in '[^']+' on 'b'")
        groups, warned = [], 0
        for line in lines:
            if warning.fullmatch(line):
                warned += 1
            else:
                groups.append((warned, line))
                warned = 0
        assert groups == [(3, "14/512 configurations"), (13, "104/512 configurations"),
                          (23, "270/512 configurations"), (33, "512/512 configurations")]


class TestAddressSpaceCap:
    """A child capped at 8 MB above its address space after importing numpy runs out of memory."""

    CHILD = (
        "import resource, sys, numpy, mmfuse.cli\n"
        "with open('/proc/self/status') as fh:\n"
        "    size = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + (8 << 20), hard))\n"
        "sys.argv = ['mmfuse', *sys.argv[1:]]\n"
        "sys.exit(mmfuse.cli.run())\n"
    )

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A 2000 x 300 textual table (5.7 MB), an 8 x 300 visual one and a 3-pair benchmark."""
        path = tmp_path_factory.mktemp("capped")
        rng = np.random.default_rng(8)
        vocab = tuple(f"w{i:04d}" for i in range(2000))
        save_embeddings(EmbeddingTable(vocab, rng.normal(size=(2000, 300))), path / "text.vecs")
        save_embeddings(EmbeddingTable(vocab[:8], rng.normal(size=(8, 300))), path / "image.vecs")
        save_benchmark(Benchmark("toy", ((vocab[0], vocab[1], 1.0), (vocab[2], vocab[3], 2.0),
                                         (vocab[4], vocab[5], 3.0))), path / "toy.tsv")
        (path / "pca.cfg").write_text("layer_a=pca:2\nlayer_b=none\nlayer_c=concat\n")
        return path

    @pytest.mark.parametrize("command, extra", [
        ("search", ("--bench", "toy.tsv")),
        ("apply", ("--config", "pca.cfg")),
    ])
    def test_exits_3_with_one_line_and_no_out(self, inputs, command, extra):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS") or not Path("/proc/self/status").exists():
            pytest.skip("needs RLIMIT_AS and /proc")
        out = f"out-{command}"
        done = _spawn(inputs, "-c", self.CHILD, command, "--text-vecs", "text.vecs",
                      "--image-vecs", "image.vecs", *extra, "--out", out)
        assert done.returncode == EXIT_NUMERIC, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1].startswith("error: out of memory")
        assert not (inputs / out).exists()
