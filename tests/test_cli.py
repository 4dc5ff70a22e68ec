import base64
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields import fileio
from genfields.archgraph import ArchSpec, LayerSpec, serialize_arch, stylegan2_preset
from genfields.cli import _json_text, main
from genfields.fileio import save_vectors_csv, write_pgm, write_ppm
from genfields.oracle import MAX_ORACLE_CELLS, FootprintResult, numeric_footprint
from genfields.regularizer import log_likelihood, parse_stats_csv

from helpers import make_arch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


# ---------------------------------------------------------------- fields ---

def test_fields_preset_table(capsys):
    code, out, _ = run(capsys, "fields", "--preset", "stylegan2-256")
    assert code == 0
    lines = data_lines(out)
    assert lines[0].startswith("layer_id")
    rows = [l.split() for l in lines[1:14]]
    assert [r[0] for r in rows] == [f"conv{i}" for i in range(13)]
    assert [int(r[3]) for r in rows] == [507, 379, 251, 187, 123, 91, 59, 43, 27, 19, 11, 7, 3]
    assert any("note" in l and "506" in l for l in lines)


def test_fields_header_block(capsys):
    code, out, _ = run(capsys, "fields", "--preset", "stylegan2-8")
    assert code == 0
    head = out.splitlines()[:3]
    assert head[0].startswith("# genfields 0.")
    assert head[1] == "# subcommand: fields"
    assert "arch=stylegan2-8" in head[2]


def test_fields_csv_format(capsys, tmp_path):
    arch = make_arch("toy", [3, 3], [2, 1])
    path = tmp_path / "toy.arch"
    path.write_text(serialize_arch(arch))
    code, out, _ = run(capsys, "fields", "--arch", str(path), "--format", "csv")
    assert code == 0
    lines = data_lines(out)
    assert lines[0] == "layer_id,style_label,input_resolution,generative_field,channels_in"
    assert lines[1].startswith("conv0,")


def test_fields_preset_64_has_nine_rows(capsys):
    code, out, _ = run(capsys, "fields", "--preset", "stylegan2-64")
    assert code == 0
    assert len(data_lines(out)) == 1 + 9  # header + rows, no notes


def test_fields_json_format(capsys):
    code, out, _ = run(capsys, "fields", "--preset", "stylegan2-256", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "genfields"
    assert doc["subcommand"] == "fields"
    assert len(doc["records"]) == 13
    assert doc["records"][0]["generative_field"] == 507
    assert doc["notes"]


def test_fields_output_file_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["fields", "--preset", "stylegan2-256", "--output", str(out1)]) == 0
    assert main(["fields", "--preset", "stylegan2-256", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fields_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "fields")
    assert code == 1
    assert "exactly one" in err
    code, _, err = run(capsys, "fields", "--preset", "stylegan2-256", "--arch", "x.arch")
    assert code == 1


@pytest.mark.parametrize("preset", [
    "256", "stylegan2-2_56", "stylegan2-+256", "stylegan2-0256", "stylegan2-\u0662\u0665\u0666",
    "stylegan2- 256", "stylegan2-256\n", "stylegan2-0",
    pytest.param("stylegan2-" + "1" * 5000, id="5000-digits"),  # int() refuses over 4300 digits
])
def test_preset_must_be_stylegan2_and_plain_digits(capsys, preset):
    code, out, err = run(capsys, "fields", "--preset", preset)
    assert (code, out) == (1, "")
    assert err == f"Error: unknown preset {preset!r}; use e.g. stylegan2-256\n"


def test_fields_bad_arch_file(capsys, tmp_path):
    bad = tmp_path / "bad.arch"
    bad.write_text("{not json")
    code, _, err = run(capsys, "fields", "--arch", str(bad))
    assert code == 1
    assert "bad.arch" in err


# ---------------------------------------------------------------- verify ---

def test_verify_preset_sound(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "stylegan2-256", "--sim-base", "16")
    assert code == 0
    rows = [l.split() for l in data_lines(out)[1:]]
    assert len(rows) == 13
    assert all(r[5] in ("exact", "under") for r in rows)


def test_verify_stride1_all_exact(capsys, tmp_path):
    arch = make_arch("s1", [3, 3, 3], [1, 1, 1])
    path = tmp_path / "s1.arch"
    path.write_text(serialize_arch(arch))
    code, out, _ = run(capsys, "verify", "--arch", str(path), "--sim-base", "32")
    assert code == 0
    rows = [l.split() for l in data_lines(out)[1:]]
    assert all(r[5] == "exact" for r in rows)


def test_verify_numeric_disagreement_exits_2(capsys, monkeypatch):
    from genfields import cli

    def off_by_one_on_conv1(arch, layer, *args, **kwargs):
        result = numeric_footprint(arch, layer, *args, **kwargs)
        if layer == 1:
            result = FootprintResult(**{**vars(result), "footprint": result.footprint + 1})
        return result

    monkeypatch.setattr(cli, "numeric_footprint", off_by_one_on_conv1)
    code, out, err = run(capsys, "verify", "--preset", "stylegan2-8", "--numeric")
    assert code == 2
    assert "note: numeric executor agreement: FAILED\n" in out
    assert re.search(r"^note: conv1: numeric footprint \d+ != boolean \d+$", out, flags=re.M)
    assert "conv0:" not in out
    assert err == "check failed: numeric executor disagreed on 1 layer(s)\n"


def test_verify_numeric_agreement(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "stylegan2-8", "--sim-base", "16", "--numeric"
    )
    assert code == 0
    assert "numeric executor agreement: ok" in out


def test_verify_numeric_deep_stack_edge_agrees(capsys):
    # Seed 3 lost conv0-conv2's edge positions to the baseline pass's rounding.
    code, out, err = run(capsys, "verify", "--preset", "stylegan2-1024", "--numeric",
                         "--sim-base", "1024", "--seed", "3")
    assert (code, err) == (0, "")
    assert "note: numeric executor agreement: ok\n" in out


def test_verify_over_bug_exits_2(capsys, tmp_path):
    arch = make_arch("k1", [1], [2])
    path = tmp_path / "k1.arch"
    path.write_text(serialize_arch(arch))
    code, out, err = run(
        capsys, "verify", "--arch", str(path), "--semantics", "nearest-upsample-conv",
        "--sim-base", "8",
    )
    assert code == 2
    assert "OVER-BUG" in out
    assert "OVER-BUG" in err


def test_verify_over_bug_names_semantics_and_layers(capsys, tmp_path):
    # conv0 is under its field and conv2 exact: only conv1 is named.
    path = tmp_path / "mixed.arch"
    path.write_text(serialize_arch(make_arch("mixed", [3, 1, 3], [2, 2, 1])))
    code, out, err = run(capsys, "verify", "--arch", str(path), "--semantics",
                         "nearest-upsample-conv", "--sim-base", "8", "--format", "csv")
    assert code == 2
    assert [line.rsplit(",", 1)[1] for line in data_lines(out)[1:]] == ["under", "OVER-BUG", "exact"]
    assert err == ("check failed: verification found 1 OVER-BUG row(s) under "
                   "nearest-upsample-conv: conv1\n")


def test_verify_layer_filter(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "stylegan2-256", "--sim-base", "8",
        "--layers", "conv10..conv12",
    )
    assert code == 0
    rows = data_lines(out)[1:]
    assert len(rows) == 3
    assert rows[0].startswith("conv10")


def test_verify_corrupt_arch_exits_1(capsys, tmp_path):
    bad = tmp_path / "corrupt.arch"
    bad.write_text('{"name": 3}')
    code, _, err = run(capsys, "verify", "--arch", str(bad))
    assert code == 1


def test_verify_numeric_negative_seed_exits_1(capsys, monkeypatch):
    from genfields import cli

    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the seed was checked")

    monkeypatch.setattr(cli, "verify_arch", no_oracle)
    monkeypatch.setattr(cli, "numeric_footprint", no_oracle)
    assert run(capsys, "verify", "--preset", "stylegan2-64", "--numeric", "--seed", "-1") == (
        1, "", "Error: --seed: seed must be non-negative, got -1\n")
    # without --numeric the seed is unused, so it is not checked
    monkeypatch.undo()
    assert run(capsys, "verify", "--preset", "stylegan2-64", "--seed", "-1")[0] == 0


def test_verify_csv_matches_columns(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "stylegan2-8", "--sim-base", "16", "--format", "csv"
    )
    assert code == 0
    assert data_lines(out)[0] == "layer_id,analytic,footprint,semantics,clipped,match_class"


# ------------------------------------------------------------------ plan ---

CONFIG_RANGES = {
    1: ("conv0", "conv7"),
    2: ("conv0", "conv4"),
    3: ("conv0", "conv2"),
    4: ("conv3", "conv6"),
    5: ("conv6", "conv11"),
}


@pytest.mark.parametrize("config", [1, 2, 3, 4, 5])
def test_plan_configs_reproduce_published_ranges(capsys, config):
    code, out, _ = run(
        capsys, "plan", "--preset", "stylegan2-256", "--config", str(config),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    first, last = CONFIG_RANGES[config]
    lo = int(first.removeprefix("conv"))
    hi = int(last.removeprefix("conv"))
    assert doc["enabled_layers"] == [f"conv{i}" for i in range(lo, hi + 1)]


def test_plan_config_1_gf_range(capsys):
    code, out, _ = run(capsys, "plan", "--preset", "stylegan2-256", "--config", "1")
    assert code == 0
    assert "gf_range: (43, 507)" in out


def test_plan_by_gf_flags(capsys):
    code, out, _ = run(
        capsys, "plan", "--preset", "stylegan2-256", "--min-gf", "7", "--max-gf", "59",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["enabled_layers"] == [f"conv{i}" for i in range(6, 12)]
    assert doc["gf_range"] == [7, 59]
    assert doc["total_dims"] == 4928


def test_plan_empty_range_exits_1(capsys):
    code, _, err = run(
        capsys, "plan", "--preset", "stylegan2-256", "--min-gf", "600", "--max-gf", "700"
    )
    assert code == 1
    assert "no layer in GF range" in err


def test_plan_reversed_gf_range_names_both_options(capsys):
    code, out, err = run(capsys, "plan", "--preset", "stylegan2-256", "--min-gf", "10", "--max-gf", "5")
    assert (code, out, err) == (1, "", "Error: --min-gf, --max-gf: min_gf 10 exceeds max_gf 5\n")


def test_plan_requires_one_mode(capsys):
    code, _, err = run(capsys, "plan", "--preset", "stylegan2-256")
    assert code == 1
    code, _, err = run(
        capsys, "plan", "--preset", "stylegan2-256", "--config", "1", "--layers", "conv0..conv1"
    )
    assert code == 1


@pytest.mark.parametrize("selection", [["--layers", "conv0..conv2"], ["--config", "4"]])
def test_plan_resolves_its_layer_range_once(capsys, monkeypatch, selection):
    from genfields import cli, stylespace

    calls = []
    span = stylespace._layer_span
    for module in (cli, stylespace):
        monkeypatch.setattr(module, "_layer_span", lambda *a: calls.append(a) or span(*a))
    code, out, _ = run(capsys, "plan", "--preset", "stylegan2-256", *selection)
    assert code == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize("span", ["conv0..conv99", "conv3..conv1"])
def test_plan_layer_range_errors_match_verify(capsys, span):
    plan = run(capsys, "plan", "--preset", "stylegan2-256", "--layers", span)
    verify = run(capsys, "verify", "--preset", "stylegan2-256", "--layers", span)
    assert plan == verify
    assert plan[:2] == (1, "")
    assert plan[2] in (
        "Error: unknown layer id 'conv99' in architecture 'stylegan2-256'\n",
        "Error: layer range 'conv3..conv1' is reversed\n",
    )


def test_plan_mask_rle_consistent(capsys):
    code, out, _ = run(capsys, "plan", "--preset", "stylegan2-256", "--config", "5")
    assert code == 0
    assert "mask_rle: 0*3072 1*1792 0*64" in out


# --------------------------------------------------------------- analyze ---

def test_analyze_reports_union_bounds(capsys, tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "deltas.csv"
    save_vectors_csv(str(path), rng.normal(size=(10, 512)))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert 50 <= len(doc["union_dims"]) <= 500
    assert doc["high_functional_count"] >= 0.0
    assert len(doc["bins_mean"]) == 20
    total = sum(doc["bins_mean"])
    assert total == pytest.approx(512.0)
    for rate in doc["rates"].values():
        assert 0.1 <= rate <= 1.0


def test_analyze_zero_row_noted(capsys, tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(3, 16))
    rows[1] = 0.0
    path = tmp_path / "deltas.csv"
    save_vectors_csv(str(path), rows)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "test 1 is all-zero" in out


def test_analyze_top_k_3(capsys, tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "deltas.csv"
    save_vectors_csv(str(path), rng.normal(size=(4, 5)))
    code, out, _ = run(capsys, "analyze", str(path), "--top-k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    membership = np.array(doc["membership"])
    assert membership.shape[0] == 4
    np.testing.assert_array_equal(membership.sum(axis=1), [3, 3, 3, 3])


def test_analyze_membership_csv(capsys, tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "deltas.csv"
    save_vectors_csv(str(path), rng.normal(size=(2, 6)))
    member_path = tmp_path / "membership.csv"
    code, _, _ = run(
        capsys, "analyze", str(path), "--top-k", "2", "--membership-out", str(member_path)
    )
    assert code == 0
    lines = member_path.read_text().strip().splitlines()
    assert lines[0].startswith("test,d")
    assert len(lines) == 3


def test_analyze_failing_pair_changes_neither_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_vectors_csv("deltas.csv", np.random.default_rng(3).normal(size=(2, 6)))
    Path("r.csv").write_bytes(b"old report\n")
    code, out, err = run(capsys, "analyze", "deltas.csv", "--output", "r.csv",
                         "--membership-out", "nodir/m.csv")
    assert (code, out) == (1, "")
    assert err == "Error: [Errno 2] No such file or directory: 'nodir/m.csv'\n"
    assert Path("r.csv").read_bytes() == b"old report\n"
    assert sorted(os.listdir()) == ["deltas.csv", "r.csv"]


@pytest.mark.parametrize("output, names", [("m.csv", "m.csv"), ("link.csv", "link.csv, m.csv")],
                         ids=["plain", "symlink"])
def test_analyze_outputs_naming_one_file_are_refused(capsys, tmp_path, monkeypatch, output, names):
    monkeypatch.chdir(tmp_path)
    save_vectors_csv("deltas.csv", np.random.default_rng(3).normal(size=(2, 6)))
    Path("m.csv").write_bytes(b"old membership\n")
    Path("link.csv").symlink_to("m.csv")
    code, out, err = run(capsys, "analyze", "deltas.csv", "--output", output, "--membership-out", "m.csv")
    assert (code, out) == (1, "")
    assert err == f"Error: {names}: two outputs would be written to one file\n"
    assert Path("m.csv").read_bytes() == b"old membership\n"
    assert Path("link.csv").is_symlink()
    assert sorted(os.listdir()) == ["deltas.csv", "link.csv", "m.csv"]


def test_analyze_ragged_csv_exits_1(capsys, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "columns" in err


def test_analyze_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "/does/not/exist.csv")
    assert code == 1
    assert "exist.csv" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", ["analyze", "stats"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_vector_cell_exits_1(capsys, tmp_path, subcommand, cell):
    path = tmp_path / "deltas.csv"
    path.write_text(f"0.5,1.0,2.0\n1.5,{cell},3.0\n")
    code, out, err = run(capsys, subcommand, str(path))
    assert code == 1
    assert out == ""
    assert "deltas.csv" in err and "row 2, column 2" in err and cell in err
    assert "numpy" not in err and "Warning" not in err


# ----------------------------------------------------------------- stats ---

def test_stats_two_point(capsys, tmp_path):
    path = tmp_path / "styles.csv"
    save_vectors_csv(str(path), np.array([[0.0, 0.0], [2.0, 2.0]]))
    out_path = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "stats", str(path), "--output", str(out_path))
    assert code == 0
    stats = parse_stats_csv(out_path.read_text())
    np.testing.assert_array_equal(stats.mu, [1.0, 1.0])
    np.testing.assert_array_equal(stats.sigma, [1.0, 1.0])


def test_stats_single_sample_exits_1(capsys, tmp_path):
    path = tmp_path / "one.csv"
    save_vectors_csv(str(path), np.array([[1.0, 2.0]]))
    code, _, err = run(capsys, "stats", str(path))
    assert code == 1
    assert "at least 2" in err


@pytest.mark.filterwarnings("error")
def test_stats_overflow_names_file_and_dim(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1e308,1\n-1e308,2\n")
    code, out, err = run(capsys, "stats", str(path))
    assert (code, out) == (1, "")
    assert err == f"Error: {path}: dim 0: its mean or standard deviation overflows float64\n"


@pytest.mark.parametrize("floor", ["nan", "inf", "0", "-1"])
def test_stats_bad_epsilon_floor_exits_1(capsys, tmp_path, floor):
    path = tmp_path / "styles.csv"
    path.write_text("1,2\n3,5\n")
    code, out, err = run(capsys, "stats", str(path), "--epsilon-floor", floor)
    assert (code, out) == (1, "")
    assert err == f"Error: --epsilon-floor: epsilon_floor must be positive and finite, got {float(floor)}\n"


def test_control_characters_in_parameters_stay_on_one_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("we\nird.csv").write_text("0,1\n2,5\n")
    assert main(["stats", "we\nird.csv", "--output", "s.csv"]) == 0
    header = Path("s.csv").read_text().splitlines()[2]
    assert header == "# parameters: input=we\\x0aird.csv samples=2 dims=2 epsilon_floor=1e-08"
    code, out, _ = run(capsys, "loglik", "s.csv", "we\nird.csv", "--format", "csv")
    assert code == 0
    assert data_lines(out)[1:] == ["0,-1.0", "1,-1.0"]
    code, out, _ = run(capsys, "losses", "--components", "1,1,1\n\x85")
    assert code == 0
    assert out.splitlines()[2:4] == [
        "# parameters: alpha=0.84 lambdas=1.0,0.01,0.02 format=table components=1,1,1\\x0a\\x85",
        "identity_loss = 1.0",
    ]


@pytest.mark.skipif(sys.getfilesystemencoding().lower() not in ("utf-8", "utf8"),
                    reason="file names decode with surrogateescape only under UTF-8")
def test_output_of_a_report_naming_an_undecodable_file(tmp_path):
    import genfields

    (tmp_path / os.fsdecode(b"a\xff.csv")).write_text("0,1\n2,5\n")
    env = {**os.environ, "PYTHONPATH": str(Path(genfields.__file__).parents[1])}

    def stats(*args):  # in UTF-8 mode, stdout writes an undecodable byte back as it was
        argv = [sys.executable, "-X", "utf8", "-m", "genfields", "stats", b"a\xff.csv", *args]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    out = stats()
    assert b"# parameters: input=a\xff.csv samples=2" in out
    assert stats("--output", "out.csv") == b""
    assert (tmp_path / "out.csv").read_bytes() == out
    assert sorted(os.listdir(tmp_path)) == sorted([os.fsdecode(b"a\xff.csv"), "out.csv"])


# ---------------------------------------------------------------- loglik ---

@pytest.fixture()
def stats_and_samples(tmp_path, capsys):
    styles = tmp_path / "styles.csv"
    rng = np.random.default_rng(4)
    data = rng.normal(size=(30, 5))
    save_vectors_csv(str(styles), data)
    stats_path = tmp_path / "stats.csv"
    assert main(["stats", str(styles), "--output", str(stats_path)]) == 0
    capsys.readouterr()
    return stats_path, data


def test_loglik_of_mean_is_zero(capsys, stats_and_samples, tmp_path):
    stats_path, data = stats_and_samples
    mean_path = tmp_path / "mean.csv"
    save_vectors_csv(str(mean_path), data.mean(axis=0))
    code, out, _ = run(capsys, "loglik", str(stats_path), str(mean_path))
    assert code == 0
    assert "sample 0: loglik = " in out
    value = float(out.split("loglik = ")[1].splitlines()[0])
    assert abs(value) < 1e-18


def test_loglik_fd_check_passes(capsys, stats_and_samples, tmp_path):
    stats_path, data = stats_and_samples
    sample_path = tmp_path / "sample.csv"
    save_vectors_csv(str(sample_path), data[:2])
    code, out, _ = run(capsys, "loglik", str(stats_path), str(sample_path), "--fd-check")
    assert code == 0
    assert "finite-difference check" in out and "ok" in out


def test_loglik_grad_csv(capsys, stats_and_samples, tmp_path):
    stats_path, data = stats_and_samples
    sample_path = tmp_path / "sample.csv"
    save_vectors_csv(str(sample_path), data[0])
    code, out, _ = run(
        capsys, "loglik", str(stats_path), str(sample_path), "--grad", "--format", "csv"
    )
    assert code == 0
    lines = data_lines(out)
    assert lines[0] == "sample,loglik," + ",".join(f"g{i}" for i in range(5))
    assert len(lines) == 2


def test_loglik_dimension_mismatch(capsys, stats_and_samples, tmp_path):
    stats_path, _ = stats_and_samples
    sample_path = tmp_path / "short.csv"
    save_vectors_csv(str(sample_path), np.zeros(3))
    code, _, err = run(capsys, "loglik", str(stats_path), str(sample_path))
    assert code == 1
    assert "dimension" in err


@pytest.mark.parametrize("row", ["0,0.0,nan", "0,nan,1.0", "0,inf,1.0"])
def test_loglik_non_finite_stats_exits_1(capsys, tmp_path, row):
    stats_path = tmp_path / "bad_stats.csv"
    stats_path.write_text(f"dim,mu,sigma\n{row}\n1,0.5,1.0\n")
    sample_path = tmp_path / "sample.csv"
    save_vectors_csv(str(sample_path), np.array([0.1, 0.2]))
    code, out, err = run(capsys, "loglik", str(stats_path), str(sample_path))
    assert code == 1
    assert out == ""
    assert "bad_stats.csv" in err and "finite" in err


def test_loglik_negative_sigma_exits_1(capsys, tmp_path):
    stats_path = tmp_path / "neg_stats.csv"
    stats_path.write_text("dim,mu,sigma\n0,0.0,-5\n")
    sample_path = tmp_path / "sample.csv"
    save_vectors_csv(str(sample_path), np.array([0.1]))
    code, out, err = run(capsys, "loglik", str(stats_path), str(sample_path))
    assert code == 1
    assert out == ""
    assert "neg_stats.csv" in err and "row 1" in err and "negative" in err


# ---------------------------------------------------------------- losses ---

def test_losses_components_total(capsys):
    code, out, _ = run(capsys, "losses", "--components", "1,1,1")
    assert code == 0
    assert "total_loss = 1.03" in out


def test_losses_identical_inputs_all_zero(capsys, tmp_path):
    rng = np.random.default_rng(5)
    emb = tmp_path / "emb.csv"
    save_vectors_csv(str(emb), rng.normal(size=8))
    lm = tmp_path / "lm.csv"
    save_vectors_csv(str(lm), rng.uniform(0, 255, size=(68, 3)))
    img = tmp_path / "img.ppm"
    write_ppm(str(img), rng.uniform(size=(176, 176, 3)))
    code, out, _ = run(
        capsys, "losses",
        "--id-embedding", str(emb), "--out-embedding", str(emb),
        "--attr-landmarks", str(lm), "--out-landmarks", str(lm),
        "--attr-angles", "0.1,0.2,0.3", "--out-angles", "0.1,0.2,0.3",
        "--attr-image", str(img), "--out-image", str(img),
        "--same-inputs", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    for value in doc["components"].values():
        assert abs(value) < 1e-9
    assert abs(doc["total_loss"]) < 1e-9


def test_losses_gate_zero_when_not_same(capsys, tmp_path):
    rng = np.random.default_rng(6)
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    write_ppm(str(a), rng.uniform(size=(176, 176, 3)))
    write_ppm(str(b), rng.uniform(size=(176, 176, 3)))
    code, out, _ = run(
        capsys, "losses", "--attr-image", str(a), "--out-image", str(b), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["components"]["reconstruction_loss"] == 0.0


def test_losses_degrees_flag(capsys):
    code, out, _ = run(
        capsys, "losses", "--attr-angles", "0,0,0", "--out-angles", "30,40,0",
        "--degrees", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    import math

    expected = math.hypot(math.radians(30), math.radians(40))
    assert doc["components"]["pose_loss"] == pytest.approx(expected)


def test_losses_missing_landmark_file(capsys, tmp_path):
    missing = tmp_path / "gone.csv"
    code, _, err = run(
        capsys, "losses", "--attr-landmarks", str(missing), "--out-landmarks", str(missing)
    )
    assert code == 1
    assert "gone.csv" in err


@pytest.mark.parametrize("given, missing", [
    ("--id-embedding", "--out-embedding"),
    ("--out-landmarks", "--attr-landmarks"),
    ("--attr-angles", "--out-angles"),
    ("--out-image", "--attr-image"),
], ids=["embeddings", "landmarks", "angles", "images"])
def test_losses_unpaired_inputs(capsys, tmp_path, given, missing):
    emb = tmp_path / "e.csv"
    save_vectors_csv(str(emb), np.ones(4))
    value = "0,0,0" if given.endswith("angles") else str(emb)
    code, out, err = run(capsys, "losses", given, value)
    assert (code, out) == (1, "")
    first, second = sorted((given, missing), key=lambda opt: opt.startswith("--out"))
    assert err == f"Error: {first} and {second} must be given together\n"


@pytest.mark.parametrize("argv, message", [
    (("--components", "1,1,1", "--alpha", "7"), "--alpha: alpha must lie in [0, 1], got 7.0"),
    (("--components", "1,1,1", "--alpha", "nan"), "--alpha: alpha must lie in [0, 1], got nan"),
    (("--attr-image", "a.ppm", "--out-image", "b.ppm", "--scales", "0"),
     "--scales: scales must be in [1, 5], got 0"),
], ids=["alpha-7", "alpha-nan", "scales-0"])
def test_losses_out_of_range_alpha_scales_exit_1(capsys, argv, message):
    # checked up front, so no image is read and --components is refused too
    code, out, err = run(capsys, "losses", *argv)
    assert (code, out, err) == (1, "", f"Error: {message}\n")


def test_losses_no_inputs(capsys):
    code, _, err = run(capsys, "losses")
    assert code == 1


# ------------------------------------------------------------------ misc ---

def test_an_interrupt_exits_1_after_a_newline(capsys, monkeypatch):
    from genfields import cli

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "fields", (interrupted, cli.COMMANDS["fields"][1]))
    assert run(capsys, "fields", "--preset", "stylegan2-8") == (1, "", "\n")


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "genfields", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: python -m genfields ")  # cli._prog, not __main__.py
    assert "fields" in proc.stdout and "verify" in proc.stdout


def test_cli_runs_without_scipy(tmp_path):
    # scipy costs ~0.4 s of start-up; keep it off the import path of every command.
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    rng = np.random.default_rng(13)
    write_pgm(str(a), rng.uniform(size=(16, 16)))
    write_pgm(str(b), rng.uniform(size=(16, 16)))
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from genfields.cli import main
        codes = [
            main(["losses", "--attr-image", sys.argv[1], "--out-image", sys.argv[2],
                  "--same-inputs", "--scales", "1"]),
            main(["fields", "--preset", "stylegan2-256"]),
        ]
        loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
        print("RESULT", codes, loaded)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(a), str(b)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "reconstruction_loss = " in proc.stdout and "conv12" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "RESULT [0, 0] []"


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "genfields", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "genfields" in proc.stdout


# A valid argv per subcommand; each usage case below changes one thing in it.
USAGE_BASE = {
    "fields": ("fields", "--preset", "stylegan2-8"),
    "verify": ("verify", "--preset", "stylegan2-8"),
    "plan": ("plan", "--preset", "stylegan2-256"),
    "analyze": ("analyze", "deltas.csv"),
    "stats": ("stats", "styles.csv"),
    "loglik": ("loglik", "stats.csv", "samples.csv"),
    "losses": ("losses", "--components", "1,1,1"),
}
USAGE_NUMBERS = {
    "verify": ("--sim-base", "--seed"),
    "plan": ("--config", "--min-gf", "--max-gf"),
    "analyze": ("--top-k", "--bins"),
    "stats": ("--epsilon-floor",),
    "losses": ("--scales", "--alpha"),
}
USAGE_CASES = [
    *((argv, token) for sub, base in USAGE_BASE.items() for argv, token in [
        ((*base, "--bogus"), "--bogus"),
        ((*base, "--outp", "r.txt"), "--outp"),  # abbreviations are refused
        ((*base, "--output"), "--output"),
        ((*base, "stray"), "stray"),
        *([((*base, "--format", "xml"), "--format")] if sub != "stats" else []),
        *(((*base, option, "x"), option) for option in USAGE_NUMBERS.get(sub, ())),
    ]),
    (("plan", "--preset", "stylegan2-256", "--config", "0"), "--config"),
    (("plan", "--preset", "stylegan2-256", "--config", "6"), "--config"),
    (("verify", "--preset", "stylegan2-8", "--sim-base", "1.5"), "--sim-base"),
    (("analyze",), "DELTAS_CSV"),
    (("stats",), "STYLES_CSV"),
    (("loglik", "stats.csv"), "SAMPLES_CSV"),
    (("frobnicate",), "frobnicate"),
    (("--bogus",), "--bogus"),
]


def test_option_values_may_start_with_a_dash(capsys):
    code, _, err = run(capsys, "losses", "--components", "-1,2,3")  # the library refuses it
    assert (code, err) == (1, "Error: --components: loss components must be finite and >= 0, "
                              "got -1.0, 2.0, 3.0\n")
    code, out, err = run(capsys, "losses", "--attr-angles", "-0.1,0,0", "--out-angles", "-1e-1,0,0")
    assert (code, err) == (0, "") and "pose_loss = 0.0\n" in out
    code, _, err = run(capsys, "analyze", "--", "-x.csv")  # after "--", a word is an argument
    assert (code, err) == (1, "Error: cannot read vector CSV -x.csv: [Errno 2] No such file or "
                              "directory: '-x.csv'\n")


@pytest.mark.parametrize("argv, token", USAGE_CASES, ids=[" ".join(a) for a, _ in USAGE_CASES])
def test_usage_errors_exit_1_naming_the_option(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("Error:") and token in last, err


EMPTY_VALUES = [
    (("fields", "--preset", "stylegan2-8", "--output", ""), "--output"),
    (("analyze", "d.csv", "--membership-out", ""), "--membership-out"),
    (("verify", "--preset", "stylegan2-8", "--layers", ""), "--layers"),
    (("losses", "--components", "1,1,1", "--lambdas", ""), "--lambdas"),
    (("losses", "--attr-angles", "", "--out-angles", ""), "--attr-angles"),
    (("losses", "--id-embedding", "", "--out-embedding", ""), "--id-embedding"),
]


@pytest.mark.parametrize("argv, option", EMPTY_VALUES,
                         ids=[" ".join(arg or "''" for arg in a) for a, _ in EMPTY_VALUES])
def test_an_empty_option_value_is_refused_as_a_missing_one(capsys, tmp_path, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("1,2\n3,4\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"\nError: Option '{option}' requires an argument.\n"), err
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


# ------------------------------------------------------------- non-finite --

@pytest.mark.parametrize("argv, message", [
    (("--components", "nan,1,1"), "--components must be finite"),
    (("--components", "inf,1,1"), "--components must be finite"),
    (("--components", "1,1,1", "--lambdas", "nan,1,1"), "--lambdas must be finite"),
    (("--components", "1,1,1", "--lambdas", "1,-inf,1"), "--lambdas must be finite"),
    (("--attr-angles", "0,nan,0", "--out-angles", "0,0,0"), "--attr-angles must be finite"),
    (("--components", "1,1,1", "--lambdas", "1e308,1e308,1e308"), "total loss overflows"),
])
def test_losses_non_finite_triple_exits_1(capsys, argv, message):
    code, out, err = run(capsys, "losses", *argv)
    assert code == 1
    assert "nan" not in out and "inf" not in out
    assert message in err


def test_losses_far_apart_embeddings_exit_1(capsys, tmp_path):
    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    e1.write_text("1e308,0\n")
    e2.write_text("-1e308,0\n")
    assert run(capsys, "losses", "--id-embedding", str(e1), "--out-embedding", str(e2)) == (
        1, "", f"Error: {e1}, {e2}: identity loss overflows float64\n")


# ---------------------------------------------------- verify, numeric golden ---

# stdout of `verify --preset stylegan2-1024 --numeric --sim-base 1024`, taken
# from the full-map numeric executor the windowed one replaced.
VERIFY_1024_GOLDEN = {
    "zero-insert-transposed": (
        '# genfields 0.1.0\n'
        '# subcommand: verify\n'
        '# parameters: arch=stylegan2-1024 semantics=zero-insert-transposed sim_base=1024 format=table numeric=true seed=7\n'
        'layer_id  analytic  footprint  semantics               clipped  match_class\n'
        'conv0     2043      1533       zero-insert-transposed  false    under\n'
        'conv1     1531      1021       zero-insert-transposed  false    under\n'
        'conv2     1019      765        zero-insert-transposed  false    under\n'
        'conv3     763       509        zero-insert-transposed  false    under\n'
        'conv4     507       381        zero-insert-transposed  false    under\n'
        'conv5     379       253        zero-insert-transposed  false    under\n'
        'conv6     251       189        zero-insert-transposed  false    under\n'
        'conv7     187       125        zero-insert-transposed  false    under\n'
        'conv8     123       93         zero-insert-transposed  false    under\n'
        'conv9     91        61         zero-insert-transposed  false    under\n'
        'conv10    59        45         zero-insert-transposed  false    under\n'
        'conv11    43        29         zero-insert-transposed  false    under\n'
        'conv12    27        21         zero-insert-transposed  false    under\n'
        'conv13    19        13         zero-insert-transposed  false    under\n'
        'conv14    11        9          zero-insert-transposed  false    under\n'
        'conv15    7         5          zero-insert-transposed  false    under\n'
        'conv16    3         3          zero-insert-transposed  false    exact\n'
        'note: numeric executor agreement: ok\n'
    ),
    "nearest-upsample-conv": (
        '# genfields 0.1.0\n'
        '# subcommand: verify\n'
        '# parameters: arch=stylegan2-1024 semantics=nearest-upsample-conv sim_base=1024 format=table numeric=true seed=7\n'
        'layer_id  analytic  footprint  semantics              clipped  match_class\n'
        'conv0     2043      1788       nearest-upsample-conv  false    under\n'
        'conv1     1531      1276       nearest-upsample-conv  false    under\n'
        'conv2     1019      892        nearest-upsample-conv  false    under\n'
        'conv3     763       636        nearest-upsample-conv  false    under\n'
        'conv4     507       444        nearest-upsample-conv  false    under\n'
        'conv5     379       316        nearest-upsample-conv  false    under\n'
        'conv6     251       220        nearest-upsample-conv  false    under\n'
        'conv7     187       156        nearest-upsample-conv  false    under\n'
        'conv8     123       108        nearest-upsample-conv  false    under\n'
        'conv9     91        76         nearest-upsample-conv  false    under\n'
        'conv10    59        52         nearest-upsample-conv  false    under\n'
        'conv11    43        36         nearest-upsample-conv  false    under\n'
        'conv12    27        24         nearest-upsample-conv  false    under\n'
        'conv13    19        16         nearest-upsample-conv  false    under\n'
        'conv14    11        10         nearest-upsample-conv  false    under\n'
        'conv15    7         6          nearest-upsample-conv  false    under\n'
        'conv16    3         3          nearest-upsample-conv  false    exact\n'
        'note: numeric executor agreement: ok\n'
    ),
}


@pytest.mark.parametrize("semantics", sorted(VERIFY_1024_GOLDEN))
def test_verify_numeric_1024_golden_stdout(capsys, semantics):
    code, out, _ = run(
        capsys, "verify", "--preset", "stylegan2-1024", "--numeric", "--sim-base", "1024",
        "--semantics", semantics,
    )
    assert code == 0
    assert out == VERIFY_1024_GOLDEN[semantics]


def test_verify_oracle_size_limit_exits_1(capsys, monkeypatch):
    from genfields import oracle

    monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 100)
    code, out, err = run(capsys, "verify", "--preset", "stylegan2-8", "--sim-base", "60")
    assert code == 1
    assert out == ""
    assert "conv1" in err and "limit" in err


# --------------------------------------------------------- golden corpus ---

# Every byte of stdout, stderr, exit code and written file of each invocation
# in golden_cli.json, recorded before the subcommands shared one report
# renderer.  Each case runs in a fresh directory holding the corpus inputs
# (text files as-is, images base64-encoded), so paths in reports are relative.
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
SUBCOMMANDS = ("fields", "verify", "plan", "analyze", "stats", "loglik", "losses")


GOLDEN_INPUTS = {name: text.encode() for name, text in GOLDEN["inputs"].items()}
GOLDEN_INPUTS.update((name, base64.b64decode(data)) for name, data in GOLDEN["images"].items())


def write_golden_inputs(directory):
    for name, data in GOLDEN_INPUTS.items():
        (directory / name).write_bytes(data)


def golden_result(argv, directory, code, out, err):
    """What one corpus invocation run in ``directory`` produced, as the corpus records it."""
    files = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(directory.iterdir())
        if p.name not in GOLDEN_INPUTS
    }
    return {"argv": list(argv), "code": code, "out": out, "err": err, "files": files}


def run_golden(argv, directory, monkeypatch, capsys):
    """Run one corpus invocation in ``directory``; return what it produced."""
    write_golden_inputs(directory)
    monkeypatch.chdir(directory)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help and usage to the terminal width
    # The program is named as an installed script is: cli._prog reads argv[0] and __main__.
    monkeypatch.setattr(sys, "argv", ["genfields"])
    monkeypatch.setattr(sys.modules["__main__"], "__package__", None)
    return golden_result(argv, directory, *run(capsys, *argv))


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
def test_golden_report(case, tmp_path, monkeypatch, capsys):
    expected = GOLDEN["cases"][case]
    assert run_golden(expected["argv"], tmp_path, monkeypatch, capsys) == expected


def _cases_reading(*suffixes):
    """Each exit-0 corpus case that reads a corpus file ending in one of ``suffixes``, with those files."""
    cases = {name: [arg for arg in case["argv"] if arg.endswith(suffixes) and arg in GOLDEN_INPUTS]
             for name, case in GOLDEN["cases"].items() if case["code"] == 0}
    return {name: names for name, names in cases.items() if names}


MUTABLE_CASES = _cases_reading(".csv")
MUTABLE_HEADER_CASES = _cases_reading(".ppm", ".pgm", ".arch")
MUTANT_CELLS = ["nan", "inf", "1e309", "-0", "9" * 400, "", '"', "\0", "\ufeff", "\r"]
NON_FINITE_TOKEN = re.compile(r"\b(?:nan|inf)\b", re.I)


@st.composite
def mutated_inputs(draw):
    """A case, one of its CSVs, that file with one mutation, and whether the mutation is
    to a ``d0,d1,...`` header, which must exit 1: the file cut short, one cell replaced,
    or one row a cell wider or narrower; or one header cell dropped, added or swapped."""
    case = draw(st.sampled_from(sorted(MUTABLE_CASES)))
    name = draw(st.sampled_from(MUTABLE_CASES[case]))
    data = GOLDEN_INPUTS[name]
    kind = draw(st.sampled_from(["truncate", "cell", "wider", "narrower",
                                 *["header"] * data.startswith(b"d0,")]))
    if kind == "truncate":
        return case, name, data[:draw(st.integers(0, len(data) - 1))], False
    lines = data.decode().split("\n")
    i = 0 if kind == "header" else draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    cells = lines[i].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "cell":
        cells[j] = draw(st.sampled_from(MUTANT_CELLS))
    elif kind == "wider":
        cells.insert(j, cells[j])
    elif kind == "narrower":
        del cells[j]
    else:
        edit = draw(st.sampled_from(["drop", "add", "swap"]))
        if edit == "drop":
            del cells[j]
        elif edit == "add":  # the next cell, anywhere up to the end
            cells.insert(j + draw(st.booleans()), f"d{len(cells)}")
        else:  # with the next cell, the last with the first
            k = (j + 1) % len(cells)
            cells[j], cells[k] = cells[k], cells[j]
    lines[i] = ",".join(cells)
    return case, name, "\n".join(lines).encode(), kind == "header"


def _run_mutated(argv, directory, min_chars):
    """``main(argv)`` in ``directory`` with numpy's CSV reader from ``min_chars`` characters up."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.object(fileio, "C_READER_MIN_CHARS", min_chars), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return golden_result(argv, directory, code, out.getvalue(), err.getvalue())


def _refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _check_mutated(case, name, data, min_chars, sources):
    """Run ``case`` with the file ``name`` holding ``data``: exit 1 names one of ``sources``,
    exit 2 comes from a check, and exit 0 prints only finite numbers.  Returns the result."""
    argv = GOLDEN["cases"][case]["argv"]
    with tempfile.TemporaryDirectory() as directory:
        write_golden_inputs(Path(directory))
        Path(directory, name).write_bytes(data)
        got = _run_mutated(argv, Path(directory), min_chars)
    assert got["code"] in (0, 1, 2), got
    if got["code"] == 1:
        assert got["err"].startswith("Error: ") and any(s in got["err"] for s in sources), got
    elif got["code"] == 2:
        assert "--fd-check" in argv or argv[0] == "verify", got
    for text in (got["out"], *got["files"].values()):
        assert got["code"] == 1 or not NON_FINITE_TOKEN.search(text), got
    if got["code"] != 1 and "json" in argv:
        json.loads(got["out"], parse_constant=_refuse)
    return got


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutated_inputs())
def test_mutated_csv_inputs_exit_cleanly_property(mutation):
    # Both readers see every mutation.  A header that disagrees with its rows is an error.
    case, name, data, header = mutation
    for min_chars in (0, sys.maxsize):
        got = _check_mutated(case, name, data, min_chars, [name])
        assert got["code"] == 1 or not header, got


ARCH_VALUES = [None, True, 3, 2.5, "3", [], {}]  # one value of each JSON type


@st.composite
def mutated_headers(draw):
    """A case, one of its images or architectures, that file with one mutation, and
    whether the mutation puts a sample above the image's maxval, which must exit 1: an
    image cut short, with one header byte changed, or with its maxval lowered below one
    of its samples; or an architecture with one field dropped or given a value of
    another type."""
    case = draw(st.sampled_from(sorted(MUTABLE_HEADER_CASES)))
    name = draw(st.sampled_from(MUTABLE_HEADER_CASES[case]))
    data = GOLDEN_INPUTS[name]
    if name.endswith(".arch"):
        doc = json.loads(data)
        fields = draw(st.sampled_from([doc, *doc["layers"]]))
        key = draw(st.sampled_from(sorted(fields)))
        if draw(st.booleans()):
            del fields[key]
        else:
            others = [value for value in ARCH_VALUES if type(value) is not type(fields[key])]
            fields[key] = draw(st.sampled_from(others))
        return case, name, json.dumps(doc, indent=2).encode(), False
    kind = draw(st.sampled_from(["cut", "header", "sample"]))
    if kind == "cut":
        return case, name, data[:draw(st.integers(0, len(data) - 1))], False
    end = re.match(rb"(?:\S+\s){4}", data).end()  # magic, width, height, maxval
    if kind == "sample":
        maxval = draw(st.integers(1, 254))
        raster = bytearray(data[end:])
        raster[draw(st.integers(0, len(raster) - 1))] = draw(st.integers(maxval + 1, 255))
        return case, name, b" ".join(data[:end].split()[:3]) + b" %d\n" % maxval + raster, True
    i = draw(st.integers(0, end - 1))
    byte = draw(st.integers(0, 255).filter(lambda b: b != data[i]))
    return case, name, data[:i] + bytes([byte]) + data[i + 1:], False


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mutated_headers())
def test_mutated_image_and_arch_inputs_exit_cleanly_property(mutation):
    # An architecture's error may name one of its layers instead of the file.
    case, name, data, over_maxval = mutation
    layers = json.loads(GOLDEN_INPUTS[name])["layers"] if name.endswith(".arch") else []
    got = _check_mutated(case, name, data, fileio.C_READER_MIN_CHARS, [name, *(layer["id"] for layer in layers)])
    if over_maxval:
        assert got["code"] == 1 and re.match(rf"Error: {name}: sample \d+ above maxval \d+$", got["err"]), got


# This process imported numpy before genfields, so the cases above cannot show which
# of them import it.  Each subcommand's cases therefore run again in one fresh
# interpreter that imports genfields.cli first.  The cases matching NO_NUMPY run
# first there and must leave every numpy submodule unloaded; no case loads click,
# dataclasses or numpy.random.
NO_NUMPY = re.compile(r"fields-|losses-components-|help|version$|plan-|verify-|error-bad-preset$"
                      r"|error-corrupt-arch$|error-bad-range$|error-plan-|error-two-sources$"
                      r"|error-oversize-oracle$|error-reversed-range$|error-unknown-layer$"
                      r"|error-unsupported-preset$|error-ragged-csv$|error-bad-cell$"
                      r"|error-non-finite-analyze$|error-non-finite-stats$|error-losses-lambdas-")
FRESH_CHILD = """
import contextlib, io, json, os, sys
from genfields.cli import main
sys.argv = ["genfields"]  # the program's name in --help and usage errors
results = {}
for name, argv, directory in json.load(sys.stdin):
    os.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    numpy = sorted(m for m in sys.modules if m.startswith("numpy."))[:3]
    results[name] = {"code": code, "out": out.getvalue(), "err": err.getvalue(), "numpy": numpy,
                     "click": "click" in sys.modules, "dataclasses": "dataclasses" in sys.modules,
                     "random": "numpy.random" in sys.modules}
json.dump(results, sys.stdout)
"""


def _subcommand(argv):
    return next((a for a in argv if a in SUBCOMMANDS), "genfields")


def test_numpy_imported_first_is_the_bound_module():
    # The binding is not numpy's module object, but every read goes to numpy's namespace.
    import genfields._np

    assert genfields._np.np.ndarray is np.ndarray
    assert genfields._np.np.errstate is np.errstate


def _child_env(**env):
    """The environment of a child interpreter that imports this checkout's genfields."""
    import genfields

    src = str(Path(genfields.__file__).parents[1])
    return {**os.environ, "COLUMNS": "80", **env,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh(script, jobs, *options, **env):
    """The JSON that ``script`` prints, run in a fresh interpreter with ``jobs`` on stdin."""
    proc = subprocess.run([sys.executable, *options, "-W", "error", "-c", script],
                          input=json.dumps(jobs), capture_output=True, text=True,
                          env=_child_env(**env), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("subcommand", sorted({_subcommand(c["argv"]) for c in GOLDEN["cases"].values()}))
def test_golden_reports_in_a_fresh_interpreter(subcommand, tmp_path):
    names = sorted((n for n, c in GOLDEN["cases"].items() if _subcommand(c["argv"]) == subcommand),
                   key=lambda n: (not NO_NUMPY.match(n), n))
    jobs = []
    for name in names:
        (tmp_path / name).mkdir()
        write_golden_inputs(tmp_path / name)
        jobs.append((name, GOLDEN["cases"][name]["argv"], str(tmp_path / name)))
    results = _fresh(FRESH_CHILD, jobs)
    for name, argv, directory in jobs:
        got = results[name]
        assert golden_result(argv, Path(directory), got["code"], got["out"], got["err"]) \
            == GOLDEN["cases"][name], name
        if NO_NUMPY.match(name):
            assert got["numpy"] == [], name
        assert not got["click"], name
        assert not got["dataclasses"], name
        assert not got["random"], name


def test_golden_reports_without_numpy(tmp_path):
    # python -S leaves site-packages, and numpy with it, off the path; PYTHONPATH still
    # names this checkout.  A case that needs an array exits 1 with one line, writing nothing.
    probe = [sys.executable, "-c", "import genfields.cli, sys; print('numpy' in sys.modules)"]
    imported = subprocess.run(probe, capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (imported.returncode, imported.stdout) == (0, "False\n"), imported.stderr
    if subprocess.run([sys.executable, "-S", "-c", "import numpy"], capture_output=True).returncode == 0:
        pytest.skip("numpy is importable under python -S, so it cannot be hidden")
    jobs = []
    for name, case in sorted(GOLDEN["cases"].items()):
        (tmp_path / name).mkdir()
        write_golden_inputs(tmp_path / name)
        jobs.append((name, case["argv"], str(tmp_path / name)))
    results = _fresh(FRESH_CHILD, jobs, "-S")
    for name, argv, directory in jobs:
        got = results[name]
        assert "Traceback" not in got["err"], name
        result = golden_result(argv, Path(directory), got["code"], got["out"], got["err"])
        expected = GOLDEN["cases"][name]
        if not NO_NUMPY.match(name) and result != expected:
            needs = f"Error: {_subcommand(argv)} needs numpy, which is not installed\n"
            expected = {"argv": argv, "code": 1, "out": "", "err": needs, "files": {}}
        assert result == expected, name


# One case per subcommand, an exit-1 and an exit-2 case, and the cases that write
# --output and --membership-out files, each run as its own `python -m genfields`
# process: what the reports, exit codes and files are once the process has ended
# through the entry's flush and os._exit, not through interpreter teardown.
PROCESS_CASES = ("analyze-membership-out", "error-missing-csv", "fields-preset-table",
                 "loglik-table", "losses-components-table", "plan-config-table", "stats-output",
                 "verify-numeric-table", "verify-over-bug-table")


def test_golden_reports_through_the_process_exit(tmp_path):
    env = _child_env()
    for name in PROCESS_CASES:
        argv = GOLDEN["cases"][name]["argv"]
        (tmp_path / name).mkdir()
        write_golden_inputs(tmp_path / name)
        proc = subprocess.run([sys.executable, "-m", "genfields", *argv], cwd=tmp_path / name,
                              env=env, capture_output=True, encoding="utf-8", timeout=60)
        assert golden_result(argv, tmp_path / name, proc.returncode, proc.stdout, proc.stderr) \
            == GOLDEN["cases"][name], name


# A stdout that refuses the report fails inside main, as exit 1 with one line on stderr;
# the entry's own last flush then has nothing left to write.
STDOUT_ERRORS = {
    "closed-pipe": "Error: [Errno 32] Broken pipe\n",
    "dev-full": "Error: [Errno 28] No space left on device\n",
}


@pytest.mark.parametrize("argv", [("fields", "--preset", "stylegan2-256"),
                                  ("verify", "--preset", "stylegan2-64", "--numeric")],
                         ids=["fields", "verify-numeric"])
@pytest.mark.parametrize("stdout", sorted(STDOUT_ERRORS))
def test_a_failing_stdout_through_the_process_entry(stdout, argv):
    def run_with(out):
        return subprocess.run([sys.executable, "-m", "genfields", *argv], stdout=out,
                              stderr=subprocess.PIPE, env=_child_env(), timeout=60)

    if stdout == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_with(write_end)
        finally:
            os.close(write_end)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            proc = run_with(full)
    assert (proc.returncode, proc.stderr.decode()) == (1, STDOUT_ERRORS[stdout])


BAD_OPTIONS = {
    "stats-floor": (["stats", "gone.csv", "--epsilon-floor", "nan"],
                    "Error: --epsilon-floor: epsilon_floor must be positive and finite, got nan\n"),
    "analyze-bins": (["analyze", "gone.csv", "--bins", "0"], "Error: --bins: bins must be >= 1, got 0\n"),
    "analyze-top-k": (["analyze", "gone.csv", "--top-k", "0"], "Error: --top-k: k must be >= 1, got 0\n"),
    "analyze-both": (["analyze", "gone.csv", "--top-k", "-1", "--bins", "0"],
                     "Error: --bins: bins must be >= 1, got 0\n"),
    "analyze-bins-oversize": (["analyze", "gone.csv", "--bins", "9" * 4300],
                              "Error: --bins: bins is above the limit of 67108864 histogram cells\n"),
}


def test_bad_numeric_options_fail_before_the_input_is_read(capsys, tmp_path, monkeypatch):
    # gone.csv does not exist: the option's own error wins, and no numpy is loaded for it
    monkeypatch.chdir(tmp_path)
    for name, (argv, err) in BAD_OPTIONS.items():
        assert run(capsys, *argv) == (1, "", err), name
    results = _fresh(FRESH_CHILD, [(name, argv, str(tmp_path)) for name, (argv, _) in BAD_OPTIONS.items()])
    assert results == {name: {"code": 1, "out": "", "err": err, "numpy": [], "click": False,
                              "dataclasses": False, "random": False}
                       for name, (_, err) in BAD_OPTIONS.items()}


# The process entry, run on the golden inputs with a spy that writes OPENBLAS_THREAD_TIMEOUT
# to stderr as numpy's C extension, which loads OpenBLAS, is imported.
BLAS_SPY = """
import os, sys
seen = []
class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.endswith("._multiarray_umath") and not seen:
            seen.append(name)
            sys.stderr.write(f"OPENBLAS_THREAD_TIMEOUT={os.environ.get('OPENBLAS_THREAD_TIMEOUT')}\\n")
sys.meta_path.insert(0, Spy)
from genfields.__main__ import run
sys.argv = ["genfields", "analyze", "deltas.csv", "--output", "report.txt"]
run()
"""


@pytest.mark.parametrize("exported", [None, "12"])
def test_openblas_workers_sleep_at_once_unless_the_user_set_a_timeout(monkeypatch, tmp_path,
                                                                      exported):
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    write_golden_inputs(tmp_path)
    env = {} if exported is None else {"OPENBLAS_THREAD_TIMEOUT": exported}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", BLAS_SPY], cwd=tmp_path, capture_output=True,
                          text=True, env=_child_env(**env), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", f"OPENBLAS_THREAD_TIMEOUT={exported or 4}\n")
    assert (tmp_path / "report.txt").read_text().startswith("# genfields ")


# Whether main(argv), called in an interpreter that has not loaded numpy, leaves os.environ as it was.
ENVIRON_CHILD = """
import contextlib, io, json, os, sys
from genfields.cli import main
before, loaded = dict(os.environ), any(m.startswith("numpy.") for m in sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(json.load(sys.stdin))
json.dump({"numpy_loaded": loaded, "same": dict(os.environ) == before}, sys.stdout)
"""


@pytest.mark.parametrize("numpy_loaded", [True, False])
@pytest.mark.parametrize("argv", [["verify", "--preset", "stylegan2-64", "--numeric"],
                                  ["analyze", "gone.csv"], ["verify", "--bogus"], ["analyze", "deltas.csv"]])
def test_main_leaves_os_environ_as_it_was(capsys, monkeypatch, tmp_path, argv, numpy_loaded):
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    monkeypatch.chdir(tmp_path)
    write_golden_inputs(tmp_path)
    if not numpy_loaded:  # a fresh interpreter; analyze of deltas.csv loads numpy during the call
        assert _fresh(ENVIRON_CHILD, argv) == {"numpy_loaded": False, "same": True}
        return
    before = dict(os.environ)
    run(capsys, *argv)
    assert dict(os.environ) == before


# ------------------------------------------------------ loglik --fd-check ---

WRONG_GRADIENTS = {
    "square missing": lambda s, st: -(s - st.mu) / st.sigma,
    "sign flipped": lambda s, st: (s - st.mu) / st.sigma**2,
    "mu dropped": lambda s, st: -s / st.sigma**2,
    "halved": lambda s, st: -0.5 * (s - st.mu) / st.sigma**2,
    "scaled by 1+1e-4": lambda s, st: -(1 + 1e-4) * (s - st.mu) / st.sigma**2,
    "nan": lambda s, st: np.full(s.shape, np.nan),
}


@pytest.mark.parametrize("stats_name", ["stats.csv", "floored_stats.csv"])
@pytest.mark.parametrize("wrong", sorted(WRONG_GRADIENTS))
def test_fd_check_catches_wrong_gradient(capsys, tmp_path, monkeypatch, stats_name, wrong):
    from genfields import cli

    for name in (stats_name, "samples.csv"):
        (tmp_path / name).write_text(GOLDEN["inputs"][name])
    monkeypatch.setattr(cli, "log_likelihood_grad", WRONG_GRADIENTS[wrong])
    code, out, err = run(capsys, "loglik", str(tmp_path / stats_name),
                         str(tmp_path / "samples.csv"), "--fd-check")
    assert code == 2
    assert "(FAILED, tolerance 1e-06)" in out
    assert err == "check failed: analytic gradient disagrees with finite differences\n"


@pytest.mark.parametrize("sample", ["0.0,1.5e308", "0.0,-1.7976931348623157e308"])
def test_fd_check_passes_at_the_top_of_the_float64_range(capsys, tmp_path, sample):
    # s_i + h_i would overflow here; the check steps at half scale instead
    (tmp_path / "st.csv").write_text("dim,mu,sigma\n0,0.0,1e-8\n1,0.0,1e200\n")
    (tmp_path / "s.csv").write_text(sample + "\n")
    code, out, err = run(capsys, "loglik", str(tmp_path / "st.csv"), str(tmp_path / "s.csv"),
                         "--fd-check")
    assert (code, err) == (0, "")
    assert "(ok, tolerance 1e-06)" in out


def test_loglik_non_finite_stats_names_file_row_and_column(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nf.csv").write_text("dim,mu,sigma\n0,0.0,1.0\n1,nan,1.0\n")
    (tmp_path / "s.csv").write_text("0.0,0.0\n")
    assert run(capsys, "loglik", "nf.csv", "s.csv") == (
        1, "", "Error: nf.csv: statistics CSV row 2, column 2: non-finite value nan\n")


def test_fd_check_evaluates_loglik_once_per_sample(capsys, tmp_path, monkeypatch):
    from genfields import cli

    for name in ("stats.csv", "samples.csv"):
        (tmp_path / name).write_text(GOLDEN["inputs"][name])
    calls = []
    monkeypatch.setattr(cli, "log_likelihood", lambda s, st: calls.append(1) or log_likelihood(s, st))
    code, _, _ = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(tmp_path / "samples.csv"),
                     "--fd-check")
    assert code == 0
    assert len(calls) == 3  # one per sample; the check itself evaluates no log-likelihood


def test_fd_check_passes_on_floored_near_constant_columns(capsys, tmp_path):
    # 200 columns of one value plus a few ulps of jitter: every sigma is floored.
    rng = np.random.default_rng(606)
    base = rng.normal(scale=10.0, size=200)
    styles = base + np.spacing(base) * rng.integers(-3, 4, size=(16, 200))
    save_vectors_csv(str(tmp_path / "styles.csv"), styles)
    assert main(["stats", str(tmp_path / "styles.csv"), "--output", str(tmp_path / "stats.csv")]) == 0
    stats = parse_stats_csv((tmp_path / "stats.csv").read_text())
    assert (stats.sigma == stats.epsilon_floor).all()
    code, out, err = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(tmp_path / "styles.csv"),
                         "--fd-check", "--format", "json")
    assert (code, err) == (0, "")
    assert max(json.loads(out)["fd_max_relative_error"]) < 1e-6
    # A fixed step over the same channel terms fails these columns.
    hi, lo = styles + 1e-5, styles - 1e-5
    fd = 0.5 * (((lo - stats.mu) / stats.sigma) ** 2 - ((hi - stats.mu) / stats.sigma) ** 2) / (hi - lo)
    g = -(styles - stats.mu) / stats.sigma**2
    assert np.max(np.abs(fd - g) / (1 + np.abs(g))) > 1e-6


@pytest.mark.parametrize("sample", ["1e9,0.5", "0.0,1e12", "1e146,0.5", "-3e7,-4e11"])
def test_fd_check_passes_far_from_the_mean(capsys, tmp_path, sample):
    # A one-sigma step rounds away on the floored channel or cancels in z^2; at 1e146
    # an unfactored difference of squares overflows.
    (tmp_path / "stats.csv").write_text("dim,mu,sigma\n0,0.0,1e-8\n1,0.0,1.0\n")
    (tmp_path / "far.csv").write_text(sample + "\n")
    code, out, err = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(tmp_path / "far.csv"),
                         "--fd-check", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fd_max_relative_error"][0] < 1e-15


def test_fd_check_passes_near_a_mean_far_above_sigma(capsys, tmp_path):
    # s_i ± max(sigma_i, |s_i - mu_i|) rounds back to s_i at 1e20; the step is taken in s - mu.
    (tmp_path / "stats.csv").write_text("dim,mu,sigma\n0,1e20,1.0\n")
    (tmp_path / "near.csv").write_text("1e20\n100000000000000016384\n")
    code, out, err = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(tmp_path / "near.csv"),
                         "--fd-check", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fd_max_relative_error"] == [0.0, 0.0]


def test_loglik_and_gradient_at_the_mean_are_positive_zero(capsys, tmp_path):
    (tmp_path / "stats.csv").write_text("dim,mu,sigma\n0,1e20,1.0\n")
    (tmp_path / "mean.csv").write_text("1e20\n")
    code, out, err = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(tmp_path / "mean.csv"),
                         "--grad", "--fd-check")
    assert (code, err) == (0, "")
    assert data_lines(out) == [
        "sample 0: loglik = 0.0",
        "  gradient: 0.0",
        "note: finite-difference check: max relative error 0.000e+00 (ok, tolerance 1e-06)",
    ]


@pytest.mark.parametrize("extra", [(), ("--fd-check",), ("--grad",)])
def test_loglik_overflow_exits_1(capsys, tmp_path, extra):
    (tmp_path / "stats.csv").write_text("dim,mu,sigma\n0,0.0,1e-8\n1,0.0,1.0\n")
    samples = tmp_path / "far.csv"
    samples.write_text("0.0,0.0\n1e200,0.5\n")
    code, out, err = run(capsys, "loglik", str(tmp_path / "stats.csv"), str(samples), *extra)
    assert (code, out, err) == (1, "", f"Error: {samples}: sample 1: log-likelihood overflows float64\n")


# ------------------------------------------------------ input boundaries ---

@pytest.mark.parametrize("field, value, named", [
    ("id", "c,0", "layer 0 id 'c,0'"),
    ("style_label", "s\n1", "conv0: style_label 's\\n1'"),
])
def test_report_breaking_arch_names_exit_1(capsys, tmp_path, field, value, named):
    doc = json.loads(serialize_arch(stylegan2_preset(8)))
    doc["layers"][0][field] = value
    path = tmp_path / "comma.arch"
    path.write_text(json.dumps(doc))
    for fmt in ("table", "csv", "json"):
        code, out, err = run(capsys, "fields", "--arch", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert "comma.arch" in err and named in err


def test_arch_type_error_names_file_layer_and_field(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(serialize_arch(stylegan2_preset(8)))
    doc["layers"][0]["kernel"] = 1.5
    (tmp_path / "my.arch").write_text(json.dumps(doc))
    assert run(capsys, "fields", "--arch", "my.arch") == (
        1, "", "Error: my.arch: conv0: kernel must be an integer, got 1.5\n")


def _two_layers(size):
    layer = {"kernel": size, "upsample": size, "channels_in": 4, "channels_out": 4}
    return json.dumps({"name": "huge", "base_resolution": 4, "layers": [layer, layer]})


@pytest.mark.parametrize("text, message", [
    ('{"name": "x", "base_resolution": ' + "4" * 5000 + ', "layers": []}',
     f"malformed architecture file: an integer has more than {sys.get_int_max_str_digits()} digits"),
    ("[" * 100_000, "malformed architecture file: arrays or objects nested too deeply"),
    (_two_layers(10**3000), f"conv0: kernel must be at most {2**63}"),
], ids=["long-integer", "deep-nesting", "oversized"])
def test_undecodable_or_oversized_arch_exits_1(capsys, tmp_path, monkeypatch, text, message):
    # None may leave main as a RecursionError or print Python's digit-limit message.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.arch").write_text(text)
    for command in (["fields"], ["plan", "--layers", "conv0..conv0"], ["verify"]):
        assert run(capsys, *command, "--arch", "bad.arch") == (1, "", f"Error: bad.arch: {message}\n")


def test_sim_base_over_the_oracle_limit_exits_1(capsys, tmp_path, monkeypatch):
    # conv0's side would be sim_base * 2**62, of over 4300 digits at 4,295 nines, which
    # the map-limit message could not print.
    monkeypatch.chdir(tmp_path)
    layers = [{"kernel": 3, "upsample": u, "channels_in": 4, "channels_out": 4} for u in (2**62, 1)]
    (tmp_path / "big.arch").write_text(json.dumps({"name": "big", "base_resolution": 1, "layers": layers}))
    for sim_base in ("9" * 4295, str(MAX_ORACLE_CELLS + 1)):
        code, out, err = run(capsys, "verify", "--arch", "big.arch", "--sim-base", sim_base, "--numeric")
        assert (code, out) == (1, "")
        assert err == f"Error: --sim-base: sim_base is above the oracle limit of {MAX_ORACLE_CELLS} cells\n"


def test_preset_resolution_of_18_digits_is_unsupported(capsys):
    code, out, err = run(capsys, "fields", "--preset", "stylegan2-" + "9" * 18)
    assert (code, out) == (1, "")
    assert err.startswith(f"Error: unsupported preset resolution {'9' * 18}; expected one of 8, ")


def test_plan_counts_dims_past_sys_maxsize(capsys, tmp_path):
    big = 2**63
    arch = ArchSpec("wide", 1, (LayerSpec("conv0", 3, 1, big, big), LayerSpec("conv1", 3, 1, big, big)))
    path = tmp_path / "wide.arch"
    path.write_text(serialize_arch(arch))
    code, out, err = run(capsys, "plan", "--arch", str(path), "--layers", "conv1..conv1")
    assert (code, err) == (0, "")
    assert f"enabled_dims: {big} of {2 * big}\n" in out
    assert f"mask_rle: 0*{big} 1*{big}\n" in out


def test_analyze_histogram_size_limit_exits_1(capsys, monkeypatch, tmp_path):
    from genfields import sparsity

    monkeypatch.setattr(sparsity, "MAX_HISTOGRAM_CELLS", 100)
    path = tmp_path / "deltas.csv"
    save_vectors_csv(str(path), np.arange(1.0, 13.0).reshape(3, 4))
    code, out, err = run(capsys, "analyze", str(path), "--bins", "34")
    assert (code, out) == (1, "")
    assert err == "Error: bins=34 over 3 tests needs 102 histogram cells, above the limit of 100\n"


# ------------------------------------------------------- input and output limits ---

def test_over_limit_csv_cell_exits_1(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("0.5,1.0\n1.5," + "2" * 140_001 + "\n")
    code, out, err = run(capsys, "stats", str(path))
    assert (code, out) == (1, "")
    assert err == f"Error: {path}: vector CSV line 2: field larger than field limit (131072)\n"


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE_FLOATS, st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4),
                            st.lists(st.integers(), max_size=4), st.lists(FINITE_FLOATS, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps_property(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


def test_json_writer_edge_values():
    for doc in ([-0.0, 5e-324, 1e308, 10**30, -(10**30)], ["h\u00e9llo\x01\"\\\u2028"], [], {}, (), [()],
                {"a": {}, "b": [[]]}, [np.float64(0.5), 1.0], (1, (2.5, None)), [True, 1], [1.0, 1],
                {"a": np.float64(0.5), "b": True}, {"a": [], "b": {}}, [[1, 2.5], "x"]):
        assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize("doc", [float("nan"), float("inf"), [1.0, -float("inf")], {"a": [np.float64("nan")]},
                                 {"a": {"b": np.float64("-inf")}}])
def test_json_writer_refuses_non_finite(doc):
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        _json_text(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("doc", [np.int64(1), [np.bool_(True)], {"a": {1, 2}}, [object()], {"a": np.int64(1)}])
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as got:
        _json_text(doc)
    assert str(got.value) == str(expected.value)


def test_json_report_refuses_non_finite(capsys, stats_and_samples, tmp_path, monkeypatch):
    stats_path, data = stats_and_samples
    sample_path = tmp_path / "sample.csv"
    save_vectors_csv(str(sample_path), data[:1])
    monkeypatch.setattr("genfields.cli.log_likelihood", lambda s, stats: float("nan"))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "loglik", str(stats_path), str(sample_path), "--format", "json",
                         "--output", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("Error: Out of range float values are not JSON compliant")
    assert not out_path.exists()
