"""Tests of the benchmark itself.

Run from the root of the repository::

    python -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test
collection: the last ones start real benchmark runs.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from run import parse_importtime  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.MAKERS))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    info_a, _ = gen.generate(workload, 5, str(tmp_path / "a"))
    info_b, _ = gen.generate(workload, 5, str(tmp_path / "b"))
    gen.generate(workload, 6, str(tmp_path / "c"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert info_a == info_b
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert differ, "another seed must give other inputs"


def test_generated_arrays_match_the_files(tmp_path):
    _, data = gen.generate("style-bulk", 3, str(tmp_path))
    with open(tmp_path / "styles.csv", encoding="utf-8") as fh:
        parsed = np.array([[float(c) for c in ln.split(",")] for ln in fh.read().splitlines()])
    assert np.array_equal(parsed, data["styles"])


def span(sid, parent, start, end, name="f", layer="x"):
    return tracing.Span(op=0, sid=sid, parent=parent, name=name, layer=layer, start=start, end=end)


def test_self_time_on_a_hand_built_tree():
    spans = [
        span(0, None, 0.0, 10.0, tracing.ROOT, "cli"),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracing.nesting_violations(spans) == []


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 3.0, 7.0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_children_longer_than_parent_are_reported():
    spans = [span(0, None, 0.0, 2.0), span(1, 0, 0.0, 1.5), span(2, 0, 0.5, 2.0)]
    assert len(tracing.nesting_violations(spans)) == 1


def test_layer_time_counts_nested_calls_of_one_layer_once():
    spans = [
        span(0, None, 0.0, 10.0, tracing.ROOT, "cli"),
        span(1, 0, 1.0, 9.0, "verify_arch", "oracle"),
        span(2, 1, 2.0, 5.0, "boolean_footprint", "oracle"),
        span(3, 0, 9.0, 9.5, "ms_ssim", "losses"),
        span(4, None, 20.0, 21.0, "reconstruction_loss", "losses"),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 1.5
    assert m["oracle.boolean_s"] == 3.0
    assert m["oracle.calls"] == 1
    assert m["losses.ms_ssim_s"] == 0.5
    assert m["losses.other_s"] == 1.0


def test_parse_importtime_attributes_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     scipy._lib",
        "import time:        20 |         50 |   scipy",
        "import time:         5 |        205 | genfields",
        "import time:         7 |          7 | click",
        "import time:        10 |        222 | genfields.cli",
    ])
    got = parse_importtime(text)
    assert got["startup.import_s"] == pytest.approx(222e-6)
    assert got["startup.import_s.numpy"] == pytest.approx(150e-6)
    assert got["startup.import_s.scipy"] == pytest.approx(50e-6)
    assert got["startup.import_s.click"] == pytest.approx(7e-6)
    assert got["startup.import_s.genfields"] == pytest.approx(15e-6)


def test_checks_catch_a_wrong_field_and_an_over_bug():
    arch = checks.Arch.stylegan2(8)
    rows = [f"{lid},s,{arch.input_resolution(i)},{arch.field(i)},{cin}"
            for i, (_, _, cin, lid) in enumerate(arch.layers)]
    good = "# genfields\nlayer_id,style_label,input_resolution,generative_field,channels_in\n"
    checks.check_fields(good + "\n".join(rows) + "\n", "csv", arch)
    with pytest.raises(checks.CheckError):
        checks.check_fields(good + "\n".join(rows).replace(",3,512", ",4,512") + "\n", "csv", arch)
    verify = {"results": [{"layer_id": lid, "analytic": arch.field(i), "footprint": arch.field(i) + 1,
                           "match_class": "OVER-BUG"} for i, lid in enumerate(arch.ids())],
              "notes": ["numeric executor agreement: ok"]}
    with pytest.raises(checks.CheckError):
        checks.check_verify(json.dumps(verify), "json", arch)


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in metrics.PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(gen.MAKERS)


def _git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")), reason="not a git checkout")
def test_a_run_leaves_git_status_unchanged():
    before = _git_status()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-interactive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    assert _git_status() == before
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work"))


def test_fails_without_the_program_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
