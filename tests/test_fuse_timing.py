import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "fuse_timing.py"
TINY = {"n_techniques": 3, "queries": 12, "database_size": 40, "peak_strength": 1.0,
        "alias_strength": 0.5, "noise_sigma": 0.1, "r_window": 1, "gt_tolerance": 1}


def fuse_timing(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)


def test_compares_two_checkouts_in_one_process_and_stops_on_a_difference(tmp_path):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY))
    done = fuse_timing("--against", str(REPO), "--spec", str(spec), "--rounds", "3")
    assert done.returncode == 0, done.stderr
    line, = (json.loads(text) for text in done.stdout.splitlines())
    assert (line["workload"], line["rounds"]) == ("tiny", 3)
    assert line["median_ms"] > 0 and line["against_median_ms"] > 0
    assert line["paired_ratio"] > 0 and 0 <= line["rounds_won"] <= 3
    assert line["minflt_per_call"] >= 0 and line["against_minflt_per_call"] >= 0
    assert line["peak_mib"] == line["against_peak_mib"] > 0
    # a checkout whose matches differ
    other = tmp_path / "other"
    shutil.copytree(REPO / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fusion = other / "src" / "dynfuse" / "fusion.py"
    text = fusion.read_text()
    assert text.count("fused.argmax(axis=1), mean, std") == 1
    fusion.write_text(text.replace("fused.argmax(axis=1), mean, std",
                                   "fused.argmin(axis=1), mean, std"))
    done = fuse_timing("--against", str(other), "--spec", str(spec), "--rounds", "1")
    assert done.returncode == 1
    assert "differ" in done.stderr and done.stdout == ""


def test_each_spec_gets_a_line_named_by_its_stem(tmp_path):
    paths = []
    for stem, size in (("small", 30), ("wide", 50)):
        paths += ["--spec", str(tmp_path / f"{stem}.json")]
        (tmp_path / f"{stem}.json").write_text(json.dumps({**TINY, "database_size": size}))
    done = fuse_timing("--against", str(REPO), *paths, "--rounds", "1")
    assert done.returncode == 0, done.stderr
    lines = [json.loads(text) for text in done.stdout.splitlines()]
    assert [(line["workload"], line["rounds"]) for line in lines] == [("small", 1),
                                                                       ("wide", 1)]
