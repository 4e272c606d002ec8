import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "paired_timing.py"
TINY = {"n_techniques": 3, "queries": 12, "database_size": 40, "peak_strength": 1.0,
        "alias_strength": 0.5, "noise_sigma": 0.1, "r_window": 1, "gt_tolerance": 1}
CALLS = ("run_dyn_mpf", "select_best_subsets")


def paired_timing(*args, script=SCRIPT):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=120)


def lines_of(done):
    assert done.returncode == 0, done.stderr
    return [json.loads(text) for text in done.stdout.splitlines()]


def checkout(tmp_path, name, *edit):
    """A copy of this checkout's src at ``tmp_path / name``; an ``edit``
    (old, new) replaces the one ``old`` in its fusion.py."""
    shutil.copytree(REPO / "src", tmp_path / name / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        fusion = tmp_path / name / "src" / "dynfuse" / "fusion.py"
        text = fusion.read_text()
        assert text.count(edit[0]) == 1
        fusion.write_text(text.replace(*edit))
    return tmp_path / name


def test_one_line_per_input_and_call(tmp_path):
    args = ["--shape", "3x20", "--rounds", "2"]
    for stem, size in (("small", 30), ("wide", 50)):
        (tmp_path / f"{stem}.json").write_text(json.dumps({**TINY, "database_size": size}))
        args += ["--spec", str(tmp_path / f"{stem}.json")]
    lines = lines_of(paired_timing("--against", str(REPO), *args))
    assert [(line["input"], line["call"], line["rounds"]) for line in lines] == [
        (name, call, 2) for name in ("small", "wide", "3x20") for call in CALLS]
    for line in lines:
        assert min(line[key] for key in ("median_ms", "against_median_ms", "paired_ratio",
                                         "peak_mib", "against_peak_mib")) > 0
        assert min(line["minflt_per_call"], line["against_minflt_per_call"]) >= 0
        assert 0 <= line["rounds_won"] <= 2


def test_both_sides_run_in_one_process(tmp_path):
    # each copy appends its name and its importing process's id to a file
    pids = tmp_path / "pids"
    for name in ("mine", "theirs"):
        init = checkout(tmp_path, name) / "src" / "dynfuse" / "__init__.py"
        init.write_text(init.read_text() + (
            f"\nimport os as _os\nwith open({str(pids)!r}, 'a') as _f:\n"
            f"    _f.write(f'{name} {{_os.getpid()}}\\n')\n"))
    (tmp_path / "mine" / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "mine" / "scripts")
    lines_of(paired_timing("--against", str(tmp_path / "theirs"), "--shape", "3x20",
                           "--rounds", "3",
                           script=tmp_path / "mine" / "scripts" / SCRIPT.name))
    names, processes = zip(*(line.split() for line in pids.read_text().splitlines()))
    assert set(names) == {"mine", "theirs"} and len(set(processes)) == 1


@pytest.mark.parametrize("old, new", [
    ("fused.argmax(axis=1), mean, std", "fused.argmin(axis=1), mean, std"),
    ("SubsetScore(subset=subset, score=best_score)",
     "SubsetScore(subset=subset, score=best_score + 1)"),
], ids=["match", "score"])
def test_a_difference_stops_the_tool(tmp_path, old, new):
    other = checkout(tmp_path, "other", old, new)
    done = paired_timing("--against", str(other), "--shape", "3x20", "--rounds", "1")
    assert done.returncode == 1
    assert "differ" in done.stderr and done.stdout == ""


@pytest.mark.parametrize("args, message", [
    (("--shape", "1x20"), "NxD"), (("--rounds", "0"), "positive integer"),
], ids=["shape", "rounds"])
def test_usage_error(args, message):
    done = paired_timing("--against", str(REPO), *args)
    assert done.returncode == 2 and message in done.stderr


def test_peaked_multi_block_spec(tmp_path):
    # 8 x 600 is a grid of two blocks, so the bound can prune
    spec = {"n_techniques": 8, "queries": 4, "database_size": 600,
            "peak_strength": 1.0, "alias_strength": 0.65, "alias_secondary": 0.5,
            "alias_correlation": 0.05, "noise_sigma": 0.3, "drift_period": 6,
            "failure_schedule": [[[1, 2]]] * 8, "r_window": 2, "gt_tolerance": 2}
    (tmp_path / "peaked.json").write_text(json.dumps(spec))
    lines = lines_of(paired_timing("--against", str(REPO), "--rounds", "2", "--seed", "3",
                                   "--spec", str(tmp_path / "peaked.json")))
    assert [(line["input"], line["call"]) for line in lines] == [
        ("peaked", call) for call in CALLS]
