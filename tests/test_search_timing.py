import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "search_timing.py"


def search_timing(*args):
    done = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_one_json_line_per_shape_with_a_stable_digest():
    args = ("--shape", "3x20", "--shape", "4x30")
    first = search_timing(*args, "--repo", str(REPO))
    assert [(r["shape"], r["n"], r["d"], r["searches"]) for r in first] == [
        ("3x20", 3, 20, 35), ("4x30", 4, 30, 35)]
    assert all(r["median_ms"] > 0 and r["chunk_median_ms"] > 0 for r in first)
    assert all(re.fullmatch("[0-9a-f]{64}", r["digest"]) for r in first)
    assert first[0]["digest"] != first[1]["digest"]
    again = search_timing(*args)
    assert [r["digest"] for r in again] == [r["digest"] for r in first]


def test_bad_shape_is_a_usage_error():
    done = subprocess.run([sys.executable, str(SCRIPT), "--shape", "1x20"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "NxD" in done.stderr


def test_against_compares_two_checkouts_per_shape(tmp_path):
    args = ("--shape", "3x20", "--shape", "4x30", "--rounds", "2")
    rows = search_timing(*args, "--against", str(REPO))
    assert [(r["shape"], r["n"], r["d"], r["rounds"]) for r in rows] == [
        ("3x20", 3, 20, 2), ("4x30", 4, 30, 2)]
    assert all(r[key] > 0 for r in rows for key in (
        "median_ms", "against_median_ms", "ratio", "paired_ratio", "chunk_median_ms",
        "against_chunk_median_ms", "chunk_ratio", "chunk_paired_ratio"))
    assert all(r["digests_agree"] for r in rows)
    # a checkout whose searches score differently
    other = tmp_path / "other"
    shutil.copytree(REPO / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fusion = other / "src" / "dynfuse" / "fusion.py"
    text = fusion.read_text()
    assert text.count("SubsetScore(subset=subset, score=best_score)") == 1  # the one site
    fusion.write_text(text.replace("score=best_score)", "score=best_score + 1)"))
    rows = search_timing(*args, "--against", str(other))
    assert [r["digests_agree"] for r in rows] == [False, False]


def test_against_times_both_checkouts_in_one_process(tmp_path):
    # each copy appends its importing process's id to a file on import
    pids = tmp_path / "pids"
    sides = []
    for name in ("mine", "theirs"):
        side = tmp_path / name
        shutil.copytree(REPO / "src", side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        init = side / "src" / "dynfuse" / "__init__.py"
        init.write_text(init.read_text() + (
            f"\nimport os as _os\nwith open({str(pids)!r}, 'a') as _f:\n"
            "    _f.write(f'{_os.getpid()}\\n')\n"))
        sides.append(side)
    rows = search_timing("--shape", "3x20", "--rounds", "3", "--repo", str(sides[0]),
                         "--against", str(sides[1]))
    assert [(r["shape"], r["rounds"], r["digests_agree"]) for r in rows] == [
        ("3x20", 3, True)]
    imports = pids.read_text().split()
    assert len(imports) == 2 and len(set(imports)) == 1


def test_rounds_must_be_positive():
    done = subprocess.run([sys.executable, str(SCRIPT), "--rounds", "0"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "positive integer" in done.stderr


def test_spec_times_peaked_queries_against_itself(tmp_path):
    # 8 x 600 is a grid of two blocks, so the bound can prune
    spec = {"n_techniques": 8, "queries": 4, "database_size": 600,
            "peak_strength": 1.0, "alias_strength": 0.65, "alias_secondary": 0.5,
            "alias_correlation": 0.05, "noise_sigma": 0.3, "drift_period": 6,
            "failure_schedule": [[[1, 2]]] * 8, "r_window": 2, "gt_tolerance": 2}
    (tmp_path / "peaked.json").write_text(json.dumps(spec))
    args = ("--spec", str(tmp_path / "peaked.json"), "--seed", "3")
    alone, = search_timing(*args)
    assert (alone["shape"], alone["spec"], alone["searches"]) == ("8x600", "peaked", 28)
    assert re.fullmatch("[0-9a-f]{64}", alone["digest"])
    row, = search_timing(*args, "--rounds", "2", "--against", str(REPO))
    assert (row["shape"], row["spec"], row["rounds"]) == ("8x600", "peaked", 2)
    assert row["digests_agree"] and row["median_ms"] > 0 and row["chunk_median_ms"] > 0
