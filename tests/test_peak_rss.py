import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "peak_rss.py"


def peak_rss(*args, cwd):
    done = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 1, (done.stdout, done.stderr)
    return done.returncode, json.loads(lines[0]), done.stderr


def test_launcher_imports_no_numpy():
    code = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
            "print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_reports_the_child_peak_and_exit_code(tmp_path):
    spec = dict(n_techniques=3, queries=12, database_size=40, peak_strength=1.0,
                alias_strength=0.4, noise_sigma=0.0, r_window=1, seed=5)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, report, stderr = peak_rss("synth", "--spec", "spec.json", "--out", "data",
                                    cwd=tmp_path)
    assert code == 0 and report["exit_code"] == 0
    assert '"status": "ok"' in stderr  # the command's own output
    code, report, _ = peak_rss("run", "--config", "data/manifest.json",
                               "--out", "out", cwd=tmp_path)
    assert code == 0
    assert report["command"] == "run"
    # numpy alone takes the child above 15 MB; a whole test process is larger
    assert 15 < report["peak_rss_mb"] < 400
    assert (tmp_path / "out" / "run_summary.json").exists()
    code, report, _ = peak_rss("run", "--config", "missing.json", cwd=tmp_path)
    assert code == report["exit_code"] == 2


def test_repo_picks_that_checkouts_code(tmp_path):
    package = tmp_path / "other" / "src" / "dynfuse"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\nprint('other checkout', sys.argv[1:])\nsys.exit(7)\n")
    code, report, stderr = peak_rss("--repo", str(tmp_path / "other"), "run", "-x",
                                    cwd=tmp_path)
    assert code == report["exit_code"] == 7
    assert report["command"] == "run"
    assert "other checkout ['run', '-x']" in stderr
