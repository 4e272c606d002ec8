import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", REPO / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_are_stable_and_ignore_the_scratch_path(tmp_path):
    script = load_script()
    spec = dict(script.SPEC, queries=8, database_size=200)
    runs = []
    for name in ("a", "longer-name"):
        work = tmp_path / name
        work.mkdir()
        runs.append(script.output_digests(REPO, work, spec=spec, f_values=(1, 3),
                                          demos=False))
    assert runs[0] == runs[1]
    assert list(runs[0]) == ["synth", "run-F1", "run-F3", "sweep"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in runs[0].values())
    assert runs[0]["run-F1"] != runs[0]["run-F3"]
