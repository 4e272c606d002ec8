#!/usr/bin/env python3
"""Run one ``dynfuse`` command in a child process and print the child's own
peak resident set size.

On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
process that started it: fork and vfork share or copy the parent's memory,
and exec keeps the larger mark. A parent that imported numpy or once held
large arrays therefore inflates the number. This launcher imports only the
standard library, so what it prints is the command's own peak, above the
floor of a bare interpreter (about 10 MB).

  python3 scripts/peak_rss.py run --config data/manifest.json --out out
  python3 scripts/peak_rss.py --repo /path/to/parent/checkout run --config ...

The command runs on the ``src/`` of the checkout given by a leading
``--repo`` (default: the one holding this script), so a memory change and
its parent can be compared with one command each. Its stdout and stderr
both go to stderr; stdout gets one JSON line:
``{"command": ..., "exit_code": ..., "peak_rss_mb": ..., "wall_s": ...}``,
where ``peak_rss_mb`` is ``ru_maxrss`` / 1024, as perfbench reports it. The
exit code is the command's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def measure(args: list[str], repo: Path = REPO) -> dict:
    """Run ``dynfuse *args`` on ``repo``'s code to completion; its exit code,
    peak RSS and wall time."""
    env = dict(os.environ)
    src = str(repo.resolve() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "dynfuse.cli", *args],
                            stdout=sys.stderr, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return {"command": args[0], "exit_code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "wall_s": round(wall, 4)}


def main(argv: list[str]) -> int:
    repo = REPO
    if argv[:1] == ["--repo"] and len(argv) > 2:
        repo, argv = Path(argv[1]), argv[2:]
    if not argv or argv[0] in ("-h", "--help", "--repo"):
        asked = argv[:1] in (["-h"], ["--help"])
        print(__doc__, file=sys.stdout if asked else sys.stderr)
        return 0 if asked else 2
    report = measure(argv, repo)
    print(json.dumps(report))
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
