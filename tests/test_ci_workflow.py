"""Guard on the CI workflow: one job per concern, every check a test.

Checks live in the test suites, where a local ``pytest`` runs them, not
in inline scripts in the workflow; the workflow stays at a handful of
jobs; and every directory of tests is selected by some job.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
MAX_JOBS = 5


def _jobs(text):
    """Job name -> the job's text (two-space keys under ``jobs:``)."""
    body = text.split("\njobs:\n", 1)[1]
    parts = re.split(r"^  ([A-Za-z0-9_-]+):\s*$", body, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _test_dirs():
    """Every directory holding a test module, relative to the root."""
    dirs = set()
    for top in ("tests", "perfbench/tests"):
        for path in (ROOT / top).rglob("test_*.py"):
            dirs.add(path.parent.relative_to(ROOT).as_posix())
    return dirs


def test_at_most_five_jobs():
    jobs = _jobs(WORKFLOW.read_text())
    assert jobs and len(jobs) <= MAX_JOBS, sorted(jobs)


def test_no_inline_python_scripts():
    inline = [line.strip() for line in WORKFLOW.read_text().splitlines()
              if re.search(r"\bpython3?\s+-(\s|$)", line)]
    assert inline == []


def test_every_test_directory_is_selected_by_a_job():
    # the path arguments of every pytest command in the workflow
    selected = {
        token.rstrip("/")
        for line in WORKFLOW.read_text().splitlines()
        if "pytest" in line and not line.lstrip().startswith("#")
        for token in line.split()
        if token.startswith(("tests", "perfbench/tests"))
    }
    unselected = [d for d in sorted(_test_dirs())
                  if not any(d == s or d.startswith(s + "/") for s in selected)]
    assert unselected == []
