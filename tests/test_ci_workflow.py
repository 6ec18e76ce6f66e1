"""The CI workflow names only files and local actions that exist.

Read as text with the stdlib, so the check needs nothing beyond the
pinned CI requirements: a step that runs a renamed or deleted script
fails here, in Tier-1, instead of on the next push.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

REPO_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests)/[\w./-]*\w|requirements[\w-]*\.txt)"
)
LOCAL_ACTION = re.compile(r"uses:\s*(\./[^\s#]+)")


def test_named_paths_exist():
    text = WORKFLOW.read_text(encoding="utf-8")
    named = set(REPO_PATH.findall(text))
    assert named, "no repo path found; has the workflow moved?"
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert missing == [], f"{WORKFLOW.name} names missing paths: {missing}"


def test_local_actions_exist():
    text = WORKFLOW.read_text(encoding="utf-8")
    missing = sorted(
        {a for a in LOCAL_ACTION.findall(text) if not (ROOT / a).is_dir()}
    )
    assert missing == [], f"{WORKFLOW.name} uses missing actions: {missing}"
