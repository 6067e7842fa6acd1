"""Source trees for the A/B tools: a git ref extracted with ``git archive``, or the working tree."""

from __future__ import annotations

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit_of(ref: str) -> str:
    """Full commit hash of ``ref`` in this repository."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def working_tree_label() -> str:
    """'<HEAD short hash>', with '+edits' when tracked files differ from HEAD."""
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", "HEAD", "--"]).returncode != 0
    return head + ("+edits" if dirty else "")


def extract(ref: str, dest: Path) -> Path:
    """Write the committed files of ``ref`` into the new directory ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit_of(ref)],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def trees(parent_ref: str, change_ref: str | None, scratch: Path) -> dict[str, tuple[Path, str]]:
    """{'parent': (dir, label), 'change': (dir, label)}; the change is the working tree unless a ref is given."""
    parent = (extract(parent_ref, scratch / "parent"), f"{parent_ref} ({commit_of(parent_ref)[:10]})")
    if change_ref is None:
        change = (ROOT, f"working tree ({working_tree_label()})")
    else:
        change = (extract(change_ref, scratch / "change"), f"{change_ref} ({commit_of(change_ref)[:10]})")
    return {"parent": parent, "change": change}
