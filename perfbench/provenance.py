"""Where a result came from: the source digest of the package and, when the
checkout is a git repository, its commit."""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path


def source_digest(src: Path) -> str:
    """Short sha256 over the package's .py files (paths and contents)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None
