"""Deleted twins stay deleted, checked by walking the tree (no git needed).

``tests/deleted_twins.txt`` holds one pattern per line with the paths it
must not match; CI's "Deleted twins stay deleted" step runs the same file
through ``git grep``. A hit here is a hit there, so a builder learns of a
re-introduced name before pushing.
"""

import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TWINS = ROOT / "tests" / "deleted_twins.txt"
SEPARATOR = " :: "
SKIPPED_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis"}


def twin_patterns():
    """``(line number, pathspecs, regex)`` for every pattern line."""
    entries = []
    for number, line in enumerate(TWINS.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        scope, sep, pattern = line.partition(SEPARATOR)
        assert sep and scope.split() and pattern, f"{TWINS.name}:{number}: malformed line"
        entries.append((number, scope.split(), re.compile(pattern)))
    return entries


def scoped_files(pathspec):
    """The files under ``pathspec`` (a file, a directory or a glob)."""
    if any(ch in pathspec for ch in "*?["):
        return sorted(p for p in ROOT.glob(pathspec) if p.is_file())
    target = ROOT / pathspec
    if target.is_file():
        return [target]
    found = []
    for dirpath, dirnames, filenames in os.walk(target):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIPPED_DIRS and not d.endswith(".egg-info")
        )
        found.extend(Path(dirpath) / name for name in sorted(filenames))
    return found


def hits(pathspecs, regex):
    """``path:line: text`` for each line in scope that ``regex`` matches."""
    out = []
    for pathspec in pathspecs:
        for path in scoped_files(pathspec):
            if path == TWINS:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    out.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    return out


PATTERNS = twin_patterns()


def test_every_pattern_line_parses_and_its_scope_exists():
    # 16 from the eleven `git grep` lines CI ran before the file existed,
    # plus the line for the four mechanisms no experiment reached.
    assert len(PATTERNS) >= 17
    for number, pathspecs, _ in PATTERNS:
        for pathspec in pathspecs:
            assert scoped_files(pathspec), f"{TWINS.name}:{number}: {pathspec} matches no file"


@pytest.mark.parametrize(
    "pathspecs, regex",
    [entry[1:] for entry in PATTERNS],
    ids=[f"line{entry[0]}" for entry in PATTERNS],
)
def test_deleted_twin_stays_deleted(pathspecs, regex):
    found = hits(pathspecs, regex)
    assert not found, f"{regex.pattern!r} is back:\n" + "\n".join(found)
