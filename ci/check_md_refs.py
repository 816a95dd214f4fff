#!/usr/bin/env python3
"""Fail when the code or its documentation names a markdown file that does
not exist.

Scanned: every Rust source file, and every markdown file reachable by name
from README.md or from a scanned file. Two markdown files are not scanned:
CHANGES.md, a history that names files later removed, and SNIPPETS.md,
which quotes other repositories and names their files.

A name is a `*.md` path outside a URL. It resolves when it exists relative
to the naming file's directory or to one of that directory's ancestors up
to the repository root, so "See README.md" in voicebench/src/main.rs names
voicebench/README.md.

Usage (from the repository root): python3 ci/check_md_refs.py
"""

import os
import re
import subprocess
import sys

NOT_SCANNED = {"CHANGES.md", "SNIPPETS.md"}
URL = re.compile(r"[a-z]+://\S+")
NAME = re.compile(r"(?<![\w./-])[\w.-][\w./-]*\.md\b")


def tracked_sources():
    """Rust files under version control, plus new ones not ignored."""
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return [path for path in out.splitlines() if os.path.isfile(path)]


def resolve(name, naming_file):
    """The repository path `name` refers to from `naming_file`, or None."""
    directory = os.path.dirname(naming_file)
    while True:
        path = os.path.normpath(os.path.join(directory, name))
        if os.path.isfile(path):
            return path
        if not directory:
            return None
        directory = os.path.dirname(directory)


def main():
    queue = ["README.md"] + tracked_sources()
    seen = set(queue)
    missing = []
    while queue:
        path = queue.pop()
        with open(path, encoding="utf-8") as file:
            lines = file.read().splitlines()
        for number, line in enumerate(lines, 1):
            for name in NAME.findall(URL.sub("", line)):
                target = resolve(name, path)
                if target is None:
                    missing.append(f"{path}:{number}: names missing {name}")
                elif target not in seen and os.path.basename(target) not in NOT_SCANNED:
                    seen.add(target)
                    queue.append(target)
    for entry in sorted(missing):
        print(entry)
    if missing:
        print(f"{len(missing)} reference(s) to missing markdown files")
        return 1
    print(f"{len(seen)} files scanned: every markdown file they name exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
