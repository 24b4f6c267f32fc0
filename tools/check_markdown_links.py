#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links.

Scans every *.md file in the repository (excluding build/ and
.git/) for inline links and images `[text](target)`, and verifies
that each relative target resolves to an existing file or
directory. External links (http/https/mailto) and pure #anchors are
skipped; a `path#anchor` link is checked for the existence of
`path` only.

Usage: python3 tools/check_markdown_links.py [repo_root]
Exit code 0 if all links resolve, 1 otherwise.
"""

import re
import sys
from pathlib import Path

SKIP_DIRS = {"build", ".git"}
# Inline link/image: [text](target) — target ends at the first
# unescaped ')' or whitespace+title. Good enough for this repo's
# hand-written docs; fenced code blocks are stripped first.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.M | re.S)


def md_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check_file(md: Path, root: Path):
    errors = []
    text = FENCE_RE.sub("", md.read_text(encoding="utf-8"))
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        if path_part.startswith("/"):
            resolved = root / path_part.lstrip("/")
        else:
            resolved = md.parent / path_part
        if not resolved.exists():
            errors.append((md.relative_to(root), target))
    return errors


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parent.parent
    all_errors = []
    checked = 0
    for md in md_files(root):
        checked += 1
        all_errors.extend(check_file(md, root))
    if all_errors:
        for md, target in all_errors:
            print(f"BROKEN  {md}: ({target})")
        print(f"\n{len(all_errors)} broken link(s) "
              f"across {checked} markdown file(s)")
        return 1
    print(f"OK: all intra-repo links resolve "
          f"({checked} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
