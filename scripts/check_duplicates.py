#!/usr/bin/env python3
"""Cross-module duplicated-code check for the docs CI job (stdlib only).

`src/` should hold one implementation per job. This script normalizes every
`src/**/*.{hpp,cpp}` file (each line stripped of surrounding whitespace;
blank lines, `//` comment lines and brace-only lines such as `}` or `};`
dropped), slides a 6-line window over each file, and reports every window
whose text appears in two or more modules. A module is one basename's `.hpp`/`.cpp`
pair, so a header repeating its own source file does not count.

Prints the number of shared windows (and appends it to $GITHUB_STEP_SUMMARY
when that is set), lists the modules that share each one, and exits
non-zero when the number is not 0.

Usage: python3 scripts/check_duplicates.py [repo_root]
"""

import os
import sys
from collections import defaultdict
from pathlib import Path

WINDOW = 6


def normalized_lines(path: Path):
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if set(line) <= {"{", "}", ";"}:
            continue
        lines.append(line)
    return lines


def module_of(root: Path, path: Path) -> str:
    return str(path.relative_to(root).with_suffix(""))


def shared_windows(root: Path):
    """Maps each window seen in 2+ modules to the sorted list of them."""
    modules_of = defaultdict(set)
    src = root / "src"
    for pattern in ("*.hpp", "*.cpp"):
        for path in sorted(src.rglob(pattern)):
            module = module_of(root, path)
            lines = normalized_lines(path)
            for i in range(len(lines) - WINDOW + 1):
                modules_of[tuple(lines[i:i + WINDOW])].add(module)
    return {window: sorted(modules)
            for window, modules in modules_of.items() if len(modules) > 1}


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    shared = shared_windows(root)
    by_modules = defaultdict(int)
    for modules in shared.values():
        by_modules[" <-> ".join(modules)] += 1
    for modules, count in sorted(by_modules.items()):
        print(f"{count:4d} windows shared by {modules}")
    summary = (f"## Duplicated {WINDOW}-line windows across src/ modules: "
               f"{len(shared)}")
    print(summary)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as out:
            out.write(summary + "\n")
    return 1 if shared else 0


if __name__ == "__main__":
    sys.exit(main())
