#!/usr/bin/env python3
"""Check the build policy of one CMake tree from its compile_commands.json.

    python3 tools/check_build_policy.py BUILD_DIR CONFIG

The hot-path libraries (xmig_cache, xmig_core, xmig_multicore) compile
at -O3 in the optimised configurations (RelWithDebInfo, Release) and
every other translation unit at the configuration's own level: -O2 in
RelWithDebInfo, -O3 in Release. Debug compiles everything at -O0. A
unit's level is the last -O flag on its command line, as for GCC and
Clang; without one it is -O0.

Exit status: 0 the tree follows the policy; 1 it does not; 2 usage or
I/O error.
"""

import json
import os
import re
import sys

HOT = ("xmig_cache", "xmig_core", "xmig_multicore")
# Measured slower at -O3: it must be in the tree, at the level of every
# other unit.
COLD = "xmig_workloads"
# Expected level by configuration: (hot libraries, every other unit).
LEVELS = {
    "RelWithDebInfo": ("-O3", "-O2"),
    "Release": ("-O3", "-O3"),
    "Debug": ("-O0", "-O0"),
}
TARGET = re.compile(r"CMakeFiles/([^/ ]+)\.dir/")


def level(command):
    """The optimisation level GCC applies: the last -O flag, or -O0."""
    flags = re.findall(r"(?:^|\s)(-O\w*)", command)
    return flags[-1] if flags else "-O0"


def main(argv):
    if len(argv) != 3 or argv[2] not in LEVELS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir, config = argv[1], argv[2]
    path = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(path) as f:
            units = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_build_policy: cannot read {path}: {e}",
              file=sys.stderr)
        return 2

    seen = {lib: 0 for lib in HOT + (COLD,)}
    wrong = []
    for unit in units:
        command = unit.get("command") or " ".join(unit.get("arguments", []))
        m = TARGET.search(command)
        target = m.group(1) if m else "?"
        if target in seen:
            seen[target] += 1
        want = LEVELS[config][0 if target in HOT else 1]
        if level(command) != want:
            wrong.append(f"{target}: {unit['file']} compiles at "
                         f"{level(command)}")

    missing = [lib for lib, n in seen.items() if n == 0]
    for lib in missing:
        print(f"no translation unit of {lib} in {path}")
    for line in wrong:
        print(line)
    print(f"{config}: {len(units)} translation units, "
          f"{sum(seen[lib] for lib in HOT)} in the hot libraries, "
          f"{len(wrong)} off the policy")
    return 1 if wrong or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
