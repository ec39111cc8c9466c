#!/usr/bin/env python3
"""Fail when a function that touches a YMM register has no vzeroupper.

    python3 scripts/check_vzeroupper.py build/src/core/libuncertain_simd.a

Disassembles the archive (or object) with `objdump -d` and, for every
function whose body names a %ymm register, requires at least one
vzeroupper somewhere in that body. A function that returns or calls
out with the upper YMM halves dirty makes every later SSE-encoded
instruction pay the AVX-SSE transition penalty; the compiler normally
inserts the vzeroupper, but not on every path (a tail call into SSE
code, for instance), so this checks the emitted code rather than the
source. GCC's `.cold` split-off parts are folded into their parent
function.

Exit status: 0 when every YMM-using function clears the upper state,
1 when one does not (each is listed), 2 when objdump fails.
"""

import re
import subprocess
import sys

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
COLD_RE = re.compile(r"(\.cold| \[clone \.cold\])$")
YMM_RE = re.compile(r"\bymm\d+\b")


def scan(path):
    """Map each function in @p path to (touches_ymm, has_vzeroupper)."""
    done = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn",
                           path], capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"check_vzeroupper: objdump failed on {path}",
              file=sys.stderr)
        sys.exit(2)
    funcs = {}
    current = None
    for line in done.stdout.splitlines():
        match = FUNC_RE.match(line)
        if match:
            name = COLD_RE.sub("", match.group(1))
            current = funcs.setdefault(name, [False, False])
            continue
        if current is None or not line.startswith(" "):
            continue
        if YMM_RE.search(line):
            current[0] = True
        if "vzeroupper" in line:
            current[1] = True
    return funcs


def main():
    if len(sys.argv) != 2:
        print("usage: check_vzeroupper.py <lib.a>", file=sys.stderr)
        return 2
    path = sys.argv[1]
    funcs = scan(path)
    ymm = [name for name, (uses, _) in funcs.items() if uses]
    dirty = sorted(name for name, (uses, clears) in funcs.items()
                   if uses and not clears)
    for name in dirty:
        print(f"check_vzeroupper: {name} touches ymm registers but "
              f"never executes vzeroupper")
    if dirty:
        print(f"check_vzeroupper: FAIL {len(dirty)} of {len(ymm)} "
              f"ymm-using functions in {path}")
        return 1
    print(f"check_vzeroupper: OK {len(ymm)} ymm-using functions in "
          f"{path}, each with vzeroupper")
    return 0


if __name__ == "__main__":
    sys.exit(main())
