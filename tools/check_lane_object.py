#!/usr/bin/env python3
"""Check the compiled LDLT lane kernels for instructions that break lane bits.

    python3 tools/check_lane_object.py <path/to/splu.cpp.o>

Every lane of a batched LDLT factor and solve must perform the IEEE
operations of a one-lane factor (docs/PERFORMANCE.md, "Determinism
guarantee", item 5). This disassembles the object with `objdump -dr` and
fails (exit 1) when

  - any function holds a fused multiply-add (vfmadd, vfmsub, vfnmadd,
    vfnmsub, vfmaddsub, vfmsubadd): a fused product rounds once where an
    unfused one rounds twice, so a clone that fuses computes other bits;
  - any lane_factor or lane_solve clone calls __divdc3: std::complex
    division, which the kernels replace by one D^-1 formula of real
    divisions formed across all lanes at once.
"""

import re
import subprocess
import sys

FMA = re.compile(r"\bv(fn?m(add|sub)|fmaddsub|fmsubadd)\w*")
FUNC = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    listing = subprocess.run(["objdump", "-dr", "--no-show-raw-insn", sys.argv[1]],
                             check=True, capture_output=True, text=True).stdout
    func = None
    fused, divisions, kernels = {}, {}, set()
    for line in listing.splitlines():
        m = FUNC.match(line)
        if m:
            func = m.group(1)
            if "lane_factor" in func or "lane_solve" in func:
                kernels.add(func)
            continue
        if func is None:
            continue
        if FMA.search(line.split("#")[0]):
            fused[func] = fused.get(func, 0) + 1
        if "__divdc3" in line and func in kernels:
            divisions[func] = divisions.get(func, 0) + 1
    if not kernels:
        print(f"no lane_factor/lane_solve symbols in {sys.argv[1]}", file=sys.stderr)
        return 1
    for func, count in sorted(fused.items()):
        print(f"fused multiply-add x{count} in {func}", file=sys.stderr)
    for func, count in sorted(divisions.items()):
        print(f"__divdc3 x{count} in {func}", file=sys.stderr)
    if fused or divisions:
        return 1
    print(f"{len(kernels)} lane kernel symbols: no fused multiply-add, no __divdc3")
    return 0


if __name__ == "__main__":
    sys.exit(main())
