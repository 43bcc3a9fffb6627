"""one-sided-index: a PMTBR_REQUIRE that bounds an ``*_idx`` only above.

``Matrix::operator()`` checks bounds only in Debug builds, so a contract
that reads ``out_idx < sys.num_outputs()`` lets a negative index through
to an out-of-bounds read in every optimized build. An ``*_idx``
identifier bounded from above (``x < n``, ``x <= n``, ``n > x``) must
also be bounded from below (``0 <= x``, ``x >= 0``) in the same
condition.
"""

from __future__ import annotations

import re

from analyze import lexer, registry

REQUIRE_RE = re.compile(r"\bPMTBR_REQUIRE\s*\(")
# An *_idx identifier that is not a call (col_idx() is an accessor).
IDX_RE = re.compile(r"\b([A-Za-z_]\w*_idx)\b(?!\s*\()")


def condition(args: str) -> str:
    """The first macro argument: text before the first top-level comma."""
    depth = 0
    for i, c in enumerate(args):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            return args[:i]
    return args


def bounded_above(cond: str, name: str) -> bool:
    x = re.escape(name)
    return re.search(rf"\b{x}\s*<(?!<)|(?<![->])>=?\s*{x}\b", cond) is not None


def bounded_below(cond: str, name: str) -> bool:
    x = re.escape(name)
    return re.search(rf"\b0\s*<=?\s*{x}\b|\b{x}\s*>=?\s*0\b", cond) is not None


@registry.register(
    "one-sided-index",
    "PMTBR_REQUIRE bounding an *_idx from above but not from below")
def run(ctx):
    out = []
    for path in ctx.cpp_files():
        clean = ctx.clean_text(path)
        for m in REQUIRE_RE.finditer(clean):
            close = lexer.matching_brace(clean, m.end() - 1)
            if close == -1:
                continue
            cond = condition(clean[m.end():close])
            for name in dict.fromkeys(IDX_RE.findall(cond)):
                if bounded_above(cond, name) and not bounded_below(cond, name):
                    out.append(ctx.finding(
                        "one-sided-index", path, lexer.line_of(clean, m.start()), name,
                        f"`{name}` is bounded only from above — add `0 <= {name}`: "
                        "release builds do no bounds check, so a negative index "
                        "reads out of bounds"))
    return out
