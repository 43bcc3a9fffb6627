"""alloc-in-parallel: heap allocation inside parallel_for/parallel_try_map
lambda bodies.

The sampling pipeline's scaling is dominated by what each worker does per
index; a heap allocation (or container growth) inside the body serializes
workers on the allocator lock and poisons the thread sweep. Per-index
temporaries belong outside the lambda (hoisted, or per-thread), and
results land in pre-sized storage — which is exactly how parallel_try_map
is built. Sanctioned exceptions are allowlisted with a justification.

The check finds each ``parallel_for(...)`` /
``parallel_try_map<...>(...)`` call in src/, brace-matches the lambda
argument's body, and flags allocation expressions inside it — including
``Matrix`` declarations, whose storage is a heap-backed vector (the GEMM
kernel packs into caller-allocated buffers for exactly this reason).
"""

from __future__ import annotations

import re

from analyze import lexer, registry

CALL_RE = re.compile(r"\bparallel_(?:for|try_map)\b")

ALLOC_RES = [
    (re.compile(r"\bnew\b(?!\s*\()"), "new"),
    (re.compile(r"\bnew\s*\("), "new"),
    (re.compile(r"\bstd::make_unique\b|\bmake_unique\b"), "make_unique"),
    (re.compile(r"\bstd::make_shared\b|\bmake_shared\b"), "make_shared"),
    (re.compile(r"\b(?:std::)?malloc\s*\("), "malloc"),
    (re.compile(r"\b(?:std::)?calloc\s*\("), "calloc"),
    (re.compile(r"\b(?:std::)?realloc\s*\("), "realloc"),
    (re.compile(r"\.\s*resize\s*\("), "resize"),
    (re.compile(r"\.\s*reserve\s*\("), "reserve"),
    (re.compile(r"\.\s*push_back\s*\("), "push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), "emplace_back"),
    # A Matrix object owns a heap vector, so declaring one per index is an
    # allocation too. References (Matrix<T>& / const MatD&) bind existing
    # storage and do not match: the type must be followed by whitespace and
    # a declarator, not by &/*.
    (re.compile(r"\b(?:la::)?(?:Matrix\s*<[^<>;(){}&]*>|MatD|MatC)\s+[A-Za-z_]\w*\s*[({=;]"),
     "matrix-decl"),
]

# The pool implementation itself allocates (job state, queued
# std::functions) — that is setup cost outside the per-index body.
OWNER_FILES = {"src/util/thread_pool.hpp", "src/util/thread_pool.cpp"}


def _lambda_bodies(clean: str) -> list[tuple[int, int]]:
    """(start, end) offsets of every lambda body passed to a parallel_for
    or parallel_try_map call in comment-stripped text."""
    bodies = []
    for m in CALL_RE.finditer(clean):
        # Opening paren of the call (skips template args like <MatD>).
        call_open = clean.find("(", m.end())
        if call_open == -1:
            continue
        call_close = lexer.matching_brace(clean, call_open)
        if call_close == -1:
            continue
        # Lambdas among the call arguments: capture list at paren depth 1.
        pos = call_open + 1
        while pos < call_close:
            c = clean[pos]
            if c == "[":
                cap_close = lexer.matching_brace(clean, pos)
                if cap_close == -1:
                    break
                body_open = clean.find("{", cap_close)
                if body_open == -1 or body_open > call_close:
                    break
                body_close = lexer.matching_brace(clean, body_open)
                if body_close == -1:
                    break
                bodies.append((body_open, body_close))
                pos = body_close + 1
            elif c in "({":
                skip = lexer.matching_brace(clean, pos)
                if skip == -1:
                    break
                pos = skip + 1
            else:
                pos += 1
    return bodies


@registry.register(
    "alloc-in-parallel",
    "heap allocation / container growth inside parallel_for|try_map bodies")
def run(ctx):
    out = []
    for path in ctx.cpp_files(under="src"):
        if ctx.rel(path) in OWNER_FILES:
            continue
        clean = ctx.clean_text(path)
        if "parallel_" not in clean:
            continue
        for start, end in _lambda_bodies(clean):
            body = clean[start:end]
            for pat, token in ALLOC_RES:
                for m in pat.finditer(body):
                    line = lexer.line_of(clean, start + m.start())
                    out.append(ctx.finding(
                        "alloc-in-parallel", path, line, token,
                        f"`{token}` inside a parallel_for/parallel_try_map "
                        "body — per-index heap traffic serializes workers "
                        "on the allocator; hoist the allocation or "
                        "allowlist with a justification"))
    return out
