"""pmtbr static-analysis framework.

A plugin-registry analyzer for the project's C++ tree, driven by the CMake
compile database. Each check is a small module under ``analyze/checks/``
registered by name; the driver (``analyze.cli``) loads the translation-unit
list from ``compile_commands.json`` (falling back to a directory walk),
runs every check, applies the shared ``check:file:token`` allowlist, and
fails on new findings *and* on stale allowlist entries.

Entry points:
  python3 tools/analyze/run.py [roots...] [-p BUILDDIR]
  python3 tools/analyze       (directory execution)

When the libclang Python bindings are importable, checks may refine their
findings on the AST (``analyze.clangast``); otherwise every check runs on
the built-in comment/string-stripping tokenizer, which is the fully
supported baseline.
"""

__all__ = ["cli", "context", "findings", "registry"]
