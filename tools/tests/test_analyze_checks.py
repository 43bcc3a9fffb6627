#!/usr/bin/env python3
"""Unit tests for the analyzer check plugins (tools/analyze/checks/).

Each test builds a throwaway mini-repo in a temp directory with the same
src/ layout the real checks scope on, runs one check through the normal
Context, and asserts on the finding keys. Run directly or via ctest
(AnalyzeChecks.UnitTests).
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import analyze.checks  # noqa: F401  (registers everything)
from analyze import lexer, registry
from analyze.context import Context


def make_repo(tmp: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        p = tmp / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return tmp


def run_check(repo: Path, name: str, roots=("src",)):
    ctx = Context(repo, [repo / r for r in roots])
    return registry.all_checks()[name].fn(ctx)


class LexerTest(unittest.TestCase):
    def test_line_comment_stripped(self):
        self.assertEqual(lexer.clean_text("a; // x.lock()\nb;"), "a; \nb;")

    def test_block_comment_preserves_lines(self):
        out = lexer.clean_text("a;/* one\n two */b;")
        self.assertEqual(out, "a;\nb;")
        self.assertEqual(out.count("\n"), 1)

    def test_string_contents_blanked(self):
        self.assertEqual(lexer.clean_text('f("x.lock()");'), 'f("");')

    def test_escaped_quote_in_string(self):
        self.assertEqual(lexer.clean_text(r'f("a\"b"); g();'), 'f(""); g();')

    def test_char_literal(self):
        self.assertEqual(lexer.clean_text("c = '\\n'; d;"), "c = ''; d;")

    def test_raw_string(self):
        # Contents blanked; the R prefix survives as plain text.
        self.assertEqual(lexer.clean_text('s = R"(lock())"; t;'), 's = R""; t;')

    def test_identifier_ending_in_r_is_not_raw_prefix(self):
        self.assertEqual(lexer.clean_text('LOGR"x"; y;'), 'LOGR""; y;')

    def test_matching_brace(self):
        text = "f(a, [&](int i) { g({1, 2}); })"
        open_brace = text.index("{")
        close = lexer.matching_brace(text, open_brace)
        self.assertEqual(text[close], "}")
        self.assertEqual(text[close + 1], ")")  # lambda body ends before the call's ')'


class RawDataAccessTest(unittest.TestCase):
    def test_outside_owner_flagged_inside_not(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/matrix.hpp": "T& at(i) { return data_[i]; }\n",
                "src/mor/bad.cpp": "double v = m.data_[3];\n",
            })
            keys = [f.key() for f in run_check(repo, "raw-data-access")]
            self.assertEqual(keys, ["raw-data-access:src/mor/bad.cpp:data_"])

    def test_commented_use_not_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/mor/ok.cpp": "// data_[i] is owned by Matrix\nint x;\n",
            })
            self.assertEqual(run_check(repo, "raw-data-access"), [])


class FloatEqTest(unittest.TestCase):
    def test_literal_compare_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/x.cpp": "if (w == 0.0) skip();\nif (v != T{}) f();\n",
            })
            keys = sorted(f.key() for f in run_check(repo, "float-eq"))
            self.assertEqual(keys, [
                "float-eq:src/la/x.cpp:!= T{}",
                "float-eq:src/la/x.cpp:== 0.0",
            ])

    def test_integer_compare_not_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/x.cpp": "if (n == 0) return;\n",
            })
            self.assertEqual(run_check(repo, "float-eq"), [])


class AbsSquaredTest(unittest.TestCase):
    def test_abs_times_abs_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/x.cpp": "double p = std::abs(z) * std::abs(z);\n",
            })
            found = run_check(repo, "abs-squared")
            self.assertEqual(len(found), 1)
            self.assertIn("std::norm", found[0].message)


class RawChronoTest(unittest.TestCase):
    def test_src_flagged_obs_exempt_tests_ignored(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/mor/t.cpp": "auto t0 = std::chrono::steady_clock::now();\n",
                "src/util/obs/trace.cpp": "std::chrono::steady_clock::now();\n",
                "tests/x.cpp": "std::chrono::seconds(1);\n",
            })
            ctx = Context(repo, [repo / "src", repo / "tests"])
            found = registry.all_checks()["raw-chrono"].fn(ctx)
            self.assertEqual([f.key() for f in found],
                             ["raw-chrono:src/mor/t.cpp:std::chrono"])


class MissingGuardTest(unittest.TestCase):
    HEADER = "MatD solve_thing(const MatD& a);\n"

    def test_unguarded_definition_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/placeholder.hpp": "",
                "src/la/ops.hpp": self.HEADER,
                "src/la/ops.cpp":
                    "MatD solve_thing(const MatD& a) {\n  return a;\n}\n",
            })
            (repo / "src/la").mkdir(exist_ok=True)
            keys = [f.key() for f in run_check(repo, "missing-guard")]
            self.assertEqual(keys, ["missing-guard:src/la/ops.hpp:solve_thing"])

    def test_guarded_definition_clean(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/la/ops.hpp": self.HEADER,
                "src/la/ops.cpp":
                    "MatD solve_thing(const MatD& a) {\n"
                    "  PMTBR_REQUIRE(a.rows() > 0, \"empty\");\n"
                    "  return a;\n}\n",
            })
            self.assertEqual(run_check(repo, "missing-guard"), [])


class LockOutsideApiTest(unittest.TestCase):
    def test_direct_lock_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/mor/bad.cpp": "void f() {\n  mu_.lock();\n  mu_.unlock();\n}\n",
            })
            keys = sorted(f.key() for f in run_check(repo, "lock-outside-api"))
            self.assertEqual(keys, [
                "lock-outside-api:src/mor/bad.cpp:lock",
                "lock-outside-api:src/mor/bad.cpp:unlock",
            ])

    def test_owner_and_scoped_usage_clean(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/util/mutex.hpp": "void lock() { m_.lock(); }\n",
                "src/mor/ok.cpp":
                    "void f() {\n  util::MutexLock lock(mu_);\n"
                    "  if (l.owns_lock()) g();\n}\n",
            })
            self.assertEqual(run_check(repo, "lock-outside-api"), [])


class AllocInParallelTest(unittest.TestCase):
    def test_alloc_inside_lambda_flagged(self):
        code = (
            "void f() {\n"
            "  util::parallel_for(0, n, [&](index i) {\n"
            "    auto p = std::make_shared<Block>(i);\n"
            "    out.push_back(*p);\n"
            "  });\n"
            "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/mor/bad.cpp": code})
            found = run_check(repo, "alloc-in-parallel")
            self.assertEqual(sorted(f.token for f in found),
                             ["make_shared", "push_back"])
            self.assertEqual([f.line_no for f in sorted(found, key=lambda x: x.line_no)],
                             [3, 4])

    def test_alloc_outside_lambda_clean(self):
        code = (
            "void f() {\n"
            "  auto buf = std::make_shared<Buf>();  // hoisted: fine\n"
            "  auto blocks = util::parallel_try_map<MatD>(n, [&](index i) {\n"
            "    return sample_block(sys, s[i]);\n"
            "  });\n"
            "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/mor/ok.cpp": code})
            self.assertEqual(run_check(repo, "alloc-in-parallel"), [])

    def test_pool_implementation_exempt(self):
        code = "void q() { tasks_.push([job] { job->run(); }); }\n"
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/util/thread_pool.cpp": code})
            self.assertEqual(run_check(repo, "alloc-in-parallel"), [])

    def test_try_map_body_covered(self):
        code = (
            "void f() {\n"
            "  auto outcomes = util::parallel_try_map<Outcome>(count, [&](index i) {\n"
            "    auto buf = std::make_unique<Buf>();\n"
            "    return sample(sys, eff[i], *buf);\n"
            "  });\n"
            "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/mor/bad.cpp": code})
            found = run_check(repo, "alloc-in-parallel")
            self.assertEqual([f.token for f in found], ["make_unique"])
            self.assertEqual(found[0].line_no, 3)

    def test_matrix_declaration_inside_body_flagged(self):
        code = (
            "void f() {\n"
            "  util::parallel_for(0, leaves, [&](index i) {\n"
            "    Matrix<T> s(2 * n, n);\n"
            "    MatD w(jb, ntrail);\n"
            "    combine(s, w);\n"
            "  });\n"
            "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/la/bad.cpp": code})
            found = run_check(repo, "alloc-in-parallel")
            self.assertEqual([f.token for f in found], ["matrix-decl", "matrix-decl"])
            self.assertEqual([f.line_no for f in found], [3, 4])

    def test_matrix_reference_binding_clean(self):
        code = (
            "void f() {\n"
            "  util::parallel_for(0, pairs, [&](index p) {\n"
            "    const Matrix<T>& top = stacks[p];\n"
            "    la::MatD* out = &slots[p];\n"
            "    factor(top, out);\n"
            "  });\n"
            "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/la/ok.cpp": code})
            self.assertEqual(run_check(repo, "alloc-in-parallel"), [])


class CounterDisciplineTest(unittest.TestCase):
    def test_raw_array_and_default_ordering_flagged(self):
        code = ("void f() {\n"
                "  obs::detail::g_counters[0].fetch_add(1);\n"
                "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/mor/bad.cpp": code})
            tokens = sorted(f.token for f in run_check(repo, "counter-discipline"))
            self.assertEqual(tokens, ["fetch_add", "g_counters"])

    def test_relaxed_helper_clean(self):
        code = ("inline void counter_add(Counter c, long d) {\n"
                "  g_counters[i].fetch_add(d, std::memory_order_relaxed);\n"
                "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/util/obs/counters.hpp": code})
            self.assertEqual(run_check(repo, "counter-discipline"), [])


class NarrowingIndexTest(unittest.TestCase):
    def test_int_loop_over_extent_flagged(self):
        code = ("void f(const MatD& m) {\n"
                "  for (int i = 0; i < m.rows(); ++i) g(i);\n"
                "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/la/bad.cpp": code})
            found = run_check(repo, "narrowing-index")
            self.assertEqual([f.token for f in found], ["i"])
            self.assertEqual(found[0].line_no, 2)

    def test_constant_bound_clean(self):
        code = "void f() { for (int sweep = 0; sweep < kMaxSweeps; ++sweep) g(); }\n"
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/la/ok.cpp": code})
            self.assertEqual(run_check(repo, "narrowing-index"), [])

    def test_narrowing_cast_flagged_only_in_scope(self):
        code = "int n = static_cast<int>(v.size());\n"
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/sparse/bad.cpp": code,
                "src/util/ok.cpp": code,  # util/ is out of scope
            })
            keys = [f.key() for f in run_check(repo, "narrowing-index")]
            self.assertEqual(
                keys, ["narrowing-index:src/sparse/bad.cpp:static_cast<int>"])


class DiscardedStatusTest(unittest.TestCase):
    def test_statement_position_call_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/mor/bad.cpp": (
                    "void f(Sys& sys) {\n"
                    "  sys.try_prepare_shifted(s);\n"
                    "  util::parallel_try_map<int>(n, fn);\n"
                    "}\n"),
            })
            keys = sorted(f.key() for f in run_check(repo, "discarded-status"))
            self.assertEqual(keys, [
                "discarded-status:src/mor/bad.cpp:parallel_try_map",
                "discarded-status:src/mor/bad.cpp:try_prepare_shifted",
            ])

    def test_consumed_results_clean(self):
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {
                "src/mor/ok.cpp": (
                    "void f(Sys& sys) {\n"
                    "  auto st = sys.try_prepare_shifted(s);\n"
                    "  if (st.is_ok()) return;\n"
                    "  return\n"
                    "      try_solve(s);\n"
                    "  slot =\n"
                    "      try_solve(s);\n"
                    "  use(\n"
                    "      try_solve(s));\n"
                    "  m.try_lock();\n"  # lock-outside-api's domain
                    "}\n"),
            })
            self.assertEqual(run_check(repo, "discarded-status"), [])


class OneSidedIndexTest(unittest.TestCase):
    def test_upper_bound_only_flagged(self):
        code = ("void f(index out_idx, index in_idx) {\n"
                "  PMTBR_REQUIRE(out_idx < sys.num_outputs() && in_idx < sys.num_inputs(),\n"
                "                \"transfer entry out of range\");\n"
                "  PMTBR_REQUIRE(m.cols() > col_idx, \"column out of range\");\n"
                "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/mor/bad.cpp": code})
            found = run_check(repo, "one-sided-index")
            self.assertEqual([(f.token, f.line_no) for f in found],
                             [("out_idx", 2), ("in_idx", 2), ("col_idx", 4)])

    def test_two_sided_and_unrelated_clean(self):
        code = ("void f(index out_idx, index in_idx, index i) {\n"
                "  PMTBR_REQUIRE(0 <= out_idx && out_idx < sys.num_outputs(), \"x < n\");\n"
                "  PMTBR_REQUIRE(in_idx >= 0 && in_idx < sys.num_inputs(), \"in\");\n"
                "  PMTBR_REQUIRE(i < n, \"not an _idx name\");\n"
                "  PMTBR_REQUIRE(a.col_idx() == b.col_idx(), \"accessor calls\");\n"
                "  // PMTBR_REQUIRE(out_idx < n, \"commented out\");\n"
                "}\n")
        with tempfile.TemporaryDirectory() as d:
            repo = make_repo(Path(d), {"src/signal/ok.cpp": code})
            self.assertEqual(run_check(repo, "one-sided-index"), [])


class RegistryTest(unittest.TestCase):
    def test_all_checks_registered(self):
        names = set(registry.all_checks())
        self.assertEqual(names, {
            "raw-data-access", "float-eq", "missing-guard", "abs-squared",
            "raw-chrono", "lock-outside-api", "alloc-in-parallel",
            "counter-discipline", "narrowing-index", "discarded-status",
            "one-sided-index",
        })


if __name__ == "__main__":
    unittest.main()
