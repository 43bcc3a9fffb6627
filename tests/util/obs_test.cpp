// Observability layer tests: counters, scoped tracing, the shared JSON
// emitter, run manifests, and the counter semantics the solver stack
// promises (symbolic-cache hits, thread-pool accounting) — including
// concurrent stress that must stay clean under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "sparse/factor_cache.hpp"
#include "sparse/splu.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"
#include "util/obs/manifest.hpp"
#include "util/obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::obs {
namespace {

// Restores the trace flag and wipes counters/trace stats around each test so
// suites stay order-independent within one process.
class ObsEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = trace_enabled();
    set_trace_enabled(false);
    reset_counters();
    reset_trace();
  }
  void TearDown() override {
    set_trace_enabled(was_enabled_);
    reset_counters();
    reset_trace();
  }

 private:
  bool was_enabled_ = false;
};

using ObsCounters = ObsEnv;
using ObsTrace = ObsEnv;
using ObsManifest = ObsEnv;
using ObsSymbolicCache = ObsEnv;
using ObsThreadPool = ObsEnv;

TEST_F(ObsCounters, AddValueAndReset) {
  EXPECT_EQ(counter_value(Counter::kPmtbrSamples), 0);
  counter_add(Counter::kPmtbrSamples);
  counter_add(Counter::kPmtbrSamples, 41);
  EXPECT_EQ(counter_value(Counter::kPmtbrSamples), 42);
  reset_counters();
  EXPECT_EQ(counter_value(Counter::kPmtbrSamples), 0);
}

TEST_F(ObsCounters, SnapshotCoversEveryCounterWithUniqueNames) {
  counter_add(Counter::kGemmFlops, 1000);
  const auto snap = counters_snapshot();
  ASSERT_EQ(static_cast<int>(snap.size()), kNumCounters);
  std::set<std::string> names;
  for (const auto& [name, value] : snap) {
    EXPECT_FALSE(name.empty());
    // snake_case, JSON-key safe.
    for (const char ch : name)
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch == '_')
          << name;
    names.insert(name);
  }
  EXPECT_EQ(static_cast<int>(names.size()), kNumCounters) << "duplicate counter name";
  bool found = false;
  for (const auto& [name, value] : snap)
    if (name == "gemm_flops") {
      found = true;
      EXPECT_EQ(value, 1000);
    }
  EXPECT_TRUE(found);
}

TEST_F(ObsCounters, ThinCompressorBlockCountsLikeLaQr) {
  // One 4-column block into an empty compressor: its row-wise residual QR
  // books what la::qr_pivoted books for the same n×k block (one
  // factorization, 4·n·k·min(n, k) flops), then one SVD of the 4×4 R;
  // absorption runs no GEMM.
  constexpr la::index n = 50, k = 4;
  Rng rng(5);
  la::MatD block(n, k);
  for (la::index i = 0; i < n; ++i)
    for (la::index j = 0; j < k; ++j) block(i, j) = rng.normal();

  mor::IncrementalCompressor comp(n);
  comp.add_columns(block);
  EXPECT_EQ(counter_value(Counter::kQrFactorizations), 1);
  EXPECT_EQ(counter_value(Counter::kQrFlops), 4 * n * k * k);
  EXPECT_EQ(counter_value(Counter::kSvdCalls), 1);
  EXPECT_EQ(counter_value(Counter::kGemmCalls), 0);
  EXPECT_EQ(counter_value(Counter::kGemmFlops), 0);
  EXPECT_EQ(counter_value(Counter::kCompressorColumnsKept), k);
  EXPECT_EQ(counter_value(Counter::kCompressorColumnsDropped), 0);
}

TEST_F(ObsTrace, DisabledScopesRecordNothing) {
  {
    PMTBR_TRACE_SCOPE("should_not_appear");
  }
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsTrace, NestedScopesAggregateByFullPath) {
  set_trace_enabled(true);
  for (int rep = 0; rep < 3; ++rep) {
    PMTBR_TRACE_SCOPE("outer");
    {
      PMTBR_TRACE_SCOPE("inner");
    }
    {
      PMTBR_TRACE_SCOPE("inner");
    }
  }
  const auto snap = trace_snapshot();
  ASSERT_EQ(snap.size(), 2u);  // sorted by path
  EXPECT_EQ(snap[0].path, "outer");
  EXPECT_EQ(snap[0].count, 3);
  EXPECT_EQ(snap[1].path, "outer/inner");
  EXPECT_EQ(snap[1].count, 6);
  EXPECT_GE(snap[0].seconds, 0.0);
  EXPECT_GE(snap[0].seconds, snap[1].seconds * 0.999);  // parent encloses children

  reset_trace();
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsTrace, WorkerThreadsCarryIndependentPaths) {
  set_trace_enabled(true);
  util::ThreadPool pool(3);
  constexpr util::index kIters = 64;
  {
    PMTBR_TRACE_SCOPE("caller_root");
    pool.parallel_for(0, kIters, [](util::index) { PMTBR_TRACE_SCOPE("work"); });
  }
  long long total_work = 0;
  for (const auto& s : trace_snapshot()) {
    // Chunks run by the caller nest under its open scope; chunks claimed by
    // workers start a fresh chain. Either way the leaf is "work".
    if (s.path == "work" || s.path == "caller_root/work") total_work += s.count;
  }
  EXPECT_EQ(total_work, kIters);
}

TEST(ObsJson, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("line\nfeed"), "line\\nfeed");
}

TEST(ObsJson, DoublesAreLocaleIndependentAndFinite) {
  EXPECT_EQ(json_double(0.0), "0.0");
  EXPECT_EQ(json_double(-3.0), "-3.0");
  const std::string half = json_double(0.5);
  EXPECT_NE(half.find('.'), std::string::npos);
  EXPECT_EQ(half.find(','), std::string::npos);  // never locale decimal comma
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
  // Round-trips exactly through to_chars shortest form.
  EXPECT_EQ(std::stod(json_double(6.02e23)), 6.02e23);
}

TEST(ObsJson, WriterEmitsWellFormedNesting) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("name");
  w.value("a \"quoted\" label");
  w.key("count");
  w.value(static_cast<std::int64_t>(7));
  w.key("items");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  w.done();
  const std::string s = out.str();
  EXPECT_NE(s.find("\"name\": \"a \\\"quoted\\\" label\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"count\": 7"), std::string::npos) << s;
  EXPECT_NE(s.find("1.5"), std::string::npos) << s;
  EXPECT_NE(s.find("true"), std::string::npos) << s;
  EXPECT_NE(s.find("null"), std::string::npos) << s;
  // Balanced delimiters.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST_F(ObsManifest, ContainsSchemaCountersAndExtras) {
  counter_add(Counter::kShiftedSolve, 5);
  set_trace_enabled(true);
  {
    PMTBR_TRACE_SCOPE("manifest_scope");
  }
  const std::string json = manifest_json(
      "unit_test", {{"seed", "1234"}, {"tag", "\"quick\""}});
  EXPECT_NE(json.find("\"schema\": \"pmtbr-manifest/1\""), std::string::npos);
  EXPECT_NE(json.find("\"run\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\""), std::string::npos);
  EXPECT_NE(json.find("\"shifted_solve\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"tag\": \"quick\""), std::string::npos);
  EXPECT_NE(json.find("manifest_scope"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// The manifest without its "process" object, the one part that moves
// between two calls in one process.
std::string without_process(std::string json) {
  const std::size_t begin = json.find("\"process\": {");
  if (begin == std::string::npos) return json;
  json.erase(begin, json.find('}', begin) + 1 - begin);
  return json;
}

// The number after `"key": ` in a manifest.
double manifest_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

TEST_F(ObsManifest, WriteManifestProducesReadableFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pmtbr_obs_manifest_test.json").string();
  ASSERT_TRUE(write_manifest(path, "file_test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(without_process(buf.str()), without_process(manifest_json("file_test")));
  std::remove(path.c_str());
}

TEST_F(ObsManifest, ProcessUsageIsPresentAndNeverRunsBackwards) {
  const std::string first = manifest_json("first");
  {
    // Touch fresh pages between the two manifests.
    std::vector<double> pages(std::size_t{1} << 20, 1.0);
    EXPECT_EQ(std::count(pages.begin(), pages.end(), 1.0), 1 << 20);
  }
  const std::string second = manifest_json("second");
  for (const char* key : {"user_cpu_s", "sys_cpu_s", "minor_faults", "max_rss_mb"}) {
    EXPECT_GE(manifest_number(first, key), 0.0) << key;
    EXPECT_GE(manifest_number(second, key), 0.0) << key;
  }
  EXPECT_GE(manifest_number(second, "minor_faults"), manifest_number(first, "minor_faults"));
  EXPECT_GT(manifest_number(second, "max_rss_mb"), 0.0);
}

TEST_F(ObsSymbolicCache, OneAnalysisPerSystem) {
  // The shifted-pencil symbolic analysis is built exactly once per system;
  // every solve — at ANY shift — uses it. N distinct shifts must therefore
  // record one analysis.
  circuit::RcMeshParams mp;
  mp.rows = 6;
  mp.cols = 6;
  mp.num_ports = 4;
  const auto sys = circuit::make_rc_mesh(mp);
  const la::MatC rhs = la::to_complex(sys.b());

  // An identically parameterized mesh from an earlier test shares this
  // system's content fingerprint; drop any warm numeric factors so the
  // factor counts below see a cold cache.
  sparse::FactorCache::global().clear();
  reset_counters();
  set_trace_enabled(true);
  constexpr int kShifts = 6;
  for (int k = 0; k < kShifts; ++k)
    (void)sys.solve_shifted(la::cd(0.0, 1e9 * (k + 1)), rhs);
  set_trace_enabled(false);

  EXPECT_EQ(counter_value(Counter::kSymbolicCacheMiss), 1);
  EXPECT_EQ(counter_value(Counter::kShiftedSolve), kShifts);
  const std::int64_t factors =
      counter_value(Counter::kSparseLuFullFactor) + counter_value(Counter::kSparseLuRefactor);
  EXPECT_GE(factors, kShifts);
  // Every factor of the mesh pencil keeps the diagonal pivots the analysis
  // froze, so each adds the same nnz(L+U).
  const std::int64_t entries = counter_value(Counter::kSparseLuFactorEntries);
  const sparse::SymbolicLuC analysis(sparse::shifted_pencil(la::cd(0.0, 1e9), sys.e(), sys.a()),
                                     sys.ordering());
  EXPECT_EQ(entries, factors * static_cast<std::int64_t>(analysis.nnz_factors()));
  // The ordering is built once, under its own scope.
  std::int64_t orderings = 0;
  for (const auto& s : trace_snapshot()) {
    const std::string leaf = "descriptor.ordering";
    if (s.path.size() >= leaf.size() &&
        s.path.compare(s.path.size() - leaf.size(), leaf.size(), leaf) == 0)
      orderings += s.count;
  }
  EXPECT_EQ(orderings, 1);
}

TEST_F(ObsThreadPool, CountersStayConsistentWhenNestedWorkThrows) {
  util::ThreadPool pool(4);
  reset_counters();

  std::atomic<int> inner_iters{0};
  EXPECT_THROW(
      pool.parallel_for(0, 8,
                        [&](util::index i) {
                          // Nested parallel_for: inline when this chunk runs
                          // on a worker, a fresh fan-out when it runs on the
                          // caller thread (which is not a pool task).
                          pool.parallel_for(0, 4, [&](util::index) {
                            inner_iters.fetch_add(1, std::memory_order_relaxed);
                          });
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // Every nested call ran to completion (4 iterations) before the outer
  // exception unwound, and each one was recorded exactly once: either as an
  // inline run or as a pooled fan-out beyond the outer one.
  ASSERT_EQ(inner_iters.load() % 4, 0);
  const auto fanouts = counter_value(Counter::kPoolParallelFor);
  EXPECT_GE(fanouts, 1);
  EXPECT_EQ(counter_value(Counter::kPoolInlineFor) + (fanouts - 1),
            inner_iters.load() / 4);
  // Chunk attribution covers at least the work that actually started and
  // never exceeds the outer range plus the nested pooled ranges.
  const auto chunks = counter_value(Counter::kPoolChunksCaller) +
                      counter_value(Counter::kPoolChunksWorker);
  EXPECT_GE(chunks, 1);
  EXPECT_LE(chunks, 8 + 4 * (fanouts - 1));

  // The pool is fully usable after the exception unwound.
  std::atomic<int> after{0};
  pool.parallel_for(0, 16, [&](util::index) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

TEST_F(ObsThreadPool, ConcurrentCounterAndTraceStress) {
  // Hammers counters and trace scopes from every pool thread at once; the
  // totals must be exact and the run must be clean under TSan.
  set_trace_enabled(true);
  util::ThreadPool pool(4);
  constexpr util::index kIters = 512;
  reset_counters();
  pool.parallel_for(0, kIters, [](util::index) {
    PMTBR_TRACE_SCOPE("stress");
    {
      PMTBR_TRACE_SCOPE("leaf");
      counter_add(Counter::kPmtbrSamples);
    }
    counter_add(Counter::kAcSweepPoints, 2);
  });
  EXPECT_EQ(counter_value(Counter::kPmtbrSamples), kIters);
  EXPECT_EQ(counter_value(Counter::kAcSweepPoints), 2 * kIters);

  long long stress = 0, leaf = 0;
  for (const auto& s : trace_snapshot()) {
    if (s.path.ends_with("stress")) stress += s.count;
    if (s.path.ends_with("leaf")) leaf += s.count;
  }
  EXPECT_EQ(stress, kIters);
  EXPECT_EQ(leaf, kIters);
}

}  // namespace
}  // namespace pmtbr::obs
