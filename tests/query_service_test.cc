// Concurrency battery for the serving runtime: N client threads hammer one
// QueryService with a mixed workload (plain SELECT, DISTINCT, LIMIT in the
// query text, OFFSET/LIMIT pagination, counting and materializing, cached
// and cache-bypassing) against the engine restore paths (fresh build, mmap
// OpenFile). EVERY response must be bit-identical to a single-engine
// reference computed up front — rows, row order, var names, counts. This
// is the suite the TSan CI job runs to pin the admission state and the
// cache against data races.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "server/query_service.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// One request of the mixed workload plus its precomputed reference.
struct RequestCase {
  std::string text;
  RequestOptions options;
  // Reference (from a serial single-engine run, sliced the same way).
  std::vector<std::string> want_var_names;
  std::vector<std::vector<std::string>> want_rows;
  uint64_t want_total = 0;
};

/// Builds the mixed workload with serial references from `reference_engine`.
std::vector<RequestCase> BuildWorkload(AmberEngine& reference,
                                       const std::vector<Triple>& data) {
  std::vector<std::string> texts;
  for (int qi = 0; qi < 5; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(data, 900 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT DISTINCT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 7");
  texts.push_back(
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } "
      "LIMIT 3");

  // Pagination shapes: full result, tight pages, offset past the end.
  const struct {
    uint64_t offset, limit;
  } pages[] = {{0, 0}, {0, 2}, {1, 2}, {3, 0}, {1000000, 5}};

  std::vector<RequestCase> cases;
  for (const std::string& text : texts) {
    auto full = reference.MaterializeSparql(text, ExecOptions{});
    EXPECT_TRUE(full.ok()) << full.status();
    for (const auto& page : pages) {
      RequestCase c;
      c.text = text;
      c.options.offset = page.offset;
      c.options.limit = page.limit;
      c.want_var_names = full->var_names;
      c.want_total = full->rows.size();
      const uint64_t begin =
          std::min<uint64_t>(page.offset, full->rows.size());
      uint64_t end = full->rows.size();
      if (page.limit != 0) end = std::min<uint64_t>(begin + page.limit, end);
      c.want_rows.assign(full->rows.begin() + static_cast<ptrdiff_t>(begin),
                         full->rows.begin() + static_cast<ptrdiff_t>(end));
      cases.push_back(std::move(c));
    }
    // A counting request per query text.
    RequestCase count;
    count.text = text;
    count.options.count_only = true;
    count.want_total = full->rows.size();
    cases.push_back(std::move(count));
  }
  return cases;
}

void CheckResponse(const RequestCase& c, const QueryResponse& resp) {
  if (c.options.count_only) {
    EXPECT_EQ(resp.total_rows, c.want_total) << "count mismatch: " << c.text;
    EXPECT_TRUE(resp.rows.empty());
    return;
  }
  EXPECT_EQ(resp.var_names, c.want_var_names) << c.text;
  EXPECT_EQ(resp.total_rows, c.want_total) << c.text;
  // Exact equality: rows AND their order must match the serial reference.
  EXPECT_EQ(resp.rows, c.want_rows)
      << "rows differ from reference: " << c.text << " offset "
      << c.options.offset << " limit " << c.options.limit;
}

/// Runs the battery: `clients` threads, each iterating the whole workload
/// `rounds` times with per-thread variations of cache bypass. Every
/// response is checked against the reference.
void RunBattery(QueryService& service, const std::vector<RequestCase>& cases,
                int clients, int rounds) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < cases.size(); ++i) {
          // Stagger start positions so threads collide on different keys.
          const RequestCase& c =
              cases[(i + static_cast<size_t>(t) * 7) % cases.size()];
          RequestOptions options = c.options;
          // Thread t alternates: bypass cache on odd rounds.
          options.bypass_cache = ((t + r) % 2) == 1;
          auto resp = service.Query(c.text, options);
          if (!resp.ok()) {
            ++failures;
            ADD_FAILURE() << "Query failed: " << resp.status() << "\n"
                          << c.text;
            continue;
          }
          CheckResponse(c, *resp);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

ServiceOptions BatteryServiceOptions() {
  ServiceOptions options;
  options.max_in_flight = 16;  // admission must not reject the battery
  options.max_queued = 64;
  options.cache_entries = 32;
  return options;
}

TEST(QueryServiceTest, EightClientsMixedWorkloadBitIdenticalFreshEngine) {
  auto data = testutil::RandomDataset(11, 15, 90, 3);
  AmberEngine engine = MustBuild(data);
  auto cases = BuildWorkload(engine, data);
  QueryService service(&engine, BatteryServiceOptions());
  RunBattery(service, cases, /*clients=*/8, /*rounds=*/3);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 8u * 3u * cases.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(QueryServiceTest, MmapEngineBitIdentical) {
  auto data = testutil::RandomDataset(23, 14, 80, 3);
  AmberEngine fresh = MustBuild(data);
  auto cases = BuildWorkload(fresh, data);

  const std::string path = testing::TempDir() + "/query_service_" +
                           std::to_string(::getpid()) + ".amf";
  ASSERT_TRUE(fresh.SaveFile(path).ok());
  auto mapped = AmberEngine::OpenFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  // The references came from the FRESH engine; serving them through the
  // restored engine must produce the very same bytes.
  QueryService service(&*mapped, BatteryServiceOptions());
  RunBattery(service, cases, /*clients=*/8, /*rounds=*/2);
  ::unlink(path.c_str());
}

TEST(QueryServiceTest, SingleClientMatchesEngineDirectly) {
  auto data = testutil::RandomDataset(31, 12, 70, 3);
  AmberEngine engine = MustBuild(data);
  QueryService service(&engine, BatteryServiceOptions());

  for (int qi = 0; qi < 6; ++qi) {
    const std::string text = testutil::RandomQueryFromData(data, 70 + qi, 3);
    auto direct = engine.MaterializeSparql(text, {});
    ASSERT_TRUE(direct.ok()) << direct.status();
    for (bool bypass : {false, true, false}) {  // miss, bypass, hit
      RequestOptions options;
      options.bypass_cache = bypass;
      auto resp = service.Query(text, options);
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp->var_names, direct->var_names);
      EXPECT_EQ(resp->rows, direct->rows);
      EXPECT_EQ(resp->total_rows, direct->rows.size());
    }
  }
}

TEST(QueryServiceTest, ParseErrorsPropagateAsStatus) {
  auto data = testutil::RandomDataset(3, 8, 30, 2);
  AmberEngine engine = MustBuild(data);
  QueryService service(&engine, BatteryServiceOptions());
  auto resp = service.Query("SELECT WHERE {", {});
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(service.Stats().queries, 0u);
}

}  // namespace
}  // namespace amber
