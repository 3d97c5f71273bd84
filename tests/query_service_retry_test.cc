// Hardened-serving semantics: single-flight coalescing of concurrent
// cache misses (exactly one execution; leader outcomes — success, error,
// timeout — propagate to every follower and errors are never cached),
// and deadline-aware transient-failure retries with bounded backoff.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/query_service.h"
#include "util/fault_injector.h"

namespace amber {
namespace {

const char* kQuery = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";

/// Scriptable engine stub: optionally parks executions on a gate, fails
/// the first `fail_first` executions with a chosen code, and records the
/// thread budget each execution was handed.
class ScriptedEngine : public QueryEngine {
 public:
  std::string name() const override { return "Scripted"; }

  Result<CountResult> Count(const SelectQuery&,
                            const ExecOptions&) override {
    AMBER_RETURN_IF_ERROR(Enter());
    CountResult r;
    r.count = 1;
    return r;
  }
  Result<MaterializedRows> Materialize(const SelectQuery& query,
                                       const ExecOptions&) override {
    AMBER_RETURN_IF_ERROR(Enter());
    MaterializedRows r;
    r.var_names = query.projection;
    r.rows.push_back(std::vector<std::string>(query.projection.size(), "x"));
    return r;
  }

  /// The first `n` executions (1-based, over the engine's lifetime) fail
  /// with `code`.
  void FailFirst(int n, StatusCode code) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_first_ = n;
    fail_code_ = code;
  }

  /// When gated, executions block inside the engine until ReleaseAll().
  void SetGated(bool gated) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = gated;
  }

  void AwaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void ReleaseAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

  int entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  Status Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    const int my_entry = ++entered_;
    entered_cv_.notify_all();
    if (gated_) release_cv_.wait(lock, [&] { return released_; });
    if (my_entry <= fail_first_) {
      return Status::FromCode(fail_code_, "scripted failure");
    }
    return Status::OK();
  }

  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  int entered_ = 0;
  bool gated_ = false;
  bool released_ = false;
  int fail_first_ = 0;
  StatusCode fail_code_ = StatusCode::kUnavailable;
};

TEST(QueryServiceSingleFlightTest, SixteenConcurrentMissesExecuteOnce) {
  ScriptedEngine engine;
  engine.SetGated(true);
  ServiceOptions options;
  options.max_in_flight = 16;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  constexpr int kClients = 16;
  std::atomic<int> coalesced{0};
  std::atomic<int> executed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto resp = service.Query(kQuery, {});
      EXPECT_TRUE(resp.ok()) << resp.status();
      if (!resp.ok()) return;
      EXPECT_EQ(resp->rows,
                (std::vector<std::vector<std::string>>{{"x"}}));
      EXPECT_EQ(resp->var_names, (std::vector<std::string>{"a"}));
      if (resp->cache_hit) {
        ++coalesced;
      } else {
        ++executed;
      }
    });
  }
  // The leader is parked inside the engine; every other client must
  // attach to its flight (the attach is observable via the counter)
  // before the gate opens — this pins 15 followers, not "some".
  engine.AwaitEntered(1);
  while (service.Stats().single_flight_hits <
         static_cast<uint64_t>(kClients - 1)) {
    std::this_thread::yield();
  }
  engine.ReleaseAll();
  for (auto& t : clients) t.join();

  EXPECT_EQ(engine.entered(), 1);  // exactly one execution
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(coalesced.load(), kClients - 1);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 16u);
  EXPECT_EQ(stats.cache_misses, 16u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.single_flight_hits, 15u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(QueryServiceSingleFlightTest, LeaderFailurePropagatesAndIsNeverCached) {
  ScriptedEngine engine;
  engine.SetGated(true);
  engine.FailFirst(1, StatusCode::kInternal);
  ServiceOptions options;
  options.max_in_flight = 8;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto resp = service.Query(kQuery, {});
      EXPECT_FALSE(resp.ok());
      if (!resp.ok() &&
          resp.status().code() == StatusCode::kInternal) {
        ++failures;
      }
    });
  }
  engine.AwaitEntered(1);
  while (service.Stats().single_flight_hits <
         static_cast<uint64_t>(kClients - 1)) {
    std::this_thread::yield();
  }
  engine.ReleaseAll();
  for (auto& t : clients) t.join();

  // One execution failed; leader AND followers all saw the same error.
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(failures.load(), kClients);
  EXPECT_EQ(service.Stats().cache_entries, 0u);  // never cached

  // The failure poisoned nothing: the next request executes afresh and
  // succeeds.
  auto retry = service.Query(kQuery, {});
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_FALSE(retry->cache_hit);
  EXPECT_EQ(engine.entered(), 2);
}

TEST(QueryServiceSingleFlightTest, FollowerDeadlineExpiresLeaderSurvives) {
  ScriptedEngine engine;
  engine.SetGated(true);
  ServiceOptions options;
  options.max_in_flight = 8;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  std::thread leader([&] {
    auto resp = service.Query(kQuery, {});
    EXPECT_TRUE(resp.ok()) << resp.status();
    EXPECT_FALSE(resp->timed_out);
  });
  engine.AwaitEntered(1);

  // A follower with its own small budget: it gives up on the flight and
  // answers timed_out WITHOUT cancelling the (unbounded) leader.
  RequestOptions req;
  req.deadline = std::chrono::milliseconds(60);
  const auto t0 = std::chrono::steady_clock::now();
  auto follower = service.Query(kQuery, req);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(follower.ok()) << follower.status();
  EXPECT_TRUE(follower->timed_out);
  EXPECT_GE(waited, std::chrono::milliseconds(55));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(engine.entered(), 1);  // the follower never re-executed

  engine.ReleaseAll();
  leader.join();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.single_flight_hits, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);  // the leader's result was cached
}

TEST(QueryServiceSingleFlightTest, DisabledFlagExecutesEveryMiss) {
  ScriptedEngine engine;
  engine.SetGated(true);
  ServiceOptions options;
  options.max_in_flight = 4;
  options.cache_entries = 8;
  options.single_flight = false;
  QueryService service(&engine, options);

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto resp = service.Query(kQuery, {});
      EXPECT_TRUE(resp.ok()) << resp.status();
    });
  }
  // Without single-flight every concurrent miss reaches the engine.
  engine.AwaitEntered(kClients);
  engine.ReleaseAll();
  for (auto& t : clients) t.join();
  EXPECT_EQ(engine.entered(), kClients);
  EXPECT_EQ(service.Stats().single_flight_hits, 0u);
}

TEST(QueryServiceRetryTest, TransientFailuresRetryUntilSuccess) {
  ScriptedEngine engine;
  engine.FailFirst(2, StatusCode::kUnavailable);
  ServiceOptions options;
  options.cache_entries = 8;
  options.max_retries = 3;
  options.initial_backoff = std::chrono::milliseconds(1);
  QueryService service(&engine, options);

  auto resp = service.Query(kQuery, {});
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->cache_hit);
  EXPECT_EQ(resp->rows, (std::vector<std::vector<std::string>>{{"x"}}));
  EXPECT_EQ(engine.entered(), 3);  // two transient failures + the success
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.queries, 1u);

  // The recovered result was cached like any healthy execution.
  auto hit = service.Query(kQuery, {});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
}

TEST(QueryServiceRetryTest, RetriesAreOffByDefault) {
  ScriptedEngine engine;
  engine.FailFirst(1, StatusCode::kUnavailable);
  ServiceOptions options;
  QueryService service(&engine, options);
  ASSERT_EQ(options.max_retries, 0);

  auto resp = service.Query(kQuery, {});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(service.Stats().retries, 0u);
}

TEST(QueryServiceRetryTest, NonTransientFailuresAreNotRetried) {
  ScriptedEngine engine;
  engine.FailFirst(1, StatusCode::kInternal);
  ServiceOptions options;
  options.max_retries = 3;
  options.initial_backoff = std::chrono::milliseconds(1);
  QueryService service(&engine, options);

  auto resp = service.Query(kQuery, {});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine.entered(), 1);  // permanent errors surface immediately
  EXPECT_EQ(service.Stats().retries, 0u);
}

TEST(QueryServiceRetryTest, BackoffLargerThanRemainingBudgetFailsFast) {
  ScriptedEngine engine;
  engine.FailFirst(1000, StatusCode::kUnavailable);  // never recovers
  ServiceOptions options;
  options.max_retries = 10;
  options.initial_backoff = std::chrono::milliseconds(200);
  QueryService service(&engine, options);

  RequestOptions req;
  req.deadline = std::chrono::milliseconds(100);
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = service.Query(kQuery, req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // The backoff (200 ms) exceeds the whole budget (100 ms): the failure
  // is returned immediately instead of burning the budget asleep.
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(service.Stats().retries, 0u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(QueryServiceRetryTest, InjectedServiceFaultsAreRetried) {
  ScriptedEngine engine;
  ServiceOptions options;
  options.cache_entries = 8;
  options.max_retries = 1;
  options.initial_backoff = std::chrono::milliseconds(1);
  QueryService service(&engine, options);

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.fail_nth = 1;
  ScopedFault fault(faults::kServiceExecute, spec);

  auto resp = service.Query(kQuery, {});
  ASSERT_TRUE(resp.ok()) << resp.status();
  // The first attempt was consumed by the injector BEFORE the engine, so
  // the engine ran exactly once and the retry counter shows one retry.
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(service.Stats().retries, 1u);
  EXPECT_EQ(FaultInjector::Global().Hits(faults::kServiceExecute), 2u);
  EXPECT_EQ(FaultInjector::Global().Fires(faults::kServiceExecute), 1u);
}

}  // namespace
}  // namespace amber
