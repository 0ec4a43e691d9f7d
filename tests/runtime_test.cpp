// Tests for the parallel experiment runtime (src/runtime/): the thread pool,
// the deterministic trial runner, the JSON writer/parser, and the structured
// results layer. The load-bearing property is the determinism contract —
// TrialRunner output is a pure function of (master_seed, trial_index), so a
// --jobs 8 run must reproduce a --jobs 1 run byte for byte (modulo the
// "timing" section of a results file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu_mask.hpp"
#include "runtime/json.hpp"
#include "runtime/results.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trial_runner.hpp"
#include "support/rng.hpp"

namespace reconfnet::runtime {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.wait_idle();
  EXPECT_FALSE(ids.contains(std::this_thread::get_id()));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, WaitIdleThenReuse) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 20 * (round + 1));
  }
}

// hardware_workers() counts the calling thread's affinity mask, so a host
// limited by a cpuset or `taskset` reports what it may use, and the count
// comes back with the mask. A pool's workers inherit the narrowed mask.
TEST(ThreadPool, HardwareWorkersCountsTheAffinityMask) {
  const std::size_t all = ThreadPool::hardware_workers();
  if (all < 2) GTEST_SKIP() << "only one CPU is allowed";
  {
    const ScopedCpuMask mask(1);
    ASSERT_TRUE(mask.ok());
    EXPECT_EQ(ThreadPool::hardware_workers(), 1u);
    std::size_t seen_by_worker = 0;
    ThreadPool pool(1);
    pool.submit(
        [&seen_by_worker] { seen_by_worker = ThreadPool::hardware_workers(); });
    pool.wait_idle();
    EXPECT_EQ(seen_by_worker, 1u);
  }
  {
    const ScopedCpuMask mask(2);
    ASSERT_TRUE(mask.ok());
    EXPECT_EQ(ThreadPool::hardware_workers(), 2u);
  }
  EXPECT_EQ(ThreadPool::hardware_workers(), all);
}

TEST(ThreadPool, KnowsItsOwnWorkerThreads) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&on_worker] {
      if (ThreadPool::on_worker_thread()) on_worker.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(on_worker.load(), 8);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

// --- parallel_for -----------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom at 17");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> counter{0};
  parallel_for(pool, 8, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ParallelFor, ReportsLowestFailingIndex) {
  ThreadPool pool(4);
  try {
    parallel_for(pool, 64, [](std::size_t i) {
      if (i == 5 || i == 60) {
        throw std::runtime_error("fail " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "fail 5");
  }
}

// --- TrialRunner determinism ------------------------------------------------

TEST(TrialRunner, TrialRngIsPureFunctionOfSeedAndIndex) {
  auto a = TrialRunner::trial_rng(42, 7);
  auto b = TrialRunner::trial_rng(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  auto c = TrialRunner::trial_rng(42, 8);
  auto d = TrialRunner::trial_rng(43, 7);
  auto fresh = TrialRunner::trial_rng(42, 7);
  EXPECT_NE(fresh.next(), c.next());
  EXPECT_NE(TrialRunner::trial_rng(42, 7).next(), d.next());
}

TEST(TrialRunner, ResultsArriveInSubmissionOrder) {
  TrialRunner runner(1, 8);
  const auto results = runner.run(
      100, [](TrialContext& trial) { return trial.index; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(TrialRunner, ParallelEqualsSerial) {
  const auto run_with = [](std::size_t jobs) {
    TrialRunner runner(0xBE5C0FFEE, jobs);
    return runner.run(32, [](TrialContext& trial) {
      // Consume a trial-dependent amount of randomness so any cross-trial
      // RNG sharing would show up as divergence.
      std::uint64_t acc = 0;
      const std::size_t draws = 10 + trial.index % 7;
      for (std::size_t i = 0; i < draws; ++i) acc ^= trial.rng.next();
      return acc;
    });
  };
  const auto serial = run_with(1);
  const auto parallel_result = run_with(8);
  EXPECT_EQ(serial, parallel_result);
}

TEST(TrialRunner, ExceptionInTrialPropagates) {
  TrialRunner runner(1, 4);
  EXPECT_THROW(runner.run(16,
                          [](TrialContext& trial) -> int {
                            if (trial.index == 3) {
                              throw std::runtime_error("trial failed");
                            }
                            return 0;
                          }),
               std::runtime_error);
}

// --- Json writer/parser -----------------------------------------------------

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(Json::escape("plain"), "plain");
  EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(Json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(Json::escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, DumpCompactAndPretty) {
  Json doc = Json::object();
  doc["name"] = "x";
  doc["values"] = Json::array();
  doc["values"].push_back(1);
  doc["values"].push_back(2.5);
  EXPECT_EQ(doc.dump(-1), R"({"name":"x","values":[1,2.5]})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find("\n  \"name\": \"x\""), std::string::npos);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  EXPECT_EQ(doc.dump(-1), R"({"zebra":1,"alpha":2,"mid":3})");
}

TEST(Json, RoundTripThroughParser) {
  Json doc = Json::object();
  doc["string"] = "quote \" backslash \\ newline \n done";
  doc["int"] = std::int64_t{-42};
  doc["uint"] = std::uint64_t{18446744073709551615ull};
  doc["double"] = 0.1;
  doc["bool"] = true;
  doc["null"] = Json();
  doc["nested"] = Json::object();
  doc["nested"]["arr"] = Json::array();
  doc["nested"]["arr"].push_back(Json::object());
  const std::string text = doc.dump(2);
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.dump(2), text);
  EXPECT_EQ(parsed.find("string")->as_string(),
            "quote \" backslash \\ newline \n done");
  EXPECT_EQ(parsed.find("uint")->as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed.find("double")->as_double(), 0.1);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("'single'"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
}

TEST(Json, ParseHandlesUnicodeEscapes) {
  const Json parsed = Json::parse("\"a\\u00e9b\"");
  EXPECT_EQ(parsed.as_string(),
            "a\xc3\xa9"
            "b");
}

TEST(Json, EraseRemovesMember) {
  Json doc = Json::object();
  doc["keep"] = 1;
  doc["drop"] = 2;
  doc.erase("drop");
  EXPECT_EQ(doc.find("drop"), nullptr);
  EXPECT_NE(doc.find("keep"), nullptr);
}

// --- BenchResults -----------------------------------------------------------

Json results_fixture(std::size_t jobs, double wall) {
  BenchResults results("unit_test", "title", "claim");
  results.set_meta("seed", Json(std::uint64_t{7}));
  support::Table table({"a", "b"});
  table.add_row({"1", "x,y \"quoted\""});
  results.add_table("t", table);
  const std::vector<double> series{1.0, 2.0, 3.0, 4.0};
  results.add_metric("g", "m", series);
  results.add_note("a note");
  results.set_exit_code(0);
  results.set_timing(jobs, wall);
  return Json::parse(results.to_json().dump(2));
}

TEST(BenchResults, SchemaShape) {
  const Json doc = results_fixture(1, 0.5);
  EXPECT_EQ(doc.find("schema")->as_string(), "reconfnet-bench-v1");
  EXPECT_EQ(doc.find("experiment")->as_string(), "unit_test");
  EXPECT_EQ(doc.find("meta")->find("seed")->as_uint(), 7u);
  const Json& metric = doc.find("metrics")->at(0);
  EXPECT_EQ(metric.find("name")->as_string(), "m");
  EXPECT_EQ(metric.find("values")->size(), 4u);
  EXPECT_DOUBLE_EQ(metric.find("summary")->find("mean")->as_double(), 2.5);
  const Json& table = doc.find("tables")->at(0);
  EXPECT_EQ(table.find("header")->at(1).as_string(), "b");
  EXPECT_EQ(doc.find("timing")->find("jobs")->as_uint(), 1u);
}

TEST(BenchResults, OnlyTimingDiffersAcrossJobCounts) {
  Json serial = results_fixture(1, 0.25);
  Json parallel_doc = results_fixture(8, 99.0);
  EXPECT_NE(serial.dump(2), parallel_doc.dump(2));
  serial.erase("timing");
  parallel_doc.erase("timing");
  EXPECT_EQ(serial.dump(2), parallel_doc.dump(2));
}

}  // namespace
}  // namespace reconfnet::runtime
