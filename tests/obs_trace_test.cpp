// Tests for the sp::obs trace recorder: span recording, dense per-thread
// tids, Chrome-trace JSON shape, the active-recorder slot + ScopedSpan,
// and concurrent span recording (TSan target).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sp::obs {
namespace {

using std::chrono::steady_clock;

TEST(ObsTrace, RecordsSpansWithRelativeTimestamps) {
  TraceRecorder recorder;
  const auto start = steady_clock::now();
  recorder.span("stage.a", "stage", start, start + std::chrono::microseconds(250));
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "stage.a");
  EXPECT_EQ(events[0].category, "stage");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_NEAR(events[0].dur_us, 250.0, 1.0);
}

TEST(ObsTrace, ThreadsGetDenseDistinctTids) {
  TraceRecorder recorder;
  const auto now = steady_clock::now();
  recorder.span("main", "test", now, now);
  std::thread other([&] { recorder.span("worker", "test", now, now); });
  other.join();
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_LT(events[0].tid, 2u);  // dense, not hashed thread ids
  EXPECT_LT(events[1].tid, 2u);
}

TEST(ObsTrace, JsonIsChromeTraceShaped) {
  TraceRecorder recorder;
  const auto now = steady_clock::now();
  recorder.span("detect.v4.shard0", "detect", now, now + std::chrono::milliseconds(2));
  const std::string json = recorder.to_json();
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"detect.v4.shard0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"detect\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(ObsTrace, JsonEscapesControlAndQuoteCharacters) {
  TraceRecorder recorder;
  const auto now = steady_clock::now();
  recorder.span("weird\"name\n", "cat\\egory", now, now);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("weird\\\"name\\u000a"), std::string::npos);
  EXPECT_NE(json.find("cat\\\\egory"), std::string::npos);
}

TEST(ObsTrace, WriteProducesLoadableFile) {
  TraceRecorder recorder;
  const auto now = steady_clock::now();
  recorder.span("stage.export", "stage", now, now + std::chrono::microseconds(10));
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  std::string error;
  ASSERT_TRUE(recorder.write(path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.to_json());
  std::remove(path.c_str());
}

TEST(ObsTrace, ScopedSpanRecordsOnlyWhileActive) {
  TraceRecorder recorder;
  { const ScopedSpan ignored("not.recorded", "test"); }  // no active recorder
  TraceRecorder::set_active(&recorder);
  { const ScopedSpan recorded("recorded", "test"); }
  TraceRecorder::set_active(nullptr);
  { const ScopedSpan ignored("also.not.recorded", "test"); }

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "recorded");
  EXPECT_EQ(TraceRecorder::active(), nullptr);
}

TEST(ObsTrace, IndexedScopedSpanAppendsTheIndex) {
  TraceRecorder recorder;
  { const ScopedSpan ignored("shard", 1, "test"); }  // no active recorder
  TraceRecorder::set_active(&recorder);
  { const ScopedSpan recorded("detect.v4.shard", 12, "test"); }
  TraceRecorder::set_active(nullptr);

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "detect.v4.shard12");
  EXPECT_EQ(events[0].category, "test");
}

// TSan target: spans landing from many threads while another thread
// serializes the partial trace.
TEST(ObsTraceConcurrency, ConcurrentSpansAndSerialization) {
  TraceRecorder recorder;
  TraceRecorder::set_active(&recorder);
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i) {
        const ScopedSpan span("span." + std::to_string(t), "race");
      }
    });
  }
  std::string json;
  for (int i = 0; i < 50; ++i) json = recorder.to_json();
  for (auto& thread : threads) thread.join();
  TraceRecorder::set_active(nullptr);
  EXPECT_EQ(recorder.events().size(), static_cast<std::size_t>(kThreads) * kSpans);
  EXPECT_FALSE(json.empty());
}

}  // namespace
}  // namespace sp::obs
