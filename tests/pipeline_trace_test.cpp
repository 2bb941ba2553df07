// --trace span coverage: a traced campaign run records not just the
// per-stage spans (stage_graph.cpp) but the inner phases of the
// interesting stages — evolve's replay/write, export's render/write, the
// corpus build, the sibdb conversion, and the sibdelta load/diff/write —
// plus the serve-side sibdb writer spans, so a Perfetto view shows where
// a month's wall time actually goes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sibling_list_io.h"
#include "obs/trace.h"
#include "pipeline/campaign.h"
#include "serve/sibdb.h"

namespace sp::pipeline {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PipelineTrace, CampaignTraceRecordsInnerPhaseSpans) {
  const std::string dir = ::testing::TempDir() + "/trace_campaign";
  std::filesystem::remove_all(dir);
  CampaignConfig config;
  config.synth.months = 2;
  config.synth.organization_count = 40;
  config.synth.probe_count = 40;
  config.threads = 2;
  config.out_dir = dir;
  config.trace_path = dir + "/trace.json";

  const auto report = Campaign(config).run(/*resume=*/false);
  ASSERT_TRUE(report.error.empty()) << report.error;
  const std::string trace = read_file(config.trace_path);

  // The phase spans every cold run emits. The disk-fallback reads
  // (evolve.read_rib, corpus.read_rib, corpus.read_snapshot) fire only
  // when a hand-off slot is empty; pipeline_resume_test forces them.
  for (const char* name :
       {"\"evolve.replay\"", "\"evolve.write\"", "\"export.render\"", "\"export.write_csv\"",
        "\"corpus.build\"", "\"sibdb.write\"", "\"sibdelta.load\"", "\"sibdelta.diff\"",
        "\"sibdelta.write\""}) {
    EXPECT_NE(trace.find(name), std::string::npos) << name;
  }
  EXPECT_NE(trace.find("\"phase\""), std::string::npos);
}

// On a 1-thread pool every stage runs inline on the calling thread, and a
// finished stage dispatches its dependents from inside execute(). A stage
// span must cover its own body only, so no stage span contains another.
// The same depth-first order runs each month's chain before the next
// evolve stage, so corpus[m] always finds evolve[m]'s RIB and export[m]'s
// snapshot in memory: a cold serial run reads no artifact back.
TEST(PipelineTrace, SerialStageSpansDoNotNest) {
  const std::string dir = ::testing::TempDir() + "/trace_serial";
  std::filesystem::remove_all(dir);
  CampaignConfig config;
  config.synth.months = 3;
  config.synth.organization_count = 40;
  config.synth.probe_count = 40;
  config.threads = 1;
  config.out_dir = dir;

  obs::TraceRecorder recorder;
  obs::TraceRecorder::set_active(&recorder);
  const auto report = Campaign(config).run(/*resume=*/false);
  obs::TraceRecorder::set_active(nullptr);
  ASSERT_TRUE(report.error.empty()) << report.error;

  std::vector<obs::TraceEvent> stages;
  std::size_t corpus_builds = 0;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.category == "stage") stages.push_back(event);
    if (event.name == "corpus.build") ++corpus_builds;
    EXPECT_NE(event.name, "evolve.read_rib");
    EXPECT_NE(event.name, "corpus.read_rib");
    EXPECT_NE(event.name, "corpus.read_snapshot");
  }
  EXPECT_EQ(corpus_builds, 3u);
  ASSERT_GT(stages.size(), 3u);
  for (const obs::TraceEvent& outer : stages) {
    for (const obs::TraceEvent& inner : stages) {
      if (&outer == &inner) continue;
      const bool contains = outer.ts_us < inner.ts_us &&
                            inner.ts_us + inner.dur_us < outer.ts_us + outer.dur_us;
      EXPECT_FALSE(contains) << outer.name << " contains " << inner.name;
    }
  }
}

TEST(PipelineTrace, SibdbConversionEmitsServeSpans) {
  const std::string dir = ::testing::TempDir();
  const std::string csv = dir + "/trace_convert.csv";
  const std::string sibdb = dir + "/trace_convert.sibdb";
  ASSERT_TRUE(core::write_sibling_list(csv, {}));

  obs::TraceRecorder recorder;
  obs::TraceRecorder::set_active(&recorder);
  std::string error;
  const bool ok = serve::convert_sibling_list(csv, sibdb, &error);
  obs::TraceRecorder::set_active(nullptr);
  ASSERT_TRUE(ok) << error;

  bool saw_convert = false;
  bool saw_write = false;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.name == "sibdb.convert" && event.category == "serve") saw_convert = true;
    if (event.name == "sibdb.write" && event.category == "serve") saw_write = true;
  }
  EXPECT_TRUE(saw_convert);
  EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace sp::pipeline
