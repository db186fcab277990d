// Golden-figure regression suite: runs the figure benches at
// --scale 0.05 --seed 1 (plus --jobs 2 for the engine figures) and
// byte-compares their golden CSVs against checked-in copies
// (tests/golden/). The `#` comment lines
// (seed/jobs/wall_s) are stripped on both sides — wall-clock is outside
// the determinism contract; everything else is inside it. Any intentional
// change to sampling, statistics, or the simulation model shows up as a
// reviewable golden diff: regenerate with tools/regen_golden.sh and commit
// the result alongside the change that caused it.
//
// The bench binary directory and the golden directory are injected by
// tests/CMakeLists.txt (BENCH_DIR / GOLDEN_DIR).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Flags shared by the engine figures, and by the benches that drive
/// Campaign directly (or fig12 outside --monitor) and so refuse --jobs
/// (flag::kBasic).
constexpr const char* kEngineArgs = "--scale 0.05 --seed 1 --jobs 2";
constexpr const char* kBasicArgs = "--scale 0.05 --seed 1";

/// One figure under regression: which binary, which extra flags, which of
/// its CSVs are golden artifacts (a bench that derives several figures
/// from one sweep owns several), and which shared flags it takes. Flags
/// here must match tools/regen_golden.sh exactly.
struct GoldenCase {
  const char* bench;
  const char* extra_args;
  std::vector<const char*> csvs;
  const char* common_args = kEngineArgs;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Drops `#` comment lines; the remainder is compared byte-for-byte.
std::string strip_comments(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "golden_XXXXXX";
    dir_ = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    if (dir_.empty()) return;
    std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

void check_golden(const GoldenCase& c) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  std::string cmd = std::string(BENCH_DIR) + "/" + c.bench + " " +
                    c.common_args + " " + c.extra_args + " --out '" +
                    tmp.path() + "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  for (const char* csv : c.csvs) {
    std::string produced = strip_comments(read_file(tmp.path() + "/" + csv));
    std::string golden =
        strip_comments(read_file(std::string(GOLDEN_DIR) + "/" + csv));
    ASSERT_FALSE(produced.empty()) << c.bench << " wrote an empty " << csv;
    EXPECT_EQ(produced, golden)
        << csv << " drifted from tests/golden/. If the change is intended, "
        << "regenerate with tools/regen_golden.sh and commit the diff.";
  }
}

// Table 10 is derived from fig2a's curl sweep, so the one run pins both.
TEST(GoldenFigures, Fig2aWebsiteCurl) {
  check_golden({"bench_fig2a_website_curl", "",
                {"fig2a_boxes.csv", "table10_means.csv"}});
}

// Fig 11 (speed index) is derived from fig2b's selenium sweep.
TEST(GoldenFigures, Fig11SpeedIndexFromFig2b) {
  check_golden({"bench_fig2b_website_selenium", "",
                {"fig11_speed_index.csv"}});
}

// Fig 8 (reliability) is derived from fig5's download sweep.
TEST(GoldenFigures, Fig5FileDownload) {
  check_golden({"bench_fig5_file_download", "",
                {"fig5_times.csv", "fig8a_outcomes.csv",
                 "fig8b_fraction_ecdf.csv"}});
}

TEST(GoldenFigures, Fig6Ttfb) {
  check_golden({"bench_fig6_ttfb", "", {"fig6_ttfb_ecdf.csv"}});
}

// Nine client x server campaigns on one config.
TEST(GoldenFigures, Fig7Location) {
  check_golden({"bench_fig7_location", "", {"fig7_location.csv"}});
}

TEST(GoldenFigures, MediumChange) {
  check_golden({"bench_medium_change", "", {"medium_change.csv"}});
}

// fig8 is the §4.6 fault-injected rerun of fig5's sweep.
TEST(GoldenFigures, Fig8Reliability) {
  check_golden({"bench_fig8_reliability", "--retries 1",
                {"fig8a_outcomes_faults.csv"}});
}

// fig10a's timeline is emitted by the population engine (weekly aggregates
// of the emergent Iran-surge trajectory, docs/POPULATION.md), not written
// as literals — this golden pins the model's output, anchors included.
TEST(GoldenFigures, Fig10aPopulationTimeline) {
  check_golden({"bench_fig10_snowflake_load", "", {"fig10a_timeline.csv"}});
}

// fig12's weekly boxes sample the same population trajectory at weekly
// windows; the golden pins the emergent utilization pathway end to end.
// Outside --monitor, fig12 runs one hand-built world and refuses --jobs.
TEST(GoldenFigures, Fig12WeeklyBoxes) {
  check_golden({"bench_fig12_snowflake_monitor", "", {"fig12_weekly.csv"},
                kBasicArgs});
}

// Fig 3 and Fig 4 fetch over bespoke shared-bridge stacks, outside the
// sharded engine.
TEST(GoldenFigures, Fig3FixedCircuit) {
  check_golden({"bench_fig3_fixed_circuit", "",
                {"fig3a_boxes.csv", "fig3b_ecdf.csv"}, kBasicArgs});
}

TEST(GoldenFigures, Fig4FixedGuard) {
  check_golden({"bench_fig4_fixed_guard", "", {"fig4_per_site.csv"},
                kBasicArgs});
}

// The four ablations drive Campaign directly on hand-built stacks.
TEST(GoldenFigures, Ablations) {
  check_golden({"bench_ablations", "",
                {"ablation_guard_load.csv", "ablation_dnstt_cap.csv",
                 "ablation_camoufler_rate.csv", "ablation_snowflake_churn.csv"},
                kBasicArgs});
}

}  // namespace
