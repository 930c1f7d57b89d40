#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "analysis/trace.hpp"
#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "support/temp_file.hpp"

namespace tbcs::cli {
namespace {

// ---- ArgParser -------------------------------------------------------------

TEST(ArgParser, KeyEqualsValue) {
  ArgParser p({"--eps=0.05", "--topology=ring"});
  EXPECT_DOUBLE_EQ(p.get_double("eps", 0.0), 0.05);
  EXPECT_EQ(p.get_string("topology", ""), "ring");
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, KeySpaceValue) {
  ArgParser p({"--nodes", "32", "--algo", "max"});
  EXPECT_EQ(p.get_int("nodes", 0), 32);
  EXPECT_EQ(p.get_string("algo", ""), "max");
}

TEST(ArgParser, BooleanFlags) {
  ArgParser p({"--wake-all", "--per-distance", "--verbose=false"});
  EXPECT_TRUE(p.get_bool("wake-all"));
  EXPECT_TRUE(p.get_bool("per-distance"));
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.get_bool("absent"));
  EXPECT_TRUE(p.get_bool("absent", true));
}

TEST(ArgParser, DefaultsWhenMissing) {
  ArgParser p({});
  EXPECT_DOUBLE_EQ(p.get_double("eps", 0.01), 0.01);
  EXPECT_EQ(p.get_int("nodes", 7), 7);
  EXPECT_EQ(p.get_string("algo", "aopt"), "aopt");
}

TEST(ArgParser, MalformedNumbersReported) {
  ArgParser p({"--eps=abc"});
  p.get_double("eps", 0.0);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("eps"), std::string::npos);
}

TEST(ArgParser, UnknownKeysTracked) {
  ArgParser p({"--eps=0.1", "--typo=1"});
  p.get_double("eps", 0.0);
  const auto unknown = p.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, NonFlagArgumentIsError) {
  ArgParser p({"positional"});
  EXPECT_FALSE(p.ok());
}

TEST(ArgParser, BooleanFlagFollowedByStrayToken) {
  // Regression: "--help extra" used to bind "extra" as the value of
  // --help, so get_bool() returned the fallback and the stray token was
  // silently swallowed.  Now the flag reads true and the token errors.
  ArgParser p({"--help", "extra"});
  EXPECT_TRUE(p.get_bool("help"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("extra"), std::string::npos);
  // The reclassification is sticky: a second query stays true and does
  // not duplicate the error.
  EXPECT_TRUE(p.get_bool("help"));
  EXPECT_EQ(p.errors().size(), 1u);
}

TEST(ArgParser, BooleanFlagConsumesLiteralValue) {
  ArgParser p({"--wake-all", "false", "--verbose", "yes"});
  EXPECT_FALSE(p.get_bool("wake-all", true));
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, NegativeNumberAsSpacedValue) {
  // Regression: a value starting with '-' is a value, not a flag —
  // only "--"-prefixed tokens terminate the preceding option.
  ArgParser p({"--shift", "-0.5", "--offset", "-3"});
  EXPECT_DOUBLE_EQ(p.get_double("shift", 0.0), -0.5);
  EXPECT_EQ(p.get_int("offset", 0), -3);
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, ValueStartingWithDashViaEquals) {
  ArgParser p({"--label=-x"});
  EXPECT_EQ(p.get_string("label", ""), "-x");
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, BoolEqualsNonLiteralIsError) {
  ArgParser p({"--verbose=maybe"});
  EXPECT_FALSE(p.get_bool("verbose"));  // fallback
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("expects a boolean"), std::string::npos);
}

TEST(ArgParser, IntOutOfRangeIsErrorNotWrapped) {
  // Regression: strtol then static_cast<int> ran --nodes 4294967312 as
  // n = 16 and --seed 4294967297 as seed 1.
  ArgParser p({"--nodes", "4294967312", "--rows", "4294967297", "--cols",
               "99999999999999999999", "--dims", "2147483647", "--arity",
               "-2147483648"});
  EXPECT_EQ(p.get_int("nodes", 7), 7);
  EXPECT_EQ(p.get_int("rows", 3), 3);
  EXPECT_EQ(p.get_int("cols", 5), 5);
  EXPECT_EQ(p.get_int("dims", 0), 2147483647);
  EXPECT_EQ(p.get_int("arity", 0), -2147483647 - 1);
  ASSERT_EQ(p.errors().size(), 3u);
  EXPECT_EQ(p.errors()[0],
            "flag --nodes expects an integer in int range, got "
            "'4294967312'");
}

TEST(ArgParser, U64ParsesTheFullSeedRange) {
  ArgParser p({"--seed", "16834447057089888969", "--a", "18446744073709551615",
               "--b", "4294967297", "--c", "0"});
  EXPECT_EQ(p.get_u64("seed", 1), 16834447057089888969ULL);
  EXPECT_EQ(p.get_u64("a", 1), 18446744073709551615ULL);
  EXPECT_EQ(p.get_u64("b", 1), 4294967297ULL);
  EXPECT_EQ(p.get_u64("c", 1), 0u);
  EXPECT_EQ(p.get_u64("absent", 9), 9u);
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, U64RejectsSignOverflowAndJunk) {
  ArgParser p({"--neg", "-1", "--plus", "+5", "--big",
               "18446744073709551616", "--junk", "12abc", "--empty="});
  EXPECT_EQ(p.get_u64("neg", 1), 1u);
  EXPECT_EQ(p.get_u64("plus", 1), 1u);
  EXPECT_EQ(p.get_u64("big", 1), 1u);
  EXPECT_EQ(p.get_u64("junk", 1), 1u);
  EXPECT_EQ(p.get_u64("empty", 1), 1u);
  ASSERT_EQ(p.errors().size(), 5u);
  EXPECT_EQ(p.errors()[0],
            "flag --neg expects an unsigned decimal integer, got '-1'");
  EXPECT_EQ(p.errors()[1],
            "flag --plus expects an unsigned decimal integer, got '+5'");
  EXPECT_EQ(p.errors()[2],
            "flag --big expects an integer below 2^64, got "
            "'18446744073709551616'");
  EXPECT_EQ(p.errors()[3],
            "flag --junk expects an unsigned decimal integer, got '12abc'");
}

// ---- ExperimentConfig -------------------------------------------------------

// The three seed flags take the whole 64-bit range, so a tbcs_sweep row's
// derived seed replays in tbcs_sim; distinct seeds stay distinct.
TEST(ExperimentConfig, SeedFlagsAre64Bit) {
  ArgParser p({"--seed", "16834447057089888969", "--fault-seed",
               "17911839290282890590", "--churn-seed", "4294967297"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(cfg.seed, 16834447057089888969ULL);
  EXPECT_EQ(cfg.fault_seed, 17911839290282890590ULL);
  EXPECT_EQ(cfg.churn_seed, 4294967297ULL);

  ArgParser q({"--seed", "4294967295"});
  ExperimentConfig c2;
  apply_model_flags(q, c2);
  EXPECT_EQ(c2.seed, 4294967295ULL);
}

TEST(ExperimentConfig, NegativeSeedAndHugeNodeCountAreErrors) {
  ArgParser p({"--seed", "-1", "--nodes", "4294967312"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.errors().size(), 2u);
  EXPECT_EQ(cfg.seed, 1u);    // untouched default
  EXPECT_EQ(cfg.nodes, 16);   // untouched default, not 4294967312 mod 2^32
}

TEST(ExperimentConfig, BuildsAllTopologies) {
  for (const char* topo : {"path", "ring", "star", "complete", "grid", "torus",
                           "hypercube", "tree", "er"}) {
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.nodes = 8;
    cfg.rows = 3;
    cfg.cols = 3;
    cfg.dims = 3;
    cfg.arity = 2;
    cfg.levels = 3;
    const auto g = build_topology(cfg);
    EXPECT_GE(g.num_nodes(), 7) << topo;
    EXPECT_TRUE(g.connected()) << topo;
  }
}

TEST(ExperimentConfig, UnknownTopologyThrows) {
  ExperimentConfig cfg;
  cfg.topology = "moebius";
  EXPECT_THROW(build_topology(cfg), ConfigError);
}

TEST(ExperimentConfig, ResolvesPaperDefaults) {
  ExperimentConfig cfg;
  cfg.eps = 0.01;
  cfg.delay = 2.0;
  const auto p = resolve_params(cfg);
  EXPECT_NEAR(p.mu, 14.0 * 0.01 / 0.99, 1e-12);
  EXPECT_DOUBLE_EQ(p.h0, 2.0 / p.mu);
  EXPECT_TRUE(p.valid());
}

TEST(ExperimentConfig, ExplicitMuAndH0Kept) {
  ExperimentConfig cfg;
  cfg.mu = 0.5;
  cfg.h0 = 3.0;
  const auto p = resolve_params(cfg);
  EXPECT_DOUBLE_EQ(p.mu, 0.5);
  EXPECT_DOUBLE_EQ(p.h0, 3.0);
}

class EndToEndAlgo : public ::testing::TestWithParam<const char*> {};

TEST_P(EndToEndAlgo, BuildsAndRuns) {
  ExperimentConfig cfg;
  cfg.topology = "grid";
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.algorithm = GetParam();
  cfg.duration = 60.0;
  cfg.eps = 0.02;
  auto built = build_experiment(cfg);
  built.simulator->run_until(cfg.duration);
  for (sim::NodeId v = 0; v < built.simulator->num_nodes(); ++v) {
    EXPECT_TRUE(built.simulator->awake(v)) << cfg.algorithm << " node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, EndToEndAlgo,
                         ::testing::Values("aopt", "aopt-jump", "aopt-bounded",
                                           "aopt-adaptive", "aopt-external",
                                           "aopt-envelope", "aopt-ticks", "max",
                                           "max-rate", "avg", "free"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ExperimentConfig, UnknownAlgorithmThrows) {
  ExperimentConfig cfg;
  cfg.algorithm = "ntp";
  EXPECT_THROW(build_experiment(cfg), ConfigError);
}

// Removed options fail loudly instead of being ignored: the simulator has
// one event queue (no --queue), the stride knob gave way to the stair
// backend (no --skew-stride), and "bands" is no partition strategy.
TEST(ExperimentConfig, RemovedFlagsAreUnknown) {
  ArgParser p({"--queue", "heap", "--skew-stride", "4", "--nodes", "8"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_EQ(p.unknown_keys(),
            (std::vector<std::string>{"queue", "skew-stride"}));
}

// --per-distance is a tbcs_sim flag: the model flags shared with
// tbcs_sweep leave it unknown, so the sweep rejects it instead of
// silently dropping the profile.
TEST(ExperimentConfig, PerDistanceIsNotAModelFlag) {
  ArgParser p({"--per-distance", "--nodes", "8"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_EQ(p.unknown_keys(), (std::vector<std::string>{"per-distance"}));
}

TEST(ExperimentConfig, BandsPartitionIsRejected) {
  ArgParser p({"--partition", "bands"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_TRUE(p.unknown_keys().empty());
  for (const int shards : {0, 2}) {
    cfg.shards = shards;
    try {
      build_experiment(cfg);
      ADD_FAILURE() << "--partition bands accepted at shards=" << shards;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(),
                   "unknown --partition: bands (expected auto|block|ml)");
    }
  }
}

TEST(ExperimentConfig, AllDriftAndDelayModelsRun) {
  for (const char* drift : {"walk", "square", "sine", "const"}) {
    for (const char* delays :
         {"uniform", "fixed", "band", "bimodal", "burst", "hiding"}) {
      ExperimentConfig cfg;
      cfg.topology = "path";
      cfg.nodes = 6;
      cfg.drift = drift;
      cfg.delays = delays;
      auto built = build_experiment(cfg);
      built.simulator->run_until(40.0);
      EXPECT_GT(built.simulator->messages_delivered(), 0u)
          << drift << "/" << delays;
    }
  }
}

// A run shape no run can use is a ConfigError from the shared build path,
// not a run with -inf skews (negative duration) or a silent serial
// fallback (negative shard count).
TEST(ExperimentConfig, UnusableRunShapeIsRejected) {
  const auto rejected = [](auto&& mutate, const char* flag) {
    ExperimentConfig cfg;
    cfg.topology = "path";
    cfg.nodes = 6;
    mutate(cfg);
    try {
      build_experiment(cfg);
      ADD_FAILURE() << flag << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  for (const double d : {0.0, -5.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    rejected([d](ExperimentConfig& c) { c.duration = d; }, "--duration");
  }
  rejected([](ExperimentConfig& c) { c.shards = -2; }, "--shards");
  rejected([](ExperimentConfig& c) { c.min_shard_nodes = -1; },
           "--shards-min-nodes");
}

// ---- CSV trace ------------------------------------------------------------------

TEST(Trace, CsvEscaping) {
  EXPECT_EQ(analysis::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(analysis::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(analysis::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Trace, SeriesCsvRoundTrip) {
  ExperimentConfig cfg;
  cfg.topology = "path";
  cfg.nodes = 4;
  auto built = build_experiment(cfg);
  analysis::SkewTracker::Options topt;
  topt.series_interval = 5.0;
  analysis::SkewTracker tracker(*built.simulator, topt);
  tracker.attach(*built.simulator);
  built.simulator->run_until(100.0);

  std::ostringstream os;
  analysis::write_series_csv(os, tracker);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("t,global_skew,local_skew"), std::string::npos);
  // Header + at least ~15 sample rows.
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 10);
}

TEST(Trace, SnapshotCsvHasOneRowPerNode) {
  ExperimentConfig cfg;
  cfg.topology = "ring";
  cfg.nodes = 5;
  auto built = build_experiment(cfg);
  built.simulator->run_until(50.0);
  std::ostringstream os;
  analysis::write_snapshot_csv(os, *built.simulator);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);  // header + 5
}

// ---- tbcs_sim exit codes ---------------------------------------------------

struct ToolRun {
  int exit_code = -1;
  std::string err;
};

ToolRun run_tbcs_sim(const std::string& flags) {
  const testing_support::TempFile err("tbcs_sim_stderr.txt");
  const std::string cmd = std::string(TBCS_SIM_BIN) + " " + flags +
                          " > /dev/null 2> " + err.path();
  const int status = std::system(cmd.c_str());
  ToolRun r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  std::ifstream is(err.path());
  r.err.assign(std::istreambuf_iterator<char>(is),
               std::istreambuf_iterator<char>());
  return r;
}

// The per-distance profile is tracked only under --per-distance, so
// --profile-csv alone would write a header-only file and exit 0; it is a
// usage error instead.
TEST(TbcsSim, ProfileCsvWithoutPerDistanceIsAUsageError) {
  const testing_support::TempFile csv("tbcs_sim_profile.csv");
  const std::string run = "--topology ring --nodes 8 --duration 20";
  const ToolRun bad = run_tbcs_sim(run + " --profile-csv " + csv.path());
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("--profile-csv"), std::string::npos) << bad.err;
  EXPECT_NE(bad.err.find("--per-distance"), std::string::npos) << bad.err;
  EXPECT_FALSE(std::ifstream(csv.path()).good()) << "no file on a usage error";

  const ToolRun good =
      run_tbcs_sim(run + " --per-distance --profile-csv " + csv.path());
  EXPECT_EQ(good.exit_code, 0) << good.err;
  std::ifstream is(csv.path());
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "distance,max_skew");
  EXPECT_TRUE(std::getline(is, row)) << "profile has no rows";
}

TEST(TbcsSim, UnusableDurationIsAnError) {
  const ToolRun r = run_tbcs_sim("--topology ring --nodes 8 --duration -5");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("--duration must be a positive finite number"),
            std::string::npos)
      << r.err;
}

// Out-of-range recorder and heartbeat values used to fall back silently
// to the defaults (65536 records, every record, 5 s).
TEST(TbcsSim, BadTraceAndProgressValuesAreUsageErrors) {
  const std::string run = "--topology ring --nodes 8 --duration 20 ";
  for (const auto& [flags, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"--trace-capacity 0", "--trace-capacity"},
           {"--trace-sample -3", "--trace-sample"},
           {"--progress=abc", "--progress"},
           {"--progress=0", "--progress"},
           {"--progress=-1", "--progress"}}) {
    const ToolRun r = run_tbcs_sim(run + flags);
    EXPECT_EQ(r.exit_code, 2) << flags;
    EXPECT_NE(r.err.find(flag), std::string::npos) << flags << ": " << r.err;
  }
  EXPECT_EQ(run_tbcs_sim(run + "--progress=30").exit_code, 0);
}

}  // namespace
}  // namespace tbcs::cli
