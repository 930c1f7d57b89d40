// tbcs_sim — run a clock synchronization experiment from the command line.
//
//   tbcs_sim --topology grid --rows 6 --cols 6 --algo aopt --eps 0.01
//            --drift walk --delays uniform --duration 1000
//            --series-csv out.csv          (one command line)
//
// Prints a summary (skews vs the paper bounds) and optionally exports the
// time series / per-distance profile / final snapshot as CSV.
#include <fstream>
#include <iostream>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "analysis/ascii_chart.hpp"
#include "analysis/counters.hpp"
#include "analysis/table.hpp"
#include "analysis/trace.hpp"
#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "cli/experiment_run.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/recorder.hpp"

namespace {

constexpr const char* kUsage = R"(tbcs_sim — worst-case clock synchronization experiments

topology:   --topology path|ring|star|complete|grid|torus|hypercube|tree|er
            --nodes N | --rows R --cols C | --dims D | --arity A --levels L
            --er-p P
algorithm:  --algo aopt|ftgcs|kllo|aopt-jump|aopt-bounded|aopt-adaptive|
                   aopt-external|aopt-envelope|aopt-ticks|max|max-rate|
                   avg|free
            --tick-frequency F         (aopt-ticks)
            --ftgcs-f F        ftgcs: Byzantine neighbors tolerated per
                               node (trim depth; default 1)
            --ftgcs-filter M   ftgcs defense layers: both (default) |
                               envelope | trim | none (none + trim off
                               reduces to plain aopt)
            --stab-tolerance T / --stab-time S
                               kllo: initial tolerance of a fresh edge and
                               its decay period (0 = derived: 8 kappa,
                               tau0 / mu)
            --stab-bound B     stabilization-probe threshold: an inserted
                               edge is stabilized when its skew stays
                               <= B (0 = the Thm 5.10 local bound)
model:      --eps E --delay T --mu M --h0 H     (0 = paper defaults)
adversary:  --drift walk|rwalk|square|sine|const
                               rwalk = clamped random walk: the rate takes
                               bounded uniform increments, saturating at
                               [1-eps, 1+eps] (correlated, physical-
                               oscillator regime)
            --drift-interval T rate-change cadence / period override
                               (0 = per-model default: 10 T walk/rwalk,
                               40 T square, 80 T sine)
            --drift-step S     rwalk max |rate increment| (0 = eps / 2)
            --delays uniform|fixed|band|bimodal|burst|hiding
            --band-min F
faults:     --faults FILE      fault plan (docs/FAULTS.md); enables the
                               recovery-time probe against the paper
                               bounds.  Byzantine nodes are excluded from
                               every skew figure (the guarantee covers the
                               correct subgraph); a `scramble` directive
                               additionally reports the self-stabilization
                               time from the corruption to final re-entry
            --fault-seed S     seed for random fault directives (0 = --seed)
            --silence-timeout T / --influence-bound B
                               A^opt graceful-degradation knobs (plain
                               --algo aopt; 0 = off, paper behavior)
churn:      --churn-node-rate R / --churn-edge-rate R
                               dynamic membership: per-entity leave /
                               edge-removal rates (events per unit time;
                               0 = static network).  The schedule is a
                               pure function of the flags — byte-identical
                               at any --shards/--jobs setting
            --churn-downtime D mean absent/removed duration (0 = 20 T)
            --churn-node-fraction F / --churn-edge-fraction F
                               eligible fraction of nodes / base edges
            --churn-extra-edges F
                               insertion universe: extra initially-absent
                               random edges, as a fraction of |E|
            --churn-start T / --churn-stop T
                               churn window (0 = [4 T, duration]); pending
                               re-joins clamp to the stop so the network
                               ends whole
            --churn-min-present N / --churn-seed S
                               presence floor; 0 = derive seed from --seed
            --churn-repartition[=0]
                               sharded runs: repartition over the live
                               subgraph when the live cut fraction grows
                               past --churn-cut-growth x the baseline
                               (default 1.5); --churn-check-interval sets
                               the run/check cadence (0 = duration / 20)
run:        --duration T --seed S --wake-all --per-distance
            --audit-oracle     run the incremental skew tracker and the
                               full-rescan oracle side by side; abort on
                               any divergence (slow; for validation)
            --shards N         run the sharded time-window engine with N
                               lanes (0 = classic serial engine).  Needs a
                               delay policy with a positive minimum delay
                               (--delays band or fixed); output is
                               byte-identical for every N
            --shards-min-nodes M
                               auto-clamp the lane count so every lane
                               covers >= M nodes (default 64; 0 = off).
                               The effective count lands in the stats
                               JSON "engine" block
            --partition P      shard assignment: auto (default: ml for
                               trees, block elsewhere) | block (contiguous
                               id ranges) | ml (multilevel cut-
                               minimizing; best when node ids carry no
                               locality, e.g. ER)
            --progress[=SECS]  stderr heartbeat every SECS wall seconds
                               (default 5): wall time, sim time, events/s,
                               queue depth, current shard horizon
output:     --series-csv FILE --profile-csv FILE --snapshot-csv FILE
                               (--profile-csv needs --per-distance)
record:     --record FILE      save this execution (rates + delays)
            --replay FILE      re-run a saved execution (overrides the
                               adversary flags; topology/algo must match)
observe:    --obs-backend B    telemetry history backend: exact (default;
                               every sample retained, bit-identical to
                               the classic tracker) | stair (multi-
                               resolution sliding-window sketch: skew /
                               stabilization series grid-sampled every
                               --delay, geometric memory under
                               --obs-memory-kb, reported maxima within
                               the advertised error_bound of exact).
                               Observer-only: --record / --trace bytes
                               and the stair figures themselves are
                               identical across --shards
            --obs-memory-kb N  per-stream stair memory budget (default 64)
            --stats            print communication/queue/engine/obs/churn/
                               fault/trace figures as one JSON object on
                               exit (docs/OBSERVABILITY.md)
            --stats-json FILE  write the same JSON object to FILE (the
                               sharded-equivalence smoke test diffs these)
            --trace FILE       attach a flight recorder and save the binary
                               trace dump to FILE (inspect with tbcs_trace)
            --trace-capacity N ring capacity in records (default 65536)
            --trace-sample K   keep every K-th record (default 1 = all)
display:    --chart            render the skew time series in the terminal
)";

std::string count(std::uint64_t v) {
  return tbcs::analysis::Table::integer(static_cast<long long>(v));
}

/// v to `digits` decimals, or `none` when v is NaN.
std::string num_or(double v, int digits, const char* none) {
  return std::isnan(v) ? std::string(none)
                       : tbcs::analysis::Table::num(v, digits);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbcs;
  cli::ArgParser args(argc, argv);
  if (args.get_bool("help")) {
    std::cout << kUsage;
    return 0;
  }

  cli::ExperimentConfig cfg;
  cli::apply_model_flags(args, cfg);
  const std::string series_csv = args.get_string("series-csv", "");
  const std::string profile_csv = args.get_string("profile-csv", "");
  const std::string snapshot_csv = args.get_string("snapshot-csv", "");
  const std::string record_file = args.get_string("record", "");
  const std::string replay_file = args.get_string("replay", "");
  const bool chart = args.get_bool("chart");
  const bool per_distance = args.get_bool("per-distance");
  const bool audit_oracle = args.get_bool("audit-oracle");
  const bool stats = args.get_bool("stats");
  const std::string stats_json = args.get_string("stats-json", "");
  const std::string trace_file = args.get_string("trace", "");
  const int trace_capacity = args.get_int("trace-capacity", 1 << 16);
  const int trace_sample = args.get_int("trace-sample", 1);
  double progress_secs = 0.0;
  bool progress_ok = true;
  if (args.has("progress")) {
    // Bare --progress means "the default cadence"; --progress=SECS tunes it.
    const std::string p = args.get_string("progress", "");
    if (p.empty() || p == "true") {
      progress_secs = 5.0;
    } else {
      char* end = nullptr;
      progress_secs = std::strtod(p.c_str(), &end);
      progress_ok = *end == '\0' && progress_secs > 0.0 &&
                    std::isfinite(progress_secs);
    }
  }

  for (const auto& key : args.unknown_keys()) {
    std::cerr << "error: unknown flag --" << key << "\n" << kUsage;
    return 2;
  }
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::cerr << "error: " << e << "\n";
    return 2;
  }
  if (trace_capacity <= 0) {
    std::cerr << "error: --trace-capacity must be >= 1 record, got "
              << trace_capacity << "\n";
    return 2;
  }
  if (trace_sample <= 0) {
    std::cerr << "error: --trace-sample must be >= 1 (1 = keep every "
                 "record), got "
              << trace_sample << "\n";
    return 2;
  }
  if (!progress_ok) {
    std::cerr << "error: --progress=SECS needs a positive number of "
                 "seconds, got '"
              << args.get_string("progress", "") << "'\n";
    return 2;
  }
  if (!profile_csv.empty() && !per_distance) {
    std::cerr << "error: --profile-csv writes the per-distance skew profile, "
                 "which is tracked only with --per-distance; add "
                 "--per-distance or drop --profile-csv\n";
    return 2;
  }

  try {
    cli::resolve_history(cfg);  // reject a bad --obs-backend before building
    auto built = cli::build_experiment(cfg);
    sim::Simulator& sim = *built.simulator;
    if (progress_secs > 0.0) sim.set_progress(progress_secs);

    // With channel faults installed, record/replay policies go *inside*
    // the fault decorator: faults perturb the recorded honest delays, so
    // a faulty run replays (and diffs) bit-identically.
    const auto install_delay_policy =
        [&](std::shared_ptr<sim::DelayPolicy> policy) {
          if (built.channel) {
            built.channel->set_inner(std::move(policy));
          } else {
            sim.set_delay_policy(std::move(policy));
          }
        };
    auto record_log = std::make_shared<sim::ExecutionLog>();
    if (!replay_file.empty()) {
      std::ifstream is(replay_file);
      if (!is) {
        std::cerr << "error: cannot open " << replay_file << "\n";
        return 1;
      }
      auto loaded = std::make_shared<const sim::ExecutionLog>(
          sim::ExecutionLog::load(is));
      sim.set_drift_policy(std::make_shared<sim::ReplayDriftPolicy>(loaded));
      install_delay_policy(std::make_shared<sim::ReplayDelayPolicy>(loaded));
      std::cout << "replaying " << replay_file << " ("
                << loaded->deliveries.size() << " deliveries)\n";
    } else if (!record_file.empty()) {
      sim.set_drift_policy(std::make_shared<sim::RecordingDriftPolicy>(
          built.drift, record_log));
      install_delay_policy(std::make_shared<sim::RecordingDelayPolicy>(
          built.delay, record_log));
    }

    obs::FlightRecorder recorder([&] {
      obs::FlightRecorder::Options ropt;
      ropt.capacity = static_cast<std::size_t>(trace_capacity);
      ropt.sample_every = static_cast<std::uint64_t>(trace_sample);
      return ropt;
    }());
    if (!trace_file.empty()) {
      if (!obs::kTraceCompiled) {
        std::cerr << "warning: --trace requested but tracing was compiled "
                     "out (TBCS_TRACE=OFF); the dump will be empty\n";
      }
      recorder.set_num_nodes(static_cast<std::uint64_t>(built.graph->num_nodes()));
      sim.set_flight_recorder(&recorder);
    }

    // The per-distance profile materializes all-pairs distances (O(n^2)
    // memory); refuse outright where that is gigabytes, instead of
    // thrashing for hours.
    if (per_distance && built.graph->num_nodes() > 16384) {
      std::cerr << "error: --per-distance stores all-pairs distances "
                   "(O(n^2)); refusing at n > 16384.  Use the skew "
                   "summary / --series-csv for large runs.\n";
      return 2;
    }
    cli::ExperimentRun run(built, cfg,
                           {.audit_epsilon = cfg.eps,
                            .series = true,
                            .per_distance = per_distance,
                            .audit_oracle = audit_oracle});
    run.run();
    const analysis::SkewTracker& tracker = run.tracker();
    const dyn::StabilizationProbe* probe = run.probe();
    const obs::HistoryConfig& hcfg = run.history();

    using analysis::Table;
    Table summary({"metric", "value"});
    summary.add_row({"topology", cfg.topology + " (n=" +
                                     std::to_string(built.graph->num_nodes()) +
                                     ", D=" + std::to_string(run.diameter()) + ")"});
    summary.add_row({"algorithm", cfg.algorithm});
    if (sim.shards() > 0) {
      const auto bal = sim.partition()->balance();
      summary.add_row({"shards", std::to_string(sim.shards()) + " (" + cfg.partition +
                                     ", cut " + std::to_string(bal.cut_edges) + "/" +
                                     std::to_string(built.graph->num_edges()) +
                                     " edges, imbalance " + Table::num(bal.imbalance, 3) + ")"});
    }
    summary.add_row({"mu / H0 / kappa", Table::num(built.params.mu, 4) + " / " +
                                             Table::num(built.params.h0, 3) + " / " +
                                             Table::num(built.params.kappa, 3)});
    summary.add_row({"duration", Table::num(sim.now(), 1)});
    summary.add_row({"messages", count(sim.messages_delivered())});
    summary.add_row({"global skew", Table::num(tracker.max_global_skew(), 4)});
    summary.add_row({"global bound G (Thm 5.5)", Table::num(run.global_bound(), 4)});
    summary.add_row({"local skew", Table::num(tracker.max_local_skew(), 4)});
    summary.add_row({"local bound (Thm 5.10)", Table::num(run.local_bound(), 4)});
    summary.add_row({"envelope violation", Table::num(tracker.max_envelope_violation(), 6)});
    summary.add_row({"rates seen", "[" + Table::num(tracker.min_logical_rate(), 4) + ", " +
                                       Table::num(tracker.max_logical_rate(), 4) + "]"});
    if (run.stair()) {
      summary.add_row({"history backend",
           std::string(obs::history_backend_name(hcfg.backend)) + " (budget " +
               std::to_string(hcfg.memory_budget_bytes / 1024) + " KB, used " +
               std::to_string(tracker.history_memory_bytes()) +
               " B, skew err <= " +
               Table::num(tracker.skew_error_bound(), 4) + ")"});
    }
    if (!built.churn.empty()) {
      summary.add_row({"churn ops", count(built.churn.ops.size()) + " (" +
                                        count(sim.joins()) + " joins, " +
                                        count(sim.leaves()) + " leaves)"});
      if (const dyn::ChurnDriver* driver = run.churn_driver()) {
        summary.add_row(
            {"repartitions",
             count(sim.repartitions()) + " (live cut " +
                 Table::num(driver->last_cut_fraction(), 3) + ", baseline " +
                 Table::num(driver->baseline_cut_fraction(), 3) + ")"});
      }
      if (probe && probe->insertions() > 0) {
        summary.add_row({"edge insertions observed", count(probe->insertions())});
        summary.add_row({"stabilized (within local bound)",
                         count(probe->stabilized()) + " / " +
                             count(probe->insertions())});
        const double mean_s = probe->mean_stabilization_time();
        summary.add_row(
            {"stabilization time (mean/max)",
             std::isnan(mean_s)
                 ? std::string("n/a")
                 : Table::num(mean_s, 2) + " / " +
                       Table::num(probe->max_stabilization_time(), 2)});
        summary.add_row({"KLLO predicted (mean skew0/mu)",
                         num_or(probe->mean_predicted_time(), 2, "n/a")});
      }
    }
    if (const fault::FaultScheduler* faults = run.faults()) {
      summary.add_row({"faults applied", count(faults->applied())});
      summary.add_row({"crashes / recoveries",
                       count(sim.crashes()) + " / " + count(sim.recoveries())});
      summary.add_row({"messages dropped", count(sim.messages_dropped())});
      summary.add_row({"last fault at", Table::num(tracker.last_fault_time(), 1)});
      summary.add_row({"recovery time",
                       num_or(tracker.recovery_time(), 2, "not recovered")});
      if (sim.scrambles() > 0) {
        summary.add_row({"scrambles applied", count(sim.scrambles())});
        summary.add_row(
            {"stabilization time",
             num_or(tracker.stabilization_time(), 2, "not stabilized")});
      }
    }
    summary.print(std::cout);

    if (chart) {
      analysis::ChartOptions copt;
      for (const bool local : {false, true}) {
        std::cout << "\n";
        copt.label = local ? "local skew" : "global skew";
        copt.reference = local ? run.local_bound() : run.global_bound();
        analysis::render_skew_chart(std::cout, tracker.series(), local, copt);
      }
    }

    const auto write = [](const std::string& path, auto&& writer) {
      if (path.empty()) return;
      std::ofstream os(path);
      writer(os);
      std::cout << "wrote " << path << "\n";
    };
    write(series_csv, [&](std::ostream& os) { analysis::write_series_csv(os, tracker); });
    write(profile_csv,
          [&](std::ostream& os) { analysis::write_distance_profile_csv(os, tracker); });
    write(snapshot_csv, [&](std::ostream& os) { analysis::write_snapshot_csv(os, sim); });
    if (!record_file.empty() && replay_file.empty()) {
      write(record_file, [&](std::ostream& os) { record_log->save(os); });
    }
    if (!trace_file.empty()) {
      std::ofstream os(trace_file, std::ios::binary);
      if (!os) {
        std::cerr << "error: cannot open " << trace_file << " for writing\n";
        return 1;
      }
      recorder.save(os);
      std::cout << "wrote " << trace_file << " (" << recorder.size()
                << " of " << recorder.total_recorded() << " records kept)\n";
    }
    if (stats || !stats_json.empty()) {
      // Every figure in the "obs" block is a pure function of the
      // grid-sampled append sequence, hence identical across
      // --shards — the byte-comparison gates rely on that.
      analysis::ObsBackendReport obs_report;
      obs_report.backend = obs::history_backend_name(hcfg.backend);
      obs_report.budget_bytes = hcfg.memory_budget_bytes;
      obs_report.error_bound = tracker.skew_error_bound();
      if (run.stair()) {
        const obs::HistoryStore* stores[] = {
            &tracker.global_history(), &tracker.local_history(),
            probe ? probe->stabilization_history() : nullptr};
        for (const obs::HistoryStore* s : stores) {
          if (s == nullptr) continue;
          obs_report.appends += s->appends();
          obs_report.memory_bytes += s->memory_bytes();
          obs_report.windows += s->windows().size();
          obs_report.coarsest_window_span = std::max(
              obs_report.coarsest_window_span, s->coarsest_window_span());
        }
      }
      obs::FlightRecorder* rec = trace_file.empty() ? nullptr : &recorder;
      if (stats) {
        analysis::write_stats_json(std::cout, sim, &run.report(), rec,
                                   &obs_report);
      }
      if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
          std::cerr << "error: cannot open " << stats_json << " for writing\n";
          return 1;
        }
        analysis::write_stats_json(os, sim, &run.report(), rec, &obs_report);
        std::cout << "wrote " << stats_json << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
