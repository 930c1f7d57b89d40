#include "cli/experiment_run.hpp"

#include <cmath>

namespace tbcs::cli {

ExperimentRun::ExperimentRun(BuiltExperiment& built,
                             const ExperimentConfig& cfg, Options opt)
    : built_(built), cfg_(cfg), history_(resolve_history(cfg)) {
  // The exact diameter is O(n * m) BFS; past 64k nodes the two-sweep
  // estimate (exact on trees and paths, a lower bound otherwise) keeps
  // million-node runs from stalling before the first event.
  const graph::Graph& g = *built.graph;
  diameter_ = g.num_nodes() > 65536 ? g.diameter_2sweep() : g.diameter();
  global_bound_ = built.params.global_skew_bound(diameter_, cfg.eps, cfg.delay);
  local_bound_ = built.params.local_skew_bound(diameter_, cfg.eps, cfg.delay);

  analysis::SkewTracker::Options topt;
  if (opt.audit_oracle) topt.mode = analysis::SkewTracker::Mode::kAuditOracle;
  topt.audit_epsilon = opt.audit_epsilon;
  topt.track_per_distance = opt.per_distance;
  topt.history = history_;
  if (stair()) {
    // Sample (and record the series) on build_experiment's probe grid
    // k * delay, the same instants in every engine, so the sketch is
    // byte-identical across --shards and --jobs.  Logical rates stay in
    // [1-eps, (1+eps)(1+mu)]; that span times the step bounds the error.
    topt.sample_grid = cfg.delay;
    topt.error_rate_span =
        (1.0 + cfg.eps) * (1.0 + built.params.mu) - (1.0 - cfg.eps);
  } else if (opt.series) {
    topt.series_interval = cfg.duration / 200.0;
  }
  if (!built.timeline.empty()) {
    // "Recovered" = back inside the paper's envelope (Thm 5.5 / 5.10),
    // classified on the probe grid so recovery and stabilization times
    // match between the serial and sharded engines byte for byte.
    topt.recovery_global_bound = global_bound_;
    topt.recovery_local_bound = local_bound_;
    topt.recovery_classify_interval = cfg.delay;
    // Liars are not part of the guarantee: every skew figure is over the
    // correct subgraph only.
    for (const fault::ByzantineSpec& s : built.timeline.byzantine) {
      topt.exclude.push_back(s.node);
    }
  }
  tracker_ = std::make_unique<analysis::SkewTracker>(*built.simulator, topt);

  // "Stabilized" = an inserted edge's skew back within Thm 5.10 for good.
  if (!built.churn.empty()) {
    dyn::StabilizationProbe::Options popt;
    popt.bound = cfg.stab_bound > 0.0 ? cfg.stab_bound : local_bound_;
    popt.mu = built.params.mu;
    popt.history = history_;
    if (stair()) popt.sample_grid = cfg.delay;
    probe_ = std::make_unique<dyn::StabilizationProbe>(popt);
    probe_->preload(built.churn);
  }
  dyn::attach_dyn_observers(*built.simulator, tracker_.get(), probe_.get());
}

void ExperimentRun::run() {
  sim::Simulator& sim = *built_.simulator;
  if (!built_.timeline.empty()) {
    // Faults own the pacing; churn ops (if any) are already installed
    // and fire on their own, but no repartition driver runs.
    faults_ = std::make_unique<fault::FaultScheduler>(built_.timeline);
    faults_->set_listener([t = tracker_.get()](const fault::FaultEvent& e,
                                               double at) {
      if (e.kind == fault::FaultKind::kScramble) {
        t->note_scramble(at);
      } else {
        t->note_fault(at);
      }
    });
    faults_->run(sim, cfg_.duration);
  } else if (!built_.churn.empty()) {
    dyn::ChurnDriverOptions dopt;
    dopt.check_interval = cfg_.churn_check_interval > 0.0
                              ? cfg_.churn_check_interval
                              : cfg_.duration / 20.0;
    dopt.cut_growth = cfg_.churn_cut_growth;
    dopt.repartition = cfg_.churn_repartition;
    driver_ = std::make_unique<dyn::ChurnDriver>(sim, dopt);
    driver_->run(cfg_.duration);
  } else {
    sim.run_until(cfg_.duration);
  }

  analysis::RunReport& r = report_;
  if (!built_.churn.empty()) {
    r.churn = true;
    r.joins = sim.joins();
    r.leaves = sim.leaves();
    r.ops_scheduled = built_.churn.ops.size();
    r.edge_insertions = probe_->insertions();
    r.edges_stabilized = probe_->stabilized();
  }
  if (faults_) {
    // -1 = never re-entered the bounds (NaN would poison CSV parsing).
    const auto or_never = [](double t) { return std::isnan(t) ? -1.0 : t; };
    r.faults = true;
    r.faults_applied = faults_->applied();
    r.crashes = sim.crashes();
    r.recoveries = sim.recoveries();
    r.last_fault_time = tracker_->last_fault_time();
    r.recovery_time = or_never(tracker_->recovery_time());
    r.scrambles = sim.scrambles();
    if (r.scrambles > 0) {
      r.stabilization_time = or_never(tracker_->stabilization_time());
    }
    if (const fault::ChannelFaultPolicy* ch = built_.channel.get()) {
      r.channel = true;
      r.channel_dropped = ch->dropped();
      r.channel_duplicated = ch->duplicated();
      r.channel_corrupted = ch->corrupted();
    }
  }
}

}  // namespace tbcs::cli
