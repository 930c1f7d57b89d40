#include "analysis/counters.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/flight_recorder.hpp"

namespace tbcs::analysis {

namespace {

// Full round-trip precision, so a time in the "fault" block reads back as
// the exact double the probe measured; null when not finite.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

CommunicationReport CommunicationReport::capture(const sim::Simulator& sim) {
  CommunicationReport r;
  r.broadcasts = sim.broadcasts();
  r.transmissions = sim.messages_delivered();
  r.duration = sim.now();
  if (sim.num_nodes() > 0 && sim.now() > 0.0) {
    r.amortized_frequency =
        static_cast<double>(r.broadcasts) / (sim.num_nodes() * sim.now());
  }
  return r;
}

CommunicationReport operator-(const CommunicationReport& late,
                              const CommunicationReport& early) {
  CommunicationReport r;
  r.broadcasts = late.broadcasts - early.broadcasts;
  r.transmissions = late.transmissions - early.transmissions;
  r.duration = late.duration - early.duration;
  if (r.duration > 0.0 && late.broadcasts >= early.broadcasts) {
    // Frequency over the window; caller divides by n if needed.
    r.amortized_frequency = static_cast<double>(r.broadcasts) / r.duration;
  }
  return r;
}

QueueReport QueueReport::capture(const sim::Simulator& sim) {
  QueueReport r;
  const sim::LadderQueue::Stats& s = sim.queue_stats();
  r.peak_size = s.peak_size;
  r.pushes = s.pushes;
  r.pops = s.pops;
  r.timer_arms = sim.timer_arms();
  r.timer_fires = sim.timer_fires();
  r.timer_cancels = sim.timer_cancels();
  if (r.timer_arms > 0) {
    r.cancel_share = static_cast<double>(r.timer_cancels) /
                     static_cast<double>(r.timer_arms);
  }
  return r;
}

void write_stats_json(std::ostream& os, const sim::Simulator& sim,
                      const RunReport* report,
                      const obs::FlightRecorder* recorder,
                      const ObsBackendReport* obs) {
  const CommunicationReport comm = CommunicationReport::capture(sim);
  const QueueReport queue = QueueReport::capture(sim);
  const auto p = os.precision(12);
  os << "{\n  \"communication\": {"
     << "\"broadcasts\": " << comm.broadcasts
     << ", \"transmissions\": " << comm.transmissions
     << ", \"duration\": " << comm.duration
     << ", \"amortized_frequency\": " << comm.amortized_frequency
     << ", \"events\": " << sim.events_processed()
     << ", \"messages_dropped\": " << sim.messages_dropped() << "},\n";
  os << "  \"queue\": {"
     << "\"peak_size\": " << queue.peak_size
     << ", \"pushes\": " << queue.pushes
     << ", \"pops\": " << queue.pops
     << ", \"timer_arms\": " << queue.timer_arms
     << ", \"timer_fires\": " << queue.timer_fires
     << ", \"timer_cancels\": " << queue.timer_cancels
     << ", \"cancel_share\": " << queue.cancel_share << "},\n";
  // Engine shape: requested vs auto-clamped shard count, the partition
  // strategy and its balance, and the window / observation-barrier
  // counts.  Deliberately partition-*dependent* — byte-comparison gates
  // that check shard-count invariance filter this block out by its one
  // line.
  const graph::Partition* part = sim.partition();
  os << "  \"engine\": {"
     << "\"shards_requested\": " << sim.shards_requested()
     << ", \"shards_effective\": " << sim.shards()
     << ", \"partition\": \""
     << (sim.shards() > 0 ? sim.partition_strategy() : std::string("serial"))
     << "\", \"imbalance\": "
     << (part != nullptr ? part->balance().imbalance : 0.0)
     << ", \"windows\": " << sim.windows()
     << ", \"observation_barriers\": " << sim.observation_barriers()
     << "},\n";
  // Queue internals: bucket churn, wheel cascades, reserved capacity.
  // Partition-dependent by nature, so the same byte-comparison gates
  // strip this block too.
  const sim::Simulator::QueueImplInfo qi = sim.queue_impl_info();
  os << "  \"queue_impl\": {"
     << "\"resorts\": " << qi.resorts
     << ", \"spills\": " << qi.spills
     << ", \"rebuckets\": " << qi.rebuckets
     << ", \"run_inserts\": " << qi.run_inserts
     << ", \"peak_rungs\": " << qi.peak_rungs
     << ", \"wheel_cascades\": " << qi.wheel_cascades
     << ", \"wheel_rebases\": " << qi.wheel_rebases
     << ", \"queue_capacity\": " << qi.queue_capacity
     << ", \"slab_capacity\": " << qi.slab_capacity
     << ", \"wheel_capacity\": " << qi.wheel_capacity << "},\n";
  // Telemetry history backend.  Unlike "engine"/"queue_impl" this block is
  // engine-invariant by contract (see ObsBackendReport), so the
  // byte-comparison gates keep it.
  if (obs != nullptr) {
    os << "  \"obs\": {"
       << "\"backend\": \"" << obs->backend
       << "\", \"budget_bytes\": " << obs->budget_bytes
       << ", \"error_bound\": ";
    if (std::isfinite(obs->error_bound)) {
      os << obs->error_bound;
    } else {
      os << "null";
    }
    if (obs->backend != "exact") {
      os << ", \"appends\": " << obs->appends
         << ", \"memory_bytes\": " << obs->memory_bytes
         << ", \"windows\": " << obs->windows
         << ", \"coarsest_window_span\": " << obs->coarsest_window_span;
    }
    os << "},\n";
  }
  if (report != nullptr && report->churn) {
    os << "  \"churn\": {"
       << "\"joins\": " << report->joins
       << ", \"leaves\": " << report->leaves
       << ", \"ops_scheduled\": " << report->ops_scheduled
       << ", \"edge_insertions\": " << report->edge_insertions
       << ", \"edges_stabilized\": " << report->edges_stabilized << "},\n";
  }
  if (report != nullptr && report->faults) {
    os << "  \"fault\": {"
       << "\"events_applied\": " << report->faults_applied
       << ", \"crashes\": " << report->crashes
       << ", \"recoveries\": " << report->recoveries
       << ", \"last_fault_time\": " << json_number(report->last_fault_time)
       << ", \"recovery_time\": " << json_number(report->recovery_time);
    if (report->scrambles > 0) {
      os << ", \"scrambles\": " << report->scrambles
         << ", \"stabilization_time\": "
         << json_number(report->stabilization_time);
    }
    if (report->channel) {
      os << ", \"channel_dropped\": " << report->channel_dropped
         << ", \"channel_duplicated\": " << report->channel_duplicated
         << ", \"channel_corrupted\": " << report->channel_corrupted;
    }
    os << "},\n";
  }
  os << "  \"trace\": ";
  if (recorder != nullptr) {
    os << "{\"compiled\": " << (obs::kTraceCompiled ? "true" : "false")
       << ", \"capacity\": " << recorder->capacity()
       << ", \"sample_every\": " << recorder->sample_every()
       << ", \"total_recorded\": " << recorder->total_recorded()
       << ", \"held\": " << recorder->size()
       << ", \"overwritten\": " << recorder->overwritten() << "}";
  } else {
    os << "null";
  }
  os << "\n}\n";
  os.precision(p);
}

}  // namespace tbcs::analysis
