// Communication-cost accounting (Section 6).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

#include "sim/simulator.hpp"

namespace tbcs::obs {
class FlightRecorder;
}

namespace tbcs::analysis {

/// Snapshot of the communication counters of a simulator, with the
/// amortized per-node message frequency of Section 6.1.
struct CommunicationReport {
  std::uint64_t broadcasts = 0;          // send events (one per Algorithm 1/2 send)
  std::uint64_t transmissions = 0;       // per-link message deliveries
  double duration = 0.0;                 // observed real-time span
  double amortized_frequency = 0.0;      // broadcasts / (n * duration)

  static CommunicationReport capture(const sim::Simulator& sim);
};

/// Difference of two snapshots (for measuring a window).
CommunicationReport operator-(const CommunicationReport& late,
                              const CommunicationReport& early);

/// Event-queue health: high-water mark, churn, and the timer-wheel
/// traffic (arms/fires/cancels; timers never enter the event queue).  A
/// cancel share near 1 means timers are re-armed much faster than they
/// fire — dead weight the wheel removes in O(1) where the old engine
/// popped stale heap entries.  All fields are canonical (identical across
/// shard counts); the queue's bucket internals and reserved capacity land
/// in the separate "queue_impl" stats block, which the byte-compare gates
/// strip.
struct QueueReport {
  std::size_t peak_size = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t timer_arms = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t timer_cancels = 0;
  double cancel_share = 0.0;  // timer_cancels / timer_arms

  static QueueReport capture(const sim::Simulator& sim);
};

/// Telemetry history-backend summary for the "obs" stats block.  Every
/// field here must be engine-invariant (identical across --shards /
/// --jobs): backend and budget are configuration, and the stair
/// figures are pure functions of the grid-sampled append sequence, which
/// the probe grid pins to k * delay in every engine.
struct ObsBackendReport {
  std::string backend;           // "exact" | "stair"
  std::size_t budget_bytes = 0;  // per-stream stair budget
  double error_bound = 0.0;      // advertised |exact - reported| bound (NaN:
                                 // not quantifiable, serialized as null)
  // Stair-only figures (emitted when backend != "exact").
  std::uint64_t appends = 0;        // grid samples recorded
  std::size_t memory_bytes = 0;     // bytes retained across the stores
  std::size_t windows = 0;          // retained windows across the stores
  double coarsest_window_span = 0.0;  // widest merged window (time units)
};

/// The run's deterministic churn and fault figures: the "churn" and
/// "fault" stats blocks and the sweep's fault columns.  Every field is
/// engine-invariant (identical across --shards / --jobs); the churn
/// repartition count is placement-dependent and stays out.  A recovery or
/// stabilization that never happened is coded -1, so a CSV column stays
/// numeric.
struct RunReport {
  bool churn = false;  // churn was on: the churn figures are meaningful
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t ops_scheduled = 0;
  std::uint64_t edge_insertions = 0;   // stabilization-probe insertions
  std::uint64_t edges_stabilized = 0;  // ... back within the probe bound

  bool faults = false;  // a fault plan ran: the fault figures are meaningful
  std::uint64_t faults_applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  double last_fault_time = std::numeric_limits<double>::quiet_NaN();
  double recovery_time = -1.0;
  std::uint64_t scrambles = 0;          // stabilization_time only when > 0
  double stabilization_time = -1.0;
  bool channel = false;  // channel-fault windows were installed
  std::uint64_t channel_dropped = 0;
  std::uint64_t channel_duplicated = 0;
  std::uint64_t channel_corrupted = 0;
};

/// One JSON object combining the communication report, the queue report,
/// and (when given) the churn/fault report, flight-recorder trace info,
/// and the telemetry-backend report — what `tbcs_sim --stats` prints on
/// exit:
///   {"communication": {...}, "queue": {...}, "engine": {...},
///    "queue_impl": {...}, "obs": {...}?, "churn": {...}?,
///    "fault": {...}?, "trace": {...} | null}
/// "obs" is present only when `obs` is non-null; "churn" and "fault" only
/// when `report` is non-null and that feature was on.
void write_stats_json(std::ostream& os, const sim::Simulator& sim,
                      const RunReport* report = nullptr,
                      const obs::FlightRecorder* recorder = nullptr,
                      const ObsBackendReport* obs = nullptr);

}  // namespace tbcs::analysis
