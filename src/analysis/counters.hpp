// Communication-cost accounting (Section 6).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
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

/// One JSON object combining the communication report, the queue report,
/// and (when given) a metrics-registry snapshot, flight-recorder trace
/// info, and the telemetry-backend report — what `tbcs_sim --stats`
/// prints on exit:
///   {"communication": {...}, "queue": {...}, "engine": {...},
///    "queue_impl": {...}, "obs": {...}?,
///    "metrics": {...} | null, "trace": {...} | null}
/// The "obs" block is present only when `obs` is non-null.
void write_stats_json(std::ostream& os, const sim::Simulator& sim,
                      const obs::MetricsRegistry::Snapshot* metrics = nullptr,
                      const obs::FlightRecorder* recorder = nullptr,
                      const ObsBackendReport* obs = nullptr);

}  // namespace tbcs::analysis
