// Pass-through decorators that time the calls the simulator makes into
// its layers.  Each forwards every virtual unchanged, so a decorated run
// produces the same execution as an undecorated one (the benchmark checks
// this on every traced run by comparing fingerprints).
//
// A TimedNode must sit *inside* a fault::ByzantineNode, never around it:
// fault::FaultScheduler finds liars with dynamic_cast<ByzantineNode*>.
#pragma once

#include <memory>
#include <vector>

#include "sim/delay_policy.hpp"
#include "sim/drift_policy.hpp"
#include "sim/node.hpp"

namespace perfbench {

/// Times broadcast / set_timer / cancel_timer; forwards the rest.
class TimedServices final : public tbcs::sim::NodeServices {
 public:
  explicit TimedServices(tbcs::sim::NodeServices& inner) : inner_(inner) {}

  tbcs::sim::NodeId id() const override;
  tbcs::sim::ClockValue hardware_now() const override;
  void broadcast(const tbcs::sim::Message& m) override;
  void set_timer(int slot, tbcs::sim::ClockValue hardware_target) override;
  void cancel_timer(int slot) override;

 private:
  tbcs::sim::NodeServices& inner_;
};

/// Times every callback as a handler span and hands the inner node a
/// TimedServices.
class TimedNode final : public tbcs::sim::Node {
 public:
  explicit TimedNode(std::unique_ptr<tbcs::sim::Node> inner)
      : inner_(std::move(inner)) {}

  void on_wake(tbcs::sim::NodeServices& sv,
               const tbcs::sim::Message* by_message) override;
  void on_message(tbcs::sim::NodeServices& sv,
                  const tbcs::sim::Message& m) override;
  void on_timer(tbcs::sim::NodeServices& sv, int slot) override;
  void on_link_change(tbcs::sim::NodeServices& sv, tbcs::sim::NodeId neighbor,
                      bool up) override;
  void on_rejoin(tbcs::sim::NodeServices& sv) override;
  void on_scramble(tbcs::sim::NodeServices& sv, std::uint64_t seed,
                   double magnitude) override;
  tbcs::sim::ClockValue logical_at(
      tbcs::sim::ClockValue hardware_now) const override;
  double rate_multiplier() const override;

 private:
  std::unique_ptr<tbcs::sim::Node> inner_;
};

class TimedDelay final : public tbcs::sim::DelayPolicy {
 public:
  explicit TimedDelay(std::shared_ptr<tbcs::sim::DelayPolicy> inner)
      : inner_(std::move(inner)) {}

  tbcs::sim::RealTime delivery_time(tbcs::sim::NodeId from,
                                    tbcs::sim::NodeId to,
                                    tbcs::sim::RealTime send_time,
                                    const tbcs::sim::Simulator& sim) override;
  void plan_deliveries(tbcs::sim::NodeId from, tbcs::sim::NodeId to,
                       tbcs::sim::RealTime send_time,
                       const tbcs::sim::Simulator& sim,
                       std::vector<tbcs::sim::PlannedDelivery>& out) override;
  bool plans_deliveries() const override;
  tbcs::sim::Duration min_delay() const override;
  tbcs::sim::Duration min_delay(tbcs::sim::NodeId from,
                                tbcs::sim::NodeId to) const override;
  void prepare(tbcs::sim::NodeId num_nodes) override;

 private:
  std::shared_ptr<tbcs::sim::DelayPolicy> inner_;
};

class TimedDrift final : public tbcs::sim::DriftPolicy {
 public:
  explicit TimedDrift(std::shared_ptr<tbcs::sim::DriftPolicy> inner)
      : inner_(std::move(inner)) {}

  double initial_rate(tbcs::sim::NodeId v) override;
  std::optional<tbcs::sim::RateStep> next_change(
      tbcs::sim::NodeId v, tbcs::sim::RealTime now) override;

 private:
  std::shared_ptr<tbcs::sim::DriftPolicy> inner_;
};

}  // namespace perfbench
