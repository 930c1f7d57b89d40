#include "decorators.hpp"

#include "tracer.hpp"

namespace perfbench {

using tbcs::sim::ClockValue;
using tbcs::sim::Duration;
using tbcs::sim::Message;
using tbcs::sim::NodeId;
using tbcs::sim::NodeServices;
using tbcs::sim::RealTime;

NodeId TimedServices::id() const { return inner_.id(); }

ClockValue TimedServices::hardware_now() const { return inner_.hardware_now(); }

void TimedServices::broadcast(const Message& m) {
  ScopedSpan span(SpanKind::kBroadcast);
  inner_.broadcast(m);
}

void TimedServices::set_timer(int slot, ClockValue hardware_target) {
  ScopedSpan span(SpanKind::kTimer);
  inner_.set_timer(slot, hardware_target);
}

void TimedServices::cancel_timer(int slot) {
  ScopedSpan span(SpanKind::kTimer);
  inner_.cancel_timer(slot);
}

void TimedNode::on_wake(NodeServices& sv, const Message* by_message) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_wake(ts, by_message);
}

void TimedNode::on_message(NodeServices& sv, const Message& m) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_message(ts, m);
}

void TimedNode::on_timer(NodeServices& sv, int slot) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_timer(ts, slot);
}

void TimedNode::on_link_change(NodeServices& sv, NodeId neighbor, bool up) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_link_change(ts, neighbor, up);
}

void TimedNode::on_rejoin(NodeServices& sv) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_rejoin(ts);
}

void TimedNode::on_scramble(NodeServices& sv, std::uint64_t seed,
                            double magnitude) {
  ScopedSpan span(SpanKind::kHandler);
  TimedServices ts(sv);
  inner_->on_scramble(ts, seed, magnitude);
}

// Read by the metrics layer inside observer spans; not a handler call.
ClockValue TimedNode::logical_at(ClockValue hardware_now) const {
  return inner_->logical_at(hardware_now);
}

double TimedNode::rate_multiplier() const { return inner_->rate_multiplier(); }

RealTime TimedDelay::delivery_time(NodeId from, NodeId to, RealTime send_time,
                                   const tbcs::sim::Simulator& sim) {
  ScopedSpan span(SpanKind::kDelay);
  return inner_->delivery_time(from, to, send_time, sim);
}

void TimedDelay::plan_deliveries(NodeId from, NodeId to, RealTime send_time,
                                 const tbcs::sim::Simulator& sim,
                                 std::vector<tbcs::sim::PlannedDelivery>& out) {
  ScopedSpan span(SpanKind::kDelay);
  inner_->plan_deliveries(from, to, send_time, sim, out);
}

bool TimedDelay::plans_deliveries() const { return inner_->plans_deliveries(); }

Duration TimedDelay::min_delay() const { return inner_->min_delay(); }

Duration TimedDelay::min_delay(NodeId from, NodeId to) const {
  return inner_->min_delay(from, to);
}

void TimedDelay::prepare(NodeId num_nodes) { inner_->prepare(num_nodes); }

double TimedDrift::initial_rate(NodeId v) {
  ScopedSpan span(SpanKind::kDrift);
  return inner_->initial_rate(v);
}

std::optional<tbcs::sim::RateStep> TimedDrift::next_change(NodeId v,
                                                           RealTime now) {
  ScopedSpan span(SpanKind::kDrift);
  return inner_->next_change(v, now);
}

}  // namespace perfbench
