#include "recovery/checkpoint.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/trace.h"

namespace mrp::recovery {

std::uint64_t Fnv1a(const Bytes& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<RingFrontier> Checkpoint::Frontiers() const {
  std::vector<RingFrontier> out;
  out.reserve(cut.size());
  for (const auto& c : cut) out.push_back({c.ring, c.next_instance});
  return out;
}

void CheckpointCoordinator::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  ctr_epochs_ = &reg.counter("recovery.coord.epochs");
  ctr_reports_ = &reg.counter("recovery.coord.reports_rx");
  ctr_adverts_ = &reg.counter("recovery.coord.adverts_tx");
  for (const auto& [ring, channel] : opts_.rings) {
    (void)channel;
    frontier_gauges_[ring] = &reg.gauge(
        "recovery.r" + std::to_string(ring) + ".stable_frontier");
  }
  ArmEpochTimer(env);
}

void CheckpointCoordinator::ArmEpochTimer(Env& env) {
  env.SetTimer(opts_.interval, [this, &env] {
    ++epoch_;
    ctr_epochs_->Inc();
    for (NodeId learner : opts_.learners) {
      env.Send(learner, MakeMessage<CheckpointRequest>(epoch_));
    }
    ArmEpochTimer(env);
  });
}

void CheckpointCoordinator::OnMessage(Env& env, NodeId from,
                                      const MessagePtr& m) {
  const auto* report = Cast<CheckpointReport>(m);
  if (report == nullptr) return;
  ctr_reports_->Inc();
  auto& per_ring = latest_[from];
  for (const auto& f : report->frontiers) {
    InstanceId& cur = per_ring[f.ring];
    cur = std::max(cur, f.next_instance);
  }
  RecomputeStable(env);
}

void CheckpointCoordinator::RecomputeStable(Env& env) {
  // The frontier is the minimum cut over ALL expected learners: until
  // every learner (including one currently crashed, whose last report
  // stays in latest_ but whose checkpoint may be stale) has reported,
  // nothing may be trimmed.
  if (latest_.size() < opts_.learners.size()) return;
  bool changed = false;
  std::vector<RingFrontier> frontiers;
  frontiers.reserve(opts_.rings.size());
  for (const auto& [ring, channel] : opts_.rings) {
    (void)channel;
    InstanceId lo = std::numeric_limits<InstanceId>::max();
    for (const auto& [learner, per_ring] : latest_) {
      (void)learner;
      auto it = per_ring.find(ring);
      lo = std::min(lo, it == per_ring.end() ? 0 : it->second);
    }
    InstanceId& cur = stable_[ring];
    if (lo > cur) {
      cur = lo;
      changed = true;
    }
    frontiers.push_back({ring, cur});
  }
  if (!changed) return;
  for (auto& [ring, gauge] : frontier_gauges_) {
    gauge->Set(static_cast<std::int64_t>(stable_[ring]));
  }
  for (const auto& [ring, channel] : opts_.rings) {
    TraceProtocolEvent(env.now(), env.self(), ring, stable_[ring], "recovery",
                       "frontier_advert", epoch_);
    env.Multicast(channel, MakeMessage<FrontierAdvert>(epoch_, frontiers));
    ctr_adverts_->Inc();
    ++adverts_sent_;
  }
}

InstanceId CheckpointCoordinator::stable_frontier(RingId ring) const {
  auto it = stable_.find(ring);
  return it == stable_.end() ? 0 : it->second;
}

}  // namespace mrp::recovery
