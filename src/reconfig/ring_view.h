// RingConfiguration / RingHolder: the atomically replaceable, versioned
// cluster routing view at the heart of the elastic-reconfiguration
// subsystem (docs/RECONFIG.md), in the spirit of lightning-prototype's
// RingConfiguration/RingHolder.
//
// A RingConfiguration is an immutable value: the mapping from
// atomic-multicast groups to the rings that order them (with coordinator
// hints for submission routing) plus the assignment of the SMR key space
// to groups. Roles never mutate one in place — a reconfiguration builds
// the successor configuration and Install()s it into the shared
// RingHolder, which accepts only monotonically increasing versions and
// notifies subscribers. Everything that used to read static
// RingConfig/Options fields (clients, gateways, the repartition
// coordinator) asks the holder instead, so a routing flip is one
// pointer swap observed consistently by all local roles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/types.h"
#include "common/wire.h"
#include "ringpaxos/config.h"

namespace mrp::reconfig {

// Where one group's commands are ordered: the ring, its channels, and
// the current coordinator hint (ring_members[0] at deployment time; a
// takeover moves it, and submitters fall back to other members).
struct GroupRoute {
  GroupId group = 0;
  RingId ring = 0;
  NodeId coordinator = kNoNode;
  ChannelId data_channel = 0;
  ChannelId control_channel = 0;
  std::vector<NodeId> ring_members;

  MRP_WIRE_FIELDS(group, ring, coordinator, data_channel, control_channel,
                  wire::Capped<10'000>(ring_members))
  friend bool operator==(const GroupRoute&, const GroupRoute&) = default;
};

// The deployment-time route of the group ring `rc` orders.
inline GroupRoute RouteFor(const ringpaxos::RingConfig& rc) {
  return {rc.group,        rc.ring,            rc.ring_members[0],
          rc.data_channel, rc.control_channel, rc.ring_members};
}

// One contiguous slice of the SMR key space and the group that owns it.
struct RangeAssignment {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  // inclusive
  GroupId group = 0;

  MRP_WIRE_FIELDS(lo, hi, group)
  friend bool operator==(const RangeAssignment&, const RangeAssignment&) =
      default;
};

class RingConfiguration {
 public:
  RingConfiguration() = default;
  RingConfiguration(std::uint64_t version, std::vector<GroupRoute> routes,
                    std::vector<RangeAssignment> ranges,
                    GroupId all_group = kNoGroup)
      : version_(version),
        routes_(std::move(routes)),
        ranges_(std::move(ranges)),
        all_group_(all_group) {
    std::sort(routes_.begin(), routes_.end(),
              [](const GroupRoute& a, const GroupRoute& b) {
                return a.group < b.group;
              });
    std::sort(ranges_.begin(), ranges_.end(),
              [](const RangeAssignment& a, const RangeAssignment& b) {
                return a.lo < b.lo;
              });
  }

  std::uint64_t version() const { return version_; }
  const std::vector<GroupRoute>& routes() const { return routes_; }
  const std::vector<RangeAssignment>& ranges() const { return ranges_; }
  // Group carrying cross-partition operations (g_all), if routed.
  GroupId all_group() const { return all_group_; }

  const GroupRoute* RouteOf(GroupId g) const {
    for (const auto& r : routes_) {
      if (r.group == g) return &r;
    }
    return nullptr;
  }

  // Owning group of one key (kNoGroup when unassigned).
  GroupId GroupOfKey(std::uint64_t key) const {
    for (const auto& r : ranges_) {
      if (key >= r.lo && key <= r.hi) return r.group;
    }
    return kNoGroup;
  }

  bool SinglePartition(std::uint64_t lo, std::uint64_t hi) const {
    const GroupId a = GroupOfKey(lo);
    return a != kNoGroup && a == GroupOfKey(hi) && ContiguousIn(a, lo, hi);
  }

  // Groups whose assigned ranges overlap [lo, hi], ascending.
  std::vector<GroupId> GroupsOverlapping(std::uint64_t lo,
                                         std::uint64_t hi) const {
    std::vector<GroupId> out;
    for (const auto& r : ranges_) {
      if (r.hi < lo || r.lo > hi) continue;
      if (std::find(out.begin(), out.end(), r.group) == out.end()) {
        out.push_back(r.group);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  MRP_WIRE_FIELDS(version_, all_group_, wire::Capped<100'000>(routes_),
                  wire::Capped<100'000>(ranges_))

  Bytes Encode() const { return wire::Encode(*this); }

  // Routes and ranges come back sorted whatever order the bytes list
  // them in (the constructor sorts).
  static std::optional<RingConfiguration> Decode(
      std::span<const std::uint8_t> data) {
    auto c = wire::Decode<RingConfiguration>(data);
    if (!c) return std::nullopt;
    return RingConfiguration(c->version_, std::move(c->routes_),
                             std::move(c->ranges_), c->all_group_);
  }

  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(version_);
    f.U32(all_group_);
    f.U64(routes_.size());
    for (const auto& r : routes_) {
      f.U32(r.group);
      f.U32(r.ring);
      f.U32(r.coordinator);
      f.U64(r.ring_members.size());
      for (NodeId n : r.ring_members) f.U32(n);
    }
    f.U64(ranges_.size());
    for (const auto& r : ranges_) {
      f.U64(r.lo);
      f.U64(r.hi);
      f.U32(r.group);
    }
    return f.digest();
  }

 private:
  bool ContiguousIn(GroupId g, std::uint64_t lo, std::uint64_t hi) const {
    // [lo, hi] is single-partition iff every assignment overlapping it
    // belongs to g (ranges are disjoint; gaps inside [lo, hi] would have
    // no owner and already fail GroupOfKey above at the gap keys only —
    // overlap scan keeps the check exact).
    for (const auto& r : ranges_) {
      if (r.hi < lo || r.lo > hi) continue;
      if (r.group != g) return false;
    }
    return true;
  }

  std::uint64_t version_ = 0;
  std::vector<GroupRoute> routes_;
  std::vector<RangeAssignment> ranges_;
  GroupId all_group_ = kNoGroup;
};

// The atomically replaceable slot roles block on. Install() accepts only
// strictly newer versions (stale RoutingUpdates re-delivered by a lossy
// network are no-ops), keeps the configuration behind a shared_ptr so
// readers hold a consistent snapshot across a flip, and fires
// subscriber callbacks exactly once per accepted install.
class RingHolder {
 public:
  std::shared_ptr<const RingConfiguration> Get() const { return cfg_; }
  std::uint64_t version() const { return cfg_ ? cfg_->version() : 0; }

  bool Install(RingConfiguration next) {
    if (cfg_ && next.version() <= cfg_->version()) return false;
    cfg_ = std::make_shared<const RingConfiguration>(std::move(next));
    ++installs_;
    for (const auto& fn : subscribers_) fn(*cfg_);
    return true;
  }

  // Fired on every accepted install, after the swap (Get() inside the
  // callback sees the new configuration).
  void Subscribe(std::function<void(const RingConfiguration&)> fn) {
    subscribers_.push_back(std::move(fn));
  }

  std::uint64_t installs() const { return installs_; }

  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(installs_);
    f.U64(cfg_ ? cfg_->Fingerprint() : 0);
    return f.digest();
  }

 private:
  std::shared_ptr<const RingConfiguration> cfg_;
  std::vector<std::function<void(const RingConfiguration&)>> subscribers_;
  std::uint64_t installs_ = 0;
};

}  // namespace mrp::reconfig
