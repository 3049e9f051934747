#include "check/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rand.h"

namespace mrp::check {

namespace {

// Salt keeps plan draws independent from the simulator's own rng, which
// is seeded with the same value.
constexpr std::uint64_t kPlanSalt = 0x6368616f73706c6eULL;

constexpr std::int64_t kMinFaultNs = 20 * 1000 * 1000;  // 20 ms

}  // namespace

const char* KindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kLossBurst:
      return "loss_burst";
    case FaultEvent::Kind::kDiskStall:
      return "disk_stall";
    case FaultEvent::Kind::kCoordKill:
      return "coord_kill";
    case FaultEvent::Kind::kLearnerCrash:
      return "learner_crash";
    case FaultEvent::Kind::kDuplicateSubmit:
      return "duplicate_submit";
    case FaultEvent::Kind::kRetryStorm:
      return "retry_storm";
    case FaultEvent::Kind::kSessionAbandon:
      return "session_abandon";
    case FaultEvent::Kind::kLeaseDrop:
      return "lease_drop";
    case FaultEvent::Kind::kSplitLive:
      return "split_live";
    case FaultEvent::Kind::kResubscribeStorm:
      return "resubscribe_storm";
    case FaultEvent::Kind::kReconfigCoordKill:
      return "reconfig_coord_kill";
    case FaultEvent::Kind::kLearnerPause:
      return "learner_pause";
  }
  return "?";
}

FaultPlan GeneratePlan(std::uint64_t seed, const DeploymentShape& shape,
                       const FaultBudget& budget) {
  FaultPlan plan;
  plan.seed = seed;
  plan.shape = shape;
  plan.budget = budget;

  Rng rng(seed ^ kPlanSalt);
  const std::size_t target = 1 + static_cast<std::size_t>(rng.below(
                                     std::max<std::size_t>(1, budget.max_events)));
  // Majority budget: at most floor((U-1)/2) universe members of one ring
  // concurrently paused, so a universe majority always stays up.
  const int max_down = (shape.universe() - 1) / 2;
  bool split_drawn = false;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> down(
      static_cast<std::size_t>(shape.n_rings));

  const std::int64_t horizon = plan.budget.horizon.count();
  const std::int64_t max_fault =
      std::max<std::int64_t>(kMinFaultNs + 1, plan.budget.max_fault.count());

  // Weighted kind choice; partition needs >= 2 sites, disk stalls need a
  // disk-backed deployment (the fuzz driver always runs with disks).
  struct Weighted {
    FaultEvent::Kind kind;
    std::uint64_t weight;
  };
  std::vector<Weighted> kinds = {
      {FaultEvent::Kind::kCrash, 30},
      {FaultEvent::Kind::kCoordKill, 15},
      {FaultEvent::Kind::kLossBurst, 20},
      {FaultEvent::Kind::kDiskStall, 15},
      // Learner crashes never touch acceptor majorities, so they are
      // budget-free; the fuzz driver maps them onto its crash-target
      // recoverable learner.
      {FaultEvent::Kind::kLearnerCrash, 12},
  };
  if (shape.n_sites >= 2) kinds.push_back({FaultEvent::Kind::kPartition, 20});
  if (shape.with_smr) {
    // Client-side events exercise the session/lease layer; they never
    // pause acceptors, so all four are budget-free.
    kinds.push_back({FaultEvent::Kind::kDuplicateSubmit, 10});
    kinds.push_back({FaultEvent::Kind::kRetryStorm, 8});
    kinds.push_back({FaultEvent::Kind::kSessionAbandon, 6});
    kinds.push_back({FaultEvent::Kind::kLeaseDrop, 10});
  }
  if (shape.with_smr && shape.n_rings >= 2) {
    // Reconfiguration events need a second ring to host the split-off
    // group; none of them pause acceptors, so all are budget-free.
    kinds.push_back({FaultEvent::Kind::kSplitLive, 10});
    kinds.push_back({FaultEvent::Kind::kResubscribeStorm, 8});
    kinds.push_back({FaultEvent::Kind::kReconfigCoordKill, 8});
  }
  std::uint64_t total_weight = 0;
  for (const auto& k : kinds) total_weight += k.weight;

  // Rejection sampling against the budget, with a bounded attempt count
  // so a tight budget yields a short plan instead of a loop.
  std::size_t attempts = 0;
  while (plan.events.size() < target && attempts < target * 8) {
    ++attempts;
    FaultEvent e;
    const std::int64_t at =
        horizon / 20 + static_cast<std::int64_t>(rng.below(
                           static_cast<std::uint64_t>(horizon * 3 / 4)));
    const std::int64_t duration =
        kMinFaultNs + static_cast<std::int64_t>(rng.below(
                          static_cast<std::uint64_t>(max_fault - kMinFaultNs)));
    e.at = TimePoint(at);
    e.duration = Duration(duration);

    std::uint64_t pick = rng.below(total_weight);
    for (const auto& k : kinds) {
      if (pick < k.weight) {
        e.kind = k.kind;
        break;
      }
      pick -= k.weight;
    }

    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kCoordKill: {
        e.ring = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(shape.n_rings)));
        e.member =
            e.kind == FaultEvent::Kind::kCrash
                ? static_cast<int>(rng.below(
                      static_cast<std::uint64_t>(shape.universe())))
                : 0;
        if (plan.budget.preserve_majority) {
          int overlapping = 0;
          for (const auto& [s, t] : down[static_cast<std::size_t>(e.ring)]) {
            if (s < at + duration && at < t) ++overlapping;
          }
          if (overlapping >= max_down) continue;  // would cost the majority
        }
        down[static_cast<std::size_t>(e.ring)].emplace_back(at, at + duration);
        break;
      }
      case FaultEvent::Kind::kPartition: {
        e.site_a = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(shape.n_sites)));
        e.site_b = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(shape.n_sites - 1)));
        if (e.site_b >= e.site_a) ++e.site_b;
        break;
      }
      case FaultEvent::Kind::kLossBurst: {
        e.loss = 0.01 + rng.uniform() * (plan.budget.max_loss - 0.01);
        break;
      }
      case FaultEvent::Kind::kDiskStall: {
        e.ring = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(shape.n_rings)));
        e.member = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(shape.universe())));
        break;
      }
      case FaultEvent::Kind::kLearnerCrash: {
        // Targets the driver's designated recoverable learner; ring and
        // member stay 0 so older artifacts keep validating.
        break;
      }
      case FaultEvent::Kind::kDuplicateSubmit:
      case FaultEvent::Kind::kRetryStorm:
      case FaultEvent::Kind::kSessionAbandon:
      case FaultEvent::Kind::kLeaseDrop: {
        // Target the driver's session client / lease grantor; ring and
        // member stay 0 so the common field set keeps validating.
        break;
      }
      case FaultEvent::Kind::kSplitLive: {
        // One repartition stack per run: a second split would race the
        // first plan's seal and routing flip.
        if (split_drawn) continue;
        split_drawn = true;
        break;
      }
      case FaultEvent::Kind::kResubscribeStorm:
      case FaultEvent::Kind::kReconfigCoordKill: {
        // Target the driver's observer learner / repartition
        // coordinator; ring and member stay 0.
        break;
      }
      case FaultEvent::Kind::kLearnerPause:  // scripted plans only
        break;
    }
    plan.events.push_back(e);
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

// ----------------------------------------------------------- JSON emit

namespace {

std::string NumStr(std::uint64_t v) { return std::to_string(v); }
std::string NumStr(std::int64_t v) { return std::to_string(v); }

std::string DblStr(double v) {
  char buf[48];
  // %.17g round-trips every double through strtod.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string EventJson(const FaultEvent& e) {
  std::string out = "{";
  out += "\"kind\":\"" + std::string(KindName(e.kind)) + "\",";
  out += "\"at_ns\":" + NumStr(static_cast<std::int64_t>(e.at.count())) + ",";
  out += "\"duration_ns\":" +
         NumStr(static_cast<std::int64_t>(e.duration.count())) + ",";
  out += "\"ring\":" + std::to_string(e.ring) + ",";
  out += "\"member\":" + std::to_string(e.member) + ",";
  out += "\"site_a\":" + std::to_string(e.site_a) + ",";
  out += "\"site_b\":" + std::to_string(e.site_b) + ",";
  out += "\"loss\":" + DblStr(e.loss);
  out += "}";
  return out;
}

}  // namespace

std::string ToJson(const FaultPlan& plan) {
  std::string out = "{";
  out += "\"seed\":" + NumStr(plan.seed) + ",";
  out += "\"shape\":{";
  out += "\"n_rings\":" + std::to_string(plan.shape.n_rings) + ",";
  out += "\"ring_size\":" + std::to_string(plan.shape.ring_size) + ",";
  out += "\"n_spares\":" + std::to_string(plan.shape.n_spares) + ",";
  out += "\"n_sites\":" + std::to_string(plan.shape.n_sites) + ",";
  out += std::string("\"with_smr\":") +
         (plan.shape.with_smr ? "true" : "false");
  // Omitted when false, so earlier artifacts round-trip unchanged.
  if (plan.shape.workload) out += ",\"workload\":true";
  out += "},";
  out += "\"budget\":{";
  out += std::string("\"preserve_majority\":") +
         (plan.budget.preserve_majority ? "true" : "false") + ",";
  out += std::string("\"assert_liveness\":") +
         (plan.budget.assert_liveness ? "true" : "false") + ",";
  out += "\"max_events\":" + std::to_string(plan.budget.max_events) + ",";
  out += "\"horizon_ns\":" +
         NumStr(static_cast<std::int64_t>(plan.budget.horizon.count())) + ",";
  out += "\"max_fault_ns\":" +
         NumStr(static_cast<std::int64_t>(plan.budget.max_fault.count())) +
         ",";
  out += "\"max_loss\":" + DblStr(plan.budget.max_loss);
  out += "},";
  out += "\"events\":[";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    if (i > 0) out += ",";
    out += EventJson(plan.events[i]);
  }
  out += "]}";
  return out;
}

std::string ToJson(const ReplayArtifact& artifact) {
  std::string out = "{";
  out += "\"plan\":" + ToJson(artifact.plan) + ",";
  out += "\"violated_oracle\":\"" + artifact.violated_oracle + "\",";
  out += "\"feed_digest\":" + NumStr(artifact.feed_digest) + ",";
  out += "\"inject_corrupt_instance\":" +
         NumStr(static_cast<std::uint64_t>(artifact.inject_corrupt_instance));
  out += "}";
  return out;
}

// ---------------------------------------------------------- JSON parse
//
// Minimal recursive-descent parser for the exact subset the emitters
// above produce (objects, arrays, unescaped strings, numbers, booleans).
// Malformed input yields std::nullopt, never UB.

namespace {

struct JsonValue {
  enum class Type { kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNum;
  bool b = false;
  std::string num;  // raw token; reinterpreted per field
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::uint64_t U64() const { return std::strtoull(num.c_str(), nullptr, 10); }
  std::int64_t I64() const { return std::strtoll(num.c_str(), nullptr, 10); }
  double Dbl() const { return std::strtod(num.c_str(), nullptr); }
};

struct JsonParser {
  const std::string& s;
  std::size_t pos = 0;
  int depth = 0;

  void SkipWs() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r')) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    SkipWs();
    if (pos >= s.size() || s[pos] != '"') return std::nullopt;
    ++pos;
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') return std::nullopt;  // emitters never escape
      out.push_back(s[pos++]);
    }
    if (pos >= s.size()) return std::nullopt;
    ++pos;  // closing quote
    return out;
  }

  std::optional<JsonValue> Parse() {
    if (++depth > 16) return std::nullopt;
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth};
    SkipWs();
    if (pos >= s.size()) return std::nullopt;
    JsonValue v;
    const char c = s[pos];
    if (c == '{') {
      ++pos;
      v.type = JsonValue::Type::kObj;
      SkipWs();
      if (Eat('}')) return v;
      while (true) {
        auto key = ParseString();
        if (!key || !Eat(':')) return std::nullopt;
        auto val = Parse();
        if (!val) return std::nullopt;
        v.obj.emplace_back(std::move(*key), std::move(*val));
        if (Eat('}')) return v;
        if (!Eat(',')) return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      v.type = JsonValue::Type::kArr;
      SkipWs();
      if (Eat(']')) return v;
      while (true) {
        auto val = Parse();
        if (!val) return std::nullopt;
        v.arr.push_back(std::move(*val));
        if (Eat(']')) return v;
        if (!Eat(',')) return std::nullopt;
      }
    }
    if (c == '"') {
      auto str = ParseString();
      if (!str) return std::nullopt;
      v.type = JsonValue::Type::kStr;
      v.str = std::move(*str);
      return v;
    }
    if (s.compare(pos, 4, "true") == 0) {
      pos += 4;
      v.type = JsonValue::Type::kBool;
      v.b = true;
      return v;
    }
    if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
      v.type = JsonValue::Type::kBool;
      v.b = false;
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      v.type = JsonValue::Type::kNum;
      while (pos < s.size() &&
             (s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
              s[pos] == 'e' || s[pos] == 'E' ||
              (s[pos] >= '0' && s[pos] <= '9'))) {
        v.num.push_back(s[pos++]);
      }
      return v;
    }
    return std::nullopt;
  }
};

std::optional<FaultEvent::Kind> KindFromName(const std::string& name) {
  for (auto k : {FaultEvent::Kind::kCrash, FaultEvent::Kind::kPartition,
                 FaultEvent::Kind::kLossBurst, FaultEvent::Kind::kDiskStall,
                 FaultEvent::Kind::kCoordKill, FaultEvent::Kind::kLearnerCrash,
                 FaultEvent::Kind::kDuplicateSubmit,
                 FaultEvent::Kind::kRetryStorm,
                 FaultEvent::Kind::kSessionAbandon,
                 FaultEvent::Kind::kLeaseDrop, FaultEvent::Kind::kSplitLive,
                 FaultEvent::Kind::kResubscribeStorm,
                 FaultEvent::Kind::kReconfigCoordKill,
                 FaultEvent::Kind::kLearnerPause}) {
    if (name == KindName(k)) return k;
  }
  return std::nullopt;
}

// Field accessors that fail closed: missing or mistyped = nullopt.
std::optional<std::uint64_t> GetU64(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNum) return std::nullopt;
  return v->U64();
}
std::optional<std::int64_t> GetI64(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNum) return std::nullopt;
  return v->I64();
}
std::optional<double> GetDbl(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNum) return std::nullopt;
  return v->Dbl();
}
std::optional<bool> GetBool(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kBool) return std::nullopt;
  return v->b;
}
std::optional<std::string> GetStr(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kStr) return std::nullopt;
  return v->str;
}

std::optional<FaultPlan> PlanFromDom(const JsonValue& dom) {
  if (dom.type != JsonValue::Type::kObj) return std::nullopt;
  FaultPlan plan;
  auto seed = GetU64(dom, "seed");
  const JsonValue* shape = dom.Find("shape");
  const JsonValue* budget = dom.Find("budget");
  const JsonValue* events = dom.Find("events");
  if (!seed || shape == nullptr || shape->type != JsonValue::Type::kObj ||
      budget == nullptr || budget->type != JsonValue::Type::kObj ||
      events == nullptr || events->type != JsonValue::Type::kArr) {
    return std::nullopt;
  }
  plan.seed = *seed;

  auto n_rings = GetI64(*shape, "n_rings");
  auto ring_size = GetI64(*shape, "ring_size");
  auto n_spares = GetI64(*shape, "n_spares");
  auto n_sites = GetI64(*shape, "n_sites");
  auto with_smr = GetBool(*shape, "with_smr");
  if (!n_rings || !ring_size || !n_spares || !n_sites || !with_smr ||
      *n_rings < 1 || *n_rings > 64 || *ring_size < 1 || *ring_size > 64 ||
      *n_spares < 0 || *n_spares > 64 || *n_sites < 1 || *n_sites > 64) {
    return std::nullopt;
  }
  plan.shape.n_rings = static_cast<int>(*n_rings);
  plan.shape.ring_size = static_cast<int>(*ring_size);
  plan.shape.n_spares = static_cast<int>(*n_spares);
  plan.shape.n_sites = static_cast<int>(*n_sites);
  plan.shape.with_smr = *with_smr;
  if (shape->Find("workload") != nullptr) {
    auto workload = GetBool(*shape, "workload");
    if (!workload) return std::nullopt;
    plan.shape.workload = *workload;
  }

  auto preserve = GetBool(*budget, "preserve_majority");
  auto liveness = GetBool(*budget, "assert_liveness");
  auto max_events = GetU64(*budget, "max_events");
  auto horizon = GetI64(*budget, "horizon_ns");
  auto max_fault = GetI64(*budget, "max_fault_ns");
  auto max_loss = GetDbl(*budget, "max_loss");
  if (!preserve || !liveness || !max_events || !horizon || !max_fault ||
      !max_loss || *horizon <= 0) {
    return std::nullopt;
  }
  plan.budget.preserve_majority = *preserve;
  plan.budget.assert_liveness = *liveness;
  plan.budget.max_events = *max_events;
  plan.budget.horizon = Duration(*horizon);
  plan.budget.max_fault = Duration(*max_fault);
  plan.budget.max_loss = *max_loss;

  for (const auto& ev : events->arr) {
    if (ev.type != JsonValue::Type::kObj) return std::nullopt;
    FaultEvent e;
    auto kind_name = GetStr(ev, "kind");
    auto at = GetI64(ev, "at_ns");
    auto duration = GetI64(ev, "duration_ns");
    auto ring = GetI64(ev, "ring");
    auto member = GetI64(ev, "member");
    auto site_a = GetI64(ev, "site_a");
    auto site_b = GetI64(ev, "site_b");
    auto loss = GetDbl(ev, "loss");
    if (!kind_name || !at || !duration || !ring || !member || !site_a ||
        !site_b || !loss) {
      return std::nullopt;
    }
    auto kind = KindFromName(*kind_name);
    if (!kind) return std::nullopt;
    e.kind = *kind;
    e.at = TimePoint(*at);
    e.duration = Duration(*duration);
    e.ring = static_cast<int>(*ring);
    e.member = static_cast<int>(*member);
    e.site_a = static_cast<int>(*site_a);
    e.site_b = static_cast<int>(*site_b);
    e.loss = *loss;
    if (e.ring < 0 || e.ring >= plan.shape.n_rings || e.member < 0 ||
        e.member >= plan.shape.universe() || e.site_a < 0 ||
        e.site_a >= plan.shape.n_sites || e.site_b < 0 ||
        e.site_b >= plan.shape.n_sites || e.loss < 0 || e.loss > 1) {
      return std::nullopt;
    }
    // Client-side events only make sense against an SMR deployment.
    if (IsSmrKind(e.kind) && !plan.shape.with_smr) return std::nullopt;
    // Reconfiguration events additionally need a second ring to host the
    // split-off group.
    if (IsReconfigKind(e.kind) && plan.shape.n_rings < 2) {
      return std::nullopt;
    }
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace

std::optional<FaultPlan> ParsePlan(const std::string& json) {
  JsonParser p{json};
  auto dom = p.Parse();
  if (!dom) return std::nullopt;
  return PlanFromDom(*dom);
}

std::optional<ReplayArtifact> ParseArtifact(const std::string& json) {
  JsonParser p{json};
  auto dom = p.Parse();
  if (!dom || dom->type != JsonValue::Type::kObj) return std::nullopt;
  const JsonValue* plan = dom->Find("plan");
  auto oracle = GetStr(*dom, "violated_oracle");
  auto digest = GetU64(*dom, "feed_digest");
  auto inject = GetU64(*dom, "inject_corrupt_instance");
  if (plan == nullptr || !oracle || !digest || !inject) return std::nullopt;
  auto parsed = PlanFromDom(*plan);
  if (!parsed) return std::nullopt;
  ReplayArtifact artifact;
  artifact.plan = std::move(*parsed);
  artifact.violated_oracle = std::move(*oracle);
  artifact.feed_digest = *digest;
  artifact.inject_corrupt_instance = *inject;
  return artifact;
}

}  // namespace mrp::check
