// mrp_mc — explicit-state model checker for small Multi-Ring Paxos
// deployments (docs/MODEL_CHECKING.md).
//
// Configurations:
//   ring1      one ring, 3 acceptors, 1 learner, 2 client commands; all
//              fail-over timers pushed past the horizon, event-order
//              branching ON. Small enough to explore EXHAUSTIVELY.
//   ring2      two rings merged by a Multi-Ring learner, with a crash/
//              restart and a message-duplication branch point; explored
//              under a bounded run budget (the mc-smoke determinism
//              gate).
//   known-bug  re-injects the historical CurrentLayoutAlive sub-majority
//              bug (RingConfig::test_unsafe_submajority_layout) and
//              searches over message-drop policies until the agreement
//              oracle fires; the counterexample is shrunk and emitted as
//              a replayable JSON artifact.
//
// Usage:
//   mrp_mc --config NAME [--naive] [--compare] [--max-runs N]
//          [--depth N] [--artifact FILE] [--replay FILE] [--self-check]
//
// Exit codes: 0 = explored with no violation (or replay confirmed,
// or self-check passed), 1 = violation found (or replay/self-check
// mismatch), 2 = usage error.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/oracles.h"
#include "common/env.h"
#include "common/types.h"
#include "multiring/merge_learner.h"
#include "paxos/value.h"
#include "ringpaxos/config.h"
#include "ringpaxos/messages.h"
#include "ringpaxos/ring_node.h"
#include "tools/mc/explorer.h"
#include "tools/mc/mc_env.h"

namespace mrp::mc {
namespace {

// ---------------------------------------------------------------------
// World harness: McNet + OracleSuite + owned protocol roles + horizon.
// ---------------------------------------------------------------------

class McWorld final : public World {
 public:
  McWorld(Controller* controller, bool order_branching, Duration horizon)
      : net_(controller, order_branching), horizon_(kTimeZero + horizon) {}

  McNet& net() { return net_; }
  check::OracleSuite& oracles() { return oracles_; }

  void Host(NodeId id, std::unique_ptr<Protocol> proto,
            std::function<std::uint64_t()> fingerprint) {
    net_.AddRole(id, proto.get(), std::move(fingerprint));
    owned_.push_back(std::move(proto));
  }

  void Start() { net_.Start(); }

  bool Step() override {
    const TimePoint next = net_.NextEventTime(horizon_ + Duration{1});
    if (next > horizon_) return false;
    return net_.Step();
  }
  std::uint64_t Fingerprint() const override { return net_.Fingerprint(); }
  bool OracleOk() const override { return oracles_.ok(); }
  void Finish() override { oracles_.Finish(); }
  std::string FirstOracle() const override { return oracles_.first_oracle(); }
  std::uint64_t FeedDigest() const override { return oracles_.feed_digest(); }
  std::string OracleReport() const override { return oracles_.Report(); }

 private:
  McNet net_;
  check::OracleSuite oracles_;
  TimePoint horizon_;
  std::vector<std::unique_ptr<Protocol>> owned_;
};

// Deterministic client: submits a fixed list of (time, target, message)
// tuples. No rng, no jitter — the workload-generating
// ringpaxos::Proposer draws think-time jitter from env.rng(), whose
// cursor is not fingerprintable, so model-checked configs use this
// fixed-schedule client instead.
class McClient final : public Protocol {
 public:
  struct Sub {
    Duration at{0};
    NodeId to = kNoNode;
    RingId ring = 0;
    paxos::ClientMsg msg;
  };

  McClient(std::vector<Sub> subs, check::OracleSuite* oracles)
      : subs_(std::move(subs)), oracles_(oracles) {}

  void OnStart(Env& env) override {
    for (const auto& s : subs_) {
      if (s.at <= Duration{0}) {
        SendOne(env, s);
      } else {
        env.SetTimer(s.at, [this, &env, s] { SendOne(env, s); });
      }
    }
  }
  void OnMessage(Env&, NodeId, const MessagePtr&) override {}

  // Remaining schedule state lives in the net's timer fingerprint; the
  // proposed-set size is the client's only own state.
  std::uint64_t Fingerprint() const { return proposed_.size(); }

 private:
  void SendOne(Env& env, const Sub& s) {
    paxos::ClientMsg m = s.msg;
    m.sent_at = env.now();
    if (proposed_.insert({m.group, m.proposer, m.seq}).second) {
      oracles_->OnPropose(m);  // fresh submission, not a retransmit
    }
    env.Send(s.to, MakeMessage<ringpaxos::Submit>(s.ring, std::move(m)));
  }

  std::vector<Sub> subs_;
  check::OracleSuite* oracles_;
  std::set<std::tuple<GroupId, NodeId, std::uint64_t>> proposed_;
};

paxos::ClientMsg MakeCmd(GroupId group, NodeId proposer, std::uint64_t seq) {
  paxos::ClientMsg m;
  m.group = group;
  m.proposer = proposer;
  m.seq = seq;
  m.payload_size = 8;
  return m;
}

// Hosts one ring's acceptors and wires one single-ring learner (a
// one-ring MergeLearner) per listed id, with oracle taps.
void HostRing(McWorld* world, const ringpaxos::RingConfig& cfg,
              const std::vector<NodeId>& learners) {
  McNet& net = world->net();
  for (NodeId n : cfg.ring_members) {
    net.AddNode(n);
    net.Subscribe(cfg.data_channel, n);
    net.Subscribe(cfg.control_channel, n);
    auto rn = std::make_unique<ringpaxos::RingNode>(cfg);
    auto* raw = rn.get();
    world->Host(n, std::move(rn), [raw] { return raw->Fingerprint(); });
  }
  check::OracleSuite* oracles = &world->oracles();
  for (NodeId ln : learners) {
    net.AddNode(ln);
    net.Subscribe(cfg.data_channel, ln);
    net.Subscribe(cfg.control_channel, ln);
    multiring::MergeLearner::Options mo;
    ringpaxos::LearnerOptions lo;
    lo.ring = cfg;
    mo.groups.push_back(std::move(lo));
    mo.tick_interval = Seconds(10);  // past every horizon
    const int idx =
        oracles->RegisterLearner("L" + std::to_string(ln), {cfg.group});
    mo.on_decide = [oracles, idx](RingId r, InstanceId i,
                                  const paxos::Value& v) {
      oracles->OnDecide(idx, r, i, v);
    };
    mo.on_deliver = [oracles, idx](GroupId g, const paxos::ClientMsg& m) {
      oracles->OnDeliver(idx, g, m);
    };
    auto rl = std::make_unique<multiring::MergeLearner>(std::move(mo));
    auto* raw = rl.get();
    world->Host(ln, std::move(rl), [raw] { return raw->Fingerprint(); });
  }
}

void HostClient(McWorld* world, NodeId id, std::vector<McClient::Sub> subs) {
  world->net().AddNode(id);
  auto cl = std::make_unique<McClient>(std::move(subs), &world->oracles());
  auto* raw = cl.get();
  world->Host(id, std::move(cl), [raw] { return raw->Fingerprint(); });
}

// Fail-over/retry timers pushed past the horizon: within the explored
// window the protocol is driven purely by message deliveries plus the
// batch/flush timers, which keeps the enabled sets small and the state
// space finite.
ringpaxos::RingConfig QuiescentRing(RingId ring, GroupId group,
                                    std::vector<NodeId> members,
                                    ChannelId data, ChannelId control) {
  ringpaxos::RingConfig cfg;
  cfg.ring = ring;
  cfg.group = group;
  cfg.ring_members = std::move(members);
  cfg.data_channel = data;
  cfg.control_channel = control;
  cfg.batch_bytes = 1;  // propose every submission immediately
  cfg.batch_timeout = Millis(1);
  cfg.window = 8;
  cfg.decision_flush = Millis(1);
  cfg.p2_retry = Seconds(10);
  cfg.heartbeat_interval = Seconds(10);
  cfg.suspect_after = Seconds(30);
  cfg.phase1_timeout = Seconds(10);
  cfg.delta = Seconds(10);
  return cfg;
}

// ---------------------------------------------------------------------
// Configurations.
// ---------------------------------------------------------------------

struct McConfig {
  std::string name;
  std::string summary;
  Explorer::Options opts;
  Explorer::WorldFactory factory;
};

McConfig Ring1Config() {
  McConfig c;
  c.name = "ring1";
  c.summary = "1 ring / 3 acceptors / 1 learner / 2 commands, exhaustive";
  c.opts.initial_depth = 256;   // deep enough for a single sweep
  c.opts.max_runs = 2000000;    // exhausts at ~700k runs
  c.factory = [](Controller* ctl) -> std::unique_ptr<World> {
    auto world =
        std::make_unique<McWorld>(ctl, /*order_branching=*/true, Millis(5));
    const ringpaxos::RingConfig cfg = QuiescentRing(0, 0, {1, 2, 3}, 1, 2);
    HostRing(world.get(), cfg, {10});
    HostClient(world.get(), 20,
               {{Duration{0}, 1, cfg.ring, MakeCmd(cfg.group, 20, 1)},
                {Duration{0}, 1, cfg.ring, MakeCmd(cfg.group, 20, 2)}});
    world->Start();
    return world;
  };
  return c;
}

McConfig Ring2Config() {
  McConfig c;
  c.name = "ring2";
  c.summary =
      "2 rings / merge learner / crash + duplicate branch points, bounded";
  c.opts.initial_depth = 16;
  c.opts.max_runs = 400;
  c.factory = [](Controller* ctl) -> std::unique_ptr<World> {
    auto world =
        std::make_unique<McWorld>(ctl, /*order_branching=*/true, Millis(5));
    McNet& net = world->net();
    const ringpaxos::RingConfig r0 = QuiescentRing(0, 0, {1, 2, 3}, 1, 2);
    const ringpaxos::RingConfig r1 = QuiescentRing(1, 1, {4, 5, 6}, 3, 4);
    HostRing(world.get(), r0, {});
    HostRing(world.get(), r1, {});

    // Multi-Ring merge learner over both groups.
    const NodeId ml = 10;
    net.AddNode(ml);
    for (ChannelId ch : {r0.data_channel, r0.control_channel, r1.data_channel,
                         r1.control_channel}) {
      net.Subscribe(ch, ml);
    }
    check::OracleSuite* oracles = &world->oracles();
    const int idx = oracles->RegisterLearner("ML", {r0.group, r1.group});
    multiring::MergeLearner::Options opts;
    for (const auto& rc : {r0, r1}) {
      ringpaxos::LearnerOptions lo;
      lo.ring = rc;
      opts.groups.push_back(std::move(lo));
    }
    opts.m = 1;
    opts.tick_interval = Seconds(10);
    opts.on_decide = [oracles, idx](RingId r, InstanceId i,
                                    const paxos::Value& v) {
      oracles->OnDecide(idx, r, i, v);
    };
    opts.on_deliver = [oracles, idx](GroupId g, const paxos::ClientMsg& m) {
      oracles->OnDeliver(idx, g, m);
    };
    auto merge = std::make_unique<multiring::MergeLearner>(std::move(opts));
    auto* mraw = merge.get();
    world->Host(ml, std::move(merge), [mraw] { return mraw->Fingerprint(); });

    HostClient(world.get(), 20,
               {{Duration{0}, 1, r0.ring, MakeCmd(r0.group, 20, 1)}});
    HostClient(world.get(), 21,
               {{Duration{0}, 4, r1.ring, MakeCmd(r1.group, 21, 1)}});

    // Fault branch points (Kind::kPolicy): a crash/restart of ring 0's
    // tail acceptor and a duplicated Phase 2A.
    if (ctl->Choose(2, Controller::Kind::kPolicy, nullptr) == 1) {
      net.ScheduleCrash({3, kTimeZero + Millis(1), kTimeZero + Millis(3)});
    }
    if (ctl->Choose(2, Controller::Kind::kPolicy, nullptr) == 1) {
      net.AddPolicy({"ring.P2A", 1, 2, /*duplicate=*/true});
    }
    world->Start();
    return world;
  };
  return c;
}

// The historical CurrentLayoutAlive sub-majority bug (found by the chaos
// fuzzer, fixed in ring_node.cc, re-injected here behind
// RingConfig::test_unsafe_submajority_layout): a coordinator whose
// heartbeat acknowledgements are all lost declares every peer dead,
// rebuilds the ring as the sub-majority layout [self], and — without the
// fix's universe-majority padding and decision guards — decides alone.
// A later takeover by a real majority that never saw the value decides
// differently: agreement violation. The drop-policy branch points below
// are the search vocabulary; the all-off assignment is fault-free.
McConfig KnownBugConfig() {
  McConfig c;
  c.name = "known-bug";
  c.summary =
      "re-injected CurrentLayoutAlive sub-majority bug, drop-policy search";
  c.opts.initial_depth = 16;
  c.opts.max_runs = 2000;
  c.factory = [](Controller* ctl) -> std::unique_ptr<World> {
    auto world = std::make_unique<McWorld>(ctl, /*order_branching=*/false,
                                           Millis(300));
    McNet& net = world->net();
    ringpaxos::RingConfig cfg = QuiescentRing(0, 0, {1, 2, 3}, 1, 2);
    cfg.test_unsafe_submajority_layout = true;
    cfg.heartbeat_interval = Millis(20);
    cfg.suspect_after = Millis(60);
    cfg.phase1_timeout = Millis(50);
    cfg.p2_retry = Millis(25);
    cfg.decision_flush = Millis(5);
    cfg.delta = Millis(5);
    HostRing(world.get(), cfg, {10, 11});

    HostClient(world.get(), 20,
               {{Duration{0}, 1, cfg.ring, MakeCmd(cfg.group, 20, 1)}});
    std::vector<McClient::Sub> retrans;
    for (int k = 1; k <= 9; ++k) {
      retrans.push_back(
          {Millis(30 * k), 2, cfg.ring, MakeCmd(cfg.group, 21, 1)});
    }
    HostClient(world.get(), 21, std::move(retrans));

    const NodeId A = 1, B = 2, D = 3, L2 = 11;
    auto policy = [&](const char* type, NodeId from, NodeId to) {
      if (ctl->Choose(2, Controller::Kind::kPolicy, nullptr) == 1) {
        net.AddPolicy({type, from, to, /*duplicate=*/false});
      }
    };
    policy("ring.HeartbeatAck", kNoNode, A);
    policy("ring.Heartbeat", A, B);
    policy("ring.P2A", A, B);
    policy("ring.P2A", A, D);
    policy("ring.P2A", A, L2);
    policy("ring.Decision", A, L2);
    policy("ring.P1A", A, B);
    policy("ring.P1B", A, B);
    policy("ring.Decision", A, B);
    world->Start();
    return world;
  };
  return c;
}

std::optional<McConfig> FindConfig(const std::string& name) {
  if (name == "ring1") return Ring1Config();
  if (name == "ring2") return Ring2Config();
  if (name == "known-bug") return KnownBugConfig();
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Replay artifact (mirrors the mrp_fuzz JSON artifact convention).
// ---------------------------------------------------------------------

struct McArtifact {
  std::string config;
  std::vector<std::size_t> choices;
  std::string violated_oracle;
  std::uint64_t feed_digest = 0;
};

std::string ToJson(const McArtifact& a) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"mrp_mc\",\n";
  out << "  \"config\": \"" << a.config << "\",\n";
  out << "  \"violated_oracle\": \"" << a.violated_oracle << "\",\n";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, a.feed_digest);
  out << "  \"feed_digest\": \"" << digest << "\",\n";
  out << "  \"choices\": [";
  for (std::size_t i = 0; i < a.choices.size(); ++i) {
    if (i > 0) out << ", ";
    out << a.choices[i];
  }
  out << "]\n}\n";
  return out.str();
}

std::optional<std::string> JsonString(const std::string& json,
                                      const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t at = json.find(pat);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t start = at + pat.size();
  const std::size_t end = json.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return json.substr(start, end - start);
}

std::optional<McArtifact> ParseArtifact(const std::string& json) {
  McArtifact a;
  auto config = JsonString(json, "config");
  auto oracle = JsonString(json, "violated_oracle");
  auto digest = JsonString(json, "feed_digest");
  if (!config || !oracle || !digest) return std::nullopt;
  a.config = *config;
  a.violated_oracle = *oracle;
  a.feed_digest = std::strtoull(digest->c_str(), nullptr, 16);
  const std::size_t at = json.find("\"choices\": [");
  if (at == std::string::npos) return std::nullopt;
  std::size_t pos = at + std::strlen("\"choices\": [");
  while (pos < json.size() && json[pos] != ']') {
    while (pos < json.size() && (json[pos] == ' ' || json[pos] == ','))
      ++pos;
    if (pos >= json.size() || json[pos] == ']') break;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(json.c_str() + pos, &end, 10);
    if (end == json.c_str() + pos) return std::nullopt;
    a.choices.push_back(static_cast<std::size_t>(v));
    pos = static_cast<std::size_t>(end - json.c_str());
  }
  return a;
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

void PrintStats(const McConfig& cfg, const char* mode,
                const ExploreStats& st) {
  std::printf(
      "mc %-9s %-6s status=%s runs=%" PRIu64 " transitions=%" PRIu64
      " states=%" PRIu64 " sleep_cuts=%" PRIu64 " visited_cuts=%" PRIu64
      " depth_cuts=%" PRIu64 " depth=%zu\n",
      cfg.name.c_str(), mode, st.StatusWord().c_str(), st.runs,
      st.transitions, st.distinct_states, st.sleep_cuts, st.visited_cuts,
      st.depth_cuts, st.final_depth_limit);
}

std::string ChoicesStr(const std::vector<std::size_t>& choices) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out << ",";
    out << choices[i];
  }
  out << "]";
  return out.str();
}

// Explores, and on violation shrinks + reports. Returns the artifact if
// a violation was found.
std::optional<McArtifact> ExploreAndReport(const McConfig& cfg,
                                           const Explorer::Options& opts) {
  Explorer ex(cfg.factory, opts);
  const ExploreStats st = ex.Explore();
  PrintStats(cfg, opts.sleep_sets ? "dpor" : "naive", st);
  if (!st.violation) return std::nullopt;
  std::printf("mc %-9s violation oracle=%s choices=%s\n", cfg.name.c_str(),
              st.violated_oracle.c_str(),
              ChoicesStr(st.violating_choices).c_str());
  const std::vector<std::size_t> shrunk =
      ex.Shrink(st.violating_choices, st.violated_oracle);
  const Explorer::RunResult rr = ex.Replay(shrunk);
  std::printf("mc %-9s shrunk   oracle=%s choices=%s (%zu -> %zu)\n",
              cfg.name.c_str(), rr.oracle.c_str(), ChoicesStr(shrunk).c_str(),
              st.violating_choices.size(), shrunk.size());
  std::printf("%s", rr.report.c_str());
  McArtifact a;
  a.config = cfg.name;
  a.choices = shrunk;
  a.violated_oracle = rr.oracle;
  a.feed_digest = rr.feed_digest;
  return a;
}

int ReplayFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mrp_mc: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto artifact = ParseArtifact(buf.str());
  if (!artifact) {
    std::fprintf(stderr, "mrp_mc: %s is not a valid artifact\n", path.c_str());
    return 2;
  }
  auto cfg = FindConfig(artifact->config);
  if (!cfg) {
    std::fprintf(stderr, "mrp_mc: unknown config %s\n",
                 artifact->config.c_str());
    return 2;
  }
  Explorer ex(cfg->factory, cfg->opts);
  const Explorer::RunResult rr = ex.Replay(artifact->choices);
  const bool match = rr.violated && rr.oracle == artifact->violated_oracle &&
                     rr.feed_digest == artifact->feed_digest;
  std::printf("replay %s: %s (oracle=%s digest_match=%s)\n",
              artifact->config.c_str(), match ? "confirmed" : "MISMATCH",
              rr.oracle.c_str(),
              rr.feed_digest == artifact->feed_digest ? "yes" : "no");
  return match ? 0 : 1;
}

// End-to-end pipeline validation: the known-bug config must yield a
// violation, shrink to a minimal choice vector, round-trip through the
// JSON artifact and replay byte-identically; ring1 must explore
// exhaustively with no violation. Mirrors mrp_fuzz --self-check.
int SelfCheck() {
  {
    const McConfig cfg = Ring1Config();
    Explorer ex(cfg.factory, cfg.opts);
    const ExploreStats st = ex.Explore();
    PrintStats(cfg, "dpor", st);
    if (!st.exhausted || st.violation) {
      std::printf("self-check: FAIL (ring1 not exhaustively clean)\n");
      return 1;
    }
  }
  const McConfig cfg = KnownBugConfig();
  const auto artifact = ExploreAndReport(cfg, cfg.opts);
  if (!artifact || artifact->violated_oracle != "agreement") {
    std::printf("self-check: FAIL (known-bug violation not found)\n");
    return 1;
  }
  const std::string json = ToJson(*artifact);
  const auto parsed = ParseArtifact(json);
  if (!parsed || parsed->choices != artifact->choices ||
      parsed->feed_digest != artifact->feed_digest ||
      parsed->violated_oracle != artifact->violated_oracle) {
    std::printf("self-check: FAIL (artifact does not round-trip)\n");
    return 1;
  }
  Explorer ex(cfg.factory, cfg.opts);
  const Explorer::RunResult rr = ex.Replay(parsed->choices);
  if (!rr.violated || rr.oracle != parsed->violated_oracle ||
      rr.feed_digest != parsed->feed_digest) {
    std::printf("self-check: FAIL (replay diverged)\n");
    return 1;
  }
  std::printf("self-check: OK (violation found, shrunk to %zu choices, "
              "artifact replayed identically)\n",
              parsed->choices.size());
  return 0;
}

int Main(int argc, char** argv) {
  std::string config_name = "ring1";
  std::string artifact_path;
  std::string replay_path;
  bool naive = false;
  bool compare = false;
  bool self_check = false;
  std::uint64_t max_runs = 0;
  std::size_t depth = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mrp_mc: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_name = next();
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--max-runs") {
      max_runs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--depth") {
      depth = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--artifact") {
      artifact_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--self-check") {
      self_check = true;
    } else {
      std::fprintf(stderr,
                   "usage: mrp_mc [--config ring1|ring2|known-bug] [--naive] "
                   "[--compare] [--max-runs N] [--depth N] [--artifact FILE] "
                   "[--replay FILE] [--self-check]\n");
      return 2;
    }
  }

  if (!replay_path.empty()) return ReplayFile(replay_path);
  if (self_check) return SelfCheck();

  auto cfg = FindConfig(config_name);
  if (!cfg) {
    std::fprintf(stderr, "mrp_mc: unknown config %s\n", config_name.c_str());
    return 2;
  }
  Explorer::Options opts = cfg->opts;
  if (max_runs > 0) opts.max_runs = max_runs;
  if (depth > 0) opts.initial_depth = depth;
  if (naive) {
    opts.sleep_sets = false;
    opts.visited = false;
  }

  if (compare) {
    // Partial-order-reduction effectiveness: the naive enumeration gets
    // 5x the DPOR run budget; exceeding it proves the >= 5x ratio.
    Explorer dpor(cfg->factory, opts);
    const ExploreStats ds = dpor.Explore();
    PrintStats(*cfg, "dpor", ds);
    Explorer::Options nopts = opts;
    nopts.sleep_sets = false;
    nopts.visited = false;
    nopts.max_runs = ds.runs * 5 + 1;
    Explorer nv(cfg->factory, nopts);
    const ExploreStats ns = nv.Explore();
    PrintStats(*cfg, "naive", ns);
    if (ns.budget_exhausted) {
      std::printf("mc %-9s reduction>=5.0x (naive exceeded %" PRIu64
                  " runs; dpor=%" PRIu64 ")\n",
                  cfg->name.c_str(), nopts.max_runs, ds.runs);
    } else {
      std::printf("mc %-9s reduction=%.1fx (naive=%" PRIu64 " dpor=%" PRIu64
                  ")\n",
                  cfg->name.c_str(),
                  ds.runs > 0 ? static_cast<double>(ns.runs) /
                                    static_cast<double>(ds.runs)
                              : 0.0,
                  ns.runs, ds.runs);
    }
    return ds.violation || ns.violation ? 1 : 0;
  }

  const auto artifact = ExploreAndReport(*cfg, opts);
  if (artifact && !artifact_path.empty()) {
    std::ofstream out(artifact_path);
    out << ToJson(*artifact);
    std::printf("mc %-9s artifact=%s\n", cfg->name.c_str(),
                artifact_path.c_str());
  }
  return artifact ? 1 : 0;
}

}  // namespace
}  // namespace mrp::mc

int main(int argc, char** argv) { return mrp::mc::Main(argc, argv); }
