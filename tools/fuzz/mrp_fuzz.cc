// Deterministic chaos fuzzer for Multi-Ring Paxos (docs/CHECKING.md).
//
// Each seed draws a timed fault schedule (src/check/fault_plan.h),
// executes it on the plan executor (plan_executor.h) with the protocol
// invariant oracles tapped into every role, and — on a violation —
// greedily shrinks the schedule and writes a self-contained JSON replay
// artifact that `--replay` reproduces byte-identically (the oracle feed
// digest must match).
//
// Modes:
//   mrp_fuzz --seeds N [--start-seed S] [--budget majority|anything]
//            [--rings R --ring-size K --spares P --sites S --smr
//             --workload]
//            [--artifact-dir DIR]        sweep seeds, exit 1 on violation
//   mrp_fuzz --plan FILE                run one scripted plan (JSON),
//                                       exit 1 on violation
//   mrp_fuzz --replay FILE              re-run an artifact, verify digest
//   mrp_fuzz --self-check               inject an agreement bug, verify
//                                       the oracles catch it, the shrinker
//                                       reduces it, and replay is exact
//   mrp_fuzz --codec-fuzz N             mutate encoded frames through
//                                       net::DecodeMessage (crash = bug)
//
// Outputs of the final run (the determinism gate byte-compares them):
//   --trace FILE          structured trace, JSONL
//   --out-metrics FILE    whole-deployment metrics snapshot, JSON
//   --perturb-heap SALT   allocate a salted pattern of decoy blocks first,
//                         so every node lands at a different heap address
//                         than in a plain run
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_plan.h"
#include "common/rand.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/codec.h"
#include "paxos/messages.h"
#include "plan_executor.h"
#include "reconfig/messages.h"
#include "reconfig/ring_view.h"
#include "recovery/messages.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp {
namespace {

using check::DeploymentShape;
using check::FaultBudget;
using check::FaultEvent;
using check::FaultPlan;
using check::ReplayArtifact;
using fuzz::RunOptions;
using fuzz::RunStats;

// Options every run of the process shares (--probe, --out-metrics).
RunOptions g_run;

RunStats Run(const FaultPlan& plan, InstanceId inject_corrupt, bool verbose) {
  RunOptions o = g_run;
  o.inject_corrupt = inject_corrupt;
  o.verbose = verbose;
  return fuzz::RunPlan(plan, o);
}

// Greedy event-drop shrinking: repeatedly remove the first event whose
// removal preserves a violation of `target`, until no single removal
// does (or the run budget is spent).
FaultPlan Shrink(const FaultPlan& plan, InstanceId inject,
                 const std::string& target, int max_runs, bool verbose) {
  FaultPlan cur = plan;
  int runs = 0;
  bool improved = true;
  while (improved && runs < max_runs) {
    improved = false;
    for (std::size_t i = 0; i < cur.events.size() && runs < max_runs; ++i) {
      FaultPlan cand = cur;
      cand.events.erase(cand.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
      ++runs;
      RunStats rs = Run(cand, inject, false);
      if (rs.violated && (target.empty() || rs.Has(target))) {
        cur = std::move(cand);
        improved = true;
        if (verbose) {
          std::fprintf(stderr, "  shrink: %zu events (run %d)\n",
                       cur.events.size(), runs);
        }
        break;
      }
    }
  }
  return cur;
}

std::string ArtifactPath(const std::string& dir, std::uint64_t seed) {
  return dir + "/mrp_fuzz_seed" + std::to_string(seed) + ".json";
}

bool WriteArtifact(const std::string& path, const ReplayArtifact& art) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << check::ToJson(art) << "\n";
  return static_cast<bool>(out);
}

// ---- Codec fuzzing ----------------------------------------------------

// Representative well-formed frames to mutate.
std::vector<Bytes> CodecCorpus() {
  using namespace ringpaxos;  // NOLINT
  std::vector<Bytes> corpus;
  auto add = [&corpus](const MessageBase& m) {
    corpus.push_back(net::EncodeMessage(m));
  };

  paxos::ClientMsg cm;
  cm.group = 1;
  cm.proposer = 7;
  cm.seq = 42;
  cm.sent_at = Millis(3);
  cm.payload_size = 4;
  cm.payload = Bytes{0xde, 0xad, 0xbe, 0xef};
  paxos::Value val;
  val.kind = paxos::Value::Kind::kBatch;
  val.msgs = {cm, cm};
  paxos::Value skip;
  skip.kind = paxos::Value::Kind::kSkip;
  skip.skip_count = 16;

  add(Submit(0, cm));
  add(SubmitAck(0, 1, 42));
  add(P2A(0, 1, 9, 77, val, {{8, 76}, {9, 77}}, {1, 2, 3}));
  add(P2A(1, 2, 10, 78, skip, {}, {4, 5}));
  add(P2B(0, 1, 9, 77, 2));
  add(DecisionMsg(0, {{9, 77}}));
  add(P1A(0, 3, 5, {1, 2}));
  add(P1B(0, 3, {{5, 2, val}, {6, 2, skip}}));
  add(Heartbeat(0, 3, 1));
  add(HeartbeatAck(0, 3));
  add(LearnReq(0, 5, 32));
  add(LearnRep(0, {{5, 77, val}}));
  add(DeliveryAck(0, 1, 42));
  add(TrimNotice(0, 100, 200));
  add(recovery::SnapshotRequest(0, 0, 16));
  add(recovery::SnapshotChunk(3, 1, 4, {0x01, 0x02, 0x03}));
  add(recovery::SnapshotDone(3, 4, 4096, 0xfeedfacecafebeefULL));
  add(recovery::CheckpointRequest(7));
  add(recovery::CheckpointReport(7, 7, {{0, 1200}, {1, 900}}));
  add(recovery::FrontierAdvert(7, {{0, 1000}, {1, 800}}));
  add(smr::Response(9, 0, true, {{1, "one"}}));
  add(session::LeaseGrant(0, 3, 9, 1200, TimePoint(77000000)));
  add(session::LeaseAck(0, 3));
  add(session::LeaseRevoke(0, 3));
  add(session::SessionRead(1, 42, 10, 20));
  add(session::SessionReadRep(42, 0, session::SessionReadRep::kOk,
                              {{1, "one"}, {2, "two"}}));
  add(session::SessionReadRep(43, 0, session::SessionReadRep::kNoLease));
  add(session::Rejected(1, 42, session::Rejected::kOverload));
  {
    reconfig::RingConfiguration rcfg(
        2,
        {reconfig::GroupRoute{0, 0, 3, 10, 11, {3, 4}},
         reconfig::GroupRoute{1, 1, 5, 12, 13, {5, 6}}},
        {{0, 499999, 0}, {500000, 999999, 1}});
    add(reconfig::RoutingUpdate(rcfg.version(), rcfg.Encode()));
  }
  add(reconfig::HandoffRequest(77, 1));
  add(reconfig::PlanStatus(77, true));
  add(paxos::SubmitReq(cm));
  add(paxos::Phase1A(4, 2));
  add(paxos::Phase1B(4, 2, 1, val));
  add(paxos::Phase2A(4, 2, val));
  add(paxos::Phase2B(4, 2));
  add(paxos::DecisionMsg(4, val, 1));
  add(paxos::LearnReq(4));
  return corpus;
}

// Mutates corpus frames (and throws in fully random ones) through the
// decoder. Any crash/sanitizer report is a codec bug; decoded frames
// must also re-encode without crashing.
int RunCodecFuzz(std::uint64_t seed, int iterations) {
  const std::vector<Bytes> corpus = CodecCorpus();
  // Every corpus frame must decode cleanly before we start mutating.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (net::DecodeMessage(corpus[i]) == nullptr) {
      std::fprintf(stderr, "codec-fuzz: corpus frame %zu does not decode\n",
                   i);
      return 1;
    }
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t decoded = 0;
  for (int it = 0; it < iterations; ++it) {
    Bytes frame;
    const std::uint64_t strategy = rng.below(5);
    if (strategy == 0) {
      // Fully random frame.
      frame.resize(rng.below(64) + 1);
      for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    } else {
      frame = corpus[rng.below(corpus.size())];
      switch (strategy) {
        case 1:  // truncate
          frame.resize(rng.below(frame.size() + 1));
          break;
        case 2:  // flip random bytes
          for (std::uint64_t k = rng.below(8) + 1; k > 0 && !frame.empty();
               --k) {
            frame[rng.below(frame.size())] ^=
                static_cast<std::uint8_t>(rng.below(256));
          }
          break;
        case 3:  // saturate a run of bytes (forges huge varint lengths)
          if (!frame.empty()) {
            std::size_t at = rng.below(frame.size());
            for (std::size_t k = 0; k < 9 && at + k < frame.size(); ++k) {
              frame[at + k] = 0xff;
            }
          }
          break;
        default:  // splice the tail of another corpus frame
          if (!frame.empty()) {
            const Bytes& other = corpus[rng.below(corpus.size())];
            frame.resize(rng.below(frame.size()) + 1);
            frame.insert(frame.end(), other.begin(), other.end());
          }
          break;
      }
    }
    MessagePtr m = net::DecodeMessage(frame);
    if (m != nullptr) {
      ++decoded;
      (void)net::EncodeMessage(*m);  // round trip must not crash either
    }
  }
  std::printf("codec-fuzz: %d frames, %llu decoded, no crashes\n",
              iterations, static_cast<unsigned long long>(decoded));
  return 0;
}

// ---- Modes ------------------------------------------------------------

int RunSweep(std::uint64_t start_seed, int n_seeds,
             const DeploymentShape& shape, const FaultBudget& budget,
             const std::string& artifact_dir, bool verbose) {
  for (int i = 0; i < n_seeds; ++i) {
    const std::uint64_t seed = start_seed + static_cast<std::uint64_t>(i);
    FaultPlan plan = check::GeneratePlan(seed, shape, budget);
    if (verbose) {
      std::fprintf(stderr, "seed %llu: %zu events\n",
                   static_cast<unsigned long long>(seed),
                   plan.events.size());
    }
    RunStats rs = Run(plan, 0, verbose);
    if (!rs.violated) {
      std::printf("seed %llu ok (%llu deliveries, digest %016llx)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(rs.deliveries),
                  static_cast<unsigned long long>(rs.digest));
      continue;
    }
    std::printf("seed %llu VIOLATION:\n%s\n",
                static_cast<unsigned long long>(seed), rs.report.c_str());
    std::printf("shrinking (%zu events)...\n", plan.events.size());
    FaultPlan shrunk = Shrink(plan, 0, rs.first_oracle, 200, verbose);
    RunStats final_rs = Run(shrunk, 0, false);
    ReplayArtifact art;
    art.plan = shrunk;
    art.violated_oracle = final_rs.first_oracle;
    art.feed_digest = final_rs.digest;
    const std::string path = ArtifactPath(artifact_dir, seed);
    if (!WriteArtifact(path, art)) {
      std::fprintf(stderr, "failed to write artifact %s\n", path.c_str());
    } else {
      std::printf("artifact (%zu events) written to %s\n",
                  shrunk.events.size(), path.c_str());
    }
    return 1;
  }
  std::printf("all %d seeds passed\n", n_seeds);
  return 0;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int RunPlanFile(const std::string& path, bool verbose) {
  const auto json = ReadFile(path);
  if (!json) return 2;
  const auto plan = check::ParsePlan(*json);
  if (!plan) {
    std::fprintf(stderr, "%s is not a valid fault plan\n", path.c_str());
    return 2;
  }
  const RunStats rs = Run(*plan, 0, verbose);
  if (rs.violated) {
    std::printf("plan %s VIOLATION:\n%s\n", path.c_str(), rs.report.c_str());
    return 1;
  }
  std::printf("plan ok (%llu deliveries, digest %016llx)\n",
              static_cast<unsigned long long>(rs.deliveries),
              static_cast<unsigned long long>(rs.digest));
  return 0;
}

int RunReplay(const std::string& path, bool verbose) {
  const auto json = ReadFile(path);
  if (!json) return 2;
  auto art = check::ParseArtifact(*json);
  if (!art) {
    std::fprintf(stderr, "%s is not a valid replay artifact\n", path.c_str());
    return 2;
  }
  RunStats rs = Run(art->plan, art->inject_corrupt_instance, verbose);
  const bool oracle_match = rs.first_oracle == art->violated_oracle;
  const bool digest_match = rs.digest == art->feed_digest;
  if (rs.violated && oracle_match && digest_match) {
    std::printf("replay OK: oracle '%s' reproduced, digest %016llx matches\n",
                rs.first_oracle.c_str(),
                static_cast<unsigned long long>(rs.digest));
    if (verbose) std::printf("%s\n", rs.report.c_str());
    return 0;
  }
  std::printf("replay MISMATCH: violated=%d oracle '%s' (expected '%s') "
              "digest %016llx (expected %016llx)\n%s\n",
              rs.violated ? 1 : 0, rs.first_oracle.c_str(),
              art->violated_oracle.c_str(),
              static_cast<unsigned long long>(rs.digest),
              static_cast<unsigned long long>(art->feed_digest),
              rs.report.c_str());
  return 1;
}

int RunSelfCheck(const std::string& artifact_dir, bool verbose) {
  const std::uint64_t seed = 42;
  const InstanceId corrupt_at = 200;
  DeploymentShape shape;
  FaultBudget budget;
  FaultPlan plan = check::GeneratePlan(seed, shape, budget);

  // 1. The clean run must pass — otherwise the fuzzer found a real bug
  //    and the self-check machinery cannot be validated on top of it.
  std::printf("self-check 1/6: clean run...\n");
  RunStats clean = Run(plan, 0, verbose);
  if (clean.violated) {
    std::printf("clean run violated oracles (real bug?):\n%s\n",
                clean.report.c_str());
    return 1;
  }

  // 2. Injecting the agreement bug must trip the oracles.
  std::printf("self-check 2/6: injected corruption is caught...\n");
  RunStats bad = Run(plan, corrupt_at, verbose);
  if (!bad.violated) {
    std::printf("injected corruption was NOT caught\n");
    return 1;
  }
  if (!bad.Has("agreement") && !bad.Has("integrity")) {
    std::printf("violation caught but not by agreement/integrity:\n%s\n",
                bad.report.c_str());
    return 1;
  }

  // 3. The shrinker must reduce the schedule: the injected bug is
  //    plan-independent, so nearly every event can be dropped.
  std::printf("self-check 3/6: shrinking %zu events...\n",
              plan.events.size());
  FaultPlan shrunk = Shrink(plan, corrupt_at, bad.first_oracle, 200, verbose);
  if (shrunk.events.size() > 5) {
    std::printf("shrinker left %zu events (> 5)\n", shrunk.events.size());
    return 1;
  }

  // 4. The artifact must round-trip through JSON and replay to the
  //    byte-identical oracle feed.
  std::printf("self-check 4/6: artifact round-trip + byte-identical replay...\n");
  RunStats final_rs = Run(shrunk, corrupt_at, false);
  ReplayArtifact art;
  art.plan = shrunk;
  art.violated_oracle = final_rs.first_oracle;
  art.feed_digest = final_rs.digest;
  art.inject_corrupt_instance = corrupt_at;
  auto parsed = check::ParseArtifact(check::ToJson(art));
  if (!parsed || !(*parsed == art)) {
    std::printf("artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats replay = Run(parsed->plan, parsed->inject_corrupt_instance, false);
  if (replay.digest != art.feed_digest ||
      replay.first_oracle != art.violated_oracle) {
    std::printf("replay diverged: digest %016llx vs %016llx, oracle '%s' "
                "vs '%s'\n",
                static_cast<unsigned long long>(replay.digest),
                static_cast<unsigned long long>(art.feed_digest),
                replay.first_oracle.c_str(), art.violated_oracle.c_str());
    return 1;
  }
  const std::string path = ArtifactPath(artifact_dir, seed);
  WriteArtifact(path, art);

  // 5. Session control plane (docs/SESSIONS.md): a seeded retry-storm
  //    plan with a learner crash and a lease drop must exercise the
  //    session machinery (duplicate submissions suppressed, local reads
  //    served) without tripping the exactly-once or lease-read oracles,
  //    round-trip through JSON, and replay to the identical feed digest.
  std::printf(
      "self-check 5/6: session retry storm + learner crash replays clean...\n");
  FaultPlan sp;
  sp.seed = 7;
  sp.shape.with_smr = true;
  auto put = [&sp](FaultEvent::Kind kind, std::int64_t at_ms,
                   std::int64_t dur_ms) {
    FaultEvent e;
    e.kind = kind;
    e.at = TimePoint(at_ms * 1000000);
    e.duration = Duration(dur_ms * 1000000);
    sp.events.push_back(e);
  };
  put(FaultEvent::Kind::kRetryStorm, 400, 20);
  put(FaultEvent::Kind::kDuplicateSubmit, 600, 20);
  put(FaultEvent::Kind::kLearnerCrash, 800, 300);
  put(FaultEvent::Kind::kLeaseDrop, 1200, 200);
  put(FaultEvent::Kind::kRetryStorm, 1600, 20);
  put(FaultEvent::Kind::kSessionAbandon, 2000, 20);
  put(FaultEvent::Kind::kDuplicateSubmit, 2400, 20);
  RunStats sess = Run(sp, 0, verbose);
  if (sess.violated) {
    std::printf("session plan violated oracles:\n%s\n", sess.report.c_str());
    return 1;
  }
  if (sess.session_applies == 0 || sess.local_reads == 0) {
    std::printf("session plan did not exercise the machinery "
                "(applies=%llu local_reads=%llu)\n",
                static_cast<unsigned long long>(sess.session_applies),
                static_cast<unsigned long long>(sess.local_reads));
    return 1;
  }
  ReplayArtifact sart;
  sart.plan = sp;
  sart.feed_digest = sess.digest;
  auto sparsed = check::ParseArtifact(check::ToJson(sart));
  if (!sparsed || !(*sparsed == sart)) {
    std::printf("session artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats sreplay = Run(sparsed->plan, 0, false);
  if (sreplay.violated || sreplay.digest != sess.digest) {
    std::printf("session replay diverged: digest %016llx vs %016llx\n",
                static_cast<unsigned long long>(sreplay.digest),
                static_cast<unsigned long long>(sess.digest));
    return 1;
  }

  // 6. Reconfiguration (docs/RECONFIG.md): a scripted live split with a
  //    resubscribe storm and a coordinator crash mid-plan must complete
  //    the repartition, keep every oracle green, and replay to the
  //    identical feed digest.
  std::printf(
      "self-check 6/6: live split under faults completes and replays...\n");
  FaultPlan rp;
  rp.seed = 11;
  rp.shape.with_smr = true;
  auto rput = [&rp](FaultEvent::Kind kind, std::int64_t at_ms,
                    std::int64_t dur_ms) {
    FaultEvent e;
    e.kind = kind;
    e.at = TimePoint(at_ms * 1000000);
    e.duration = Duration(dur_ms * 1000000);
    rp.events.push_back(e);
  };
  rput(FaultEvent::Kind::kResubscribeStorm, 400, 300);
  rput(FaultEvent::Kind::kSplitLive, 800, 20);
  rput(FaultEvent::Kind::kReconfigCoordKill, 900, 250);
  rput(FaultEvent::Kind::kResubscribeStorm, 1600, 300);
  RunStats reconf = Run(rp, 0, verbose);
  if (reconf.violated) {
    std::printf("reconfig plan violated oracles:\n%s\n",
                reconf.report.c_str());
    return 1;
  }
  if (!reconf.repart_done || reconf.reconfig_applies == 0) {
    std::printf("reconfig plan did not exercise the machinery "
                "(done=%d stamped applies=%llu)\n",
                reconf.repart_done ? 1 : 0,
                static_cast<unsigned long long>(reconf.reconfig_applies));
    return 1;
  }
  ReplayArtifact rart;
  rart.plan = rp;
  rart.feed_digest = reconf.digest;
  auto rparsed = check::ParseArtifact(check::ToJson(rart));
  if (!rparsed || !(*rparsed == rart)) {
    std::printf("reconfig artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats rreplay = Run(rparsed->plan, 0, false);
  if (rreplay.violated || rreplay.digest != reconf.digest) {
    std::printf("reconfig replay diverged: digest %016llx vs %016llx\n",
                static_cast<unsigned long long>(rreplay.digest),
                static_cast<unsigned long long>(reconf.digest));
    return 1;
  }

  std::printf("self-check PASSED (%zu-event artifact at %s, digest "
              "%016llx; session plan: %llu applies, %llu local reads; "
              "reconfig plan: split done, %llu stamped applies)\n",
              shrunk.events.size(), path.c_str(),
              static_cast<unsigned long long>(art.feed_digest),
              static_cast<unsigned long long>(sess.session_applies),
              static_cast<unsigned long long>(sess.local_reads),
              static_cast<unsigned long long>(reconf.reconfig_applies));
  return 0;
}

// Shifts heap addresses without touching the deployment itself: allocate
// a salted pseudo-random pattern of blocks, then free every other one so
// later allocations also see a fragmented free list. The survivors are
// returned so they stay live for the whole run.
std::vector<std::unique_ptr<char[]>> PerturbHeap(std::uint64_t salt) {
  Rng rng(salt);
  std::vector<std::unique_ptr<char[]>> decoys;
  std::vector<std::unique_ptr<char[]>> survivors;
  for (int i = 0; i < 512; ++i) {
    const std::size_t size = 16 + rng.below(4096);
    auto block = std::make_unique<char[]>(size);
    block[0] = static_cast<char>(rng.next());  // force the page in
    if (i % 2 == 0) {
      survivors.push_back(std::move(block));
    } else {
      decoys.push_back(std::move(block));  // freed when this scope ends
    }
  }
  return survivors;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--start-seed S] [--budget majority|anything]\n"
      "          [--rings R] [--ring-size K] [--spares P] [--sites S] [--smr]\n"
      "          [--workload] [--artifact-dir DIR] [--plan FILE]\n"
      "          [--replay FILE] [--self-check] [--codec-fuzz N]\n"
      "          [--trace FILE] [--out-metrics FILE] [--perturb-heap SALT]\n"
      "          [--probe RING:INSTANCE] [-v]\n",
      argv0);
}

std::uint64_t ParseU64(const char* s) {
  return std::strtoull(s, nullptr, 10);
}

}  // namespace
}  // namespace mrp

int main(int argc, char** argv) {
  using namespace mrp;  // NOLINT
  int n_seeds = 25;
  std::uint64_t start_seed = 1;
  check::DeploymentShape shape;
  check::FaultBudget budget;
  std::string artifact_dir = ".";
  std::string plan_path;
  std::string replay_path;
  std::string trace_path;
  std::optional<std::uint64_t> perturb_salt;
  bool self_check = false;
  int codec_iters = 0;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      n_seeds = static_cast<int>(ParseU64(next()));
    } else if (arg == "--start-seed") {
      start_seed = ParseU64(next());
    } else if (arg == "--budget") {
      const std::string b = next();
      if (b == "anything") {
        budget = check::FaultBudget::AnythingGoes();
      } else if (b != "majority") {
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--rings") {
      shape.n_rings = static_cast<int>(ParseU64(next()));
    } else if (arg == "--ring-size") {
      shape.ring_size = static_cast<int>(ParseU64(next()));
    } else if (arg == "--spares") {
      shape.n_spares = static_cast<int>(ParseU64(next()));
    } else if (arg == "--sites") {
      shape.n_sites = static_cast<int>(ParseU64(next()));
    } else if (arg == "--smr") {
      shape.with_smr = true;
    } else if (arg == "--workload") {
      shape.workload = true;
    } else if (arg == "--artifact-dir") {
      artifact_dir = next();
    } else if (arg == "--plan") {
      plan_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--codec-fuzz") {
      codec_iters = static_cast<int>(ParseU64(next()));
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--out-metrics") {
      g_run.metrics_path = next();
    } else if (arg == "--perturb-heap") {
      perturb_salt = ParseU64(next());
    } else if (arg == "--probe") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        Usage(argv[0]);
        return 2;
      }
      g_run.probe.emplace(static_cast<RingId>(ParseU64(spec.c_str())),
                          ParseU64(spec.c_str() + colon + 1));
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  std::vector<std::unique_ptr<char[]>> ballast;
  if (perturb_salt) ballast = PerturbHeap(*perturb_salt);
  if (!trace_path.empty()) Tracer::Instance().Enable();
  int rc = 0;
  if (codec_iters > 0) {
    rc = RunCodecFuzz(start_seed, codec_iters);
  } else if (self_check) {
    rc = RunSelfCheck(artifact_dir, verbose);
  } else if (!plan_path.empty()) {
    rc = RunPlanFile(plan_path, verbose);
  } else if (!replay_path.empty()) {
    rc = RunReplay(replay_path, verbose);
  } else {
    rc = RunSweep(start_seed, n_seeds, shape, budget, artifact_dir, verbose);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    Tracer::Instance().WriteJsonl(out);
    std::fprintf(stderr, "trace (%zu events) written to %s\n",
                 Tracer::Instance().size(), trace_path.c_str());
  }
  return rc;
}
