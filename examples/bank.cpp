// Cross-partition transactions on atomic multicast: a toy bank whose
// accounts are range-partitioned over P partitions, one Ring Paxos group
// per partition plus g_all. Deposits touch one partition and are
// multicast to its group; transfers touch two partitions and are
// multicast to g_all, so BOTH partitions deliver them in the same
// relative order w.r.t. every conflicting operation — the invariant
// "total money is constant" holds at every replica without any locking
// or two-phase commit.
//
// This is the paper's Section II-C pattern applied to an operation that
// NEEDS the partial order (a transfer observed out of order could
// overdraw an account).
//
// Build & run:  ./build/examples/bank [partitions]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/wire.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/messages.h"

using namespace mrp;  // NOLINT

namespace {

constexpr std::uint64_t kAccounts = 1000;
constexpr std::int64_t kInitialBalance = 100;

struct BankOp {
  enum class Kind : std::uint8_t { kDeposit = 0, kTransfer = 1 };
  Kind kind = Kind::kDeposit;
  std::uint64_t from = 0;  // deposit: the account
  std::uint64_t to = 0;
  std::int64_t amount = 0;

  MRP_WIRE_FIELDS(kind, from, to, amount)
};

GroupId PartitionOf(std::uint64_t account, int partitions) {
  return static_cast<GroupId>(account * static_cast<std::uint64_t>(partitions) /
                              kAccounts);
}

// A replica of one partition: applies deposits for its accounts and both
// legs of transfers that touch them (transfers arrive on g_all, ordered
// against everything else the replica delivers).
class BankReplica final : public Protocol {
 public:
  BankReplica(GroupId partition, int partitions,
              std::vector<ringpaxos::LearnerOptions> groups)
      : partition_(partition), partitions_(partitions) {
    multiring::MergeLearner::Options mo;
    mo.groups = std::move(groups);
    mo.send_delivery_acks = true;
    mo.on_deliver = [this](GroupId, const paxos::ClientMsg& m) { Apply(m); };
    merge_ = std::make_unique<multiring::MergeLearner>(std::move(mo));
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      if (PartitionOf(a, partitions_) == partition_) {
        // A tenth of the accounts start empty so overdraft rejections —
        // the order-sensitive verdicts — actually occur.
        balances_[a] = (a % 10 == 9) ? 0 : kInitialBalance;
      }
    }
  }

  void OnStart(Env& env) override { merge_->OnStart(env); }
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override {
    merge_->OnMessage(env, from, m);
  }

  std::int64_t TotalBalance() const {
    std::int64_t total = 0;
    for (const auto& [a, b] : balances_) total += b;
    return total;
  }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t rejected() const { return rejected_; }
  std::int64_t rejected_amount() const { return rejected_amount_; }

  // Order-sensitive state digest: two replicas of the same partition
  // match iff they delivered the same operations in the same order
  // (the overdraft verdicts are order-dependent).
  std::uint64_t Fingerprint() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    for (const auto& [a, b] : balances_) {
      mix(a);
      mix(static_cast<std::uint64_t>(b));
    }
    mix(rejected_);
    return h;
  }

 private:
  void Apply(const paxos::ClientMsg& m) {
    const auto decoded = wire::Decode<BankOp>(m.payload);
    if (!decoded) return;
    const BankOp& op = *decoded;
    ++applied_;
    if (op.kind == BankOp::Kind::kDeposit) {
      auto it = balances_.find(op.from);
      if (it != balances_.end()) it->second += op.amount;
      return;
    }
    // Transfer. The debit is CONDITIONAL (no overdrafts): the verdict
    // depends on the source balance at delivery time, which depends on
    // the relative order of this transfer and every deposit/transfer
    // touching the account — some arriving on the partition group, some
    // on g_all. Only the deterministic merge makes all replicas of the
    // source partition reach the same verdict. The credit leg is
    // unconditional; credited-but-rejected amounts are accounted
    // explicitly in the global invariant below.
    auto from_it = balances_.find(op.from);
    auto to_it = balances_.find(op.to);
    if (from_it != balances_.end()) {
      if (from_it->second < op.amount) {
        ++rejected_;
        rejected_amount_ += op.amount;
      } else {
        from_it->second -= op.amount;
      }
    }
    if (to_it != balances_.end()) to_it->second += op.amount;
    (void)partitions_;
  }

  GroupId partition_;
  int partitions_;
  std::unique_ptr<multiring::MergeLearner> merge_;
  std::map<std::uint64_t, std::int64_t> balances_;
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_ = 0;
  std::int64_t rejected_amount_ = 0;
};

// Issues random deposits (single partition) and transfers (via g_all).
class BankClient final : public Protocol {
 public:
  BankClient(std::vector<ringpaxos::RingConfig> rings, int partitions, double rate)
      : rings_(std::move(rings)), partitions_(partitions), rate_(rate) {}

  void OnStart(Env& env) override {
    for (const auto& r : rings_) core_.Seed(r.ring, r.ring_members[0]);
    Arm(env);
  }
  // Heartbeats keep the coordinator hints current.
  void OnMessage(Env&, NodeId, const MessagePtr& m) override {
    core_.OnMessage(*m);
  }

 private:
  void Arm(Env& env) {
    env.SetTimer(FromSeconds(env.rng().exponential(1.0 / rate_)), [this, &env] {
      SendOne(env);
      Arm(env);
    });
  }

  void SendOne(Env& env) {
    BankOp op;
    const std::uint64_t a = env.rng().below(kAccounts);
    std::size_t ring_idx;
    if (env.rng().chance(0.3)) {
      // Transfer between two accounts (usually different partitions).
      op.kind = BankOp::Kind::kTransfer;
      op.from = a;
      op.to = env.rng().below(kAccounts);
      op.amount = 1 + static_cast<std::int64_t>(env.rng().below(5));
      ring_idx = static_cast<std::size_t>(partitions_);  // g_all
    } else {
      op.kind = BankOp::Kind::kDeposit;
      op.from = a;
      op.amount = 1 + static_cast<std::int64_t>(env.rng().below(10));
      deposited_ += op.amount;
      ring_idx = PartitionOf(a, partitions_);
    }
    paxos::ClientMsg m;
    m.group = rings_[ring_idx].group;
    m.payload = wire::Encode(op);
    m.payload_size = static_cast<std::uint32_t>(m.payload.size());
    core_.Stamp(env, m);
    core_.Submit(env, rings_[ring_idx].ring, std::move(m));
  }

 public:
  std::int64_t deposited_ = 0;

 private:
  std::vector<ringpaxos::RingConfig> rings_;
  int partitions_;
  double rate_;
  ringpaxos::ClientCore core_;
};

}  // namespace

int main(int argc, char** argv) {
  const int partitions = argc > 1 ? std::atoi(argv[1]) : 4;

  multiring::DeploymentOptions opts;
  opts.n_rings = partitions + 1;  // + g_all
  opts.lambda_per_sec = 9000;
  multiring::SimDeployment d(opts);

  // TWO replicas per partition: their convergence is the proof that the
  // deterministic merge ordered the partition group against g_all
  // identically at both.
  std::vector<std::vector<BankReplica*>> replicas(
      static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    for (int copy = 0; copy < 2; ++copy) {
      replicas[static_cast<std::size_t>(p)].push_back(d.AddLearnerNode(
          {p, partitions}, [&](sim::SimNode&,
                               std::vector<ringpaxos::LearnerOptions> groups) {
            return std::make_unique<BankReplica>(static_cast<GroupId>(p),
                                                 partitions, std::move(groups));
          }));
    }
  }

  std::vector<BankClient*> clients;
  std::vector<sim::SimNode*> client_nodes;
  std::vector<int> all_rings;
  for (int r = 0; r < d.n_rings(); ++r) all_rings.push_back(r);
  for (int c = 0; c < 4; ++c) {
    std::vector<ringpaxos::RingConfig> rings;
    for (int r : all_rings) rings.push_back(d.ring(r));
    auto client = std::make_unique<BankClient>(std::move(rings), partitions, 500.0);
    clients.push_back(client.get());
    client_nodes.push_back(&d.AddClient(std::move(client), all_rings));
  }

  std::printf("bank: %llu accounts over %d partitions + g_all, 4 clients\n",
              static_cast<unsigned long long>(kAccounts), partitions);
  d.Start();
  d.RunFor(Seconds(3));
  // Quiesce: stop the clients and let in-flight operations drain, so the
  // global tally is not skewed by half-delivered transfers at cut-off.
  for (auto* node : client_nodes) node->SetDown(true);
  d.RunFor(Seconds(1));

  std::int64_t total = 0, rejected_amount = 0;
  std::uint64_t applied = 0, rejected = 0;
  bool converged = true;
  for (int p = 0; p < partitions; ++p) {
    const auto& pair = replicas[static_cast<std::size_t>(p)];
    const bool same = pair[0]->Fingerprint() == pair[1]->Fingerprint();
    converged = converged && same;
    std::printf("partition %d: replicas %s (%llu ops, %llu overdrafts rejected)\n",
                p, same ? "CONVERGED" : "DIVERGED!",
                static_cast<unsigned long long>(pair[0]->applied()),
                static_cast<unsigned long long>(pair[0]->rejected()));
    total += pair[0]->TotalBalance();
    rejected_amount += pair[0]->rejected_amount();
    applied += pair[0]->applied();
    rejected += pair[0]->rejected();
  }
  std::int64_t deposited = 0;
  for (auto* c : clients) deposited += c->deposited_;

  // Global invariant: money is conserved up to the explicitly accounted
  // credited-but-rejected transfer legs.
  const std::int64_t initial =
      static_cast<std::int64_t>(kAccounts) * kInitialBalance -
      static_cast<std::int64_t>(kAccounts / 10) * kInitialBalance;
  const std::int64_t expected = initial + deposited + rejected_amount;
  std::printf("\ntotal ops %llu, rejected transfers %llu\n",
              static_cast<unsigned long long>(applied),
              static_cast<unsigned long long>(rejected));
  std::printf("total balance %lld vs expected %lld  %s\n",
              static_cast<long long>(total), static_cast<long long>(expected),
              total == expected ? "[INVARIANT HOLDS]" : "[VIOLATED!]");
  return (total == expected && converged) ? 0 : 1;
}
