#include "ringpaxos/client_core.h"

namespace mrp::ringpaxos {

void ClientCore::Seed(RingId ring, NodeId coordinator) {
  hints_.try_emplace(ring, Hint{coordinator, 0});
}

NodeId ClientCore::coordinator(RingId ring) const {
  const auto it = hints_.find(ring);
  return it == hints_.end() ? kNoNode : it->second.coordinator;
}

bool ClientCore::OnMessage(const MessageBase& m) {
  if (m.tag() != Heartbeat::kTag) return false;
  const auto& hb = static_cast<const Heartbeat&>(m);
  const auto [it, fresh] =
      hints_.try_emplace(hb.ring, Hint{hb.coordinator, hb.round});
  if (fresh) return true;
  Hint& hint = it->second;
  if (hb.round < hint.round) return false;
  hint.round = hb.round;
  if (hint.coordinator == hb.coordinator) return false;
  hint.coordinator = hb.coordinator;
  return true;
}

void ClientCore::Stamp(Env& env, paxos::ClientMsg& msg) {
  msg.proposer = env.self();
  if (msg.seq == 0) msg.seq = ++seq_;
  msg.sent_at = env.now();
}

void ClientCore::Submit(Env& env, RingId ring, paxos::ClientMsg msg) {
  if (on_submit_) on_submit_(msg);
  Forward(env, ring, MakeMessage<ringpaxos::Submit>(ring, std::move(msg)));
}

void ClientCore::Forward(Env& env, RingId ring, MessagePtr submit) {
  const NodeId to = gateway_ != kNoNode ? gateway_ : coordinator(ring);
  if (to != kNoNode) env.Send(to, std::move(submit));
}

}  // namespace mrp::ringpaxos
