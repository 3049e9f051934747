// Transport abstraction for the real runtime. Implementations: the
// in-process bus (runtime/inproc.h) and UDP with ip-multicast
// (runtime/udp.h).
//
// A NodeRuntime attaches its EventLoop to its transport on construction.
// A transport that reads file descriptors watches them on that loop, so
// the node's one thread receives as well as sends; the in-process bus
// has nothing to watch and ignores the hook.
#pragma once

#include <functional>

#include "common/message.h"
#include "common/types.h"

namespace mrp::runtime {

class EventLoop;

class Transport {
 public:
  // Called for every received message: on the attached loop's thread
  // for a transport that reads there, else on the sender's or the
  // transport's own thread. NodeRuntime's receiver posts it onto the
  // node's loop, so handlers always run there, to completion.
  using RxFn = std::function<void(NodeId from, MessagePtr msg)>;

  virtual ~Transport() = default;

  virtual void Send(NodeId to, MessagePtr msg) = 0;
  virtual void Multicast(ChannelId channel, MessagePtr msg) = 0;
  virtual void Subscribe(ChannelId channel) = 0;
  virtual void SetReceiver(RxFn rx) = 0;
  // The node's loop, for a transport to read on; called before the loop
  // starts. The loop must stop before the transport goes (see udp.h).
  virtual void Attach(EventLoop& /*loop*/) {}
};

}  // namespace mrp::runtime
