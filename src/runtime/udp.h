// UDP transport with real ip-multicast. Unicast: one socket per node at
// base_port + node id. Multicast: one group address per channel
// (mcast_base + channel) joined on the configured interface; the sender
// is filtered out on receive (frames carry the sender id).
//
// Send path: Send()/Multicast() frame the message and sendto() it on the
// caller's thread (the node's loop thread) — one syscall per frame, no
// queue and no thread hop. Destination addresses are computed from
// base addresses parsed once at construction. Per-destination FIFO is
// the caller's own order.
//
// Receive path: Start() watches every socket on the EventLoop the node
// attached (Transport::Attach), so the node's one loop thread wakes on a
// datagram, drains the socket with recvmmsg() into transport-owned
// scratch buffers sized for the largest frame, and copies every datagram
// into an exact-size frame that feeds the zero-copy decode path
// (net/codec.h): ClientMsg payloads alias that frame, so a retained
// message pins only its own bytes. A transport nothing attached (a bare
// transport, or one wrapped by a transport that does not forward the
// hook) watches its sockets on a private EventLoop it owns, with the same
// read path on that loop's thread.
//
// Precondition, with a loop attached: the node, and with it the loop,
// is stopped and destroyed before this transport, because the loop calls
// into the transport until it stops. LocalCluster, mrpbench's Deployment
// and mrp_node all keep that order.
//
// Defaults target loopback so a whole cluster runs on one machine; with
// bind_ip / interface set to a real NIC the same code runs a distributed
// deployment (see examples/mrp_node.cpp).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/event_loop.h"
#include "runtime/transport.h"

namespace mrp::runtime {

struct UdpConfig {
  std::string bind_ip = "127.0.0.1";
  std::uint16_t base_port = 45000;        // unicast: base_port + node id
  std::string mcast_prefix = "239.255.77.";  // + (1 + channel)
  std::uint16_t mcast_port_base = 46500;  // + channel
  std::string mcast_if = "127.0.0.1";
};

class UdpTransport final : public Transport {
 public:
  UdpTransport(NodeId self, UdpConfig cfg);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void Send(NodeId to, MessagePtr msg) override;
  void Multicast(ChannelId channel, MessagePtr msg) override;
  void Subscribe(ChannelId channel) override;
  void SetReceiver(RxFn rx) override;
  void Attach(EventLoop& loop) override { loop_ = &loop; }

  // Watches the sockets (after subscriptions are registered): on the
  // attached loop, before that loop starts, or else on a private loop
  // started here. Once only.
  void Start();
  // Stops the private loop, if any; an attached loop is its owner's.
  void Stop();

  std::uint64_t tx_frames() const { return tx_frames_.load(); }
  // Frames not sent because they exceed the 60 kB frame limit.
  std::uint64_t tx_oversized() const { return tx_oversized_.load(); }
  std::uint64_t rx_frames() const { return rx_frames_.load(); }
  // Syscall-batching effectiveness: frames per batch = frames/batches.
  // Every frame is its own sendto(), so tx batches equal tx frames.
  std::uint64_t tx_batches() const { return tx_frames(); }
  std::uint64_t rx_batches() const { return rx_batches_.load(); }

 private:
  int OpenMulticastRx(ChannelId channel);
  // Unicast address of a node, and group address of a multicast channel.
  sockaddr_in UnicastAddr(NodeId node) const;
  sockaddr_in GroupAddr(ChannelId channel) const;
  // Frames `msg` (sender-id header + encoding) and sends it to `addr`.
  void SendFrame(int fd, const sockaddr_in& addr, const MessageBase& msg);
  // Drains `fd` with recvmmsg() into the scratch buffers and dispatches.
  void ReadSocket(int fd);

  NodeId self_;
  UdpConfig cfg_;
  RxFn rx_;
  int unicast_fd_ = -1;
  int mcast_tx_fd_ = -1;
  in_addr bind_addr_{};   // bind_ip
  in_addr mcast_base_{};  // mcast_prefix + "0"
  std::vector<std::pair<ChannelId, int>> mcast_rx_fds_;
  EventLoop* loop_ = nullptr;  // attached by the node
  bool started_ = false;
  std::atomic<std::uint64_t> tx_frames_{0};
  std::atomic<std::uint64_t> tx_oversized_{0};
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> rx_batches_{0};

  // Receive scratch, used on the watching loop's thread: one max-size
  // buffer per recvmmsg() slot.
  std::unique_ptr<std::uint8_t[]> rx_scratch_;
  std::vector<iovec> rx_iovs_;
  std::vector<mmsghdr> rx_hdrs_;
  // The loop that reads the sockets when nothing attached one; last, so
  // its thread stops before the members it uses go.
  std::unique_ptr<EventLoop> own_loop_;
};

}  // namespace mrp::runtime
