#include "runtime/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "common/logging.h"
#include "net/codec.h"

namespace mrp::runtime {
namespace {

constexpr std::size_t kMaxFrame = 60 * 1024;
constexpr std::size_t kHeaderBytes = 4;  // u32 sender id
constexpr unsigned kRxBatch = 32;        // datagrams per recvmmsg()

in_addr ParseIp(const std::string& ip) {
  in_addr a{};
  if (inet_pton(AF_INET, ip.c_str(), &a) != 1) {
    throw std::runtime_error("bad address: " + ip);
  }
  return a;
}

sockaddr_in MakeAddr(in_addr ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = ip;
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(NodeId self, UdpConfig cfg)
    : self_(self),
      cfg_(std::move(cfg)),
      bind_addr_(ParseIp(cfg_.bind_ip)),
      mcast_base_(ParseIp(cfg_.mcast_prefix + "0")),
      rx_scratch_(new std::uint8_t[kRxBatch * kMaxFrame]),
      rx_iovs_(kRxBatch),
      rx_hdrs_(kRxBatch) {
  unicast_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (unicast_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(unicast_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  auto addr = UnicastAddr(self_);
  if (::bind(unicast_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("bind() failed for node " + std::to_string(self_));
  }

  mcast_tx_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  const in_addr iface = ParseIp(cfg_.mcast_if);
  ::setsockopt(mcast_tx_fd_, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface);
  int loop = 1;
  ::setsockopt(mcast_tx_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);

  // The kernel only writes msg_len/msg_flags, so the headers are set up
  // once. Scratch pages are touched only as deep as datagrams reach.
  for (unsigned k = 0; k < kRxBatch; ++k) {
    rx_iovs_[k] = {rx_scratch_.get() + k * kMaxFrame, kMaxFrame};
    rx_hdrs_[k].msg_hdr.msg_iov = &rx_iovs_[k];
    rx_hdrs_[k].msg_hdr.msg_iovlen = 1;
  }
}

UdpTransport::~UdpTransport() {
  Stop();
  if (unicast_fd_ >= 0) ::close(unicast_fd_);
  if (mcast_tx_fd_ >= 0) ::close(mcast_tx_fd_);
  for (auto& [ch, fd] : mcast_rx_fds_) ::close(fd);
}

int UdpTransport::OpenMulticastRx(ChannelId channel) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.mcast_port_base + channel));
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("multicast bind failed");
  }
  ip_mreq mreq{};
  mreq.imr_multiaddr = GroupAddr(channel).sin_addr;
  mreq.imr_interface = ParseIp(cfg_.mcast_if);
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0) {
    ::close(fd);
    throw std::runtime_error("IP_ADD_MEMBERSHIP failed");
  }
  return fd;
}

sockaddr_in UdpTransport::UnicastAddr(NodeId node) const {
  return MakeAddr(bind_addr_, static_cast<std::uint16_t>(cfg_.base_port + node));
}

sockaddr_in UdpTransport::GroupAddr(ChannelId channel) const {
  // The group's last octet is 1 + channel; beyond 255 the prefix's
  // dotted-quad form has no such address.
  if (channel >= 255) {
    throw std::runtime_error("bad address: " + cfg_.mcast_prefix +
                             std::to_string(1 + channel));
  }
  in_addr group{};
  group.s_addr = htonl(ntohl(mcast_base_.s_addr) + 1 + channel);
  return MakeAddr(group, static_cast<std::uint16_t>(cfg_.mcast_port_base +
                                                    channel));
}

void UdpTransport::Subscribe(ChannelId channel) {
  for (const auto& [ch, fd] : mcast_rx_fds_) {
    if (ch == channel) return;
  }
  mcast_rx_fds_.emplace_back(channel, OpenMulticastRx(channel));
}

void UdpTransport::SetReceiver(RxFn rx) { rx_ = std::move(rx); }

void UdpTransport::SendFrame(int fd, const sockaddr_in& addr,
                             const MessageBase& msg) {
  // Header and message encode into one buffer: no intermediate frame
  // copy on the send path.
  ByteWriter w(msg.WireSize() + kHeaderBytes);
  w.u32(self_);
  if (!net::EncodeMessageTo(w, msg)) return;
  if (w.size() <= kHeaderBytes || w.size() > kMaxFrame) return;
  ssize_t n;
  do {
    n = ::sendto(fd, w.data().data(), w.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (n < 0 && errno == EINTR);
  if (n >= 0) ++tx_frames_;  // UDP is best-effort: a failed send is a drop
}

void UdpTransport::Send(NodeId to, MessagePtr msg) {
  SendFrame(unicast_fd_, UnicastAddr(to), *msg);
}

void UdpTransport::Multicast(ChannelId channel, MessagePtr msg) {
  SendFrame(mcast_tx_fd_, GroupAddr(channel), *msg);
}

void UdpTransport::ReadSocket(int fd) {
  for (;;) {
    const int got =
        ::recvmmsg(fd, rx_hdrs_.data(), kRxBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) return;
    ++rx_batches_;
    for (int k = 0; k < got; ++k) {
      const std::size_t len = rx_hdrs_[static_cast<std::size_t>(k)].msg_len;
      if (len <= kHeaderBytes) continue;
      const std::uint8_t* data =
          rx_scratch_.get() + static_cast<std::size_t>(k) * kMaxFrame;
      ByteReader r(std::span<const std::uint8_t>(data, kHeaderBytes));
      auto from = r.u32();
      if (!from || *from == self_) continue;  // multicast self-loop filter
      // Zero-copy decode over an exact-size copy of the datagram: payload
      // fields of the message alias `frame`, which dies with the last
      // such message and pins only this datagram's bytes meanwhile.
      auto frame = std::make_shared<const Bytes>(data, data + len);
      MessagePtr msg = net::DecodeMessage(std::move(frame), kHeaderBytes);
      if (msg == nullptr) {
        MRP_WARN << "udp: dropping undecodable frame of " << len << " bytes";
        continue;
      }
      ++rx_frames_;
      if (rx_) rx_(*from, std::move(msg));
    }
    if (got < static_cast<int>(kRxBatch)) return;
  }
}

void UdpTransport::Start() {
  if (running_.exchange(true)) return;
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void UdpTransport::Stop() {
  if (!running_.exchange(false)) return;
  // Wake the poll thread now rather than at its next timeout: an empty
  // datagram to our own unicast socket, which ReadSocket drops.
  const sockaddr_in addr = UnicastAddr(self_);
  ::sendto(unicast_fd_, "", 0, 0, reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr);
  if (poll_thread_.joinable()) poll_thread_.join();
}

void UdpTransport::PollLoop() {
  std::vector<pollfd> fds;
  fds.push_back({unicast_fd_, POLLIN, 0});
  for (const auto& [ch, fd] : mcast_rx_fds_) fds.push_back({fd, POLLIN, 0});

  while (running_.load(std::memory_order_relaxed)) {
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/50) <= 0) continue;
    for (const auto& pfd : fds) {
      if (pfd.revents & POLLIN) ReadSocket(pfd.fd);
    }
  }
}

}  // namespace mrp::runtime
