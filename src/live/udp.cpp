#include "live/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace tv::live {

namespace {

sockaddr_in to_sockaddr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(endpoint.ip);
  addr.sin_port = htons(endpoint.port);
  return addr;
}

Endpoint from_sockaddr(const sockaddr_in& addr) {
  Endpoint endpoint;
  endpoint.ip = ntohl(addr.sin_addr.s_addr);
  endpoint.port = ntohs(addr.sin_port);
  return endpoint;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{what + ": " + std::strerror(errno)};
}

thread_local std::uint64_t t_sends = 0;

}  // namespace

std::uint64_t sends_on_this_thread() noexcept { return t_sends; }

const char* to_string(SendOutcome outcome) {
  switch (outcome) {
    case SendOutcome::kSent:
      return "sent";
    case SendOutcome::kAgain:
      return "again";
    case SendOutcome::kRefused:
      return "refused";
    case SendOutcome::kShort:
      return "short";
  }
  return "?";
}

std::string Endpoint::to_string() const {
  return std::to_string((ip >> 24) & 0xff) + "." +
         std::to_string((ip >> 16) & 0xff) + "." +
         std::to_string((ip >> 8) & 0xff) + "." + std::to_string(ip & 0xff) +
         ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& text) {
  if (text.empty()) return std::nullopt;
  const auto colon = text.rfind(':');
  std::string host = colon == std::string::npos ? "" : text.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? text : text.substr(colon + 1);
  unsigned port = 0;
  const char* const end = port_text.data() + port_text.size();
  const auto [ptr, ec] = std::from_chars(port_text.data(), end, port);
  if (port_text.empty() || ec != std::errc{} || ptr != end || port > 65535) {
    return std::nullopt;
  }

  Endpoint endpoint;
  endpoint.port = static_cast<std::uint16_t>(port);
  if (!host.empty()) {
    in_addr parsed{};
    if (inet_pton(AF_INET, host.c_str(), &parsed) != 1) return std::nullopt;
    endpoint.ip = ntohl(parsed.s_addr);
  }
  return endpoint;
}

UdpSocket::UdpSocket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("UdpSocket: socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("UdpSocket: O_NONBLOCK");
  }
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), refusals_(other.refusals_), peer_(other.peer_) {
  other.fd_ = -1;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    refusals_ = other.refusals_;
    peer_ = other.peer_;
    other.fd_ = -1;
  }
  return *this;
}

void UdpSocket::bind(const Endpoint& endpoint) {
  const sockaddr_in addr = to_sockaddr(endpoint);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    throw_errno("UdpSocket: bind " + endpoint.to_string());
  }
}

Endpoint UdpSocket::local_endpoint() const {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("UdpSocket: getsockname");
  }
  return from_sockaddr(addr);
}

void UdpSocket::connect(const Endpoint& peer) {
  const sockaddr_in addr = to_sockaddr(peer);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    throw_errno("UdpSocket: connect " + peer.to_string());
  }
  peer_ = peer;
}

SendOutcome UdpSocket::send_to(const Endpoint& to,
                               std::span<const std::uint8_t> payload) {
  const bool connected = peer_ == to;
  const sockaddr_in addr = to_sockaddr(to);
  for (;;) {
    ++t_sends;
    const ssize_t sent =
        connected
            ? ::send(fd_, payload.data(), payload.size(), 0)
            : ::sendto(fd_, payload.data(), payload.size(), 0,
                       reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (sent < 0) {
      if (errno == EINTR) continue;  // signal mid-call: the datagram is
                                     // still ours, just try again.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        return SendOutcome::kAgain;
      }
      if (errno == ECONNREFUSED) {
        // A previous datagram to a connected peer drew an ICMP
        // port-unreachable; the kernel reports it here and did not send
        // this one.  The session layer decides whether to retry.
        ++refusals_;
        return SendOutcome::kRefused;
      }
      throw_errno("UdpSocket: sendto " + to.to_string());
    }
    return static_cast<std::size_t>(sent) == payload.size()
               ? SendOutcome::kSent
               : SendOutcome::kShort;
  }
}

std::optional<Datagram> UdpSocket::receive() {
  Datagram datagram;
  if (!receive_into(datagram)) return std::nullopt;
  return datagram;
}

bool UdpSocket::receive_into(Datagram& out) {
  // 64 KiB covers any UDP datagram; reused stack buffer, one copy out —
  // into `out.payload`, whose capacity survives across calls.
  std::uint8_t buffer[65536];
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    const ssize_t got = ::recvfrom(fd_, buffer, sizeof buffer, 0,
                                   reinterpret_cast<sockaddr*>(&addr), &len);
    if (got < 0) {
      if (errno == EINTR) continue;  // retry: a miss here would end the
                                     // caller's drain loop early.
      if (errno == ECONNREFUSED) {
        // Queued ICMP error on a connected socket.  Consume and count it,
        // then retry — real datagrams may sit behind it.
        ++refusals_;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return false;
      }
      throw_errno("UdpSocket: recvfrom");
    }
    out.from = from_sockaddr(addr);
    out.payload.assign(buffer, buffer + got);
    return true;
  }
}

void UdpSocket::set_receive_buffer(int bytes) {
  // Best-effort: the loopback test needs headroom for bursts, but a
  // kernel refusing the hint is not an error.
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
}

}  // namespace tv::live
