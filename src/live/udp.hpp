// Minimal non-blocking IPv4 UDP sockets for the live subsystem.
//
// The live roles (sender, receiver, proxy, eavesdropper) exchange real
// datagrams over the kernel's UDP stack — loopback in the pinned e2e
// test, any LAN address in manual runs.  This wrapper is deliberately
// thin: AF_INET only, always non-blocking, move-only RAII ownership of
// the descriptor.  Everything above it (pacing, impairment, reassembly)
// lives in the event loop and sessions, which is what the paper models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace tv::live {

/// An IPv4 address + UDP port.  Host byte order throughout; conversion
/// to sockaddr happens inside UdpSocket.
struct Endpoint {
  std::uint32_t ip = 0x7f000001;  ///< 127.0.0.1
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Parse "A.B.C.D:port" (or ":port" / "port" meaning loopback).
/// Returns std::nullopt on malformed input.
[[nodiscard]] std::optional<Endpoint> parse_endpoint(const std::string& text);

/// A received datagram with its source address.
struct Datagram {
  Endpoint from;
  std::vector<std::uint8_t> payload;
};

/// What happened to a datagram handed to the kernel.  Only kSent means
/// the peer can possibly see the whole payload; everything else is a
/// per-packet condition the session layer must decide about (retry,
/// shed, or fail the session) instead of the old silent bool.
enum class SendOutcome {
  kSent,     ///< whole payload accepted by the kernel.
  kAgain,    ///< transient refusal (EAGAIN/ENOBUFS): retry later.
  kRefused,  ///< ECONNREFUSED via ICMP on a connected socket: peer gone.
  kShort,    ///< kernel accepted a short write: datagram truncated.
};

[[nodiscard]] const char* to_string(SendOutcome outcome);

/// Send syscalls issued on the calling thread by every UdpSocket, counted
/// before each call.  A virtual-clock EventLoop compares it across its
/// own dispatches: on loopback a datagram is queued on its destination
/// inside the send call, so a descriptor of the loop can only have become
/// readable if this count moved (docs/live.md, "virtual clock").
[[nodiscard]] std::uint64_t sends_on_this_thread() noexcept;

/// Move-only owner of a non-blocking AF_INET/SOCK_DGRAM descriptor.
class UdpSocket {
 public:
  /// Creates an unbound non-blocking UDP socket; throws std::runtime_error
  /// if the kernel refuses.
  UdpSocket();
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Bind to an address; port 0 asks the kernel for an ephemeral port
  /// (use local_endpoint() to learn it).  Throws on failure.
  void bind(const Endpoint& endpoint);

  /// The bound address (meaningful after bind).  Throws on failure.
  [[nodiscard]] Endpoint local_endpoint() const;

  /// Associate the socket with a default peer.  The kernel then reports
  /// ICMP port-unreachable back as ECONNREFUSED on later sends/receives,
  /// which send_to()/receive() surface without aborting, and delivers
  /// only the peer's datagrams.  Throws on failure.
  void connect(const Endpoint& peer);

  /// Sends one datagram, retrying EINTR internally.  A datagram to the
  /// connected peer goes out through send(2), reusing the route the
  /// kernel cached at connect().  See SendOutcome for the per-packet
  /// conditions; throws only on non-transient errors.
  SendOutcome send_to(const Endpoint& to, std::span<const std::uint8_t> payload);

  /// Receives one datagram if available (non-blocking); std::nullopt
  /// when nothing is queued.  EINTR is retried internally and a pending
  /// ECONNREFUSED (connected sockets) is consumed and counted rather
  /// than thrown, so a drain loop never ends early on either.  Throws on
  /// non-transient errors.
  [[nodiscard]] std::optional<Datagram> receive();

  /// receive() into a caller-owned Datagram: the payload vector's
  /// capacity is reused across calls, so a drain loop allocates nothing
  /// once warm.  Returns false when nothing is queued.  Same EINTR /
  /// ECONNREFUSED handling as receive().
  [[nodiscard]] bool receive_into(Datagram& out);

  /// ECONNREFUSED indications consumed by send_to()/receive().
  [[nodiscard]] std::size_t refusals() const noexcept { return refusals_; }

  /// Grow the kernel receive buffer (best-effort; keeps burst arrivals
  /// from overflowing between poll rounds).
  void set_receive_buffer(int bytes);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  std::size_t refusals_ = 0;
  std::optional<Endpoint> peer_;  ///< set by connect().
};

}  // namespace tv::live
