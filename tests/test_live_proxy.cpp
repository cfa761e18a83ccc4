// Impairment-proxy edge cases: outage-window boundary semantics on the
// live datagram path.  OutageWindow::contains is start-inclusive and
// end-exclusive, and the virtual clock sits exactly on each send time
// when the proxy hears the datagram, so the boundary is exercised with
// no tolerance games.  Also the replay rule of the shared channel
// decision (live::Impairment).
#include "live/proxy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "live/event_loop.hpp"
#include "live/impairment.hpp"
#include "live/stream_map.hpp"
#include "live/udp.hpp"
#include "net/rtp.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::live {
namespace {

/// Sends one marker byte through the proxy at each scheduled time and
/// returns (receive time, marker) for everything that survived.
std::vector<std::pair<double, std::uint8_t>> run_through_outage(
    const std::vector<wifi::OutageWindow>& outages,
    const std::vector<double>& send_times, ProxyReport* report) {
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket proxy_socket;
  proxy_socket.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});

  ProxyConfig config;
  config.forward_to = rx.local_endpoint();
  config.outages = outages;
  ImpairmentProxy proxy{loop, proxy_socket, config, nullptr};
  proxy.start();

  std::vector<std::pair<double, std::uint8_t>> received;
  loop.watch_readable(rx.fd(), [&] {
    while (auto d = rx.receive()) {
      received.emplace_back(loop.now_s(), d->payload.at(0));
    }
  });

  const Endpoint in = proxy_socket.local_endpoint();
  for (std::size_t i = 0; i < send_times.size(); ++i) {
    const auto marker = static_cast<std::uint8_t>(i);
    loop.schedule_at(send_times[i], [&tx, in, marker] {
      const std::uint8_t byte[] = {marker};
      ASSERT_EQ(tx.send_to(in, byte), SendOutcome::kSent);
    });
  }
  loop.run();
  proxy.flush();
  *report = proxy.report();
  return received;
}

TEST(ProxyOutage, StartIsInclusiveEndIsExclusive) {
  // Outage [1.0, 2.0): a packet landing exactly at the start is lost,
  // one landing exactly at the end has already left the blackout.
  ProxyReport report;
  const auto received = run_through_outage(
      {{1.0, 1.0}}, {0.5, 1.0, 1.5, 2.0, 2.5}, &report);

  std::vector<std::uint8_t> markers;
  for (const auto& [at, marker] : received) markers.push_back(marker);
  EXPECT_EQ(markers, (std::vector<std::uint8_t>{0, 3, 4}));
  EXPECT_EQ(report.heard, 5u);
  EXPECT_EQ(report.forwarded, 3u);
  EXPECT_EQ(report.dropped, 2u);  // exactly-at-start and mid-window.
}

TEST(ProxyOutage, InstantBeforeStartStillDelivers) {
  ProxyReport report;
  const double epsilon = 1e-9;
  const auto received = run_through_outage(
      {{1.0, 1.0}}, {1.0 - epsilon, 2.0 - epsilon}, &report);

  std::vector<std::uint8_t> markers;
  for (const auto& [at, marker] : received) markers.push_back(marker);
  // Just before the start: delivered.  Just before the end: still inside.
  EXPECT_EQ(markers, (std::vector<std::uint8_t>{0}));
  EXPECT_EQ(report.dropped, 1u);
}

TEST(ProxyOutage, BackToBackWindowsLeaveNoGap) {
  // [1, 2) followed by [2, 3): the shared boundary instant belongs to the
  // second window, so a packet at t=2 is still lost and t=3 survives.
  ProxyReport report;
  const auto received = run_through_outage(
      {{1.0, 1.0}, {2.0, 1.0}}, {2.0, 3.0}, &report);

  std::vector<std::uint8_t> markers;
  for (const auto& [at, marker] : received) markers.push_back(marker);
  EXPECT_EQ(markers, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(report.dropped, 1u);
}

TEST(Impairment, ReplayLosesWhatTheMaskCannotPlace) {
  // A three-packet stream from sequence 500; the mask lets 500 and 502
  // through.  With a mask set, the mask decides every datagram, and one
  // it cannot place is lost even though the plan is otherwise empty.
  std::vector<net::VideoPacket> packets(3);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].sequence = static_cast<std::uint16_t>(500 + i);
  }
  const StreamMap map = StreamMap::of(packets, 1);
  Impairment impairment;
  EXPECT_TRUE(impairment.inert());
  impairment.replay(map, {true, false, true});
  EXPECT_FALSE(impairment.inert());

  const auto datagram = [](std::uint16_t sequence) {
    std::vector<std::uint8_t> bytes(net::RtpHeader::kSize + 4, 0x5a);
    net::RtpHeader header;
    header.sequence_number = sequence;
    EXPECT_TRUE(header.write_to(bytes));
    return bytes;
  };
  const auto copies = [&](std::vector<std::uint8_t> bytes) {
    const std::vector<std::uint8_t> heard = bytes;
    const Verdict verdict = impairment.decide(0.0, bytes);
    EXPECT_TRUE(verdict.replayed);
    EXPECT_EQ(bytes, heard);  // a replayed datagram is never damaged.
    return verdict.copies;
  };
  EXPECT_EQ(copies(datagram(500)), 1);
  EXPECT_EQ(copies(datagram(501)), 0);
  EXPECT_EQ(copies(datagram(502)), 1);
  EXPECT_EQ(copies(datagram(503)), 0);  // past the stream.
  EXPECT_EQ(copies(datagram(499)), 0);  // before it.
  EXPECT_EQ(copies({0x80, 0x00}), 0);   // no RTP header at all.
}

}  // namespace
}  // namespace tv::live
