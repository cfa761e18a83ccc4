#include "live/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "live/receiver_session.hpp"
#include "live/supervisor.hpp"
#include "live/udp.hpp"
#include "util/arena.hpp"

namespace tv::live {
namespace {

TEST(EventLoop, VirtualClockFiresTimersInDeadlineOrder) {
  EventLoop loop{ClockMode::kVirtual};
  std::vector<int> fired;
  std::vector<double> at;
  loop.schedule_at(0.3, [&] { fired.push_back(3); at.push_back(loop.now_s()); });
  loop.schedule_at(0.1, [&] { fired.push_back(1); at.push_back(loop.now_s()); });
  loop.schedule_at(0.2, [&] { fired.push_back(2); at.push_back(loop.now_s()); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  // The virtual clock sat exactly on each deadline when it fired.
  ASSERT_EQ(at.size(), 3u);
  EXPECT_DOUBLE_EQ(at[0], 0.1);
  EXPECT_DOUBLE_EQ(at[1], 0.2);
  EXPECT_DOUBLE_EQ(at[2], 0.3);
}

TEST(EventLoop, EqualDeadlinesFireInSchedulingOrder) {
  EventLoop loop{ClockMode::kVirtual};
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(1.0, [&fired, i] { fired.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop{ClockMode::kVirtual};
  bool cancelled_ran = false;
  bool kept_ran = false;
  const auto id = loop.schedule_at(0.5, [&] { cancelled_ran = true; });
  loop.schedule_at(0.6, [&] { kept_ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(kept_ran);
}

TEST(EventLoop, IdleLoopReturnsImmediately) {
  EventLoop loop{ClockMode::kVirtual};
  loop.run();  // nothing scheduled, nothing watched: must not hang.
  EXPECT_DOUBLE_EQ(loop.now_s(), 0.0);
}

TEST(EventLoop, PastDeadlinesNeverMoveTheClockBackwards) {
  EventLoop loop{ClockMode::kVirtual};
  std::vector<double> at;
  loop.schedule_at(2.0, [&] {
    at.push_back(loop.now_s());
    // Scheduled in the past relative to the current virtual time.
    loop.schedule_at(1.0, [&] { at.push_back(loop.now_s()); });
  });
  loop.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 2.0);
  EXPECT_DOUBLE_EQ(at[1], 2.0);  // fired immediately, clock held.
}

TEST(EventLoop, StopReturnsBeforeRemainingTimers) {
  EventLoop loop{ClockMode::kVirtual};
  bool later_ran = false;
  loop.schedule_at(0.1, [&] { loop.stop(); });
  loop.schedule_at(0.2, [&] { later_ran = true; });
  loop.run();
  EXPECT_FALSE(later_ran);
  // The pending timer survives a stop; a second run() picks it up.
  loop.run();
  EXPECT_TRUE(later_ran);
}

TEST(EventLoop, TimersDriveSocketsDeterministically) {
  // A sender timer writes one datagram per deadline; the watcher reads it
  // back with the virtual clock sitting exactly on the send time.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const Endpoint to = rx.local_endpoint();

  std::vector<std::pair<double, std::uint8_t>> received;
  loop.watch_readable(rx.fd(), [&] {
    while (auto d = rx.receive()) {
      received.emplace_back(loop.now_s(), d->payload.at(0));
    }
    if (received.size() == 3) loop.unwatch(rx.fd());
  });
  for (std::uint8_t i = 0; i < 3; ++i) {
    loop.schedule_at(0.25 * (i + 1), [&tx, to, i] {
      const std::uint8_t byte[] = {i};
      ASSERT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
    });
  }
  loop.run();
  ASSERT_EQ(received.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(received[i].second, i);
    // I/O drains before the clock advances to the next deadline, so each
    // datagram is read at its own send time.
    EXPECT_DOUBLE_EQ(received[i].first, 0.25 * (i + 1));
  }
}

TEST(EventLoop, PumpDrainsReadableWithoutAdvancingClock) {
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const std::uint8_t byte[] = {42};
  ASSERT_EQ(tx.send_to(rx.local_endpoint(), byte), SendOutcome::kSent);

  int reads = 0;
  loop.watch_readable(rx.fd(), [&] {
    while (rx.receive()) ++reads;
  });
  EXPECT_GE(loop.pump(), 1u);
  EXPECT_EQ(reads, 1);
  EXPECT_DOUBLE_EQ(loop.now_s(), 0.0);
  EXPECT_EQ(loop.pump(), 0u);  // nothing left.
}

TEST(EventLoop, ThrowsWhenTheEpollInstanceCannotBeCreated) {
  // With no descriptor left to this process epoll_create1 fails, and the
  // loop says so instead of running without a kernel wait.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
  bool threw = false;
  try {
    EventLoop loop{ClockMode::kVirtual};
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_TRUE(threw);
}

TEST(EventLoop, TimerScriptedSendsArriveAtTheirDeadlines) {
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const Endpoint to = rx.local_endpoint();
  std::vector<std::pair<double, std::uint8_t>> received;
  loop.watch_readable(rx.fd(), [&] {
    while (auto d = rx.receive()) {
      received.emplace_back(loop.now_s(), d->payload.at(0));
    }
  });
  for (std::uint8_t i = 0; i < 4; ++i) {
    loop.schedule_at(0.1 * (i + 1), [&tx, to, i] {
      const std::uint8_t byte[] = {static_cast<std::uint8_t>(i * 3)};
      ASSERT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
    });
  }
  loop.schedule_at(0.45, [&] { loop.unwatch(rx.fd()); });
  loop.run();
  ASSERT_EQ(received.size(), 4u);
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].first, 0.1 * static_cast<double>(i + 1));
    EXPECT_EQ(received[i].second, static_cast<std::uint8_t>(i * 3));
  }
}

TEST(EventLoop, CallbackMayUnwatchItsOwnDescriptor) {
  // The closure captures a string by value, so std::function keeps it on
  // the heap: were the watcher erased under the running callback, the
  // read of `tag` after unwatch() would be a use after free.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const std::uint8_t byte[] = {7};
  ASSERT_EQ(tx.send_to(rx.local_endpoint(), byte), SendOutcome::kSent);
  std::string seen;
  const std::string tag(48, 'x');
  loop.watch_readable(rx.fd(), [&loop, &rx, &seen, tag] {
    while (rx.receive()) {
    }
    loop.unwatch(rx.fd());
    seen = tag;
  });
  loop.run();
  EXPECT_EQ(seen, tag);
  EXPECT_EQ(loop.pump(), 0u);  // the watcher is gone.
}

TEST(EventLoop, CallbackMayWatchANewDescriptor) {
  // A closure of one reference fits std::function's inline buffer, so it
  // lives inside the watcher table: were the table to grow under the
  // running callback, reading the capture after watch_readable() would
  // be a use after free.
  struct Fixture {
    EventLoop loop{ClockMode::kVirtual};
    UdpSocket tx, first, second;
    int first_reads = 0;
    int second_reads = 0;
  } f;
  f.tx.bind(Endpoint{});
  f.first.bind(Endpoint{});
  f.second.bind(Endpoint{});
  const std::uint8_t byte[] = {1};
  ASSERT_EQ(f.tx.send_to(f.first.local_endpoint(), byte),
            SendOutcome::kSent);
  f.loop.watch_readable(f.first.fd(), [&f] {
    while (f.first.receive()) {
    }
    f.loop.watch_readable(f.second.fd(), [&f] {
      while (f.second.receive()) ++f.second_reads;
    });
    ++f.first_reads;
  });
  f.loop.schedule_at(1.0, [&f, &byte] {
    ASSERT_EQ(f.tx.send_to(f.second.local_endpoint(), byte),
              SendOutcome::kSent);
    ASSERT_EQ(f.tx.send_to(f.first.local_endpoint(), byte),
              SendOutcome::kSent);
  });
  f.loop.schedule_at(2.0, [&f] {
    f.loop.unwatch(f.first.fd());
    f.loop.unwatch(f.second.fd());
  });
  f.loop.run();
  EXPECT_EQ(f.first_reads, 2);
  EXPECT_EQ(f.second_reads, 1);
}

TEST(EventLoop, MonotonicFutureTimerSleepsInsteadOfSpinning) {
  // No watchers, one future deadline: the loop must block in the kernel
  // wait until the deadline, not spin through poll_once returning 0.
  EventLoop loop{ClockMode::kMonotonic};
  bool fired = false;
  loop.schedule_after(0.05, [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_GE(loop.now_s(), 0.05);
  // A spinning loop would take tens of thousands of rounds over 50 ms.
  EXPECT_LE(loop.poll_rounds(), 10u);
}

TEST(EventLoop, MonotonicPastDeadlineFiresImmediatelyWithoutSpin) {
  EventLoop loop{ClockMode::kMonotonic};
  std::vector<int> fired;
  loop.schedule_at(-1.0, [&] { fired.push_back(1); });
  loop.schedule_at(-0.5, [&] { fired.push_back(2); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_LE(loop.now_s(), 1.0);  // did not wait for anything.
  EXPECT_LE(loop.poll_rounds(), 10u);
}

TEST(EventLoop, CancelledTimerInSameDueBatchNeverFires) {
  // Both timers are due in the same monotonic dispatch batch; the first
  // cancels the second, which must then never run.
  EventLoop loop{ClockMode::kMonotonic};
  bool second_ran = false;
  EventLoop::TimerId second = 0;
  loop.schedule_at(-1.0, [&] { loop.cancel(second); });
  second = loop.schedule_at(-1.0, [&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, VirtualClockDrainsIoBeforePastDeadlineTimers) {
  // A datagram is already queued when run() starts, and a timer is due
  // in the past.  The I/O drain must still happen before the jump — the
  // read callback runs first, at clock 0.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const std::uint8_t byte[] = {7};
  ASSERT_EQ(tx.send_to(rx.local_endpoint(), byte), SendOutcome::kSent);

  std::vector<std::string> order;
  loop.watch_readable(rx.fd(), [&] {
    while (rx.receive()) order.push_back("read@" + std::to_string(loop.now_s()));
    loop.unwatch(rx.fd());
  });
  loop.schedule_at(0.0, [&] { order.push_back("timer"); });
  loop.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"read@0.000000", "timer"}));
}

// ---- When a virtual loop waits in the kernel (event_loop.hpp) -----------

TEST(EventLoopContract, PacedDatagramsCostOnePollRoundEach) {
  // N timers each send one datagram to a watcher that reads its socket
  // empty: one wait after each send, one for the new watcher and one
  // before going idle — never a wait per timer.
  constexpr int kDatagrams = 40;
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const Endpoint to = rx.local_endpoint();
  std::vector<double> read_at;
  loop.watch_readable(rx.fd(), [&] {
    while (rx.receive()) read_at.push_back(loop.now_s());
  });
  for (int i = 0; i < kDatagrams; ++i) {
    // Two timers per datagram, as a client's release and send timers.
    loop.schedule_at(0.01 * i, [] {});
    loop.schedule_at(0.01 * i + 0.005, [&tx, to] {
      const std::uint8_t byte[] = {1};
      ASSERT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
    });
  }
  loop.run();
  ASSERT_EQ(read_at.size(), static_cast<std::size_t>(kDatagrams));
  for (int i = 0; i < kDatagrams; ++i) {
    EXPECT_DOUBLE_EQ(read_at[static_cast<std::size_t>(i)], 0.01 * i + 0.005);
  }
  EXPECT_LE(loop.poll_rounds(), static_cast<std::size_t>(kDatagrams + 2));
}

TEST(EventLoopContract, EarlyStopThatTellsTheLoopReadsTheRestAtOnce) {
  // The watcher reads one datagram per call and says it stopped early:
  // all three are read at their send time, before the next timer.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const Endpoint to = rx.local_endpoint();
  std::vector<std::string> order;
  loop.watch_readable(rx.fd(), [&] {
    if (auto d = rx.receive()) {
      order.push_back("read" + std::to_string(d->payload.at(0)) + "@" +
                      std::to_string(loop.now_s()));
      loop.note_unread();
    }
  });
  loop.schedule_at(0.5, [&tx, to] {
    for (std::uint8_t i = 0; i < 3; ++i) {
      const std::uint8_t byte[] = {i};
      ASSERT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
    }
  });
  loop.schedule_at(0.5, [&] { order.push_back("timer"); });
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"read0@0.500000",
                                             "read1@0.500000",
                                             "read2@0.500000", "timer"}));
}

TEST(EventLoopContract, DatagramQueuedBeforeWatchIsReadBeforeTheNextTimer) {
  // The datagram is queued before the loop runs; the loop's first wait
  // finds no watcher.  A timer then adds the watcher without sending:
  // the new watcher alone must make the loop look before the next timer.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  tx.bind(Endpoint{});
  UdpSocket rx;
  rx.bind(Endpoint{});
  const std::uint8_t byte[] = {9};
  ASSERT_EQ(tx.send_to(rx.local_endpoint(), byte), SendOutcome::kSent);
  std::vector<std::string> order;
  loop.schedule_at(0.1, [&] {
    order.push_back("watch");
    loop.watch_readable(rx.fd(), [&] {
      while (rx.receive()) {
        order.push_back("read@" + std::to_string(loop.now_s()));
      }
    });
  });
  loop.schedule_at(0.2, [&] {
    order.push_back("timer");
    loop.unwatch(rx.fd());
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"watch", "read@0.100000",
                                             "timer"}));
}

TEST(EventLoopContract, LoopLooksOnceMoreBeforeGoingIdle) {
  // A datagram that arrives without a send on the loop's thread (here a
  // sender on another thread, outside the virtual-clock contract) is
  // still dispatched before the loop goes idle.
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket rx;
  rx.bind(Endpoint{});
  const Endpoint to = rx.local_endpoint();
  int reads = 0;
  double read_at = -1.0;
  loop.watch_readable(rx.fd(), [&] {
    while (rx.receive()) {
      ++reads;
      read_at = loop.now_s();
    }
  });
  loop.run();  // consumes the new-watcher wait; nothing queued yet.
  EXPECT_EQ(reads, 0);

  std::thread sender{[to] {
    UdpSocket tx;
    tx.bind(Endpoint{});
    const std::uint8_t byte[] = {3};
    EXPECT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
  }};
  sender.join();
  loop.schedule_at(1.0, [] {});  // the last timer sends nothing.
  loop.run();
  EXPECT_EQ(reads, 1);
  EXPECT_DOUBLE_EQ(read_at, 1.0);
}

util::Arena& contract_arena() {
  static util::Arena arena;  // lives for the whole test binary.
  return arena;
}

std::vector<net::VideoPacket> contract_packets(int count) {
  std::vector<net::VideoPacket> packets;
  for (int i = 0; i < count; ++i) {
    net::VideoPacket p;
    p.sequence = static_cast<std::uint16_t>(i);
    p.timestamp = 90000u + static_cast<std::uint32_t>(i);
    p.allocate_payload(contract_arena(), 48, static_cast<std::uint8_t>(i));
    packets.push_back(std::move(p));
  }
  return packets;
}

PacedSchedule contract_schedule(int count) {
  PacedSchedule schedule;
  for (int i = 0; i < count; ++i) {
    schedule.arrival_s.push_back(0.01 * i);
    schedule.send_s.push_back(0.01 * i);
  }
  return schedule;
}

Endpoint closed_port() {
  UdpSocket probe;  // grab an ephemeral port, then free it.
  probe.bind(Endpoint{});
  return probe.local_endpoint();
}

// Client sockets are connected, so a vanished server can surface as
// ECONNREFUSED (an ICMP port-unreachable, which the kernel may or may
// not deliver).  Either way the session must end through its retry
// ladder or watchdog, and nothing may throw.
TEST(ClientSessionServerGone, NoServerEndsThroughTheHandshakeLadder) {
  EventLoop loop{ClockMode::kVirtual};
  const auto packets = contract_packets(4);
  ClientConfig config;
  config.server = closed_port();
  config.ssrc = 0x6001;
  config.supervisor.max_handshake_retries = 3;
  ClientSession client{loop, std::move(config), packets, packets,
                       contract_schedule(4)};
  client.start();
  EXPECT_NO_THROW(loop.run());
  ASSERT_TRUE(client.finished());
  EXPECT_EQ(client.stats().outcome, SessionOutcome::kWatchdogKilled);
  EXPECT_EQ(client.stats().handshake_retries, 3u);
  EXPECT_EQ(client.stats().packets_sent, 0u);
}

TEST(ClientSessionServerGone, ServerClosingMidStreamEndsTheSession) {
  // A stand-in server accepts the HELLO and closes its socket at once.
  constexpr int kPackets = 20;
  EventLoop loop{ClockMode::kVirtual};
  auto server = std::make_unique<UdpSocket>();
  server->bind(Endpoint{});
  const int server_fd = server->fd();
  bool closing = false;
  loop.watch_readable(server_fd, [&] {
    while (auto d = server->receive()) {
      const auto hello = ControlMsg::try_parse(d->payload);
      if (closing || !hello || hello->type != ControlMsg::Type::kHello) {
        continue;
      }
      ControlMsg accept;
      accept.type = ControlMsg::Type::kAccept;
      accept.ssrc = hello->ssrc;
      ASSERT_EQ(server->send_to(d->from, accept.serialize()),
                SendOutcome::kSent);
      // Close from a timer at the same instant: unwatching here would
      // destroy this callback while it runs.
      closing = true;
      loop.schedule_after(0.0, [&] {
        loop.unwatch(server_fd);
        server.reset();
      });
    }
  });
  const auto packets = contract_packets(kPackets);
  ClientConfig config;
  config.server = server->local_endpoint();
  config.ssrc = 0x6002;
  config.supervisor.backoff_jitter = 0.0;
  ClientSession client{loop, std::move(config), packets, packets,
                       contract_schedule(kPackets)};
  client.start();
  EXPECT_NO_THROW(loop.run());
  ASSERT_TRUE(client.finished());
  const ClientStats& stats = client.stats();
  EXPECT_TRUE(stats.outcome == SessionOutcome::kRecovered ||
              stats.outcome == SessionOutcome::kWatchdogKilled)
      << to_string(stats.outcome);
  EXPECT_FALSE(stats.bye_acked);
  EXPECT_LE(stats.packets_sent + stats.packets_shed,
            static_cast<std::size_t>(kPackets));
}

TEST(EventLoop, DeadlineReachedComparesTheRecomputedDeadline) {
  const double last = 4.5180686659834715;
  const double now = last + 5.0;  // where a virtual clock lands.
  EXPECT_LT(now - last, 5.0);     // the subtraction that must not decide.
  EXPECT_TRUE(deadline_reached(last, 5.0, now));
  EXPECT_FALSE(deadline_reached(last, 5.0, std::nextafter(now, 0.0)));
}

// A datagram at a time whose idle deadline rounds badly: the session must
// still end at that deadline.  A subtracting watchdog re-arms at the same
// virtual instant forever, so ctest runs this suite under a TIMEOUT
// (tests/CMakeLists.txt).
TEST(ReceiverSessionIdle, EndsAtTheDeadlineOfAnAwkwardArrival) {
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket rx;
  rx.bind(Endpoint{});
  UdpSocket tx;
  tx.bind(Endpoint{});
  ReceiverSessionConfig config;
  config.idle_timeout_s = 5.0;
  ReceiverSession session{loop, rx, config};
  session.start();
  const double at = 4.5180686659834715;
  const Endpoint to = rx.local_endpoint();
  loop.schedule_at(at, [&tx, to] {
    const std::uint8_t byte[] = {0x80};
    ASSERT_EQ(tx.send_to(to, byte), SendOutcome::kSent);
  });
  loop.run();
  EXPECT_EQ(session.last_arrival_s(), at);
  EXPECT_EQ(loop.now_s(), at + 5.0);
  EXPECT_TRUE(session.finish().empty());  // one byte is no RTP packet.
}

TEST(Udp, SendOutcomeToStringCoversEveryValue) {
  EXPECT_STREQ(to_string(SendOutcome::kSent), "sent");
  EXPECT_STREQ(to_string(SendOutcome::kAgain), "again");
  EXPECT_STREQ(to_string(SendOutcome::kRefused), "refused");
  EXPECT_STREQ(to_string(SendOutcome::kShort), "short");
}

TEST(Udp, RefusedDestinationIsCountedNotFatal) {
  // A UDP send to a closed loopback port triggers an ICMP port-unreachable
  // that surfaces as ECONNREFUSED on a connected socket.  The wrapper must
  // absorb it (count + kRefused), never throw, whether the next send or
  // the next receive meets it.  ICMP delivery is kernel-dependent, so the
  // test skips only when neither part ever sees the error.
  Endpoint closed;
  {
    UdpSocket probe;  // grab an ephemeral port, then free it.
    probe.bind(Endpoint{});
    closed = probe.local_endpoint();
  }
  const std::uint8_t byte[] = {1};

  // Part 1: sends alone, until one meets the queued error.
  UdpSocket sender;
  sender.bind(Endpoint{});
  sender.connect(closed);
  bool send_refused = false;
  for (int i = 0; i < 50 && !send_refused; ++i) {
    const SendOutcome outcome = sender.send_to(closed, byte);
    EXPECT_TRUE(outcome == SendOutcome::kSent ||
                outcome == SendOutcome::kRefused);
    send_refused = outcome == SendOutcome::kRefused;
  }
  if (send_refused) {
    EXPECT_EQ(sender.refusals(), 1u);
  }

  // Part 2: one send, then receive() absorbs the error queued behind it.
  UdpSocket receiver;
  receiver.bind(Endpoint{});
  receiver.connect(closed);
  ASSERT_EQ(receiver.send_to(closed, byte), SendOutcome::kSent);
  for (int i = 0; i < 50 && receiver.refusals() == 0; ++i) {
    EXPECT_FALSE(receiver.receive().has_value());
  }
  const bool receive_refused = receiver.refusals() == 1;

  if (!send_refused && !receive_refused) {
    GTEST_SKIP() << "no ICMP port-unreachable surfaced on this kernel";
  }
  EXPECT_TRUE(send_refused);
  EXPECT_TRUE(receive_refused);
}

TEST(Udp, ParseEndpointAcceptsTheThreeForms) {
  const auto full = parse_endpoint("192.168.1.2:5004");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->ip, 0xC0A80102u);
  EXPECT_EQ(full->port, 5004);
  EXPECT_EQ(full->to_string(), "192.168.1.2:5004");

  const auto port_only = parse_endpoint(":7000");
  ASSERT_TRUE(port_only.has_value());
  EXPECT_EQ(port_only->ip, 0x7f000001u);
  EXPECT_EQ(port_only->port, 7000);

  const auto bare = parse_endpoint("7000");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(*bare, *port_only);

  EXPECT_FALSE(parse_endpoint(""));
  EXPECT_FALSE(parse_endpoint("not-an-endpoint"));
  EXPECT_FALSE(parse_endpoint("10.0.0.1:notaport"));
  EXPECT_FALSE(parse_endpoint("10.0.0.1:99999"));
  EXPECT_FALSE(parse_endpoint("10.0.0.1:99999999999999999999"));
  EXPECT_FALSE(parse_endpoint("10.0.0.1:+80"));
}

TEST(Udp, RoundTripsADatagramAndReportsSource) {
  UdpSocket a;
  a.bind(Endpoint{});
  UdpSocket b;
  b.bind(Endpoint{});
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_EQ(a.send_to(b.local_endpoint(), payload), SendOutcome::kSent);
  // Non-blocking: the loopback queue makes it visible immediately.
  std::optional<Datagram> got;
  for (int spins = 0; spins < 1000 && !got; ++spins) got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(got->from, a.local_endpoint());
  EXPECT_FALSE(b.receive().has_value());  // queue drained.
}

}  // namespace
}  // namespace tv::live
