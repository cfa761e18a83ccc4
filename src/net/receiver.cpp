#include "net/receiver.hpp"

#include <cstdlib>
#include <utility>

namespace tv::net {

Receiver::Receiver(ReceiverConfig config) : config_(config) {
  if (config_.reorder_capacity == 0) config_.reorder_capacity = 1;
}

std::int64_t Receiver::extend_sequence(std::uint16_t seq) {
  if (!started_) return static_cast<std::int64_t>(seq);
  // Candidate cycles around the highest sequence seen; pick the nearest.
  const std::int64_t base = highest_seen_ & ~std::int64_t{0xffff};
  std::int64_t best = base + seq;
  for (const std::int64_t cand :
       {base - 0x10000 + seq, base + seq, base + 0x10000 + seq}) {
    if (std::llabs(cand - highest_seen_) < std::llabs(best - highest_seen_)) {
      best = cand;
    }
  }
  return best;
}

bool Receiver::admit(std::span<const std::uint8_t> datagram,
                     std::int64_t* extended, RtpHeader* header) {
  ++stats_.datagrams;
  const auto parsed = RtpHeader::try_parse(datagram);
  if (!parsed) {
    ++stats_.invalid;
    return false;
  }
  const std::int64_t ext = extend_sequence(parsed->sequence_number);
  if (started_) {
    if (buffer_.count(ext) != 0) {
      ++stats_.duplicates;  // still waiting in the reorder buffer.
      return false;
    }
    if (ext < next_release_) {
      // Behind the release point: either a duplicate of something already
      // released or a straggler we gave up on.  Unusable either way.
      ++stats_.too_late;
      return false;
    }
    if (ext < highest_seen_) ++stats_.reordered;
  } else {
    started_ = true;
    next_release_ = ext;
  }
  *extended = ext;
  *header = *parsed;
  return true;
}

void Receiver::commit(ReceivedPacket&& packet) {
  const std::int64_t ext = packet.extended_sequence;
  buffer_.emplace(ext, std::move(packet));
  if (ext > highest_seen_) highest_seen_ = ext;
  ++stats_.accepted;

  // Keep the reorder buffer bounded: give up on the oldest gaps and move
  // the packets past them into the ready queue.
  while (buffer_.size() > config_.reorder_capacity) {
    auto it = buffer_.begin();
    if (it->first != next_release_) {
      stats_.given_up += static_cast<std::size_t>(it->first - next_release_);
      next_release_ = it->first;
    }
    ready_.push_back(std::move(it->second));
    buffer_.erase(it);
    ++next_release_;
  }
}

void Receiver::push(std::span<const std::uint8_t> datagram) {
  ReceivedPacket packet;
  if (!admit(datagram, &packet.extended_sequence, &packet.header)) return;
  packet.datagram.assign(datagram.begin(), datagram.end());
  commit(std::move(packet));
}

void Receiver::push(std::vector<std::uint8_t>&& datagram) {
  ReceivedPacket packet;
  if (!admit(datagram, &packet.extended_sequence, &packet.header)) return;
  packet.datagram = std::move(datagram);
  commit(std::move(packet));
}

void Receiver::drain_ready_into(std::vector<ReceivedPacket>& out) {
  while (!ready_.empty()) {
    out.push_back(std::move(ready_.front()));
    ready_.pop_front();
  }
  while (!buffer_.empty() && buffer_.begin()->first == next_release_) {
    out.push_back(std::move(buffer_.begin()->second));
    buffer_.erase(buffer_.begin());
    ++next_release_;
  }
}

void Receiver::flush_into(std::vector<ReceivedPacket>& out) {
  drain_ready_into(out);
  while (!buffer_.empty()) {
    auto it = buffer_.begin();
    if (it->first != next_release_) {
      stats_.given_up += static_cast<std::size_t>(it->first - next_release_);
      next_release_ = it->first;
    }
    out.push_back(std::move(it->second));
    buffer_.erase(it);
    ++next_release_;
  }
}

}  // namespace tv::net
