#include "net/receiver.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace tv::net {

namespace {

bool sequence_less(const ReceivedPacket& packet, std::int64_t extended) {
  return packet.extended_sequence < extended;
}

}  // namespace

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
    const auto held =
        std::lower_bound(held_begin(), buffer_.end(), ext, sequence_less);
    if (held != buffer_.end() && held->extended_sequence == ext) {
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
  if (buffer_.size() == released_ ||
      buffer_.back().extended_sequence < ext) {
    buffer_.push_back(std::move(packet));  // the in-order case.
  } else {
    buffer_.insert(
        std::lower_bound(held_begin(), buffer_.end(), ext, sequence_less),
        std::move(packet));
  }
  if (ext > highest_seen_) highest_seen_ = ext;
  ++stats_.accepted;

  // Keep the reorder buffer bounded: give up on the oldest gaps and
  // release the packets past them.
  while (buffer_.size() - released_ > config_.reorder_capacity) {
    const std::int64_t oldest = buffer_[released_].extended_sequence;
    if (oldest != next_release_) {
      stats_.given_up += static_cast<std::size_t>(oldest - next_release_);
      next_release_ = oldest;
    }
    ++released_;
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
  std::size_t end = released_;
  while (end < buffer_.size() &&
         buffer_[end].extended_sequence == next_release_) {
    ++end;
    ++next_release_;
  }
  const auto last = buffer_.begin() + static_cast<std::ptrdiff_t>(end);
  out.insert(out.end(), std::make_move_iterator(buffer_.begin()),
             std::make_move_iterator(last));
  buffer_.erase(buffer_.begin(), last);
  released_ = 0;
}

void Receiver::flush_into(std::vector<ReceivedPacket>& out) {
  for (std::size_t i = released_; i < buffer_.size(); ++i) {
    const std::int64_t ext = buffer_[i].extended_sequence;
    if (ext != next_release_) {
      stats_.given_up += static_cast<std::size_t>(ext - next_release_);
      next_release_ = ext;
    }
    ++next_release_;
  }
  out.insert(out.end(), std::make_move_iterator(buffer_.begin()),
             std::make_move_iterator(buffer_.end()));
  buffer_.clear();
  released_ = 0;
}

}  // namespace tv::net
