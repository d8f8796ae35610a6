// CONGEST messages with explicit bit accounting.
//
// The CONGEST model's defining constraint is that each edge carries at
// most B = O(log n) bits per round. To make that enforceable, a message
// is a sequence of fields each pushed with a declared bit width; the
// simulator sums the declared widths of everything a node puts on an edge
// in a round and rejects overflows. Declared widths are checked against
// the actual values (a value must fit in its declared width), so programs
// cannot under-declare.
//
// Storage is a small inline buffer, not heap vectors: every message in
// the library carries at most 6 fields (Algorithm 4's overlay edges —
// two ids plus a scaled distance — are the widest at 3), so the common
// case fits entirely inside the object and queueing a message is a flat
// memcpy-sized move with zero allocations. Wider messages spill
// transparently to a heap vector; nothing in the API changes. The
// simulator stores each sent message once, in its sender's outbox; a
// delivered `Incoming` is a 16-byte (sender, sender's slot, reference)
// triple pointing at that copy (a broadcast's receivers all share one),
// valid for the receiver's activation only (NodeProgram::on_round).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/error.h"
#include "util/mathx.h"

namespace qc::congest {

/// A single message: fields with declared widths.
class Message {
 public:
  /// Fields stored inline; pushes beyond this spill to the heap.
  static constexpr std::size_t kInlineFields = 6;

  Message() = default;

  /// Appends a field. `bits` in [1, 64]; `value` must fit in `bits`.
  Message& push(std::uint64_t value, std::uint32_t bits) {
    QC_REQUIRE(bits >= 1 && bits <= 64, "field width must be in [1, 64]");
    QC_REQUIRE(bits == 64 || value < (std::uint64_t{1} << bits),
               "field value does not fit in declared width");
    if (count_ < kInlineFields) {
      values_[count_] = value;
      widths_[count_] = static_cast<std::uint8_t>(bits);
    } else {
      spill_.push_back({value, static_cast<std::uint8_t>(bits)});
    }
    ++count_;
    bit_size_ += bits;
    return *this;
  }

  std::size_t field_count() const { return count_; }

  std::uint64_t field(std::size_t i) const {
    QC_REQUIRE(i < count_, "message field index out of range");
    return i < kInlineFields ? values_[i] : spill_[i - kInlineFields].value;
  }

  std::uint32_t field_width(std::size_t i) const {
    QC_REQUIRE(i < count_, "message field index out of range");
    return i < kInlineFields ? widths_[i] : spill_[i - kInlineFields].width;
  }

  /// Total declared size in bits — what the bandwidth cap meters.
  std::uint32_t bit_size() const { return bit_size_; }

  // Unused inline slots stay zero-initialized (fields are append-only),
  // so memberwise equality is exactly field-sequence equality.
  friend bool operator==(const Message&, const Message&) = default;

  /// Orders messages by field values, lexicographically, a proper prefix
  /// first (std::vector<std::uint64_t>'s order on the value tuples);
  /// widths are not compared. Reads the fields in place.
  friend std::strong_ordering compare_values(const Message& a,
                                             const Message& b) {
    const std::size_t common = std::min(a.count_, b.count_);
    for (std::size_t i = 0; i < common; ++i) {
      const std::uint64_t x = a.value_at(i);
      const std::uint64_t y = b.value_at(i);
      if (x != y) return x <=> y;
    }
    return a.count_ <=> b.count_;
  }

 private:
  std::uint64_t value_at(std::size_t i) const {
    return i < kInlineFields ? values_[i] : spill_[i - kInlineFields].value;
  }

  struct SpillField {
    std::uint64_t value;
    std::uint8_t width;

    friend bool operator==(const SpillField&, const SpillField&) = default;
  };

  std::uint64_t values_[kInlineFields] = {};
  std::vector<SpillField> spill_;
  std::uint32_t bit_size_ = 0;
  std::uint16_t count_ = 0;
  std::uint8_t widths_[kInlineFields] = {};
};

/// A received message together with its sender. `slot` is the
/// sender's slot in the receiver's neighbors() row (neighbors()[slot].to
/// == from), so a program indexes per-neighbour state or replies with
/// send_to_slot(slot) without a lookup. `msg` refers to the engine's one
/// stored copy of the message, so an Incoming — and any copy of it — is
/// valid only during the activation it was delivered to; a program that
/// keeps a message past it must copy `msg`.
struct Incoming {
  NodeId from;
  std::uint32_t slot;
  const Message& msg;
};

}  // namespace qc::congest
