// Wire packet model.
//
// Myrinet is source-routed: the sending NIC prepends one routing byte per
// switch hop and each switch strips its byte and forwards. We keep the route
// as output-port indices plus a hop cursor that advances instead of
// stripping (see wire_bytes). A closed-form fabric route (at most five
// bytes) is carried inline in the packet; a BFS route of the canned
// topologies is a view of bytes the Network keeps at a stable address for
// its whole life. Either way no route is looked up or allocated per packet.
//
// Ownership: a packet in flight is one PacketPtr, allocated once where the
// packet is created and moved — never copied — from the SEND engine through
// every link and switch to the receiving NIC's firmware. Its block comes from
// the size-class free lists of sim/frame_arena.hpp, so a steady run recycles
// packet memory instead of allocating it. Packet values are copied only where
// the model keeps a second packet: the sent list (retransmission) and the
// replicas of a multidestination send.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/frame_arena.hpp"
#include "sim/time.hpp"

namespace nicbar::net {

using NodeId = std::uint16_t;
using PortId = std::uint8_t;  // GM communication endpoint index on a NIC (0..7)

constexpr NodeId kInvalidNode = 0xffff;

enum class PacketType : std::uint8_t {
  kData,           // ordinary GM message payload
  kAck,            // cumulative acknowledgment for the connection stream
  kNack,           // negative ack: receiver expected a lower sequence number
  kBarrierPe,      // pairwise-exchange barrier message
  kBarrierGather,  // gather-and-broadcast barrier: gather phase
  kBarrierBcast,   // gather-and-broadcast barrier: broadcast phase
  kBarrierAck,     // ack for the separate barrier-reliability mechanism
  kBarrierNack,    // reject: barrier message arrived for a closed port
  kReduceUp,       // NIC-based reduction: partial value toward the root
  kReduceDown,     // NIC-based reduction: result broadcast down the tree
  kRmaPut,         // one-sided put into a registered remote segment
  kRmaGet,         // one-sided read request from a registered remote segment
  kRmaCas,         // one-sided compare-and-swap (applied by the NIC firmware)
  kRmaReply,       // remote completion / fetched value back to the initiator
};

[[nodiscard]] constexpr bool is_barrier_payload(PacketType t) {
  return t == PacketType::kBarrierPe || t == PacketType::kBarrierGather ||
         t == PacketType::kBarrierBcast;
}

/// NIC-resident collective payloads (barrier + reduction): handled entirely
/// by the firmware, never DMAed to a host receive buffer.
[[nodiscard]] constexpr bool is_collective_payload(PacketType t) {
  return is_barrier_payload(t) || t == PacketType::kReduceUp || t == PacketType::kReduceDown;
}

/// One-sided RMA payloads. Deliberately NOT collective payloads: they ride
/// the ordinary sequenced kData connection stream (per-(source,target)
/// in-order, exactly-once via duplicate suppression — the ordering guarantee
/// rma:: exposes), but like collectives they terminate in the NIC firmware
/// instead of a host receive buffer, so the no-receive-token NACK path must
/// exempt them.
[[nodiscard]] constexpr bool is_rma_payload(PacketType t) {
  return t == PacketType::kRmaPut || t == PacketType::kRmaGet || t == PacketType::kRmaCas ||
         t == PacketType::kRmaReply;
}

[[nodiscard]] constexpr bool is_control(PacketType t) {
  return t == PacketType::kAck || t == PacketType::kNack || t == PacketType::kBarrierAck ||
         t == PacketType::kBarrierNack;
}

[[nodiscard]] const char* to_string(PacketType t);

/// A source route: the switch output port to take at each hop, terminal
/// exit port last. Either up to kInline bytes held by value, or a view of
/// bytes that outlive every packet (Network's BFS table, a static array).
/// Copies stay valid either way, so a packet value can be copied freely.
class Route {
 public:
  static constexpr std::size_t kInline = 5;  // the longest fat-tree route

  Route() = default;
  /// Inline bytes; throws std::length_error beyond kInline.
  Route(std::initializer_list<std::uint8_t> bytes) {
    if (bytes.size() > kInline) throw std::length_error("route longer than its inline bytes");
    // Built in a register, not byte by byte: a provider returns one Route
    // per packet.
    int shift = 0;
    for (const std::uint8_t b : bytes) {
      word_ |= std::uint64_t{b} << shift;
      shift += 8;
    }
    word_ |= std::uint64_t{bytes.size()} << 56;
  }
  /// A view of `bytes`, which must outlive the route and its copies.
  [[nodiscard]] static Route view(std::span<const std::uint8_t> bytes) {
    Route r;
    r.view_ = bytes.data();
    r.word_ = bytes.size();
    return r;
  }

  [[nodiscard]] const std::uint8_t* data() const {
    return view_ != nullptr ? view_ : reinterpret_cast<const std::uint8_t*>(&word_);
  }
  [[nodiscard]] std::size_t size() const { return view_ != nullptr ? word_ : word_ >> 56; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] std::uint8_t front() const { return data()[0]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }

  friend bool operator==(const Route& a, const Route& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static_assert(std::endian::native == std::endian::little,
                "inline route bytes are read in memory order");
  const std::uint8_t* view_ = nullptr;
  // Inline: byte i of the route in bits 8i..8i+7 (memory byte i), the
  // length in the top byte. View: the length.
  std::uint64_t word_ = 0;
};

struct Packet {
  PacketType type = PacketType::kData;
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  PortId src_port = 0;
  PortId dst_port = 0;

  /// Connection-stream sequence number (kData, and barrier packets when the
  /// shared-stream reliability mode is on). 0 = unsequenced.
  std::uint32_t seq = 0;
  /// Cumulative ack value carried by kAck/kNack.
  std::uint32_t ack = 0;
  /// Separate barrier-mechanism sequence number (kBarrierAck et al.).
  std::uint32_t barrier_seq = 0;
  /// Identifies the barrier instance (epoch) a barrier packet belongs to.
  std::uint32_t barrier_epoch = 0;
  /// kBarrierNack: the type of the rejected barrier packet, so the sender
  /// knows what to resend.
  PacketType nacked_type = PacketType::kData;

  /// Barrier-group id the packet belongs to (collective payloads only).
  /// 0 = the legacy anonymous group: packets bypass slot admission entirely,
  /// which keeps pre-lifecycle timelines bit-identical. Non-zero ids are
  /// fabric-unique; a receiver without a live slot binding for (group,
  /// dst_port) fences the packet (counts it, never delivers it) — the stale
  /// traffic guard for destroyed groups.
  std::uint64_t group = 0;

  std::int64_t payload_bytes = 0;
  /// Opaque tag delivered with the message (tests use this for matching).
  std::uint64_t tag = 0;
  /// kReduceUp/kReduceDown: the (partial) reduction value.
  std::int64_t value = 0;
  /// Segmentation (kData): fragment index and count of the carried message.
  /// GM fragments messages larger than the MTU; the in-order connection
  /// stream guarantees fragments arrive consecutively per sender.
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int64_t message_bytes = 0;  // total size of the original message

  // One-sided RMA (kRmaPut/kRmaGet/kRmaCas/kRmaReply). The segment/index
  // pair addresses one 64-bit word of a registered segment; `value` above
  // doubles as the put payload, CAS desired value, and reply result.
  std::uint64_t rma_segment = 0;  // registration id at the target port
  std::uint64_t rma_index = 0;    // word offset within the segment
  std::uint64_t rma_op = 0;       // initiator-chosen op id echoed by kRmaReply
  std::int64_t rma_expected = 0;  // kRmaCas: the compare value
  /// kRmaReply: false when the target could not apply the op (segment never
  /// registered within the park budget, or index out of range).
  bool rma_ok = true;

  // Source route: output port to take at each switch, plus the hop cursor.
  // Written by Network::inject_at.
  Route route;
  std::size_t hop = 0;

  sim::SimTime injected_at{0};  // set by the fabric when the packet enters
  std::uint64_t id = 0;         // unique per fabric, for tracing

  /// Causal provenance: the sim::causal span id of the latest span on this
  /// packet's dependency chain (the SEND-engine span at injection, then each
  /// wire/switch hop updates it in flight). 0 when causal tracing is off.
  std::uint64_t causal = 0;

  /// Fault injection flipped bits in flight. The fabric still delivers the
  /// packet (the wire does not know); the receiving NIC's CRC check catches
  /// it and discards after paying the full receive occupancy.
  bool corrupted = false;

  /// Bytes occupying the wire: header + the whole route + payload. The model
  /// charges every route byte on every hop (carried, not stripped), so a
  /// packet's serialisation time is the same on each link it crosses.
  /// `header_bytes` models the GM packet header + CRC.
  [[nodiscard]] std::int64_t wire_bytes(std::int64_t header_bytes) const {
    return header_bytes + static_cast<std::int64_t>(route.size()) + payload_bytes;
  }

  // Packets churn at event rate; recycle their blocks (sim/frame_arena.hpp).
  static void* operator new(std::size_t size) { return sim::frame_arena::allocate(size); }
  static void operator delete(void* p) noexcept { sim::frame_arena::deallocate(p); }
};

/// The one owner of a packet in flight (see the header comment).
using PacketPtr = std::unique_ptr<Packet>;

[[nodiscard]] inline PacketPtr make_packet(Packet p) {
  return std::make_unique<Packet>(std::move(p));
}

}  // namespace nicbar::net
