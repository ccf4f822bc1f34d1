#include "net/packet.hpp"

namespace nicbar::net {

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kNack: return "NACK";
    case PacketType::kBarrierPe: return "BAR_PE";
    case PacketType::kBarrierGather: return "BAR_GATHER";
    case PacketType::kBarrierBcast: return "BAR_BCAST";
    case PacketType::kBarrierAck: return "BAR_ACK";
    case PacketType::kBarrierNack: return "BAR_NACK";
    case PacketType::kReduceUp: return "RED_UP";
    case PacketType::kReduceDown: return "RED_DOWN";
    case PacketType::kRmaPut: return "RMA_PUT";
    case PacketType::kRmaGet: return "RMA_GET";
    case PacketType::kRmaCas: return "RMA_CAS";
    case PacketType::kRmaReply: return "RMA_REPLY";
  }
  return "?";
}

}  // namespace nicbar::net
