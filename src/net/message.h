// Message and addressing types for the V2V/V2I fabric.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/vec2.h"
#include "obs/event.h"
#include "util/ids.h"
#include "util/time.h"

namespace vcl::net {

enum class AddressType : std::uint8_t { kVehicle, kRsu, kBroadcast };

// A network endpoint: a vehicle, an RSU, or the local broadcast address.
struct Address {
  AddressType type = AddressType::kBroadcast;
  std::uint64_t id = 0;

  static Address vehicle(VehicleId v) {
    return {AddressType::kVehicle, v.value()};
  }
  static Address rsu(RsuId r) { return {AddressType::kRsu, r.value()}; }
  static Address broadcast() { return {AddressType::kBroadcast, 0}; }

  [[nodiscard]] bool is_vehicle() const {
    return type == AddressType::kVehicle;
  }
  [[nodiscard]] bool is_rsu() const { return type == AddressType::kRsu; }
  [[nodiscard]] bool is_broadcast() const {
    return type == AddressType::kBroadcast;
  }
  [[nodiscard]] VehicleId as_vehicle() const { return VehicleId{id}; }
  [[nodiscard]] RsuId as_rsu() const { return RsuId{id}; }

  friend bool operator==(Address a, Address b) {
    return a.type == b.type && a.id == b.id;
  }
  friend bool operator!=(Address a, Address b) { return !(a == b); }

  // Packed key for hashing.
  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(type) << 62) | (id & ((1ULL << 62) - 1));
  }
};

enum class MessageKind : std::uint8_t {
  kBeacon,       // periodic safety/cooperative-awareness message
  kData,         // application payload
  kControl,      // cluster / cloud management
  kAuth,         // authentication handshake
  kTaskAssign,   // v-cloud task dispatch
  kTaskResult,   // v-cloud result return
  kTaskMigrate,  // encrypted checkpoint handover
  kEventReport,     // trust module: observed physical event
  kHeartbeat,       // worker liveness beat to the cloud broker
  kStorageWrite,    // storage service: replica write (object payload)
  kStorageRead,     // storage service: replica read probe
  kStorageRepair,   // storage service: re-replication copy between holders
};

// Human-readable kind label for traces and tables.
const char* to_string(MessageKind kind);

struct Message {
  MessageId id;
  Address src;
  Address dst;
  MessageKind kind = MessageKind::kData;
  std::size_t size_bytes = 256;
  SimTime created = 0.0;
  int hops = 0;
  int ttl = 8;
  // Geographic destination for position-based routing (optional).
  geo::Vec2 dst_pos;
  bool has_dst_pos = false;
  // Opaque payload tag: modules attach meaning via their own side tables
  // keyed by message id; `payload_word` covers the common small cases.
  std::uint64_t payload_word = 0;
  std::vector<std::uint8_t> payload;
  // Causal tracing context (zero = untraced): a message sent on behalf of a
  // traced task carries the task's {trace_id, span_id} so net.tx/rx/drop
  // events attach to the task's causal tree across hops and retries.
  obs::TraceContext trace;
};

}  // namespace vcl::net
