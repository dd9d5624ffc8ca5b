// Network fabric: binds mobility, the radio channel and RSUs into a
// message-passing substrate with beaconing and neighbor tables.
//
// Model:
//  * Beacon rounds. Every `beacon_period` the fabric rebuilds the spatial
//    index and refreshes each vehicle's neighbor table by sampling beacon
//    reception from every in-range transmitter (an aggregate of per-beacon
//    MAC behaviour; beacons themselves are not individually evented, which
//    keeps a 1000-vehicle scenario tractable).
//  * Data messages. `send`/`broadcast` are per-message: reception is
//    sampled on the live channel and delivery callbacks fire after the
//    sampled hop delay. Vehicles and RSUs register handlers by address.
//  * RSU backhaul. RSU-to-RSU delivery is wired and reliable with a fixed
//    small latency.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "geo/spatial_grid.h"
#include "mobility/traffic.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/rsu.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace vcl::net {

struct NeighborEntry {
  VehicleId id;
  geo::Vec2 pos;
  geo::Vec2 vel;
  SimTime last_heard = 0.0;
};

struct NetStats {
  std::size_t unicast_sent = 0;
  std::size_t unicast_delivered = 0;
  std::size_t broadcast_sent = 0;       // transmissions
  std::size_t broadcast_receptions = 0;
  std::size_t dropped = 0;
  std::size_t bytes_sent = 0;
  Accumulator hop_delay{/*keep_samples=*/false};
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(sim::Simulator& sim, mobility::TrafficModel& traffic,
          ChannelConfig channel_cfg, Rng rng);

  // --- wiring ---------------------------------------------------------------
  RsuField& rsus() { return rsus_; }
  [[nodiscard]] const RsuField& rsus() const { return rsus_; }
  Channel& channel() { return channel_; }
  sim::Simulator& simulator() { return sim_; }
  mobility::TrafficModel& traffic() { return traffic_; }
  [[nodiscard]] const mobility::TrafficModel& traffic() const {
    return traffic_;
  }

  void set_handler(Address addr, Handler handler);
  void clear_handler(Address addr);

  // Fallback handler invoked for any vehicle without a specific handler —
  // routing protocols use this to run the same forwarding logic on every
  // vehicle without registering per-spawn.
  using VehicleHandler = std::function<void(VehicleId, const Message&)>;
  void set_default_vehicle_handler(VehicleHandler handler);

  // Starts beacon rounds (and keeps the spatial index fresh). Neighbor
  // entries persist across rounds and expire after `neighbor_ttl` — a
  // single lost beacon does not evict a neighbor, matching real CAM
  // processing.
  void start_beacons(SimTime period = 1.0);
  void set_neighbor_ttl(SimTime ttl) { neighbor_ttl_ = ttl; }
  // Forces an immediate index + neighbor-table refresh.
  void refresh();

  // --- queries ----------------------------------------------------------------
  [[nodiscard]] const std::vector<NeighborEntry>& neighbors(VehicleId v) const;
  // Nearest online RSU covering the vehicle, nullptr if none.
  [[nodiscard]] const Rsu* reachable_rsu(VehicleId v) const;
  // Position of any addressable endpoint (vehicles pulled live from traffic).
  [[nodiscard]] std::optional<geo::Vec2> position_of(Address addr) const;
  // Number of transmitters within contention range of a position, plus any
  // registered extra channel load (e.g. DoS flooders).
  [[nodiscard]] std::size_t local_density(geo::Vec2 pos) const;

  // Extra contention units a vehicle puts on the channel (junk traffic).
  // Measured in equivalent-transmitter units; 0 clears.
  void set_extra_load(VehicleId v, double load);
  void clear_extra_loads() { extra_load_.clear(); }

  // --- transmission -----------------------------------------------------------
  // Allocates a fresh message id.
  MessageId next_message_id() { return MessageId{next_msg_id_++}; }

  // One-hop unicast; returns false when the destination is out of range or
  // reception failed (caller sees only asynchronous delivery, the return
  // value is for accounting/tests).
  bool send(Message msg);
  // One-hop unicast to `next_hop` while leaving msg.dst (the final
  // destination) untouched — the forwarding primitive for multi-hop routing.
  bool send_via(const Message& msg, Address next_hop);
  // One-hop broadcast to everything in radio range of the source.
  // Returns the number of endpoints the transmission reached.
  std::size_t broadcast(Message msg);
  // Wired RSU-to-RSU transfer (reliable).
  void send_backhaul(RsuId from, RsuId to, Message msg);

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }
  // Operation counts of every beacon round so far.
  [[nodiscard]] const BeaconCounters& beacon_counters() const {
    return beacon_counters_;
  }

  // --- telemetry (null recorder = one branch per event) ----------------------
  // net.* events are trace-only: with tracing off each costs a mask test.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }
  // Registers the fabric's gauges (net.* / chan.*) with the sampler.
  void register_metrics(obs::MetricsRegistry& metrics) const;

  [[nodiscard]] SimTime backhaul_latency() const { return backhaul_latency_; }
  void set_backhaul_latency(SimTime s) { backhaul_latency_ = s; }

 private:
  void beacon_round_tables();
  void rebuild_index();
  void deliver(const Message& msg, Address to, SimTime delay);
  bool transmit(const Message& msg, Address to);

  // A vehicle in the spatial index. `state` points into the traffic
  // model's vehicle map and may be dereferenced only by the pass that
  // rebuilt the index (rebuild_index() then beacon_round_tables(), with no
  // event in between): a vehicle can despawn between rounds, which frees
  // its state. Every later reader of the index (broadcast, local_density)
  // uses `id` alone and looks the vehicle up live.
  struct Indexed {
    VehicleId id;
    const mobility::VehicleState* state;
  };
  // Beacon-round bookkeeping of one vehicle id.
  struct VehicleSlot {
    static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};
    // Position in the neighbor table being refreshed, kNoPos otherwise.
    std::uint32_t table_pos = kNoPos;
    // Equals round_ while the vehicle is in the index, i.e. alive: nothing
    // despawns between rebuild_index() and the end of the round.
    std::uint32_t indexed_round = 0;
    // Inside a blackout at rebuild_index(); valid for that round only.
    bool dark = false;
  };
  VehicleSlot& slot(VehicleId id) { return slots_[id.value()]; }

  sim::Simulator& sim_;
  mobility::TrafficModel& traffic_;
  Channel channel_;
  Rng rng_;
  RsuField rsus_;
  geo::SpatialGrid<Indexed> index_;
  std::unordered_map<std::uint64_t, std::vector<NeighborEntry>> neighbor_tables_;
  // Indexed by vehicle id, sized to TrafficModel::id_bound(): 12 bytes per
  // vehicle spawned over the run.
  std::vector<VehicleSlot> slots_;
  std::uint32_t round_ = 0;
  bool any_dark_ = false;  // some slot is dark this round
  BeaconCounters beacon_counters_;
  // Beacon-round scratch, reused across receivers and rounds.
  std::vector<Indexed> nearby_;
  std::vector<std::uint32_t> heard_;
  std::unordered_map<std::uint64_t, Handler> handlers_;
  VehicleHandler vehicle_default_handler_;
  std::uint64_t next_msg_id_ = 1;
  SimTime backhaul_latency_ = 2 * kMilliseconds;
  SimTime neighbor_ttl_ = 3.0;
  std::unordered_map<std::uint64_t, double> extra_load_;
  NetStats stats_;
  obs::Recorder* rec_ = nullptr;
  std::vector<NeighborEntry> empty_;
};

}  // namespace vcl::net
