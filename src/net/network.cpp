#include "net/network.h"

#include <algorithm>

namespace vcl::net {

Network::Network(sim::Simulator& sim, mobility::TrafficModel& traffic,
                 ChannelConfig channel_cfg, Rng rng)
    : sim_(sim),
      traffic_(traffic),
      channel_(channel_cfg),
      rng_(rng),
      index_(channel_cfg.max_range) {}

void Network::set_handler(Address addr, Handler handler) {
  handlers_[addr.key()] = std::move(handler);
}

void Network::clear_handler(Address addr) { handlers_.erase(addr.key()); }

void Network::start_beacons(SimTime period) {
  refresh();
  sim_.schedule_every(period, [this] { refresh(); }, -1.0,
                      "net.beacon");
}

void Network::refresh() {
  rebuild_index();
  beacon_round_tables();
}

void Network::rebuild_index() {
  index_.clear();
  if (++round_ == 0) {  // wrapped: forget every old round
    for (VehicleSlot& s : slots_) s.indexed_round = 0;
    round_ = 1;
  }
  // Every id in the index or in a neighbor table was handed out already,
  // and nothing spawns before the round ends, so slot() needs no check.
  slots_.resize(traffic_.id_bound());
  // Blackouts cannot change before the round ends, so each vehicle's is
  // tested once here instead of once per pair.
  const bool blackouts = channel_.blackout_count() > 0;
  any_dark_ = false;
  for (const auto& [vid, v] : traffic_.vehicles()) {
    index_.insert(Indexed{v.id, &v}, v.pos);
    VehicleSlot& s = slot(v.id);
    s.indexed_round = round_;
    s.dark = blackouts && channel_.blacked_out(v.pos);
    any_dark_ = any_dark_ || s.dark;
  }
}

void Network::beacon_round_tables() {
  const double range = channel_.config().max_range;
  const SimTime now = sim_.now();
  const auto departed = [this](VehicleId id) {
    return slot(id).indexed_round != round_;
  };

  // Drop tables of departed vehicles.
  std::erase_if(neighbor_tables_, [&](const auto& kv) {
    return departed(VehicleId{kv.first});
  });

  BeaconCounters counters = beacon_counters_;
  for (const auto& [vid, v] : traffic_.vehicles()) {
    index_.query(v.pos, range, nearby_);
    auto& table = neighbor_tables_[v.id.value()];
    const std::size_t density = nearby_.size();
    const BeaconReceiver rx =
        channel_.beacon_receiver(v.pos, density, slot(v.id).dark);
    counters.pairs += density - 1;  // the index holds v itself
    // Sample the beacon of each neighbor -> v in candidate order and list
    // the ones heard. The receiver itself gets p = 0, for which bernoulli()
    // makes no draw, and so does every pair of a saturated receiver.
    // Branch-free count: a draw's outcome is a coin flip no predictor
    // learns.
    heard_.resize(nearby_.size());
    std::size_t n_heard = 0;
    if (rx.saturated) {
      ++counters.saturated_receivers;
    } else {
      for (std::size_t k = 0; k < nearby_.size(); ++k) {
        const Indexed& n = nearby_[k];
        if (n.id == v.id) continue;
        const bool from_dark = any_dark_ && slot(n.id).dark;
        heard_[n_heard] = static_cast<std::uint32_t>(k);
        n_heard += channel_.beacon_heard(n.state->pos, from_dark, rx, rng_,
                                         counters)
                       ? 1
                       : 0;
      }
    }
    // Refresh the entries heard before, append new neighbors in order.
    for (std::size_t i = 0; i < table.size(); ++i) {
      slot(table[i].id).table_pos = static_cast<std::uint32_t>(i);
    }
    for (std::size_t h = 0; h < n_heard; ++h) {
      const mobility::VehicleState& n = *nearby_[heard_[h]].state;
      const NeighborEntry entry{n.id, n.pos, n.vel, now};
      const std::uint32_t pos = slot(n.id).table_pos;
      if (pos != VehicleSlot::kNoPos) {
        table[pos] = entry;
      } else {
        table.push_back(entry);
      }
    }
    // Expire stale entries and entries of departed vehicles, keeping the
    // order, and clear the table positions for the next receiver.
    std::erase_if(table, [&](const NeighborEntry& e) {
      slot(e.id).table_pos = VehicleSlot::kNoPos;
      return now - e.last_heard > neighbor_ttl_ || departed(e.id);
    });
  }
  beacon_counters_ = counters;
}

const std::vector<NeighborEntry>& Network::neighbors(VehicleId v) const {
  auto it = neighbor_tables_.find(v.value());
  return it == neighbor_tables_.end() ? empty_ : it->second;
}

const Rsu* Network::reachable_rsu(VehicleId v) const {
  const mobility::VehicleState* s = traffic_.find(v);
  if (s == nullptr) return nullptr;
  return rsus_.covering(s->pos);
}

std::optional<geo::Vec2> Network::position_of(Address addr) const {
  if (addr.is_vehicle()) {
    const mobility::VehicleState* s = traffic_.find(addr.as_vehicle());
    if (s == nullptr) return std::nullopt;
    return s->pos;
  }
  if (addr.is_rsu()) {
    const Rsu* r = rsus_.find(addr.as_rsu());
    if (r == nullptr || !r->online) return std::nullopt;
    return r->pos;
  }
  return std::nullopt;
}

std::size_t Network::local_density(geo::Vec2 pos) const {
  std::vector<Indexed> nearby;
  index_.query(pos, channel_.config().reference_range, nearby);
  double extra = 0.0;
  if (!extra_load_.empty()) {
    for (const Indexed& v : nearby) {
      auto it = extra_load_.find(v.id.value());
      if (it != extra_load_.end()) extra += it->second;
    }
  }
  return nearby.size() + static_cast<std::size_t>(extra);
}

void Network::set_extra_load(VehicleId v, double load) {
  if (load <= 0.0) {
    extra_load_.erase(v.value());
  } else {
    extra_load_[v.value()] = load;
  }
}

void Network::set_default_vehicle_handler(VehicleHandler handler) {
  vehicle_default_handler_ = std::move(handler);
}

void Network::deliver(const Message& msg, Address to, SimTime delay) {
  Message delivered = msg;
  delivered.hops += 1;
  auto it = handlers_.find(to.key());
  if (it != handlers_.end()) {
    const Handler& handler = it->second;
    sim_.schedule_after(delay, [handler, delivered] { handler(delivered); },
                        "net.deliver");
    return;
  }
  if (to.is_vehicle() && vehicle_default_handler_) {
    const VehicleId self = to.as_vehicle();
    sim_.schedule_after(
        delay,
        [this, self, delivered] {
          if (vehicle_default_handler_) vehicle_default_handler_(self, delivered);
        },
        "net.deliver");
  }
}

bool Network::transmit(const Message& msg, Address to_addr) {
  ++stats_.unicast_sent;
  stats_.bytes_sent += msg.size_bytes;
  obs::record(rec_, obs::ev::kNetTx, sim_.now(), msg.trace,
              {"src", static_cast<double>(msg.src.key())},
              {"dst", static_cast<double>(to_addr.key())},
              {"bytes", static_cast<double>(msg.size_bytes)});
  const auto from = position_of(msg.src);
  const auto to = position_of(to_addr);
  if (!from || !to) {
    ++stats_.dropped;
    // reason: 1 = endpoint gone, 2 = out of range, 3 = channel loss
    obs::record(rec_, obs::ev::kNetDrop, sim_.now(), msg.trace,
                {"dst", static_cast<double>(to_addr.key())},
                {"reason", 1.0});
    return false;
  }
  // RSUs have stronger radios: use the RSU's own range for either endpoint.
  double range_bonus = 1.0;
  if (msg.src.is_rsu() || to_addr.is_rsu()) {
    const Rsu* r = msg.src.is_rsu() ? rsus_.find(msg.src.as_rsu())
                                    : rsus_.find(to_addr.as_rsu());
    if (r != nullptr) {
      range_bonus = r->range / channel_.config().max_range;
    }
  }
  const double dist = geo::distance(*from, *to);
  if (dist > channel_.config().max_range * range_bonus) {
    ++stats_.dropped;
    obs::record(rec_, obs::ev::kNetDrop, sim_.now(), msg.trace,
                {"dst", static_cast<double>(to_addr.key())},
                {"reason", 2.0},
                {"dist", dist});
    return false;
  }
  // Scale position difference so the channel sees an equivalent distance
  // within its nominal range.
  geo::Vec2 eff_to = *from + (*to - *from) / range_bonus;
  const ReceptionResult r = channel_.attempt(
      *from, eff_to, msg.size_bytes, local_density(*from), rng_);
  if (!r.received) {
    ++stats_.dropped;
    obs::record(rec_, obs::ev::kNetDrop, sim_.now(), msg.trace,
                {"dst", static_cast<double>(to_addr.key())},
                {"reason", 3.0},
                {"dist", dist});
    return false;
  }
  ++stats_.unicast_delivered;
  stats_.hop_delay.add(r.delay);
  obs::record(rec_, obs::ev::kNetRx, sim_.now(), msg.trace,
              {"dst", static_cast<double>(to_addr.key())},
              {"delay", r.delay},
              {"bytes", static_cast<double>(msg.size_bytes)});
  deliver(msg, to_addr, r.delay);
  return true;
}

bool Network::send(Message msg) { return transmit(msg, msg.dst); }

bool Network::send_via(const Message& msg, Address next_hop) {
  return transmit(msg, next_hop);
}

std::size_t Network::broadcast(Message msg) {
  ++stats_.broadcast_sent;
  stats_.bytes_sent += msg.size_bytes;
  obs::record(rec_, obs::ev::kNetBroadcast, sim_.now(),
              {"src", static_cast<double>(msg.src.key())},
              {"bytes", static_cast<double>(msg.size_bytes)});
  const auto from = position_of(msg.src);
  if (!from) return 0;
  const std::size_t density = local_density(*from);

  std::size_t reached = 0;
  std::vector<Indexed> nearby;
  index_.query(*from, channel_.config().max_range, nearby);
  for (const Indexed& candidate : nearby) {
    const Address addr = Address::vehicle(candidate.id);
    if (addr == msg.src) continue;
    const mobility::VehicleState* n = traffic_.find(candidate.id);
    if (n == nullptr) continue;
    const ReceptionResult r =
        channel_.attempt(*from, n->pos, msg.size_bytes, density, rng_);
    if (!r.received) continue;
    ++reached;
    ++stats_.broadcast_receptions;
    deliver(msg, addr, r.delay);
  }
  // RSUs in range also hear broadcasts.
  for (const Rsu& rsu : rsus_.all()) {
    if (!rsu.online) continue;
    if (geo::distance(rsu.pos, *from) > rsu.range) continue;
    const ReceptionResult r =
        channel_.attempt(*from, *from, msg.size_bytes, density, rng_);
    if (!r.received) continue;
    ++reached;
    deliver(msg, Address::rsu(rsu.id), r.delay);
  }
  return reached;
}

void Network::register_metrics(obs::MetricsRegistry& metrics) const {
  metrics.gauge("net.unicast.sent",
                [this] { return static_cast<double>(stats_.unicast_sent); });
  metrics.gauge("net.unicast.delivered", [this] {
    return static_cast<double>(stats_.unicast_delivered);
  });
  metrics.gauge("net.broadcast.sent",
                [this] { return static_cast<double>(stats_.broadcast_sent); });
  metrics.gauge("net.packet.dropped",
                [this] { return static_cast<double>(stats_.dropped); });
  metrics.gauge("net.bytes.sent",
                [this] { return static_cast<double>(stats_.bytes_sent); });
  metrics.gauge("net.loss.rate", [this] {
    const double attempts = static_cast<double>(stats_.unicast_sent);
    return attempts > 0.0 ? static_cast<double>(stats_.dropped) / attempts
                          : 0.0;
  });
  metrics.gauge("net.hop.delay_mean", [this] { return stats_.hop_delay.mean(); });
  metrics.gauge("chan.attempt.count", [this] {
    return static_cast<double>(channel_.counters().attempts);
  });
  metrics.gauge("chan.attempt.delivered", [this] {
    return static_cast<double>(channel_.counters().delivered);
  });
  metrics.gauge("chan.blackout.dropped", [this] {
    return static_cast<double>(channel_.counters().blackout_drops);
  });
}

void Network::send_backhaul(RsuId from, RsuId to, Message msg) {
  const Rsu* src = rsus_.find(from);
  const Rsu* dst = rsus_.find(to);
  if (src == nullptr || dst == nullptr || !src->online || !dst->online) {
    ++stats_.dropped;
    return;
  }
  stats_.bytes_sent += msg.size_bytes;
  deliver(msg, Address::rsu(to), backhaul_latency_);
}

}  // namespace vcl::net
