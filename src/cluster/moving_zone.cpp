#include "cluster/moving_zone.h"

#include <numeric>

namespace vcl::cluster {

bool MovingZone::compatible(geo::Vec2 vel_a, geo::Vec2 vel_b) const {
  // Parked/near-stationary vehicles group by proximity alone.
  if (vel_a.norm() < 0.5 && vel_b.norm() < 0.5) return true;
  if (std::abs(vel_a.norm() - vel_b.norm()) > config_.max_speed_diff) {
    return false;
  }
  return geo::angle_between(vel_a, vel_b) <= config_.max_angle_rad;
}

void MovingZone::update() {
  prune_departed();
  const auto& vehicles = net_.traffic().vehicles();

  // Dense indices in the vehicle map's iteration order; each zone lists its
  // members in that order, so centroid sums do not depend on how the
  // union-find happened to link roots. index_ maps a vehicle id to its
  // dense index, kNone between updates.
  std::vector<const mobility::VehicleState*> state;
  state.reserve(vehicles.size());
  index_.resize(net_.traffic().id_bound(), kNone);
  for (const auto& [vid, v] : vehicles) {
    index_[vid] = state.size();
    state.push_back(&v);
  }

  // Union-find over the compatibility graph from neighbor tables. Roots are
  // found before the velocity test, which is skipped for a pair already in
  // one zone: zones are connected components, so the extra edge changes
  // nothing, and members are listed in index order below whatever the
  // union order was.
  std::vector<std::size_t> parent(state.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (const net::NeighborEntry& n : net_.neighbors(state[i]->id)) {
      // A neighbor that despawned since the beacon round has no index.
      const std::size_t j = index_[n.id.value()];
      if (j == kNone) continue;
      const std::size_t ra = find(i);
      const std::size_t rb = find(j);
      if (ra != rb && compatible(state[i]->vel, n.vel)) parent[ra] = rb;
    }
  }
  for (const mobility::VehicleState* v : state) index_[v->id.value()] = kNone;

  // Gather zones.
  std::vector<std::size_t> zone_of_root(state.size(), kNone);
  std::vector<std::vector<std::size_t>> zones;
  for (std::size_t i = 0; i < state.size(); ++i) {
    std::size_t& zone = zone_of_root[find(i)];
    if (zone == kNone) {
      zone = zones.size();
      zones.emplace_back();
    }
    zones[zone].push_back(i);
  }

  // Elect captains: member nearest the zone centroid, with hysteresis for
  // the incumbent captain.
  for (const std::vector<std::size_t>& members : zones) {
    geo::Vec2 centroid;
    for (const std::size_t m : members) centroid += state[m]->pos;
    centroid = centroid / static_cast<double>(members.size());

    VehicleId captain;
    double best = 1e300;
    for (const std::size_t m : members) {
      const VehicleId id = state[m]->id;
      double d = geo::distance(state[m]->pos, centroid);
      auto cur = assignments_.find(id.value());
      if (cur != assignments_.end() &&
          cur->second.role == ClusterRole::kHead) {
        d -= config_.captain_hysteresis;
      }
      if (d < best || (d == best && id.value() < captain.value())) {
        best = d;
        captain = id;
      }
    }
    for (const std::size_t m : members) {
      const VehicleId id = state[m]->id;
      assign(id, captain,
             id == captain ? ClusterRole::kHead : ClusterRole::kMember);
    }
  }
}

}  // namespace vcl::cluster
