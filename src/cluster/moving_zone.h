// Moving-zone grouping (MoZo, Lin et al. [22]).
//
// Vehicles with similar velocity vectors that can hear each other form a
// *moving zone*; the member closest to the zone's kinematic average becomes
// the captain and maintains the membership table. Zones are rebuilt as
// connected components of the "similar velocity AND in radio range"
// relation — zones naturally merge and split as traffic evolves, which is
// exactly the behaviour MoZo exploits for infrastructure-free routing.
#pragma once

#include "cluster/cluster_manager.h"

namespace vcl::cluster {

struct MovingZoneConfig {
  double max_speed_diff = 6.0;    // m/s
  double max_angle_rad = 0.6;     // heading difference (~34 degrees)
  double captain_hysteresis = 30.0;  // meters of centroid-distance slack
};

class MovingZone final : public ClusterManager {
 public:
  MovingZone(net::Network& net, MovingZoneConfig config = {})
      : ClusterManager(net), config_(config) {}

  [[nodiscard]] const char* name() const override { return "mozo"; }
  void update() override;

  // Velocity-compatibility predicate (exposed for tests).
  [[nodiscard]] bool compatible(geo::Vec2 vel_a, geo::Vec2 vel_b) const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  MovingZoneConfig config_;
  // Dense index of each vehicle id during update(), kNone otherwise. Sized
  // to TrafficModel::id_bound(), so it is reused across updates and only
  // the entries one update set are reset.
  std::vector<std::size_t> index_;
};

}  // namespace vcl::cluster
