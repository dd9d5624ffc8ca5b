#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "crypto/sha256.h"
#include "mobility/traffic.h"
#include "net/channel.h"
#include "net/network.h"
#include "net/rsu.h"
#include "sim/simulator.h"

namespace vcl::net {
namespace {

TEST(Channel, PerfectAtShortRange) {
  const Channel ch;
  const double p = ch.reception_probability({0, 0}, {50, 0}, 0);
  EXPECT_GT(p, 0.9);
}

TEST(Channel, ZeroBeyondMaxRange) {
  const Channel ch;
  EXPECT_DOUBLE_EQ(ch.reception_probability({0, 0}, {301, 0}, 0), 0.0);
}

TEST(Channel, MonotoneInDistance) {
  const Channel ch;
  double prev = 1.0;
  for (double d = 10; d <= 300; d += 10) {
    const double p = ch.reception_probability({0, 0}, {d, 0}, 0);
    EXPECT_LE(p, prev + 1e-12) << "at distance " << d;
    prev = p;
  }
}

TEST(Channel, DensityErodesReception) {
  const Channel ch;
  const double quiet = ch.reception_probability({0, 0}, {100, 0}, 0);
  const double busy = ch.reception_probability({0, 0}, {100, 0}, 100);
  EXPECT_LT(busy, quiet);
}

TEST(Channel, HopDelayGrowsWithSizeAndDensity) {
  const Channel ch;
  EXPECT_LT(ch.hop_delay(100, 0), ch.hop_delay(10000, 0));
  EXPECT_LT(ch.hop_delay(100, 0), ch.hop_delay(100, 50));
  EXPECT_GT(ch.hop_delay(100, 0), 0.0);
}

TEST(Channel, AttemptRespectsCutoff) {
  const Channel ch;
  Rng rng(1);
  const ReceptionResult r = ch.attempt({0, 0}, {500, 0}, 100, 0, rng);
  EXPECT_FALSE(r.received);
}

// Channel::beacon_heard() against the draw it replaces,
// rng.bernoulli(reception_probability(...)), on twin engines: the same
// outcome and the same next engine output after every pair. The pairs are
// drawn to hit the edges of the table: d at reference_range and max_range
// to within an ulp, d² at the near-path threshold and at bin edges,
// saturating densities and blacked-out endpoints.
struct SamplerCase {
  const char* name;
  ChannelConfig config;
  bool tabulated;
};

void PrintTo(const SamplerCase& c, std::ostream* os) { *os << c.name; }

ChannelConfig with(void (*edit)(ChannelConfig&)) {
  ChannelConfig c;
  edit(c);
  return c;
}

const SamplerCase kSamplerCases[] = {
    {"default", {}, true},
    {"no_base_loss", with([](ChannelConfig& c) { c.base_loss = 0.0; }), true},
    {"no_shadowing", with([](ChannelConfig& c) { c.shadowing_sigma = 0.0; }),
     true},
    {"fade_exponent_half",
     with([](ChannelConfig& c) { c.path_loss_exponent = 1.0; }), true},
    {"flat_fade", with([](ChannelConfig& c) { c.path_loss_exponent = 0.0; }),
     true},
    {"wide_shadowing", with([](ChannelConfig& c) { c.shadowing_sigma = 30.0; }),
     true},
    {"no_contention",
     with([](ChannelConfig& c) { c.contention_per_neighbor = 0.0; }), true},
    {"narrow_band", with([](ChannelConfig& c) { c.max_range = 150.5; }), true},
    {"max_at_reference",
     with([](ChannelConfig& c) { c.max_range = c.reference_range; }), false},
    {"negative_sigma",
     with([](ChannelConfig& c) { c.shadowing_sigma = -1.0; }), false},
};

class BeaconSampler : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(BeaconSampler, DrawForDrawTheExactBernoulli) {
  const ChannelConfig& cfg = GetParam().config;
  Channel ch(cfg);
  ASSERT_EQ(ch.tabulated(), GetParam().tabulated);
  ch.add_blackout({{0.0, 0.0}, 120.0});

  const double ref = cfg.reference_range;
  const double max = cfg.max_range;
  const double ref2 = ref * ref;
  const double bin = (max * max - ref2) / 1024.0;
  const auto ulps = [](double x, int k) {
    for (; k > 0; --k) x = std::nextafter(x, HUGE_VAL);
    for (; k < 0; ++k) x = std::nextafter(x, -HUGE_VAL);
    return x;
  };
  Rng pick(17);
  Rng fast(23);
  Rng exact(23);
  BeaconCounters counters;
  std::uint64_t exact_draws = 0;
  std::uint64_t lit_pairs = 0;
  constexpr int kPairs = 1'000'000;
  for (int i = 0; i < kPairs; ++i) {
    geo::Vec2 to{pick.uniform(-500.0, 500.0), pick.uniform(-500.0, 500.0)};
    geo::Vec2 from;
    const std::int64_t kind = pick.uniform_int(0, 5);
    if (kind < 2) {
      // Any direction; d uniform, or d² uniform over the table.
      const double d =
          kind == 0 ? pick.uniform(0.0, 1.05 * max)
                    : std::sqrt(pick.uniform(ref2, max * max));
      const double a = pick.uniform(0.0, 6.283185307179586);
      from = to + geo::Vec2{d * std::cos(a), d * std::sin(a)};
    } else {
      // Along an axis from x = 0, so hypot() returns d exactly.
      double d = 0.0;
      const int k = static_cast<int>(pick.uniform_int(-2, 2));
      switch (kind) {
        case 2: d = ulps(ref, k); break;
        case 3: d = ulps(max, k); break;
        case 4: d = std::sqrt(ref2 * pick.uniform(1.0 - 2e-9, 1.0 + 2e-9));
          break;
        default:
          d = ulps(std::sqrt(ref2 + bin * static_cast<double>(
                                            pick.uniform_int(0, 1024))),
                   k);
      }
      to.x = 0.0;
      from = {pick.bernoulli(0.5) ? d : -d, to.y};
    }
    const std::size_t density =
        pick.bernoulli(0.1) && cfg.contention_per_neighbor > 0.0
            ? static_cast<std::size_t>(1.0 / cfg.contention_per_neighbor) +
                  static_cast<std::size_t>(pick.uniform_int(-2, 3))
            : static_cast<std::size_t>(pick.uniform_int(0, 120));
    const bool from_dark = ch.blacked_out(from);
    const bool to_dark = ch.blacked_out(to);
    lit_pairs += from_dark || to_dark ? 0 : 1;

    const BeaconReceiver rx = ch.beacon_receiver(to, density, to_dark);
    const bool got = ch.beacon_heard(from, from_dark, rx, fast, counters);
    const double p = ch.reception_probability(from, to, density);
    exact_draws += p > 0.0 && p < 1.0 ? 1 : 0;
    const bool want = exact.bernoulli(p);
    ASSERT_EQ(got, want) << "pair " << i << " d=" << geo::distance(from, to)
                         << " density=" << density << " p=" << p;
    ASSERT_EQ(fast.engine()(), exact.engine()()) << "pair " << i;
  }
  EXPECT_EQ(counters.draws, exact_draws);
  if (GetParam().tabulated) {
    EXPECT_LT(counters.exact_evaluations, lit_pairs / 2);
  } else {
    EXPECT_EQ(counters.exact_evaluations, lit_pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, BeaconSampler,
                         ::testing::ValuesIn(kSamplerCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(BeaconSampler, SaturatedReceiverMakesNoDraw) {
  const Channel ch;
  const std::size_t saturating = 250;  // 1 / contention_per_neighbor
  const BeaconReceiver rx = ch.beacon_receiver({0, 0}, saturating, false);
  EXPECT_TRUE(rx.saturated);
  EXPECT_FALSE(ch.beacon_receiver({0, 0}, saturating - 1, false).saturated);
  Rng rng(5);
  Rng twin(5);
  BeaconCounters counters;
  for (double d = 0.0; d <= 300.0; d += 0.5) {
    EXPECT_FALSE(ch.beacon_heard({d, 0}, false, rx, rng, counters));
  }
  EXPECT_EQ(counters.draws, 0u);
  EXPECT_EQ(rng.engine()(), twin.engine()());
}

TEST(RsuField, CoveringPicksNearestOnline) {
  RsuField field;
  const RsuId a = field.add({0, 0}, 300);
  const RsuId b = field.add({400, 0}, 300);
  const Rsu* r = field.covering({350, 0});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, b);
  field.set_online(b, false);
  r = field.covering({350, 0});
  // a is 350 m away with 300 m range: uncovered now.
  EXPECT_EQ(r, nullptr);
  (void)a;
}

TEST(RsuField, FailAllAndRestore) {
  RsuField field;
  field.add({0, 0});
  field.add({100, 0});
  EXPECT_EQ(field.online_count(), 2u);
  field.fail_all();
  EXPECT_EQ(field.online_count(), 0u);
  EXPECT_EQ(field.covering({0, 0}), nullptr);
  field.restore_all();
  EXPECT_EQ(field.online_count(), 2u);
}

TEST(RsuField, PlaceGridCoversBoundingBox) {
  const auto net = geo::make_manhattan_grid(3, 3, 500.0);
  RsuField field;
  field.place_grid(net, 500.0, 400.0);
  EXPECT_EQ(field.count(), 9u);  // 3x3 grid of RSUs
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : road_(geo::make_manhattan_grid(3, 3, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, ChannelConfig{}, Rng(2)) {}

  // Parks a vehicle at a fixed world position (via link 0 offsets).
  VehicleId park_at(double offset) {
    return traffic_.spawn_parked(LinkId{0}, offset);
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  Network net_;
};

TEST_F(NetworkFixture, UnicastDeliversInRange) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(100.0);
  net_.refresh();
  int received = 0;
  net_.set_handler(Address::vehicle(b), [&](const Message& m) {
    ++received;
    EXPECT_EQ(m.src, Address::vehicle(a));
    EXPECT_EQ(m.hops, 1);
  });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_TRUE(net_.send(msg));
  sim_.run_until(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net_.stats().unicast_delivered, 1u);
}

TEST_F(NetworkFixture, UnicastFailsOutOfRange) {
  const VehicleId a = park_at(0.0);
  // 200 m links: offset on a far link. Use grid node distances: put the
  // second vehicle on the opposite corner link (distance >> 300 m).
  const VehicleId b = traffic_.spawn_parked(LinkId{road_.link_count() - 1},
                                            100.0);
  net_.refresh();
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_FALSE(net_.send(msg));
  EXPECT_EQ(net_.stats().dropped, 1u);
}

TEST_F(NetworkFixture, SendViaPreservesFinalDestination) {
  const VehicleId a = park_at(0.0);
  const VehicleId relay = park_at(150.0);
  const VehicleId b = park_at(190.0);
  net_.refresh();
  Address seen_dst;
  net_.set_handler(Address::vehicle(relay), [&](const Message& m) {
    seen_dst = m.dst;
  });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);  // final destination
  EXPECT_TRUE(net_.send_via(msg, Address::vehicle(relay)));
  sim_.run_until(1.0);
  EXPECT_EQ(seen_dst, Address::vehicle(b));
}

TEST_F(NetworkFixture, BroadcastReachesNeighbors) {
  const VehicleId a = park_at(100.0);
  park_at(0.0);
  park_at(180.0);
  net_.refresh();
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::broadcast();
  const std::size_t reached = net_.broadcast(msg);
  EXPECT_EQ(reached, 2u);
}

TEST_F(NetworkFixture, DefaultVehicleHandlerReceives) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(120.0);
  net_.refresh();
  VehicleId handled;
  net_.set_default_vehicle_handler(
      [&](VehicleId self, const Message&) { handled = self; });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_TRUE(net_.send(msg));
  sim_.run_until(1.0);
  EXPECT_EQ(handled, b);
}

TEST_F(NetworkFixture, BeaconsFillNeighborTables) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(150.0);
  net_.start_beacons(1.0);
  sim_.run_until(2.5);
  const auto& na = net_.neighbors(a);
  ASSERT_EQ(na.size(), 1u);
  EXPECT_EQ(na[0].id, b);
  EXPECT_GT(na[0].last_heard, 0.0);
}

// A receiver with 1/contention_per_neighbor vehicles in range hears no
// one: its pair loop is skipped and counted, and makes no draw.
TEST(BeaconCounters, SaturatedReceiversAreSkipped) {
  const geo::RoadNetwork road = geo::make_manhattan_grid(3, 3, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  ChannelConfig cfg;
  cfg.contention_per_neighbor = 0.25;
  Network net(sim, traffic, cfg, Rng(2));
  std::vector<VehicleId> parked;
  for (int i = 0; i < 4; ++i) {
    parked.push_back(traffic.spawn_parked(LinkId{0}, 10.0 * i));
  }
  net.refresh();  // density 4: contention factor 1 - 0.25 * 4 = 0
  BeaconCounters c = net.beacon_counters();
  EXPECT_EQ(c.pairs, 12u);
  EXPECT_EQ(c.saturated_receivers, 4u);
  EXPECT_EQ(c.draws, 0u);
  EXPECT_EQ(c.exact_evaluations, 0u);
  for (const VehicleId v : parked) EXPECT_TRUE(net.neighbors(v).empty());

  traffic.despawn(parked.back());
  net.refresh();  // density 3: every pair draws against p = 0.98 * 0.25
  c = net.beacon_counters();
  EXPECT_EQ(c.pairs, 12u + 6u);
  EXPECT_EQ(c.saturated_receivers, 4u);
  EXPECT_EQ(c.draws, 6u);
  EXPECT_EQ(c.exact_evaluations, 0u);
}

TEST_F(NetworkFixture, RsuCoversVehicle) {
  const VehicleId a = park_at(50.0);
  net_.rsus().add({60.0, 0.0}, 500.0);
  net_.refresh();
  EXPECT_NE(net_.reachable_rsu(a), nullptr);
  net_.rsus().fail_all();
  EXPECT_EQ(net_.reachable_rsu(a), nullptr);
}

TEST_F(NetworkFixture, VehicleToRsuUnicastUsesRsuRange) {
  const VehicleId a = park_at(0.0);
  const RsuId r = net_.rsus().add({450.0, 0.0}, 1200.0);
  net_.refresh();
  int received = 0;
  net_.set_handler(Address::rsu(r), [&](const Message&) { ++received; });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::rsu(r);
  // 450 m exceeds vehicle range (300) but sits well inside the RSU's reach.
  EXPECT_TRUE(net_.send(msg));
  sim_.run_until(1.0);
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkFixture, BackhaulIsReliableAndDelayed) {
  const RsuId r1 = net_.rsus().add({0, 0});
  const RsuId r2 = net_.rsus().add({5000, 0});
  SimTime arrival = -1;
  net_.set_handler(Address::rsu(r2),
                   [&](const Message&) { arrival = sim_.now(); });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::rsu(r1);
  msg.dst = Address::rsu(r2);
  net_.send_backhaul(r1, r2, msg);
  sim_.run_until(1.0);
  EXPECT_NEAR(arrival, net_.backhaul_latency(), 1e-9);
}

TEST_F(NetworkFixture, BackhaulDropsWhenOffline) {
  const RsuId r1 = net_.rsus().add({0, 0});
  const RsuId r2 = net_.rsus().add({5000, 0});
  net_.rsus().set_online(r2, false);
  int received = 0;
  net_.set_handler(Address::rsu(r2), [&](const Message&) { ++received; });
  Message msg;
  msg.src = Address::rsu(r1);
  msg.dst = Address::rsu(r2);
  net_.send_backhaul(r1, r2, msg);
  sim_.run_until(1.0);
  EXPECT_EQ(received, 0);
}

// Appends every neighbor table, vehicles sorted by id and entries in table
// order, with full double precision.
void dump_tables(const mobility::TrafficModel& traffic, const Network& net,
                 std::ostream& os) {
  std::vector<VehicleId> ids;
  for (const auto& [vid, v] : traffic.vehicles()) ids.push_back(v.id);
  std::sort(ids.begin(), ids.end());
  for (const VehicleId id : ids) {
    os << id.value() << ':';
    for (const NeighborEntry& e : net.neighbors(id)) {
      os << ' ' << e.id.value() << ',' << e.pos.x << ',' << e.pos.y << ','
         << e.vel.x << ',' << e.vel.y << ',' << e.last_heard;
    }
    os << '\n';
  }
}

bool in_any_table(const mobility::TrafficModel& traffic, const Network& net,
                  VehicleId id) {
  for (const auto& [vid, v] : traffic.vehicles()) {
    for (const NeighborEntry& e : net.neighbors(v.id)) {
      if (e.id == id) return true;
    }
  }
  return false;
}

// Pins the beacon tables of a moving fleet, entry by entry, over 31 rounds:
// arrivals and explicit despawns between rounds, TTL expiry, a blackout
// that empties the tables of the vehicles under it, and two refresh() calls
// at one instant around a despawn (the second must drop the departed
// neighbor although the first refreshed it at that instant). A speed-up of
// the beacon round must leave the golden unchanged.
TEST(BeaconTables, GoldenOverDespawnsExpiryAndBlackout) {
  const geo::RoadNetwork road = geo::make_manhattan_grid(5, 5, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(7));
  Network net(sim, traffic, ChannelConfig{}, Rng(8));
  net.set_neighbor_ttl(2.0);

  Rng routes(9);
  const auto nodes = static_cast<std::int64_t>(road.node_count());
  while (traffic.vehicle_count() < 60) {
    const NodeId from{static_cast<std::uint64_t>(routes.uniform_int(0, nodes - 1))};
    const NodeId to{static_cast<std::uint64_t>(routes.uniform_int(0, nodes - 1))};
    if (from == to) continue;
    const auto path = road.shortest_path(from, to);
    if (path) traffic.spawn(*path, routes.uniform(8.0, 14.0));
  }
  const auto [lo, hi] = road.bounding_box();
  const geo::Vec2 center = (lo + hi) / 2.0;
  // Parked vehicles near the blackout center, on the middle row's links.
  std::vector<VehicleId> parked;
  for (std::size_t l = 0; l < road.link_count() && parked.size() < 6; ++l) {
    if (geo::distance(road.position_on_link(LinkId{l}, 20.0), center) <
        150.0) {
      parked.push_back(traffic.spawn_parked(LinkId{l}, 20.0));
    }
  }
  ASSERT_FALSE(parked.empty());

  traffic.attach(sim, 0.1);
  net.start_beacons(1.0);

  std::ostringstream os;
  os.precision(17);
  sim.schedule_every(1.0, [&] {
    os << "t=" << sim.now() << '\n';
    dump_tables(traffic, net, os);
  }, 0.5);
  // Despawn the lowest-id live vehicle between rounds.
  const auto despawn_lowest = [&] {
    VehicleId lowest{~std::uint64_t{0}};
    for (const auto& [vid, v] : traffic.vehicles()) {
      lowest = std::min(lowest, v.id);
    }
    traffic.despawn(lowest);
  };
  for (const SimTime t : {4.3, 11.3, 17.3, 25.3}) {
    sim.schedule_at(t, despawn_lowest);
  }

  std::size_t heard_before_blackout = 0;
  sim.schedule_at(7.7, [&] {
    heard_before_blackout = net.neighbors(parked.front()).size();
  });
  std::uint64_t blackout = 0;
  sim.schedule_at(8.2, [&] {
    blackout = net.channel().add_blackout({center, 250.0});
  });
  std::size_t heard_in_blackout = 0;
  sim.schedule_at(12.7, [&] {
    heard_in_blackout = net.neighbors(parked.front()).size();
  });
  sim.schedule_at(14.2, [&] { net.channel().remove_blackout(blackout); });

  VehicleId victim;
  bool victim_dropped = false;
  sim.schedule_at(20.7, [&] {
    net.refresh();
    ASSERT_FALSE(net.neighbors(parked.front()).empty());
    victim = net.neighbors(parked.front()).front().id;
    traffic.despawn(victim);
    net.refresh();
    victim_dropped = !in_any_table(traffic, net, victim);
    os << "double refresh\n";
    dump_tables(traffic, net, os);
  });

  sim.run_until(30.9);
  EXPECT_GT(heard_before_blackout, 0u);
  EXPECT_EQ(heard_in_blackout, 0u);  // every entry expired by TTL
  EXPECT_TRUE(victim.valid());
  EXPECT_TRUE(victim_dropped);
  EXPECT_EQ(crypto::to_hex(crypto::Sha256::hash(os.str())),
            "802e31601244f7c427219a5fcd8cd6922aaff5b90d0177387741dd4baf6f7339");
}

TEST(MessageKind, Names) {
  EXPECT_STREQ(to_string(MessageKind::kBeacon), "beacon");
  EXPECT_STREQ(to_string(MessageKind::kTaskMigrate), "task_migrate");
}

TEST(Address, KeysDistinguishTypes) {
  EXPECT_NE(Address::vehicle(VehicleId{5}).key(),
            Address::rsu(RsuId{5}).key());
  EXPECT_EQ(Address::vehicle(VehicleId{5}),
            Address::vehicle(VehicleId{5}));
}

}  // namespace
}  // namespace vcl::net
