// The MPI-like layer: point-to-point matching, collectives, and the
// interplay between application traffic and NIC-resident collectives.
#include "mpi/communicator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/cluster.hpp"

namespace nicbar::mpi {
namespace {

using namespace sim::literals;

struct World {
  explicit World(std::size_t n, CommConfig cfg = {}, host::ClusterParams cp = {}) {
    cp.nodes = n;
    cluster = std::make_unique<host::Cluster>(cp);
    std::vector<gm::Endpoint> group;
    for (std::size_t i = 0; i < n; ++i) {
      group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
    }
    for (std::size_t i = 0; i < n; ++i) {
      ports.push_back(cluster->open_port(static_cast<net::NodeId>(i), 2));
      comms.push_back(std::make_unique<Communicator>(*ports.back(), group, cfg));
    }
  }
  std::unique_ptr<host::Cluster> cluster;
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<Communicator>> comms;
};

TEST(CommunicatorTest, RankAndSize) {
  World w(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.comms[static_cast<std::size_t>(i)]->rank(), i);
    EXPECT_EQ(w.comms[static_cast<std::size_t>(i)]->size(), 4);
  }
}

TEST(CommunicatorTest, PingPong) {
  World w(2);
  std::vector<std::uint64_t> tags;
  w.cluster->sim().spawn([](Communicator& c, std::vector<std::uint64_t>* out) -> sim::Task {
    co_await c.send(1, 128, 7);
    const Message m = co_await c.recv(1);
    out->push_back(m.tag);
  }(*w.comms[0], &tags));
  w.cluster->sim().spawn([](Communicator& c) -> sim::Task {
    const Message m = co_await c.recv(0);
    co_await c.send(0, 128, m.tag + 1);
  }(*w.comms[1]));
  w.cluster->sim().run();
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 8u);
}

TEST(CommunicatorTest, RecvMatchesBySourceRank) {
  // Rank 0 waits for rank 2 specifically; rank 1's message (arriving first)
  // must be queued, not mis-delivered.
  World w(3);
  std::vector<int> order;
  w.cluster->sim().spawn([](Communicator& c, std::vector<int>* out) -> sim::Task {
    Message from2 = co_await c.recv(2);
    out->push_back(from2.source);
    Message from1 = co_await c.recv(1);
    out->push_back(from1.source);
  }(*w.comms[0], &order));
  w.cluster->sim().spawn([](Communicator& c) -> sim::Task {
    co_await c.send(0, 16, 11);
  }(*w.comms[1]));
  w.cluster->sim().spawn([](sim::Simulator& sim, Communicator& c) -> sim::Task {
    co_await sim.delay(500_us);  // rank 2 sends much later
    co_await c.send(0, 16, 22);
  }(w.cluster->sim(), *w.comms[2]));
  w.cluster->sim().run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

class CommCollectives : public ::testing::TestWithParam<coll::Location> {};

TEST_P(CommCollectives, BarrierSynchronizes) {
  CommConfig cfg;
  cfg.collective_location = GetParam();
  World w(8, cfg);
  std::vector<sim::SimTime> entered(8), exited(8);
  for (std::size_t i = 0; i < 8; ++i) {
    w.cluster->sim().spawn([](sim::Simulator& sim, Communicator& c, sim::Duration d,
                              sim::SimTime* in, sim::SimTime* out) -> sim::Task {
      co_await sim.delay(d);
      *in = sim.now();
      co_await c.barrier();
      *out = sim.now();
    }(w.cluster->sim(), *w.comms[i], sim::microseconds(53.0 * static_cast<double>(i)),
      &entered[i], &exited[i]));
  }
  w.cluster->sim().run();
  sim::SimTime last_in{0};
  for (auto t : entered) {
    if (t > last_in) last_in = t;
  }
  for (std::size_t i = 0; i < 8; ++i) EXPECT_GE(exited[i].ps(), last_in.ps());
}

TEST_P(CommCollectives, AllreduceSum) {
  CommConfig cfg;
  cfg.collective_location = GetParam();
  World w(8, cfg);
  std::vector<std::int64_t> results(8, -1);
  for (std::size_t i = 0; i < 8; ++i) {
    w.cluster->sim().spawn([](Communicator& c, std::int64_t v, std::int64_t* out) -> sim::Task {
      *out = co_await c.allreduce(v, nic::ReduceOp::kSum);
    }(*w.comms[i], static_cast<std::int64_t>(i + 1), &results[i]));
  }
  w.cluster->sim().run();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i], 36);
}

TEST_P(CommCollectives, AllreduceMax) {
  CommConfig cfg;
  cfg.collective_location = GetParam();
  World w(4, cfg);
  std::vector<std::int64_t> results(4, -1);
  const std::int64_t vals[] = {3, 99, -5, 40};
  for (std::size_t i = 0; i < 4; ++i) {
    w.cluster->sim().spawn([](Communicator& c, std::int64_t v, std::int64_t* out) -> sim::Task {
      *out = co_await c.allreduce(v, nic::ReduceOp::kMax);
    }(*w.comms[i], vals[i], &results[i]));
  }
  w.cluster->sim().run();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(results[i], 99);
}

TEST_P(CommCollectives, BcastFromRoot) {
  CommConfig cfg;
  cfg.collective_location = GetParam();
  World w(8, cfg);
  std::vector<std::int64_t> results(8, -1);
  for (std::size_t i = 0; i < 8; ++i) {
    w.cluster->sim().spawn([](Communicator& c, std::int64_t* out) -> sim::Task {
      // Only rank 0's value matters.
      *out = co_await c.bcast(c.rank() == 0 ? 0x5A5A : 0x1111);
    }(*w.comms[i], &results[i]));
  }
  w.cluster->sim().run();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i], 0x5A5A);
}

INSTANTIATE_TEST_SUITE_P(Locations, CommCollectives,
                         ::testing::Values(coll::Location::kHost, coll::Location::kNic),
                         [](const auto& param_info) {
                           return param_info.param == coll::Location::kHost ? "Host" : "Nic";
                         });

TEST(CommunicatorTest, DataInFlightDuringNicBarrierIsNotLost) {
  // Rank 1 sends a message, then enters the barrier. Rank 0 enters the
  // barrier immediately and only afterwards posts its recv: the message
  // lands while rank 0 is blocked inside barrier() and must be queued via
  // the event-sink plumbing.
  World w(2);
  std::vector<std::uint64_t> tags;
  w.cluster->sim().spawn([](Communicator& c, std::vector<std::uint64_t>* out) -> sim::Task {
    co_await c.barrier();
    const Message m = co_await c.recv(1);
    out->push_back(m.tag);
  }(*w.comms[0], &tags));
  w.cluster->sim().spawn([](Communicator& c) -> sim::Task {
    co_await c.send(0, 32, 77);
    co_await c.barrier();
  }(*w.comms[1]));
  w.cluster->sim().run();
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 77u);
}

TEST(CommunicatorTest, MixedCollectivesAndTraffic) {
  World w(4);
  std::vector<std::int64_t> sums(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    w.cluster->sim().spawn([](Communicator& c, std::int64_t* out) -> sim::Task {
      for (int round = 0; round < 3; ++round) {
        // Ring shift: send to right neighbour, recv from left.
        const int right = (c.rank() + 1) % c.size();
        const int left = (c.rank() + c.size() - 1) % c.size();
        co_await c.send(right, 64, static_cast<std::uint64_t>(c.rank()));
        const Message m = co_await c.recv(left);
        co_await c.barrier();
        *out += co_await c.allreduce(static_cast<std::int64_t>(m.tag), nic::ReduceOp::kSum);
      }
    }(*w.comms[i], &sums[i]));
  }
  w.cluster->sim().run();
  // Each round allreduces the sum of all ranks (0+1+2+3=6); 3 rounds = 18.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(sums[i], 18);
}

TEST(CommunicatorTest, NicCollectivesBeatHostUnderMpiOverhead) {
  // The paper's §1/§2.2 claim, end-to-end at the MPI level.
  auto run = [](coll::Location loc) {
    CommConfig cfg;
    cfg.collective_location = loc;
    World w(8, cfg);
    for (std::size_t i = 0; i < 8; ++i) {
      w.cluster->sim().spawn([](Communicator& c) -> sim::Task {
        for (int k = 0; k < 10; ++k) co_await c.barrier();
      }(*w.comms[i]));
    }
    w.cluster->sim().run();
    return w.cluster->sim().now().us();
  };
  EXPECT_LT(run(coll::Location::kNic), run(coll::Location::kHost));
}

TEST(CommunicatorTest, RejectsForeignEndpoint) {
  World w(2);
  auto stranger = w.cluster->open_port(0, 5);
  std::vector<gm::Endpoint> group{{0, 2}, {1, 2}};
  EXPECT_THROW(Communicator c(*stranger, group), std::invalid_argument);
}

TEST(CommunicatorTest, BadRankArguments) {
  World w(2);
  EXPECT_THROW((void)w.comms[0]->send(5, 8), std::out_of_range);
  EXPECT_THROW((void)w.comms[0]->recv(-1), std::out_of_range);
}

}  // namespace
}  // namespace nicbar::mpi
