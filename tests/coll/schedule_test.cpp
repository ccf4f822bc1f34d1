// Property tests for the barrier communication schedules.
#include "coll/schedule.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace nicbar::coll {
namespace {

std::vector<Endpoint> make_group(std::size_t n) {
  std::vector<Endpoint> g;
  for (std::size_t i = 0; i < n; ++i) {
    g.push_back(Endpoint{static_cast<net::NodeId>(i), 2});
  }
  return g;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// --- Pairwise exchange ----------------------------------------------------------

TEST(PeScheduleTest, SingleMemberHasNoPeers) {
  EXPECT_TRUE(pe_schedule(make_group(1), 0).empty());
}

TEST(PeScheduleTest, TwoMembersExchangeOnce) {
  const auto g = make_group(2);
  const auto p0 = pe_schedule(g, 0);
  const auto p1 = pe_schedule(g, 1);
  ASSERT_EQ(p0.size(), 1u);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p0[0], g[1]);
  EXPECT_EQ(p1[0], g[0]);
}

TEST(PeScheduleTest, PowerOfTwoRoundsAreSymmetric) {
  // In round r, if a's r-th peer is b then b's r-th peer is a.
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    ASSERT_TRUE(is_pow2(n));
    std::size_t rounds = 0;
    for (std::size_t p = 1; p < n; p <<= 1) ++rounds;
    const auto g = make_group(n);
    std::vector<std::vector<Endpoint>> sched(n);
    for (std::size_t i = 0; i < n; ++i) sched[i] = pe_schedule(g, i);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sched[i].size(), rounds) << "n=" << n << " i=" << i;
      for (std::size_t r = 0; r < sched[i].size(); ++r) {
        const std::size_t peer = sched[i][r].node;
        EXPECT_EQ(sched[peer][r], g[i]) << "n=" << n << " i=" << i << " r=" << r;
      }
    }
  }
}

TEST(PeScheduleTest, NoSelfExchange) {
  for (std::size_t n = 2; n <= 40; ++n) {
    const auto g = make_group(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (const Endpoint& p : pe_schedule(g, i)) {
        EXPECT_NE(p, g[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PeScheduleTest, NonPow2ExtrasExchangeTwiceWithPartner) {
  for (std::size_t n : {3u, 5u, 6u, 7u, 9u, 12u, 13u}) {
    const auto g = make_group(n);
    std::size_t p2 = 1;
    while (p2 * 2 <= n) p2 *= 2;
    for (std::size_t e = p2; e < n; ++e) {
      const auto peers = pe_schedule(g, e);
      ASSERT_EQ(peers.size(), 2u) << "n=" << n << " extra=" << e;
      EXPECT_EQ(peers[0], peers[1]);
      EXPECT_EQ(peers[0], g[e - p2]);
    }
  }
}

TEST(PeScheduleTest, NonPow2PartnersBracketTheirRounds) {
  // A partner of an extra talks to the extra first and last.
  for (std::size_t n : {3u, 5u, 6u, 7u, 11u}) {
    const auto g = make_group(n);
    std::size_t p2 = 1;
    while (p2 * 2 <= n) p2 *= 2;
    const std::size_t extras = n - p2;
    for (std::size_t a = 0; a < extras; ++a) {
      const auto peers = pe_schedule(g, a);
      ASSERT_GE(peers.size(), 2u);
      EXPECT_EQ(peers.front(), g[a + p2]) << "n=" << n << " a=" << a;
      EXPECT_EQ(peers.back(), g[a + p2]) << "n=" << n << " a=" << a;
    }
  }
}

TEST(PeScheduleTest, MessageCountConservation) {
  // Every schedule entry at x naming y is matched by one at y naming x.
  for (std::size_t n = 2; n <= 33; ++n) {
    const auto g = make_group(n);
    std::map<std::pair<std::size_t, std::size_t>, int> pair_count;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Endpoint& p : pe_schedule(g, i)) {
        const std::size_t j = p.node;
        pair_count[{std::min(i, j), std::max(i, j)}] += 1;
      }
    }
    for (const auto& [pair, count] : pair_count) {
      EXPECT_EQ(count % 2, 0) << "n=" << n << " pair " << pair.first << "," << pair.second;
    }
  }
}

TEST(PeScheduleTest, RoundCountMatchesHelper) {
  for (std::size_t n = 1; n <= 33; ++n) {
    const auto g = make_group(n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pe_schedule(g, i).size(), pe_round_count(n, i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PeScheduleTest, RejectsBadArguments) {
  EXPECT_THROW(pe_schedule({}, 0), std::invalid_argument);
  EXPECT_THROW(pe_schedule(make_group(4), 4), std::invalid_argument);
}

// --- Gather-broadcast tree -----------------------------------------------------------

TEST(GbTreeTest, RootHasNoParent) {
  const auto g = make_group(8);
  EXPECT_TRUE(gb_tree(g, 0, 2).is_root());
  EXPECT_FALSE(gb_tree(g, 1, 2).is_root());
}

TEST(GbTreeTest, ParentChildConsistency) {
  for (std::size_t n : {2u, 5u, 8u, 16u, 31u}) {
    const auto g = make_group(n);
    for (std::size_t dim = 1; dim < n; ++dim) {
      for (std::size_t i = 0; i < n; ++i) {
        const GbTreeSlice s = gb_tree(g, i, dim);
        for (const Endpoint& c : s.children) {
          const GbTreeSlice cs = gb_tree(g, c.node, dim);
          EXPECT_EQ(cs.parent, g[i]) << "n=" << n << " dim=" << dim << " i=" << i;
        }
        if (!s.is_root()) {
          const GbTreeSlice ps = gb_tree(g, s.parent.node, dim);
          bool found = false;
          for (const Endpoint& c : ps.children) {
            if (c == g[i]) found = true;
          }
          EXPECT_TRUE(found) << "n=" << n << " dim=" << dim << " i=" << i;
        }
      }
    }
  }
}

TEST(GbTreeTest, EveryMemberReachableFromRoot) {
  for (std::size_t n : {2u, 7u, 16u, 40u}) {
    const auto g = make_group(n);
    for (std::size_t dim = 1; dim < std::min<std::size_t>(n, 8); ++dim) {
      std::set<std::size_t> visited;
      std::vector<std::size_t> frontier{0};
      visited.insert(0);
      while (!frontier.empty()) {
        const std::size_t u = frontier.back();
        frontier.pop_back();
        for (const Endpoint& c : gb_tree(g, u, dim).children) {
          EXPECT_TRUE(visited.insert(c.node).second) << "cycle at " << c.node;
          frontier.push_back(c.node);
        }
      }
      EXPECT_EQ(visited.size(), n) << "n=" << n << " dim=" << dim;
    }
  }
}

TEST(GbTreeTest, FanoutBounded) {
  const auto g = make_group(30);
  for (std::size_t dim = 1; dim < 10; ++dim) {
    for (std::size_t i = 0; i < 30; ++i) {
      EXPECT_LE(gb_tree(g, i, dim).children.size(), dim);
    }
  }
}

TEST(GbTreeTest, DimensionOneIsAChain) {
  const auto g = make_group(5);
  for (std::size_t i = 0; i < 5; ++i) {
    const GbTreeSlice s = gb_tree(g, i, 1);
    if (i > 0) {
      EXPECT_EQ(s.parent, g[i - 1]);
    }
    if (i < 4) {
      ASSERT_EQ(s.children.size(), 1u);
      EXPECT_EQ(s.children[0], g[i + 1]);
    }
  }
  EXPECT_EQ(gb_tree_depth(5, 1), 4u);
}

TEST(GbTreeTest, FlatTreeIsDepthOne) {
  EXPECT_EQ(gb_tree_depth(16, 15), 1u);
  const auto g = make_group(16);
  EXPECT_EQ(gb_tree(g, 0, 15).children.size(), 15u);
}

TEST(GbTreeTest, DepthMatchesBinaryHeap) {
  EXPECT_EQ(gb_tree_depth(1, 2), 0u);
  EXPECT_EQ(gb_tree_depth(2, 2), 1u);
  EXPECT_EQ(gb_tree_depth(3, 2), 1u);
  EXPECT_EQ(gb_tree_depth(4, 2), 2u);
  EXPECT_EQ(gb_tree_depth(7, 2), 2u);
  EXPECT_EQ(gb_tree_depth(8, 2), 3u);
  EXPECT_EQ(gb_tree_depth(16, 2), 4u);
}

TEST(GbTreeTest, RejectsBadArguments) {
  EXPECT_THROW(gb_tree({}, 0, 2), std::invalid_argument);
  EXPECT_THROW(gb_tree(make_group(4), 9, 2), std::invalid_argument);
  EXPECT_THROW(gb_tree(make_group(4), 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nicbar::coll
