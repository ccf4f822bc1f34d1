// Barrier communication schedules, computed on the host (paper §5.1 argues
// the host should compute these — it is much faster than the NIC processor
// and only the local node's slice needs shipping to the NIC).
//
//   pe_schedule  — pairwise-exchange peer list (MPICH-style recursive
//                  pairing), extended to non-power-of-two group sizes.
//   gb_tree      — k-ary ("dimension k") gather/broadcast tree slice:
//                  this member's parent and children.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nic/tokens.hpp"

namespace nicbar::coll {

using nic::Endpoint;

/// Pairwise-exchange schedule for member `me` of `group` (paper §5.1).
///
/// Power-of-two sizes: log2(N) rounds, partner in round r is index me^(1<<r).
/// Non-power-of-two extension: let p2 be the largest power of two <= N. The
/// tail members ("extras", indices >= p2) each fold into a partner in the
/// low part: an extra exchanges twice with its partner (enter + release); the
/// partner exchanges with its extra before and after the power-of-two rounds.
/// This preserves the invariant that a member's exchange with peer k only
/// completes after all members have entered the barrier.
[[nodiscard]] std::vector<Endpoint> pe_schedule(std::span<const Endpoint> group, std::size_t me);

/// This member's slice of a `dimension`-ary gather/broadcast tree laid out
/// heap-style over `group` (member 0 is the root).
struct GbTreeSlice {
  Endpoint parent;  // node == net::kInvalidNode at the root
  std::vector<Endpoint> children;
  [[nodiscard]] bool is_root() const { return parent.node == net::kInvalidNode; }
};

[[nodiscard]] GbTreeSlice gb_tree(std::span<const Endpoint> group, std::size_t me,
                                  std::size_t dimension);

/// Number of PE rounds for a group of size n (log2 ceiling + extra folds).
[[nodiscard]] std::size_t pe_round_count(std::size_t n, std::size_t me);

/// Depth of the k-ary GB tree over n members.
[[nodiscard]] std::size_t gb_tree_depth(std::size_t n, std::size_t dimension);

}  // namespace nicbar::coll
