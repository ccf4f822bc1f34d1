#include "coll/schedule.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace nicbar::coll {

namespace {

std::size_t floor_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

[[noreturn]] void not_a_member(const char* what) {
  throw std::invalid_argument(std::string("port's endpoint is not in the ") + what);
}

}  // namespace

std::size_t find_member(std::span<const Endpoint> group, const Endpoint& self,
                        const char* what) {
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] == self) return i;
  }
  not_a_member(what);
}

std::size_t check_member(std::span<const Endpoint> group, std::size_t index,
                         const Endpoint& self, const char* what) {
  if (index >= group.size() || !(group[index] == self)) not_a_member(what);
  return index;
}

std::vector<Endpoint> pe_schedule(std::span<const Endpoint> group, std::size_t me) {
  const std::size_t n = group.size();
  if (n == 0) throw std::invalid_argument("empty barrier group");
  if (me >= n) throw std::invalid_argument("member index out of range");
  std::vector<Endpoint> peers;
  if (n == 1) return peers;

  const std::size_t p2 = floor_pow2(n);
  const std::size_t extras = n - p2;

  if (me >= p2) {
    // Extra member: enter through the partner, get released by it.
    const std::size_t partner = me - p2;
    peers.push_back(group[partner]);
    peers.push_back(group[partner]);
    return peers;
  }

  const bool has_extra = me < extras;
  if (has_extra) peers.push_back(group[me + p2]);  // absorb the extra's entry
  for (std::size_t bit = 1; bit < p2; bit <<= 1) {
    peers.push_back(group[me ^ bit]);
  }
  if (has_extra) peers.push_back(group[me + p2]);  // release the extra
  return peers;
}

std::size_t pe_round_count(std::size_t n, std::size_t me) {
  if (n <= 1) return 0;
  const std::size_t p2 = floor_pow2(n);
  const std::size_t extras = n - p2;
  std::size_t rounds = 0;
  for (std::size_t bit = 1; bit < p2; bit <<= 1) ++rounds;
  if (me >= p2) return 2;
  return rounds + (me < extras ? 2 : 0);
}

GbTreeSlice gb_tree(std::span<const Endpoint> group, std::size_t me, std::size_t dimension) {
  const std::size_t n = group.size();
  if (n == 0) throw std::invalid_argument("empty barrier group");
  if (me >= n) throw std::invalid_argument("member index out of range");
  if (dimension < 1) throw std::invalid_argument("tree dimension must be >= 1");

  GbTreeSlice slice;
  if (me > 0) slice.parent = group[(me - 1) / dimension];
  for (std::size_t c = me * dimension + 1; c <= me * dimension + dimension && c < n; ++c) {
    slice.children.push_back(group[c]);
  }
  return slice;
}

std::size_t gb_tree_depth(std::size_t n, std::size_t dimension) {
  if (n <= 1) return 0;
  assert(dimension >= 1);
  // Depth of the deepest member (heap layout): follow parents from n-1.
  std::size_t depth = 0;
  std::size_t i = n - 1;
  while (i > 0) {
    i = (i - 1) / dimension;
    ++depth;
  }
  return depth;
}

}  // namespace nicbar::coll
