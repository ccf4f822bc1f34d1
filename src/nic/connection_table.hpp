// Sparse per-peer connection storage.
//
// The NIC used to keep `vector<unique_ptr<Connection>>` indexed by remote
// node id and resized to the largest peer ever contacted — at 4096 nodes
// that is 4096 pointers per NIC (128 MB of pointer array alone across the
// cluster) even though a barrier member only ever talks to O(log N) peers.
// This table stores connections in a stable slab in allocation order with
// a sorted flat index over remote ids: memory is O(peers actually
// contacted), a lookup is a binary search over a handful of contiguous
// entries (no hashing on the per-packet path), references stay valid for
// the NIC's lifetime (firmware coroutines hold `Connection&` across
// suspensions), and iteration is by ascending remote id so crash/restart
// replay order matches the old dense scan exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "net/packet.hpp"
#include "nic/connection.hpp"

namespace nicbar::nic {

class ConnectionTable {
 public:
  using NodeId = net::NodeId;

  /// The connection to `remote`, allocating it on first contact.
  Connection& get_or_create(NodeId remote) {
    auto it = lower_bound(remote);
    if (it == index_.end() || it->remote != remote) {
      slab_.emplace_back();
      it = index_.insert(it, Entry{remote, &slab_.back()});
    }
    return *it->conn;
  }

  /// The connection to `remote`, or nullptr if never contacted.
  [[nodiscard]] Connection* find(NodeId remote) {
    const auto it = lower_bound(remote);
    return it != index_.end() && it->remote == remote ? it->conn : nullptr;
  }
  [[nodiscard]] const Connection* find(NodeId remote) const {
    return const_cast<ConnectionTable*>(this)->find(remote);
  }

  /// Applies `fn(remote, connection)` to every connection allocated when
  /// the call starts, in ascending remote-id order (deterministic regardless
  /// of contact order). `fn` may contact new peers: it walks a snapshot.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::vector<Entry> snapshot = index_;
    for (const Entry& e : snapshot) fn(e.remote, *e.conn);
  }

  [[nodiscard]] std::size_t allocated() const { return slab_.size(); }

 private:
  struct Entry {
    NodeId remote;
    Connection* conn;  // into slab_
  };

  std::vector<Entry>::iterator lower_bound(NodeId remote) {
    return std::lower_bound(index_.begin(), index_.end(), remote,
                            [](const Entry& e, NodeId r) { return e.remote < r; });
  }

  std::deque<Connection> slab_;  // deque: stable addresses under growth
  std::vector<Entry> index_;     // sorted by remote id
};

}  // namespace nicbar::nic
