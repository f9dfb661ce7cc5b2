// NodeArena: a preallocated slab of fixed-capacity nodes.
//
// The framework "preallocates private and public pools at system start"
// (§3.3); arenas are that preallocation. An arena owns its memory; pools and
// mboxes only link nodes, they never allocate.
#pragma once

#include <cstddef>
#include <memory>

#include "concurrent/node.hpp"

namespace ea::concurrent {

class NodeArena {
 public:
  // Creates `count` nodes each with `payload_capacity` bytes of payload.
  NodeArena(std::size_t count, std::size_t payload_capacity);

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  std::size_t count() const noexcept { return count_; }
  std::size_t payload_capacity() const noexcept { return payload_capacity_; }

  // Returns node `i` (0-based). Nodes remain owned by the arena.
  Node* node(std::size_t i) noexcept;

 private:
  std::size_t count_;
  std::size_t payload_capacity_;
  std::size_t stride_;
  std::size_t bytes_;
  std::unique_ptr<std::byte[]> storage_;
  std::byte* base_ = nullptr;
};

}  // namespace ea::concurrent
