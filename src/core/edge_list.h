// A task's dependency-edge list (docs/graph.md).
//
// The ids are kept in insertion order: parents()/children() expose it, and
// schedulers and the critical-path walk break ties by it. Up to
// kInlineCapacity ids live inside the object, in the 24 bytes a
// std::vector<TaskId> would take; only a longer list spills to the heap.
// Nearly every list in a profiled graph holds one or two ids, so copying a
// node (DependencyGraph::Clone) and destroying it allocate and free nothing
// for its edges.
#ifndef SRC_CORE_EDGE_LIST_H_
#define SRC_CORE_EDGE_LIST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/task.h"

namespace daydream {

class EdgeList {
 public:
  static constexpr uint32_t kInlineCapacity = 4;

  EdgeList() = default;
  EdgeList(const EdgeList& other) { CopyFrom(other); }
  // A moved-from list is empty and inline.
  EdgeList(EdgeList&& other) noexcept { StealFrom(other); }
  EdgeList& operator=(const EdgeList& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  EdgeList& operator=(EdgeList&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~EdgeList() { Release(); }

  const TaskId* data() const { return spilled() ? heap_ : inline_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  // True once the ids live on the heap (the list outgrew kInlineCapacity).
  bool spilled() const { return capacity_ > kInlineCapacity; }
  // Heap storage this list owns; inline storage is part of sizeof(EdgeList).
  size_t HeapBytes() const { return spilled() ? capacity_ * sizeof(TaskId) : 0; }

  const TaskId* begin() const { return data(); }
  const TaskId* end() const { return data() + size_; }
  TaskId operator[](size_t i) const { return data()[i]; }
  TaskId front() const { return data()[0]; }

  void push_back(TaskId id) {
    if (size_ == capacity_) {
      Grow();
    }
    mutable_data()[size_++] = id;
  }
  // Removes the id at `pos` (an iterator into this list), keeping the order
  // of the rest.
  void erase(const TaskId* pos) {
    TaskId* d = mutable_data();
    const size_t i = static_cast<size_t>(pos - d);
    std::copy(d + i + 1, d + size_, d + i);
    --size_;
  }

 private:
  TaskId* mutable_data() { return spilled() ? heap_ : inline_; }

  void CopyFrom(const EdgeList& other) {
    if (other.size_ > capacity_) {
      // Exact-size spill: a copy never carries the source's growth slack.
      TaskId* heap = new TaskId[other.size_];
      Release();
      heap_ = heap;
      capacity_ = other.size_;
    }
    std::copy(other.begin(), other.end(), mutable_data());
    size_ = other.size_;
  }

  void StealFrom(EdgeList& other) {
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::copy(other.inline_, other.inline_ + kInlineCapacity, inline_);
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  void Grow() {
    const uint32_t capacity = std::max<uint32_t>(2 * capacity_, 2 * kInlineCapacity);
    TaskId* heap = new TaskId[capacity];
    std::copy(begin(), end(), heap);
    Release();
    heap_ = heap;
    capacity_ = capacity;
  }

  // Frees spilled storage and switches back to inline storage; size_ is left
  // to the caller.
  void Release() {
    if (spilled()) {
      delete[] heap_;
    }
    capacity_ = kInlineCapacity;
  }

  union {
    TaskId inline_[kInlineCapacity] = {};
    TaskId* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
};

static_assert(sizeof(EdgeList) == sizeof(std::vector<TaskId>),
              "inline edge storage must not make a node larger");

// An owning copy of an id list, for callers that mutate the graph while they
// walk what was a node's edge list (a span into the node does not survive
// that), and for comparisons against std::vector.
inline std::vector<TaskId> ToVector(std::span<const TaskId> ids) {
  return {ids.begin(), ids.end()};
}

}  // namespace daydream

#endif  // SRC_CORE_EDGE_LIST_H_
