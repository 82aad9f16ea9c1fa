// EdgeList: a task's edge ids in insertion order, inline up to
// kInlineCapacity and on the heap past it. It manages raw memory, so the
// sanitizer job runs this suite explicitly.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/edge_list.h"

namespace daydream {
namespace {

constexpr int kInline = static_cast<int>(EdgeList::kInlineCapacity);

std::vector<TaskId> Ids(const EdgeList& list) { return {list.begin(), list.end()}; }

std::vector<TaskId> Iota(int n) {
  std::vector<TaskId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(10 + i);
  }
  return ids;
}

EdgeList ListOf(const std::vector<TaskId>& ids) {
  EdgeList list;
  for (TaskId id : ids) {
    list.push_back(id);
  }
  return list;
}

TEST(EdgeList, StaysInlineUpToItsCapacity) {
  const EdgeList list = ListOf(Iota(kInline));
  EXPECT_FALSE(list.spilled());
  EXPECT_EQ(list.capacity(), EdgeList::kInlineCapacity);
  EXPECT_EQ(list.HeapBytes(), 0u);
  EXPECT_EQ(Ids(list), Iota(kInline));
}

TEST(EdgeList, GrowsPastInlineCapacityAndCopiesBackIntoAnInlineList) {
  EdgeList list = ListOf(Iota(kInline));
  list.push_back(10 + kInline);
  ASSERT_TRUE(list.spilled());
  EXPECT_EQ(list.HeapBytes(), list.capacity() * sizeof(TaskId));
  for (int i = kInline + 1; i < 40; ++i) {
    list.push_back(10 + i);
  }
  EXPECT_EQ(Ids(list), Iota(40));

  // A copy of a long list spills to exactly its size.
  const EdgeList copy(list);
  EXPECT_TRUE(copy.spilled());
  EXPECT_EQ(copy.capacity(), 40u);
  EXPECT_EQ(Ids(copy), Iota(40));

  // Shrunk back to the inline capacity, the spilled list copies into an
  // inline one; the original keeps its heap storage and its ids.
  while (list.size() > EdgeList::kInlineCapacity) {
    list.erase(list.end() - 1);
  }
  const EdgeList small(list);
  EXPECT_FALSE(small.spilled());
  EXPECT_EQ(Ids(small), Iota(kInline));
  EXPECT_TRUE(list.spilled());
  EXPECT_EQ(Ids(list), Iota(kInline));

  // Copy-assignment in both directions: long into inline, short into spilled.
  EdgeList target = ListOf({1, 2});
  target = copy;
  EXPECT_EQ(Ids(target), Iota(40));
  target = small;
  EXPECT_EQ(Ids(target), Iota(kInline));
  EXPECT_TRUE(target.spilled());  // keeps the storage it already owns
}

TEST(EdgeList, MoveTakesTheIdsAndEmptiesTheSource) {
  EdgeList spilled = ListOf(Iota(9));
  const TaskId* storage = spilled.data();
  EdgeList moved(std::move(spilled));
  EXPECT_EQ(moved.data(), storage);  // the heap block changes owner, no copy
  EXPECT_EQ(Ids(moved), Iota(9));
  EXPECT_TRUE(spilled.empty());  // a moved-from list is empty and inline
  EXPECT_FALSE(spilled.spilled());
  spilled.push_back(7);  // the moved-from list is usable
  EXPECT_EQ(Ids(spilled), (std::vector<TaskId>{7}));

  EdgeList inline_list = ListOf({3, 1, 2});
  EdgeList target = ListOf(Iota(12));
  target = std::move(inline_list);  // frees the target's heap block
  EXPECT_FALSE(target.spilled());
  EXPECT_EQ(Ids(target), (std::vector<TaskId>{3, 1, 2}));
  EXPECT_TRUE(inline_list.empty());

  target = std::move(moved);
  EXPECT_EQ(Ids(target), Iota(9));
  EXPECT_EQ(target.data(), storage);
}

TEST(EdgeList, SelfAssignmentKeepsTheIds) {
  for (int n : {3, 11}) {
    EdgeList list = ListOf(Iota(n));
    EdgeList& alias = list;
    list = alias;
    EXPECT_EQ(Ids(list), Iota(n));
    list = std::move(alias);
    EXPECT_EQ(Ids(list), Iota(n));
  }
}

TEST(EdgeList, EraseAtFrontMiddleAndBackKeepsOrder) {
  for (int n : {kInline, 3 * kInline}) {
    SCOPED_TRACE(testing::Message() << n << " ids");
    std::vector<TaskId> want = Iota(n);
    EdgeList list = ListOf(want);
    list.erase(list.begin());
    want.erase(want.begin());
    EXPECT_EQ(Ids(list), want);
    list.erase(list.begin() + 1);
    want.erase(want.begin() + 1);
    EXPECT_EQ(Ids(list), want);
    list.erase(list.end() - 1);
    want.erase(want.end() - 1);
    EXPECT_EQ(Ids(list), want);
    while (!list.empty()) {
      list.erase(list.begin());
    }
    list.push_back(42);
    EXPECT_EQ(Ids(list), (std::vector<TaskId>{42}));
  }
}

}  // namespace
}  // namespace daydream
