#include "flix/bucket_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace flix::core {
namespace {

// The reference: a binary heap keyed by (distance, push sequence).
class ReferenceQueue {
 public:
  void push(Distance distance, uint32_t item) {
    heap_.push({distance, seq_++, item});
  }
  bool empty() const { return heap_.empty(); }
  std::pair<Distance, uint32_t> pop() {
    const auto [distance, seq, item] = heap_.top();
    heap_.pop();
    return {distance, item};
  }

 private:
  using Entry = std::tuple<Distance, uint64_t, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  uint64_t seq_ = 0;
};

std::pair<Distance, uint32_t> Pop(BucketQueue<uint32_t>& queue) {
  const Distance distance = queue.top_distance();
  const uint32_t item = queue.top();
  queue.pop();
  return {distance, item};
}

// Drives both queues with one seeded random push/pop/peek sequence. Pushes
// stay at or above the last pop; `max_step` bounds how far past it they
// land, so small steps keep many items per bucket and large ones force the
// ring to grow and wrap.
void CheckAgainstReference(uint64_t seed, Distance max_step, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
               std::to_string(max_step));
  Rng rng(seed);
  BucketQueue<uint32_t> queue;
  ReferenceQueue reference;
  Distance last_pop = 0;
  uint32_t next_item = 0;
  for (int op = 0; op < ops; ++op) {
    const uint64_t roll = rng.Uniform(10);
    if (roll < 5 || queue.empty()) {
      const Distance distance =
          last_pop + static_cast<Distance>(rng.UniformRange(0, max_step));
      queue.push(distance, next_item);
      reference.push(distance, next_item);
      ++next_item;
    } else if (roll < 8) {
      const auto got = Pop(queue);
      ASSERT_EQ(got, reference.pop()) << "op " << op;
      last_pop = got.first;
    } else {
      // A peek may skip ahead over drained buckets; later pushes can still
      // land below where it stopped.
      queue.top_distance();
    }
    ASSERT_EQ(queue.empty(), reference.empty());
  }
  while (!reference.empty()) {
    ASSERT_FALSE(queue.empty());
    ASSERT_EQ(Pop(queue), reference.pop());
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BucketQueueTest, RandomSequencesPopInHeapOrder) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (const Distance max_step : {0, 1, 3, 12, 40, 300}) {
      CheckAgainstReference(seed, max_step, 4000);
    }
  }
}

TEST(BucketQueueTest, EqualDistancesPopFirstInFirstOut) {
  BucketQueue<uint32_t> queue;
  for (uint32_t i = 0; i < 50; ++i) queue.push(3, i);
  queue.push(1, 100);
  EXPECT_EQ(queue.size(), 51u);
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{1}, uint32_t{100}));
  for (uint32_t i = 0; i < 50; ++i) {
    // Items pushed at the distance being popped join its back.
    if (i == 10) queue.push(3, 200);
    EXPECT_EQ(Pop(queue), std::make_pair(Distance{3}, i));
  }
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{3}, uint32_t{200}));
  EXPECT_TRUE(queue.empty());
}

// top() and top_distance() step over drained buckets to the next queued
// item; a push below where they stopped (but not below the last pop) must
// come out first. Without the rewind the queue would pop 9 before 4.
TEST(BucketQueueTest, PushBelowSkippedAheadBucketRewinds) {
  BucketQueue<uint32_t> queue;
  queue.push(2, 1);
  queue.push(9, 2);
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{2}, uint32_t{1}));
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.top_distance(), 9);
  EXPECT_EQ(queue.top(), 2u);
  queue.push(4, 3);
  queue.push(2, 4);  // the last pop's own distance is still allowed
  EXPECT_EQ(queue.top_distance(), 2);
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{2}, uint32_t{4}));
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{4}, uint32_t{3}));
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{9}, uint32_t{2}));
  EXPECT_TRUE(queue.empty());
}

// Pushes far past the ring's end double it; the window has moved off 0 by
// then, so the old slots wrap and must land on their distances' new slots.
TEST(BucketQueueTest, RingGrowsAroundAWrappedWindow) {
  BucketQueue<uint32_t> queue;
  ReferenceQueue reference;
  const auto push = [&](Distance distance, uint32_t item) {
    queue.push(distance, item);
    reference.push(distance, item);
  };
  for (uint32_t i = 0; i < 13; ++i) push(static_cast<Distance>(i), i);
  for (int i = 0; i < 11; ++i) ASSERT_EQ(Pop(queue), reference.pop());
  // The window is now [11, 12]; fill past the initial ring's 16 slots.
  uint32_t item = 100;
  for (Distance d = 11; d < 30; ++d) push(d, item++);
  push(1000, item++);
  push(12, item++);
  push(500, item++);
  while (!reference.empty()) ASSERT_EQ(Pop(queue), reference.pop());
  EXPECT_TRUE(queue.empty());
}

// A query that stops early leaves items queued; clear() drops them and
// the last-pop bound, so the next query starts again at distance 0.
TEST(BucketQueueTest, ClearAfterEarlyExitStartsFresh) {
  BucketQueue<uint32_t> queue;
  for (uint32_t i = 0; i < 40; ++i) queue.push(static_cast<Distance>(i % 7), i);
  for (int i = 0; i < 5; ++i) queue.pop();
  queue.push(25, 99);
  queue.top_distance();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);

  queue.push(1, 7);
  queue.push(0, 8);
  queue.push(1, 9);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{0}, uint32_t{8}));
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{1}, uint32_t{7}));
  EXPECT_EQ(Pop(queue), std::make_pair(Distance{1}, uint32_t{9}));
  EXPECT_TRUE(queue.empty());
}

#ifdef FLIX_CHECKS
TEST(BucketQueueDeathTest, PushBelowTheLastPopTrips) {
  BucketQueue<uint32_t> queue;
  queue.push(5, 1);
  queue.push(8, 2);
  queue.pop();
  EXPECT_DEATH(queue.push(4, 3), "bucket queue push below the last pop");
}
#endif  // FLIX_CHECKS

}  // namespace
}  // namespace flix::core
