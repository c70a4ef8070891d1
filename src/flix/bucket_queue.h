// Monotone bucket queue (Dial's algorithm): a priority queue over small
// non-negative integer distances that keeps one FIFO per distance. Pop
// order is ascending distance, and first-in-first-out among equal
// distances — exactly the (distance, insertion sequence) order of a binary
// heap that breaks ties by a push counter, at O(1) per push and pop
// instead of O(log n), and without storing the distance or the sequence in
// the item.
//
// The queue is monotone: no push may be nearer than the last pop (checked
// by FLIX_DCHECK). Every distance still queued then lies in the window
// between the nearest and the farthest queued distance, and the buckets
// form a power-of-two ring over that window, which doubles when a push
// lands past its end. top() and top_distance() skip drained buckets; a
// later push may still land below the bucket they skipped ahead to (at or
// above the last pop), and the queue rewinds to it.
//
// Storage, bucket capacity included, is kept across clear(), so a
// long-lived queue stops allocating once warm.
#ifndef FLIX_FLIX_BUCKET_QUEUE_H_
#define FLIX_FLIX_BUCKET_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/dcheck.h"
#include "common/types.h"

namespace flix::core {

template <typename Item>
class BucketQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Queues `item` at `distance`, behind every item already queued there.
  // `distance` must be >= 0 and not below the last popped distance.
  void push(Distance distance, const Item& item) {
    FLIX_DCHECK(distance >= last_pop_, "bucket queue push below the last pop");
    Distance nearest = distance;
    Distance farthest = distance;
    if (size_ != 0) {  // else every bucket is drained: the window restarts
      nearest = std::min(nearest_, distance);
      farthest = std::max(farthest_, distance);
    }
    if (static_cast<size_t>(farthest - nearest) >= ring_.size()) {
      Grow(static_cast<size_t>(farthest - nearest) + 1);
    }
    nearest_ = nearest;  // rewinds when `distance` is below a skipped bucket
    farthest_ = farthest;
    Slot(distance).items.push_back(item);
    ++size_;
  }

  // The nearest queued distance and the first item queued at it. Both skip
  // ahead over drained buckets. Require !empty().
  Distance top_distance() {
    Front();
    return nearest_;
  }
  const Item& top() {
    Bucket& bucket = Front();
    return bucket.items[bucket.head];
  }

  // Removes top(). Requires !empty().
  void pop() {
    Bucket& bucket = Front();
    if (++bucket.head == bucket.items.size()) {
      bucket.items.clear();
      bucket.head = 0;
    }
    --size_;
    last_pop_ = nearest_;
  }

  // Drops every queued item and the last-pop bound; keeps all storage.
  void clear() {
    if (size_ != 0) {
      for (Bucket& bucket : ring_) {
        bucket.items.clear();
        bucket.head = 0;
      }
    }
    size_ = 0;
    nearest_ = farthest_ = last_pop_ = 0;
  }

 private:
  // One distance's FIFO: items before `head` were popped. A bucket is
  // emptied as soon as its last item pops.
  struct Bucket {
    std::vector<Item> items;
    size_t head = 0;
  };

  static constexpr size_t kMinRing = 16;

  Bucket& Slot(Distance distance) {
    return ring_[static_cast<size_t>(distance) & (ring_.size() - 1)];
  }

  // Advances nearest_ to the first bucket that still holds an item.
  Bucket& Front() {
    FLIX_DCHECK(size_ != 0, "bucket queue read while empty");
    while (true) {
      Bucket& bucket = Slot(nearest_);
      if (bucket.head != bucket.items.size()) return bucket;
      ++nearest_;
    }
  }

  // Resizes the ring to hold at least `width` consecutive distances. Each
  // old slot holds the one distance of the window [nearest_, nearest_ +
  // old size) that maps to it; it moves, storage and all, to that
  // distance's slot in the new ring.
  void Grow(size_t width) {
    size_t size = std::max(kMinRing, ring_.size() * 2);
    while (size < width) size *= 2;
    std::vector<Bucket> ring(size);
    const size_t old_mask = ring_.size() - 1;
    const size_t base = static_cast<size_t>(nearest_);
    for (size_t i = 0; i < ring_.size(); ++i) {
      const size_t distance = base + ((i - base) & old_mask);
      ring[distance & (size - 1)] = std::move(ring_[i]);
    }
    ring_.swap(ring);
  }

  std::vector<Bucket> ring_;
  size_t size_ = 0;
  Distance nearest_ = 0;   // no queued item is nearer
  Distance farthest_ = 0;  // no queued item is farther
  Distance last_pop_ = 0;
};

}  // namespace flix::core

#endif  // FLIX_FLIX_BUCKET_QUEUE_H_
