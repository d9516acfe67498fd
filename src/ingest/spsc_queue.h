#ifndef COMMSIG_INGEST_SPSC_QUEUE_H_
#define COMMSIG_INGEST_SPSC_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace commsig::ingest {

/// Bounded single-producer/single-consumer queue connecting two pipeline
/// stages, with blocking back-pressure: a full queue stalls the producer.
///
/// Items flow at batch granularity (a framed chunk or a decoded record
/// batch, thousands of records each), so a Mutex/CondVar ring is the right
/// tradeoff: the lock is taken a few thousand times per second, far below
/// contention territory, and in exchange the queue is trivially correct
/// under the thread-safety analysis and TSan. A lock-free ring would save
/// nanoseconds per *batch* while giving up both.
///
/// Stall counters record every time a stage had to sleep (producer: queue
/// full; consumer: queue empty). They are the pipeline's built-in
/// bottleneck profile — a hot parse stage shows up as producer stalls on
/// the framer and consumer stalls on the merge — and are exported as
/// ingest/producer_stalls and ingest/consumer_stalls.
template <typename T>
class BoundedSpscQueue {
 public:
  explicit BoundedSpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.resize(capacity_);
  }

  BoundedSpscQueue(const BoundedSpscQueue&) = delete;
  BoundedSpscQueue& operator=(const BoundedSpscQueue&) = delete;

  /// Blocks until space is available, then enqueues. Returns false (and
  /// drops `item`) if the queue was closed before space appeared.
  bool Push(T item) COMMSIG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (size_ == capacity_ && !closed_) {
      producer_stalls_.fetch_add(1, std::memory_order_relaxed);
      not_full_.Wait(mu_, [this]() COMMSIG_REQUIRES(mu_) {
        return size_ < capacity_ || closed_;
      });
    }
    if (closed_) return false;
    ring_[(head_ + size_) % capacity_] = std::move(item);
    ++size_;
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND drained.
  /// Every item pushed before Close() is still delivered.
  bool Pop(T& out) COMMSIG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (size_ == 0 && !closed_) {
      consumer_stalls_.fetch_add(1, std::memory_order_relaxed);
      not_empty_.Wait(
          mu_, [this]() COMMSIG_REQUIRES(mu_) { return size_ > 0 || closed_; });
    }
    if (size_ == 0) return false;  // closed and drained
    out = std::move(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
    --size_;
    not_full_.NotifyOne();
    return true;
  }

  /// Marks the queue closed and wakes both sides. Pushes fail from here on;
  /// pops drain the remaining items then return false. Idempotent.
  void Close() COMMSIG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const COMMSIG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  /// Racy size snapshot for stats endpoints; exact under the lock.
  size_t ApproxSize() const COMMSIG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return size_;
  }

  size_t capacity() const { return capacity_; }

  /// Times the producer blocked on a full queue / the consumer on an empty
  /// one. Monotone; readable from any thread.
  uint64_t producer_stalls() const {
    return producer_stalls_.load(std::memory_order_relaxed);
  }
  uint64_t consumer_stalls() const {
    return consumer_stalls_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> ring_ COMMSIG_GUARDED_BY(mu_);
  size_t head_ COMMSIG_GUARDED_BY(mu_) = 0;
  size_t size_ COMMSIG_GUARDED_BY(mu_) = 0;
  bool closed_ COMMSIG_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> producer_stalls_{0};
  std::atomic<uint64_t> consumer_stalls_{0};
};

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_SPSC_QUEUE_H_
