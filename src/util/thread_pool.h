// Fixed-size worker pool used to parallelize per-node similarity updates in
// the SimRank engines. Deliberately minimal: submit closures, or run a
// chunked loop and wait for its chunks.
#ifndef SIMRANKPP_UTIL_THREAD_POOL_H_
#define SIMRANKPP_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace simrankpp {

/// \brief Resolves a requested thread count to an effective one:
/// 0 selects std::thread::hardware_concurrency() (minimum 1).
size_t ResolveThreadCount(size_t requested);

/// \brief Fixed pool of worker threads consuming a FIFO task queue.
///
/// Tasks must not throw (the library is exception-free on hot paths).
///
/// `ParallelFor` / `ParallelForChunked` are the barrier primitives the
/// iterative engines use between SimRank iterations. Each call tracks its
/// own chunks with a private completion latch — not global pool quiescence
/// — so concurrent calls from different threads never observe each other,
/// and the submitting thread claims and runs chunks of its own batch
/// instead of blocking. By the time the submitter waits on the latch every
/// chunk is claimed by some actively running thread, so a nested call from
/// inside a pool task cannot deadlock on the queue it was popped from.
class ThreadPool {
 public:
  /// \param num_threads 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  /// \brief Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task.
  void Submit(std::function<void()> task);

  /// \brief Partitions [0, count) into roughly even chunks and runs
  /// `fn(begin, end)` on the pool, blocking until all chunks finish.
  /// Safe to call concurrently from several threads and from inside a
  /// pool task (the submitting thread runs chunks while it waits).
  ///
  /// `max_participants` caps how many threads (including the caller) work
  /// on this batch; 0 means no cap. It lets callers that were asked for a
  /// specific parallelism (SimRankOptions::num_threads) borrow a wider
  /// shared pool without exceeding their budget.
  void ParallelFor(size_t count, const std::function<void(size_t, size_t)>& fn,
                   size_t max_participants = 0);

  /// \brief Like ParallelFor but with a caller-chosen chunk count:
  /// runs `fn(chunk_index, begin, end)` for each of the `num_chunks`
  /// contiguous chunks of [0, count). Because the partition depends only
  /// on (count, num_chunks) — never on the pool size or on
  /// `max_participants` — callers can shard work into per-chunk buffers
  /// and merge them in chunk order for results that are identical for any
  /// thread count. With one chunk, or with `max_participants` 1, every
  /// chunk runs on the caller in chunk order and nothing is submitted.
  void ParallelForChunked(
      size_t count, size_t num_chunks,
      const std::function<void(size_t, size_t, size_t)>& fn,
      size_t max_participants = 0);

  size_t num_threads() const { return threads_.size(); }

  /// \brief How many threads can work on one batch capped at
  /// `max_participants` (0 = no cap): the caller plus at most every
  /// worker, never more than the cap.
  size_t Participants(size_t max_participants) const;

 private:
  // One ParallelFor* call: chunks are claimed via `next`, completion is
  // tracked by a private latch (`done` under `mu`). Heap-allocated and
  // shared with helper tasks so a helper popped after the batch finished
  // still sees a live (exhausted) batch.
  struct Batch {
    // Set once before any helper is submitted, read-only afterwards.
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t count = 0;
    size_t chunk_size = 0;
    size_t num_chunks = 0;
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar done_cv;
    size_t done SRPP_GUARDED_BY(mu) = 0;
  };

  // Claims and runs one chunk; false when the batch is exhausted.
  static bool RunOneChunk(Batch& batch);

  void WorkerLoop();

  // Immutable after the constructor returns (workers never touch it).
  std::vector<std::thread> threads_;
  Mutex mu_;
  std::queue<std::function<void()>> queue_ SRPP_GUARDED_BY(mu_);
  CondVar task_available_;
  bool shutdown_ SRPP_GUARDED_BY(mu_) = false;
};

/// \brief The process-wide shared pool, sized to hardware concurrency and
/// constructed on first use. Engines and the serving layer borrow this
/// pool (with a `max_participants` cap where a caller was asked for a
/// specific `num_threads`; a cap of 1 runs on the caller alone) instead
/// of constructing one per Run, so a service computing several engines
/// and answering batched lookups at the same time keeps one fixed set of
/// worker threads. Safe to use from any thread; the per-batch latches in
/// ParallelFor* keep concurrent callers from observing each other.
ThreadPool& SharedThreadPool();

}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_THREAD_POOL_H_
