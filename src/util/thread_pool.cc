#include "util/thread_pool.h"

#include <algorithm>

namespace simrankpp {

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = ResolveThreadCount(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
  }
  task_available_.NotifyOne();
}

namespace {

// The one chunk-partition definition: clamps the requested chunk count,
// sizes chunks evenly, and re-derives the count so no trailing chunk is
// empty (e.g. count=5, num_chunks=4 gives chunk_size=2 and only 3
// nonempty chunks).
struct ChunkPartition {
  size_t chunk_size = 0;
  size_t num_chunks = 0;
};

ChunkPartition MakePartition(size_t count, size_t requested_chunks) {
  ChunkPartition partition;
  requested_chunks = std::clamp<size_t>(requested_chunks, 1, count);
  partition.chunk_size = (count + requested_chunks - 1) / requested_chunks;
  partition.num_chunks =
      (count + partition.chunk_size - 1) / partition.chunk_size;
  return partition;
}

}  // namespace

size_t ThreadPool::Participants(size_t max_participants) const {
  size_t participants = threads_.size() + 1;
  if (max_participants > 0) {
    participants = std::min(participants, max_participants);
  }
  return participants;
}

bool ThreadPool::RunOneChunk(Batch& batch) {
  size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
  if (index >= batch.num_chunks) return false;
  size_t begin = index * batch.chunk_size;
  size_t end = std::min(begin + batch.chunk_size, batch.count);
  (*batch.fn)(index, begin, end);
  {
    MutexLock lock(&batch.mu);
    if (++batch.done == batch.num_chunks) batch.done_cv.NotifyAll();
  }
  return true;
}

void ThreadPool::ParallelForChunked(
    size_t count, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& fn,
    size_t max_participants) {
  if (count == 0) return;
  ChunkPartition partition = MakePartition(count, num_chunks);
  // The submitting thread is a participant too, so a batch of N chunks
  // admits at most N-1 helpers, and a cap of N at most N-1.
  size_t helpers =
      std::min(partition.num_chunks, Participants(max_participants)) - 1;
  if (helpers == 0) {
    // One chunk, or a cap of one: the caller runs the batch alone, in
    // chunk order, with no batch state and no queue traffic.
    for (size_t chunk = 0; chunk < partition.num_chunks; ++chunk) {
      size_t begin = chunk * partition.chunk_size;
      fn(chunk, begin, std::min(begin + partition.chunk_size, count));
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;  // outlives the batch: we block below until done
  batch->count = count;
  batch->chunk_size = partition.chunk_size;
  batch->num_chunks = partition.num_chunks;

  // Each helper runs chunks until the batch is drained; one popped after
  // the last chunk was claimed exits immediately.
  for (size_t i = 0; i < helpers; ++i) {
    Submit([batch] {
      while (RunOneChunk(*batch)) {
      }
    });
  }
  // The submitting thread works instead of blocking. Once this loop exits,
  // every chunk has been claimed by a thread that is actively running it,
  // so the wait below always makes progress — including when this thread
  // is itself a pool worker (nested call) and every other worker is busy.
  while (RunOneChunk(*batch)) {
  }
  MutexLock lock(&batch->mu);
  while (batch->done != batch->num_chunks) batch->done_cv.Wait(batch->mu);
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t max_participants) {
  if (count == 0) return;
  std::function<void(size_t, size_t, size_t)> chunk_fn =
      [&fn](size_t, size_t begin, size_t end) { fn(begin, end); };
  // Chunk by the number of threads that can actually participate (the
  // caller counts as one), so a capped batch on a wide shared pool does
  // not pay per-chunk dispatch for parallelism it is not allowed to use.
  ParallelForChunked(count, Participants(max_participants) * 4, chunk_fn,
                     max_participants);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) task_available_.Wait(mu_);
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& SharedThreadPool() {
  // Constructed on first use, torn down at exit (the destructor drains the
  // queue and joins the workers). Sized to hardware concurrency; callers
  // that need less parallelism pass a max_participants cap instead of
  // building a narrower pool.
  static ThreadPool pool(0);
  return pool;
}

}  // namespace simrankpp
