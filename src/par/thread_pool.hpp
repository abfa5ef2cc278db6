// Work-stealing-free thread pool and chunked parallel-for.
//
// The execution layer for the sharded pipeline (DESIGN.md §10). A fixed set
// of workers pulls tasks FIFO from a single queue — no stealing, no
// per-worker deques — because determinism never comes from scheduling here:
// callers write shard results into per-shard slots and merge them in shard
// order on the coordinating thread. The pool only guarantees that every task
// of a batch ran and that its writes are visible when the batch barrier
// returns (the barrier's mutex establishes the happens-before edge).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

namespace certchain::par {

/// Resolves a requested worker count: 0 means "whatever the hardware says"
/// (at least 1); anything else is taken literally.
std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs every task and blocks until all of them finished. Tasks may run on
  /// any worker, or on the calling thread, which claims tasks alongside the
  /// workers instead of waiting idle: a worker slow to wake delays nothing.
  /// If tasks threw, the exception of the lowest task index is rethrown
  /// after the batch drained (so a failure never leaves tasks running
  /// against destroyed caller state). Must not be called from inside one of
  /// the pool's own tasks.
  void run_batch(std::vector<std::function<void()>> tasks);

  /// Runs `produce(k)` for every k in [0, count) on the pool and
  /// `consume(k)` on the calling thread in order k = 0, 1, ..., each as soon
  /// as produce(k) has finished — a pipeline whose ordered, single-threaded
  /// tail overlaps the parallel work. All but one worker produce, so the
  /// pipeline keeps size() threads busy; while the next product is not
  /// ready, the calling thread produces too. Blocks until every produce finished
  /// and every consume ran. If produce(k) threw, consumes stop before k and
  /// the exception of the lowest such k is rethrown; an exception from a
  /// consume is rethrown too. Either way only after every produce finished.
  /// Must not be called from inside one of the pool's own tasks.
  void run_ordered(std::size_t count,
                   const std::function<void(std::size_t)>& produce,
                   const std::function<void(std::size_t)>& consume);

  /// Enqueues one task without waiting for it — the service-layer shape
  /// (svc::Server submits its long-running request-worker loops this way).
  /// The task must not throw; an escaping exception would terminate the
  /// worker thread's std::function call and the process. The destructor
  /// still drains the queue before joining, so every submitted task runs.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Splits [0, total) into exactly `chunks` contiguous index ranges — chunk k
/// is [begin_k, end_k) with begin_0 = 0, end_{chunks-1} = total, sizes as
/// even as integer division allows — and runs `body(chunk, begin, end)` for
/// every chunk, including empty ones (so per-chunk result slots stay aligned
/// with chunk indices). With a null pool or a single chunk the body runs
/// inline on the calling thread, in chunk order; otherwise chunks run as one
/// pool batch. Blocks until every chunk completed; rethrows the first
/// chunk's exception (by chunk index).
void parallel_for_chunks(
    ThreadPool* pool, std::size_t total, std::size_t chunks,
    const std::function<void(std::size_t chunk, std::size_t begin,
                             std::size_t end)>& body);

}  // namespace certchain::par
