#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace certchain::par {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_threads(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::run_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;

  // Tasks are claimed by index, by the calling thread and by one helper per
  // other task queued on the pool: a worker slow to wake costs the batch
  // nothing, as the awake threads claim its share. A helper dequeued after
  // the batch finished claims nothing; the shared state keeps what it
  // touches alive.
  struct Batch {
    explicit Batch(std::vector<std::function<void()>> batch_tasks)
        : tasks(std::move(batch_tasks)),
          count(tasks.size()),
          errors(count),
          pending(count) {}

    void claim_all() {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        try {
          tasks[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (--pending == 0) done.notify_all();
      }
    }

    std::vector<std::function<void()>> tasks;
    const std::size_t count;
    std::vector<std::exception_ptr> errors;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending;
  };
  const auto batch = std::make_shared<Batch>(std::move(tasks));

  const std::size_t helpers = std::min(batch->count - 1, workers_.size());
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < helpers; ++i) {
        queue_.emplace_back([batch] { batch->claim_all(); });
      }
    }
    work_available_.notify_all();
  }
  batch->claim_all();

  std::unique_lock<std::mutex> batch_lock(batch->mutex);
  batch->done.wait(batch_lock, [&batch] { return batch->pending == 0; });
  for (std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::run_ordered(std::size_t count,
                             const std::function<void(std::size_t)>& produce,
                             const std::function<void(std::size_t)>& consume) {
  if (count == 0) return;

  // Products are claimed by index, as in run_batch; a helper dequeued after
  // the pipeline finished claims nothing, so it never touches `produce`.
  struct Pipeline {
    explicit Pipeline(std::size_t products, const std::function<void(std::size_t)>& body)
        : count(products), produce(&body), done(products, false), errors(products) {}

    /// Produces the next unclaimed index; false when none is left.
    bool produce_one() {
      const std::size_t k = next.fetch_add(1);
      if (k >= count) return false;
      std::exception_ptr error;
      try {
        (*produce)(k);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      errors[k] = std::move(error);
      done[k] = true;
      ++finished;
      changed.notify_all();
      return true;
    }

    const std::size_t count;
    const std::function<void(std::size_t)>* produce;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable changed;
    std::vector<bool> done;
    std::vector<std::exception_ptr> errors;
    std::size_t finished = 0;
  };
  const auto pipeline = std::make_shared<Pipeline>(count, produce);

  const std::size_t helpers = std::min(count, workers_.size() - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([pipeline] {
        while (pipeline->produce_one()) {
        }
      });
    }
  }
  work_available_.notify_all();

  std::exception_ptr failure;
  for (std::size_t k = 0; k < count && !failure; ++k) {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(pipeline->mutex);
        if (pipeline->done[k]) break;
      }
      if (pipeline->produce_one()) continue;
      std::unique_lock<std::mutex> lock(pipeline->mutex);
      pipeline->changed.wait(lock, [&] { return pipeline->done[k]; });
      break;
    }
    failure = pipeline->errors[k];
    if (failure) break;
    try {
      consume(k);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  while (pipeline->produce_one()) {
  }
  std::unique_lock<std::mutex> lock(pipeline->mutex);
  pipeline->changed.wait(lock, [&] { return pipeline->finished == count; });
  if (failure) std::rethrow_exception(failure);
}

void parallel_for_chunks(
    ThreadPool* pool, std::size_t total, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (chunks == 0) return;
  const auto chunk_begin = [total, chunks](std::size_t chunk) {
    return chunk * total / chunks;
  };
  if (pool == nullptr || chunks == 1) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      body(chunk, chunk_begin(chunk), chunk_begin(chunk + 1));
    }
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    tasks.emplace_back([&body, chunk, begin = chunk_begin(chunk),
                        end = chunk_begin(chunk + 1)] { body(chunk, begin, end); });
  }
  pool->run_batch(std::move(tasks));
}

}  // namespace certchain::par
