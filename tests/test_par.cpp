// Unit tests for the execution layer under the pooled engine (DESIGN.md
// §10): thread resolution, the batch-barrier pool contract (every task
// runs, writes are visible after the barrier, lowest-index exception wins,
// the caller claims tasks too), the ordered pipeline, and the exact chunk
// geometry of parallel_for_chunks.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/thread_pool.hpp"

namespace certchain::par {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareAndIsAtLeastOne) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(6), 6u);
}

TEST(ThreadPool, RunsEveryTaskAndWritesAreVisibleAfterTheBarrier) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);

  constexpr std::size_t kTasks = 64;
  std::vector<int> slots(kTasks, 0);  // plain ints: the barrier must fence
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  pool.run_batch(std::move(tasks));

  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1) << "task " << i;
  }
}

TEST(ThreadPool, SurvivesBackToBackBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back([&total] { ++total; });
    pool.run_batch(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, RethrowsTheLowestIndexException) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("task 1 failed"); });
  tasks.push_back([] { throw std::runtime_error("task 2 failed"); });
  std::atomic<bool> last_ran{false};
  tasks.push_back([&last_ran] { last_ran = true; });

  try {
    pool.run_batch(std::move(tasks));
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 1 failed");
  }
  // The barrier drains the whole batch before rethrowing — the failure must
  // not leave later tasks unscheduled or racing against unwound stack state.
  EXPECT_TRUE(last_ran.load());
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  pool.run_batch({});  // must not hang on the barrier
}

TEST(ParallelForChunks, ChunkGeometryIsExactAndCoversEveryIndex) {
  ThreadPool pool(3);
  for (const std::size_t total : {0u, 1u, 7u, 8u, 100u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 8u, 13u}) {
      std::vector<std::pair<std::size_t, std::size_t>> ranges(
          chunks, {std::size_t{1}, std::size_t{0}});
      std::atomic<std::size_t> calls{0};
      parallel_for_chunks(&pool, total, chunks,
                          [&](std::size_t chunk, std::size_t begin,
                              std::size_t end) {
                            ranges[chunk] = {begin, end};
                            ++calls;
                          });
      ASSERT_EQ(calls.load(), chunks) << total << "/" << chunks;
      // Contiguous cover of [0, total), in chunk-index order, empty chunks
      // included, sizes within one of each other.
      std::size_t cursor = 0;
      const std::size_t lo = total / chunks;
      for (std::size_t k = 0; k < chunks; ++k) {
        EXPECT_EQ(ranges[k].first, cursor) << total << "/" << chunks;
        EXPECT_GE(ranges[k].second, ranges[k].first);
        const std::size_t size = ranges[k].second - ranges[k].first;
        EXPECT_GE(size, lo) << total << "/" << chunks;
        EXPECT_LE(size, lo + 1) << total << "/" << chunks;
        cursor = ranges[k].second;
      }
      EXPECT_EQ(cursor, total) << total << "/" << chunks;
    }
  }
}

TEST(ParallelForChunks, NullPoolAndSingleChunkRunInlineInOrder)  {
  // With no pool the body must run on the calling thread, chunk 0 first —
  // observable via an order log no synchronization protects.
  std::vector<std::size_t> order;
  parallel_for_chunks(nullptr, 10, 4,
                      [&order](std::size_t chunk, std::size_t, std::size_t) {
                        order.push_back(chunk);
                      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  ThreadPool pool(4);
  order.clear();
  parallel_for_chunks(&pool, 10, 1,
                      [&order](std::size_t chunk, std::size_t begin,
                               std::size_t end) {
                        order.push_back(chunk);
                        EXPECT_EQ(begin, 0u);
                        EXPECT_EQ(end, 10u);
                      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0}));
}

TEST(ParallelForChunks, RethrowsByChunkIndex) {
  ThreadPool pool(4);
  try {
    parallel_for_chunks(&pool, 8, 4,
                        [](std::size_t chunk, std::size_t, std::size_t) {
                          if (chunk >= 1) {
                            throw std::runtime_error("chunk " +
                                                     std::to_string(chunk));
                          }
                        });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk 1");
  }
}

TEST(ThreadPool, BatchFinishesWhileEveryWorkerIsBusy) {
  // The calling thread claims tasks too, so a batch never waits on a worker
  // that cannot pick it up.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable released;
  bool release = false;
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      released.wait(lock, [&] { return release; });
    });
  }
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks(6, [&ran] { ++ran; });
  pool.run_batch(std::move(tasks));
  EXPECT_EQ(ran.load(), 6);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  released.notify_all();
}

TEST(ThreadPool, OrderedPipelineConsumesInOrderOnTheCallingThread) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 64;
  std::vector<int> products(kCount, 0);  // plain ints: the pipeline fences
  std::vector<std::size_t> consumed;
  const std::thread::id caller = std::this_thread::get_id();
  bool consumed_elsewhere = false;
  pool.run_ordered(
      kCount,
      [&products](std::size_t k) { products[k] = static_cast<int>(k) * 3; },
      [&](std::size_t k) {
        EXPECT_EQ(products[k], static_cast<int>(k) * 3) << k;
        consumed.push_back(k);
        consumed_elsewhere |= std::this_thread::get_id() != caller;
      });
  std::vector<std::size_t> want(kCount);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(consumed, want);
  EXPECT_FALSE(consumed_elsewhere);
  pool.run_ordered(0, [](std::size_t) { FAIL(); }, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, OrderedPipelineStopsAtTheFirstFailedProduct) {
  ThreadPool pool(3);
  std::atomic<int> produced{0};
  std::vector<std::size_t> consumed;
  try {
    pool.run_ordered(
        10,
        [&produced](std::size_t k) {
          ++produced;
          if (k == 4 || k == 7) throw std::runtime_error("product " + std::to_string(k));
        },
        [&consumed](std::size_t k) { consumed.push_back(k); });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "product 4");
  }
  EXPECT_EQ(produced.load(), 10);  // every product ran before the rethrow
  EXPECT_EQ(consumed, (std::vector<std::size_t>{0, 1, 2, 3}));

  try {
    pool.run_ordered(
        5, [](std::size_t) {},
        [](std::size_t k) {
          if (k == 2) throw std::runtime_error("consume 2");
        });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "consume 2");
  }
}

}  // namespace
}  // namespace certchain::par
