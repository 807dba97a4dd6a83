// A small persistent thread pool for batched fan-out work (parallel rollout
// collection). Workers are started once and reused, so per-iteration dispatch costs
// a couple of condition-variable signals instead of thread creation.
//
// Determinism contract
// --------------------
// The pool only decides WHEN and WHERE tasks run, never WHAT they compute. For a
// parallel computation to be reproducible (and identical to running the same tasks
// sequentially), callers must ensure:
//  1. Each task owns all of its mutable state — in this codebase, a cloned model,
//     its own Env, and its own Rng stream. Tasks must not share mutable state or
//     synchronize with one another.
//  2. Every per-task Rng stream is seeded ON THE CALLER THREAD, in task-index
//     order, BEFORE dispatch (e.g. `rngs[i] = Rng(master.NextU64())`). Seeding
//     inside the task would make the draw order depend on scheduling.
//  3. Task i writes only to slot i of the result vector.
// Under this contract ParallelFor(n, fn) produces bit-identical results for any
// thread count, including the serial fallback (pool size 1), regardless of OS
// scheduling. PpoTrainer::CollectSourcesParallel and the offline trainer follow it.
#ifndef MOCC_SRC_COMMON_THREAD_POOL_H_
#define MOCC_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mocc {

class ThreadPool {
 public:
  // Starts a pool that can run `num_threads` tasks concurrently (the calling
  // thread participates, so num_threads - 1 workers are spawned). num_threads < 1
  // is clamped to 1 (pure serial execution, no workers).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Maximum number of tasks that run concurrently (workers + caller).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0), ..., fn(n-1) across the pool and blocks until all have finished.
  // Indices are claimed dynamically (an atomic counter), so per-task load imbalance
  // is absorbed. The calling thread executes tasks too. Concurrent ParallelFor
  // calls from different threads are serialized internally. Exceptions thrown by
  // `fn` are not caught — tasks must not throw.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  // Process-wide pool sized to the hardware concurrency. Created on first use.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex run_mu_;  // serializes ParallelFor calls

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;  // current job; null = retired
  int n_ = 0;
  int completed_ = 0;
  int active_ = 0;  // workers currently holding a reference to the job
  uint64_t epoch_ = 0;
  bool stop_ = false;
  std::atomic<int> next_{0};
};

}  // namespace mocc

#endif  // MOCC_SRC_COMMON_THREAD_POOL_H_
