#pragma once
// Work-stealing task pool and run_chunks, the library's one parallel loop.
//
// Every fan-out -- campaign fault batches, fleet shards, OSTR subtrees --
// goes through run_chunks(), either inline (no pool), on a private pool
// sized by the caller's worker count, or on a shared pool where whole
// synthesis/campaign jobs AND their inner chunks share the same workers.
// Pool design (see DESIGN.md "Job scheduling"):
//
//   * every worker owns a deque: it pushes/pops its own subtasks at the
//     back (LIFO -- hot caches, bounded memory), idle workers steal from a
//     random victim's front (FIFO -- oldest, largest work first);
//   * top-level jobs enter through a shared injection queue (only
//     non-worker threads submit those), workers drain it before stealing;
//   * fork/join via TaskGroup: a job that sharded its campaign into chunk
//     subtasks wait()s by HELPING -- it executes its own deque (its chunks,
//     unless already stolen) and steals, so a waiting worker never idles
//     a core and nested parallelism cannot deadlock (chunks never block).
//
// The pool is oblivious to what tasks compute; determinism of campaign
// results is owned by the campaign layer (disjoint result slots per
// chunk) and by the orchestrator (ordered retirement), not by the
// scheduler.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace stc {

class TaskPool {
 public:
  struct Stats {
    std::size_t workers = 0;
    std::uint64_t tasks_executed = 0;  // jobs + chunks, across all workers
    std::uint64_t steals = 0;          // tasks taken from another worker
    double busy_seconds = 0.0;         // summed task-execution wall time
  };

  /// Spawn `workers` >= 1 worker threads, idle until work is submitted.
  explicit TaskPool(std::size_t workers);
  ~TaskPool();  // drains nothing: join after your groups have completed
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  /// Safe to call at any time, including while tasks execute (counters are
  /// atomic); a live read sees a consistent-enough snapshot for progress
  /// display, an after-wait() read sees exact totals.
  Stats stats() const;

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Fork/join scope. run() submits a task into the group; wait() blocks
  /// until every submitted task has finished, helping with this pool's
  /// work when called from a worker thread. Groups may nest (a job task
  /// opens a group for its campaign chunks). When wait() returns, no
  /// finishing worker still touches the Group, so a stack-allocated Group
  /// may be destroyed immediately. Tasks must not throw: an escaping
  /// exception terminates the process -- the orchestrator catches per-job
  /// errors inside its closures, and run_chunks wraps every chunk in an
  /// exception barrier that rethrows on the calling thread after the join.
  class Group {
   public:
    explicit Group(TaskPool& pool) : pool_(pool) {}
    ~Group() { wait(); }
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    void run(std::function<void()> fn);
    void wait();

   private:
    friend class TaskPool;
    TaskPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex mu_;
    std::condition_variable cv_;
  };

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  struct Worker;  // owns its deque and thread (defined in scheduler.cpp)

  void worker_loop(std::size_t self);
  bool pop_own(std::size_t self, Task& out);
  bool pop_injected(Task& out);
  bool steal(std::size_t self, Task& out);
  /// Find and execute one task as worker `self`; false when none found.
  bool run_one(std::size_t self);
  void execute(Task task, std::size_t self);
  static void finish(Group* g);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex inject_mu_;
  std::deque<Task> injected_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> ready_tasks_{0};  // queued, not yet picked up
  std::atomic<bool> stop_{false};
};

/// The library's one parallel loop: run fn(0..n-1), each exactly once,
/// and return when all have finished. pool == nullptr runs them inline, in
/// order. Otherwise chunks 1..n-1 become tasks of `pool` -- on the calling
/// worker's own deque when called from a pool task, where idle workers
/// steal them -- and the caller runs chunk 0, so it always contributes a
/// core. Exception barrier: a throwing chunk never unwinds a worker; the
/// first exception is parked, every other chunk still runs, and the
/// exception is rethrown on the caller once all chunks have finished.
void run_chunks(TaskPool* pool, std::size_t n,
                const std::function<void(std::size_t)>& fn);

/// The pool for a call that wants `threads` threads and has no shared
/// pool: none (run inline) for threads <= 1, else a private
/// TaskPool(threads - 1) -- run_chunks' caller is the last thread.
std::unique_ptr<TaskPool> make_private_pool(std::size_t threads);

/// The number of hardware threads, at least 1: the default width of the
/// drivers' --jobs flags and of FleetOptions::jobs = 0.
std::size_t hardware_threads();

}  // namespace stc
