#include "jobs/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

namespace stc {

struct TaskPool::Worker {
  std::mutex mu;
  std::deque<Task> dq;  // back = owner side, front = steal side
  std::thread th;
  // Counters are atomic (single writer: the owning worker) so stats()
  // may be called for live progress while tasks execute, not just after
  // a Group::wait() quiesced the pool.
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::uint64_t rng = 0;  // steal-victim xorshift state
};

namespace {
// Which pool (if any) the current thread works for. A thread serves at
// most one pool; the orchestrator creates one pool per sweep.
thread_local const TaskPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;
// Nesting depth of execute(): a job that helps while waiting for its
// chunks re-enters execute(), and only the outermost frame may charge
// busy time (otherwise helped work double-counts and utilization reads
// above 1).
thread_local std::size_t tl_depth = 0;

std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
}  // namespace

TaskPool::TaskPool(std::size_t workers) {
  const std::size_t n = workers == 0 ? 1 : workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->rng = 0x9E3779B97F4A7C15ull * (i + 1) | 1;
    workers_[i]->th = std::thread([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
  for (auto& w : workers_) w->th.join();
}

bool TaskPool::on_worker_thread() const { return tl_pool == this; }

TaskPool::Stats TaskPool::stats() const {
  Stats s;
  s.workers = workers_.size();
  for (const auto& w : workers_) {
    s.tasks_executed += w->tasks.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.busy_seconds +=
        1e-9 * static_cast<double>(w->busy_ns.load(std::memory_order_relaxed));
  }
  return s;
}

bool TaskPool::pop_own(std::size_t self, Task& out) {
  Worker& w = *workers_[self];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.dq.empty()) return false;
  out = std::move(w.dq.back());
  w.dq.pop_back();
  ready_tasks_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool TaskPool::pop_injected(Task& out) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (injected_.empty()) return false;
  out = std::move(injected_.front());
  injected_.pop_front();
  ready_tasks_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool TaskPool::steal(std::size_t self, Task& out) {
  Worker& me = *workers_[self];
  const std::size_t n = workers_.size();
  if (n <= 1) return false;
  // Random starting victim, then scan everyone once.
  const std::size_t start = xorshift64(me.rng) % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == self) continue;
    Worker& victim = *workers_[v];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.dq.empty()) continue;
    out = std::move(victim.dq.front());
    victim.dq.pop_front();
    ready_tasks_.fetch_sub(1, std::memory_order_relaxed);
    me.steals.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void TaskPool::execute(Task task, std::size_t self) {
  Worker& w = *workers_[self];
  const bool outermost = tl_depth == 0;
  ++tl_depth;
  const auto t0 = std::chrono::steady_clock::now();
  task.fn();
  --tl_depth;
  if (outermost)
    w.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  w.tasks.fetch_add(1, std::memory_order_relaxed);
  finish(task.group);
}

void TaskPool::finish(Group* g) {
  if (g == nullptr) return;
  // The decrement happens inside the critical section: wait() makes its
  // final pending_ == 0 check while holding mu_, so by the time it can
  // observe zero under the lock, every finisher has already released mu_
  // and will never touch the Group again -- the waiter may destroy the
  // (stack-allocated) Group the moment wait() returns.
  std::lock_guard<std::mutex> lock(g->mu_);
  if (g->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    g->cv_.notify_all();
}

bool TaskPool::run_one(std::size_t self) {
  Task t;
  // Own subtasks first (LIFO: the job's freshest chunks, hot in cache),
  // then new top-level jobs, then steal from a random victim.
  if (pop_own(self, t) || pop_injected(t) || steal(self, t)) {
    execute(std::move(t), self);
    return true;
  }
  return false;
}

void TaskPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_index = self;
  while (true) {
    if (run_one(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    // Timed wait: a wakeup lost to the pre-lock window only costs one
    // timeout period, never liveness.
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(10), [this] {
      return stop_.load(std::memory_order_acquire) ||
             ready_tasks_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        ready_tasks_.load(std::memory_order_relaxed) == 0)
      break;
  }
  tl_pool = nullptr;
}

void TaskPool::Group::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  Task t{std::move(fn), this};
  if (pool_.on_worker_thread()) {
    Worker& w = *pool_.workers_[tl_index];
    std::lock_guard<std::mutex> lock(w.mu);
    w.dq.push_back(std::move(t));
  } else {
    std::lock_guard<std::mutex> lock(pool_.inject_mu_);
    pool_.injected_.push_back(std::move(t));
  }
  pool_.ready_tasks_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pool_.sleep_mu_);
    pool_.sleep_cv_.notify_one();
  }
}

void TaskPool::Group::wait() {
  if (pool_.on_worker_thread()) {
    // Help: drain our own deque (this group's chunks, unless stolen) and
    // steal; park briefly only when every remaining task of the group is
    // in flight on another worker. Never blocks while runnable work
    // exists, so nested fork/join cannot deadlock. The unlocked pending_
    // polls here are only a hint to keep helping -- the authoritative exit
    // check happens under mu_ below.
    const std::size_t self = tl_index;
    while (pending_.load(std::memory_order_acquire) > 0) {
      if (pool_.run_one(self)) continue;
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
        return pending_.load(std::memory_order_acquire) == 0;
      });
    }
  }
  // Exit decision under mu_, pairing with the locked decrement in
  // finish(): observing pending_ == 0 while holding the lock proves the
  // last finisher has left its critical section, so the caller may
  // destroy this Group (and its mutex/cv) immediately after we return.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return pending_.load(std::memory_order_acquire) == 0; });
}

void run_chunks(TaskPool* pool, std::size_t n,
                const std::function<void(std::size_t)>& fn) {
  // Exception barrier: pool tasks must not throw (an escaping exception
  // unwinds worker_loop and terminates the process), so every chunk runs
  // under a catch-all that parks the first exception; it is rethrown on
  // the calling thread after the join, where the per-job handler can see
  // it. Later chunks still run -- they write disjoint slots, and a
  // caller-level throw discards the whole result anyway.
  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto guarded = [&](std::size_t c) {
    try {
      fn(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  if (pool == nullptr || n <= 1) {
    for (std::size_t c = 0; c < n; ++c) guarded(c);
  } else {
    TaskPool::Group group(*pool);
    for (std::size_t c = 1; c < n; ++c) group.run([&guarded, c] { guarded(c); });
    guarded(0);
    group.wait();
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::unique_ptr<TaskPool> make_private_pool(std::size_t threads) {
  return threads > 1 ? std::make_unique<TaskPool>(threads - 1) : nullptr;
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace stc
