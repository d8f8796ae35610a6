#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace qc::runtime {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One parallel_for call: the caller's function and count, the next
/// unclaimed index and the first exception an index threw.
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t n)
      : fn(f), count(n) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t count;
  std::atomic<std::size_t> next{0};
  /// Pool threads still running one of this job's indices; guarded by
  /// the pool's mutex, so the caller can tell when none does.
  unsigned holders = 0;
  std::mutex error_mutex;
  std::exception_ptr error;

  /// Claims and runs indices until none is left.
  void run() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }

  void rethrow_first_error() const {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Two mixing rounds with the index folded in between: a collision would
  // need splitmix64 outputs to collide, which adjacent indices cannot.
  return splitmix64(splitmix64(base_seed) ^
                    (task_index * 0xd1342543de82ef95ULL));
}

struct ThreadPool::Impl {
  explicit Impl(unsigned workers)
      : workers_(workers != 0
                     ? workers
                     : std::max(1u, std::thread::hardware_concurrency())) {
    threads_.reserve(workers_ - 1);
    for (unsigned t = 1; t < workers_; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  unsigned worker_count() const { return workers_; }

  void parallel_for(Job& job) {
    if (job.count <= 1 || threads_.empty()) {
      job.run();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&job);
    }
    const std::size_t helpers = std::min(job.count - 1, threads_.size());
    for (std::size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
    job.run();
    // Every index is claimed: close the job to late arrivals, then wait
    // for the threads still running one of its indices.
    std::unique_lock<std::mutex> lock(mutex_);
    close(job);
    done_cv_.wait(lock, [&] { return job.holders == 0; });
  }

 private:
  void close(Job& job) { std::erase(open_, &job); }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (stop_) return;
      // Attach, under the lock, to the job the predicate found: while
      // holders > 0 its caller cannot return and destroy it. Newest
      // first: a nested job is on its caller's critical path.
      Job& job = *open_.back();
      ++job.holders;
      lock.unlock();
      job.run();
      lock.lock();
      close(job);  // no index left: no thread should attach to it
      if (--job.holders == 0) done_cv_.notify_all();
    }
  }

  const unsigned workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< a job opened, or stop_
  std::condition_variable done_cv_;  ///< a job lost its last holder
  std::vector<Job*> open_;           ///< jobs that may have indices left
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< last: they use the members above
};

ThreadPool::ThreadPool(unsigned workers)
    : impl_(std::make_unique<Impl>(workers)) {}

ThreadPool::~ThreadPool() = default;

unsigned ThreadPool::worker_count() const { return impl_->worker_count(); }

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  Job job(fn, count);
  pool.impl_->parallel_for(job);
  job.rethrow_first_error();
}

void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, count, fn);
    return;
  }
  Job job(fn, count);
  job.run();
  job.rethrow_first_error();
}

std::size_t chunk_count(const ThreadPool* pool, std::size_t items) {
  if (pool == nullptr || pool->worker_count() <= 1) return 1;
  return std::min(items, std::size_t{pool->worker_count()} * 4);
}

void balanced_ranges(std::span<const std::uint64_t> prefix,
                     std::size_t max_chunks, std::vector<std::size_t>& out) {
  QC_REQUIRE(!prefix.empty() && prefix.front() == 0,
             "prefix must start with a leading 0");
  const std::size_t count = prefix.size() - 1;
  out.clear();
  out.push_back(0);
  if (count == 0) {
    out.push_back(0);
    return;
  }
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(max_chunks, count));
  const std::uint64_t total = prefix.back();
  for (std::size_t c = 1; c < chunks; ++c) {
    std::size_t cut;
    if (total == 0) {
      cut = count * c / chunks;  // weightless items: even split by index
    } else {
      // First index whose cumulative weight reaches c/chunks of the
      // total — the prefix-sum cut. floor(total*c/chunks) computed
      // without overflow: total = q*chunks + r, so the product splits
      // into an exact q*c term plus r*c/chunks with r, c < chunks.
      const std::uint64_t target =
          (total / chunks) * c + (total % chunks) * c / chunks;
      cut = static_cast<std::size_t>(
          std::lower_bound(prefix.begin() + 1, prefix.end(), target) -
          prefix.begin());
    }
    // Clamp so every chunk keeps at least one item: a single huge item
    // cannot be split, and trailing zero-weight items must not starve
    // the remaining chunks.
    cut = std::max(cut, out.back() + 1);
    cut = std::min(cut, count - (chunks - c));
    out.push_back(cut);
  }
  out.push_back(count);
}

std::vector<std::size_t> balanced_ranges(std::span<const std::uint64_t> prefix,
                                         std::size_t max_chunks) {
  std::vector<std::size_t> out;
  balanced_ranges(prefix, max_chunks, out);
  return out;
}

void parallel_for_ranges(
    ThreadPool& pool, std::span<const std::size_t> bounds,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  QC_REQUIRE(!bounds.empty(), "bounds must hold at least one boundary");
  const std::size_t chunks = bounds.size() - 1;
  parallel_for(pool, chunks, [&](std::size_t c) {
    if (bounds[c] < bounds[c + 1]) fn(c, bounds[c], bounds[c + 1]);
  });
}

}  // namespace qc::runtime
