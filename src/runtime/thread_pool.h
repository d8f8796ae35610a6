// Fork/join thread pool for the library's data-parallel loops.
//
// The pool does one thing: `parallel_for(pool, count, fn)` runs
// fn(0..count-1) on the pool's threads and on the calling thread, which
// claims indices like any worker and returns once every index has run.
// `ThreadPool(k)` therefore starts k - 1 threads: the caller is the k-th
// worker, and a one-worker pool starts none. Because a caller always
// finishes its own job, calls may nest on the same pool and may come
// from several threads at once.
//
// Determinism contract: parallelism never touches randomness. Seeds for
// parallel work are derived per *task index* with `derive_seed`, never
// from thread ids or scheduling order, so a sweep is bit-reproducible
// at any worker count (asserted by tests/test_runtime.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/error.h"

namespace qc::runtime {

/// Derives the RNG seed for task `task_index` of a batch started from
/// `base_seed`. Stateless splitmix64-style mixing: changing either input
/// changes the output avalanche-style, and task i's seed does not depend
/// on which thread runs it or when.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// Fixed-size fork/join pool; see `parallel_for`.
class ThreadPool {
 public:
  /// `workers == 0` sizes the pool to `std::thread::hardware_concurrency()`
  /// (at least 1). Starts `workers - 1` threads.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The worker count, the calling thread included.
  unsigned worker_count() const;

 private:
  friend void parallel_for(ThreadPool& pool, std::size_t count,
                           const std::function<void(std::size_t)>& fn);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs `fn(0), fn(1), ..., fn(count-1)` on the pool's threads and the
/// calling thread, and returns once all have run. If any invocation
/// throws, the other indices still run and the first captured exception
/// is rethrown here. `fn` may itself call parallel_for on the same pool.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// As above; a null pool runs every index on the calling thread.
void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// How many chunks a loop over `items` independent items cuts: one on a
/// null or one-worker pool, so the serial path is a single chunk, and
/// otherwise `min(items, 4 * worker_count())`.
std::size_t chunk_count(const ThreadPool* pool, std::size_t items);

/// Splits `[0, prefix.size() - 1)` into at most `max_chunks` contiguous
/// ranges of balanced weight. `prefix` is an inclusive prefix sum over
/// the per-item weights (`prefix[0] == 0`, `prefix[i]` = weight of items
/// `[0, i)`), so chunk boundaries fall where the cumulative weight
/// crosses multiples of `total / chunks` — a prefix-sum cut, not a
/// greedy packing. Writes `chunks + 1` boundaries into `out`
/// (`out[c] <= out[c+1]`, first 0, last = item count); every chunk is
/// non-empty unless there are no items at all. A zero total falls back
/// to an even split by index. Deterministic in its inputs — boundaries
/// never depend on pool state or scheduling, which is what lets callers
/// with a byte-identical-output contract (the CONGEST simulator's
/// sharded merge, the kernel drivers) chunk by weight.
void balanced_ranges(std::span<const std::uint64_t> prefix,
                     std::size_t max_chunks, std::vector<std::size_t>& out);

/// Allocating convenience overload of the above.
std::vector<std::size_t> balanced_ranges(std::span<const std::uint64_t> prefix,
                                         std::size_t max_chunks);

/// Runs `fn(c, bounds[c], bounds[c+1])` on the pool for every non-empty
/// range described by `bounds` (as produced by `balanced_ranges`) and
/// blocks until all complete. Exceptions propagate as in parallel_for.
void parallel_for_ranges(
    ThreadPool& pool, std::span<const std::size_t> bounds,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Order-preserving parallel map: `out[i] = fn(items[i], i)`. The result
/// vector is indexed by input position regardless of execution order, so
/// downstream aggregation is deterministic at any worker count.
template <typename In, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<In>& items, Fn&& fn)
    -> std::vector<decltype(fn(items[std::size_t{0}], std::size_t{0}))> {
  using Out = decltype(fn(items[std::size_t{0}], std::size_t{0}));
  std::vector<std::optional<Out>> slots(items.size());
  parallel_for(pool, items.size(),
               [&](std::size_t i) { slots[i].emplace(fn(items[i], i)); });
  std::vector<Out> out;
  out.reserve(items.size());
  for (auto& s : slots) {
    QC_CHECK(s.has_value(), "parallel_map slot left empty");
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace qc::runtime
