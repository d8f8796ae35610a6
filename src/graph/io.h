// Serialization of weighted graphs: text, binary edge lists, packed CSR.
//
// Three on-disk formats (docs/datasets.md has the full byte-level spec):
//
//  * "wgraph v1" — line-oriented text, unchanged since the seed:
//        wgraph <n> <m>
//        <u> <v> <w>        (m edge lines, 0-based ids, positive weights)
//        # comments and blank lines are ignored
//    Round-trips exactly; the parser validates ids, weights, duplicate
//    edges, and the declared counts. Convenient for goldens and hand
//    edits, hopeless past ~10^5 edges (parsing dominates).
//
//  * "bgraph v1" — binary edge list: a 48-byte little-endian header
//    (magic "bgraph1\0", version, flags, n, m, max_weight) followed by
//    m fixed 16-byte records (u32 u, u32 v, u64 w) with u < v < n and
//    w >= 1. Streamable in both directions: `BGraphReader` /
//    `BGraphWriter` never hold more than one IO buffer, so generators
//    can emit files larger than RAM and the CSR loader below builds
//    directly from the stream. Every malformed input is rejected with
//    the absolute byte offset of the offending header field or record.
//
//  * "bcsr v1" — packed CSR image (offsets + half-edge arrays) whose
//    payload layout matches the in-memory `CsrGraph` arrays exactly, so
//    `map_csr` can memory-map it read-only: a 10^6-node / 10^7-edge
//    graph "loads" in milliseconds and the pages are shared between
//    every process mapping the same file.
//
// The streaming entry points deliberately avoid materializing a
// `std::vector<Edge>` of the whole graph more than once (shuffle/sort
// need one in-memory copy; convert/summarize/CSR-build need none).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace qc {

namespace runtime {
class ThreadPool;  // runtime/thread_pool.h
}

// --- wgraph v1 (text) -------------------------------------------------

/// Serializes g to the wgraph v1 text format.
std::string to_edge_list(const WeightedGraph& g);

/// Parses the wgraph v1 format; throws ArgumentError on any malformed
/// content (wrong counts, bad ids, zero weights, duplicates).
WeightedGraph parse_edge_list(const std::string& text);

/// Convenience file wrappers (throw ArgumentError on IO failure).
void save_graph(const WeightedGraph& g, const std::string& path);
WeightedGraph load_graph(const std::string& path);

// --- bgraph v1 (binary edge list) ------------------------------------

/// Parsed bgraph header. `sorted` mirrors header flag bit 0: the
/// records are in strictly increasing (u, v) order (which also implies
/// duplicate-freedom — the writer tracks it, `sort_bgraph` guarantees
/// it, and the reader re-verifies it record by record).
struct BGraphInfo {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  Weight max_weight = 1;
  bool sorted = false;
};

inline constexpr std::size_t kBGraphHeaderBytes = 48;
inline constexpr std::size_t kBGraphRecordBytes = 16;

/// Streaming bgraph writer. The header is written up front with
/// placeholder counts and patched on `close()` (so m and max_weight
/// need not be known in advance — the generator suite streams into
/// one of these). Records are validated (u < v < n, w >= 1) and
/// buffered; sortedness is detected on the fly and recorded in the
/// header flags. A writer that is destroyed without `close()` leaves a
/// file whose header still says m = 0 while trailing bytes exist —
/// exactly the inconsistency `BGraphReader` rejects, so crashed writes
/// can never be mistaken for valid datasets.
class BGraphWriter {
 public:
  /// Opens `path` for writing and emits the placeholder header.
  /// Throws ArgumentError if the file cannot be created.
  BGraphWriter(const std::string& path, std::uint64_t n);
  ~BGraphWriter();
  BGraphWriter(const BGraphWriter&) = delete;
  BGraphWriter& operator=(const BGraphWriter&) = delete;

  /// Appends one canonical edge record. Throws ArgumentError unless
  /// u < v < n and w >= 1.
  void add(NodeId u, NodeId v, Weight w);

  std::uint64_t node_count() const { return n_; }
  std::uint64_t edges_written() const { return m_; }

  /// Flushes, patches the header (m, max_weight, sorted flag), and
  /// closes the file. Idempotent; returns the final header.
  BGraphInfo close();

 private:
  void flush_buffer();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t n_ = 0;
  std::uint64_t m_ = 0;
  Weight max_weight_ = 1;
  bool sorted_ = true;
  bool closed_ = false;
  std::uint64_t last_key_ = 0;  ///< (u << 32) | v of the previous record
  std::vector<unsigned char> buf_;
};

/// Streaming bgraph reader. Validates the header and the total file
/// size on open (so truncated files and overflowing edge counts are
/// rejected before any record is handed out), then validates each
/// record as it is produced. All errors are ArgumentError carrying the
/// absolute byte offset of the problem.
class BGraphReader {
 public:
  explicit BGraphReader(const std::string& path);
  ~BGraphReader();
  BGraphReader(const BGraphReader&) = delete;
  BGraphReader& operator=(const BGraphReader&) = delete;

  const BGraphInfo& info() const { return info_; }

  /// Produces the next record in file order; returns false once all m
  /// records have been consumed. Throws ArgumentError on malformed
  /// records (u >= v, v >= n, w = 0, order violation under the sorted
  /// flag) or short reads, naming the byte offset.
  bool next(Edge& e);

  /// Rewinds to the first record (the two-pass CSR build below reads
  /// the stream twice).
  void rewind();

  /// Positions the stream at record `index` (0 <= index <= m), so
  /// sharded consumers can read contiguous record ranges in parallel,
  /// each through its own reader. The sorted-order check restarts at
  /// the seek target: the first record produced after a mid-file seek
  /// is not compared against its (unseen) predecessor — callers that
  /// shard a sorted file re-check the shard-boundary order themselves
  /// (csr_from_bgraph does).
  void seek_record(std::uint64_t index);

  std::uint64_t records_read() const { return read_; }

 private:
  void refill();

  std::string path_;
  std::FILE* file_ = nullptr;
  BGraphInfo info_;
  std::uint64_t read_ = 0;     ///< records consumed so far
  std::uint64_t last_key_ = 0; ///< order check when info_.sorted
  std::uint64_t order_anchor_ = 0;  ///< first record after the last seek
  std::vector<unsigned char> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
};

/// Writes g's canonical edge list as bgraph v1. Returns the header.
BGraphInfo write_bgraph(const WeightedGraph& g, const std::string& path);

/// Loads a bgraph file into a WeightedGraph via the streaming reader:
/// one pass counts degrees (adjacency rows are reserved exactly), one
/// pass places — no intermediate adjacency-list churn. Duplicate edges
/// are only detected when the sorted flag is set (adjacent equality);
/// run `sort_bgraph` first for untrusted inputs. Throws ArgumentError
/// when n exceeds the NodeId range.
WeightedGraph load_bgraph(const std::string& path);

/// Streams a wgraph v1 text file into a bgraph v1 file without ever
/// materializing the graph (edges are canonicalized u < v on the fly).
/// Duplicate detection is deferred to `sort_bgraph`, exactly like
/// load_bgraph. Returns the written header.
BGraphInfo convert_text_to_bgraph(const std::string& text_path,
                                  const std::string& bgraph_path);

/// Streams a bgraph v1 file out as wgraph v1 text.
void convert_bgraph_to_text(const std::string& bgraph_path,
                            const std::string& text_path);

/// Default in-memory budget for the out-of-core shuffle/sort paths
/// below: 256 MiB of record storage (the CLI's `--mem-budget` knob).
inline constexpr std::uint64_t kDefaultMemBudgetBytes =
    std::uint64_t{256} << 20;

/// Rewrites a bgraph file with its records in a seed-deterministic
/// random order. Inputs whose record vector fits `mem_budget_bytes`
/// (0 = kDefaultMemBudgetBytes) are shuffled in memory (one
/// Fisher-Yates pass); larger inputs run out of core as a seeded
/// bucket scatter — each record is dealt to one of B temp bucket
/// files by a hash of (seed, record index), then each bucket is
/// shuffled in memory with its own derived seed and appended — so
/// peak memory stays bounded by the budget regardless of edge count.
/// Either path is a pure function of (input bytes, seed, budget);
/// the two paths produce different (but individually deterministic)
/// permutations. Temp buckets live in `out_path + ".spill/"` and are
/// always removed, including on error paths.
BGraphInfo shuffle_bgraph(const std::string& in_path,
                          const std::string& out_path, std::uint64_t seed,
                          std::uint64_t mem_budget_bytes = 0);

/// Rewrites a bgraph file with its records sorted by (u, v), setting
/// the sorted header flag. Throws ArgumentError on duplicate edges —
/// this is the designated full-dedup validation pass for inputs of
/// unknown provenance. Inputs whose record vector fits
/// `mem_budget_bytes` (0 = kDefaultMemBudgetBytes) sort in memory, by
/// a radix sort when a scratch copy of the records fits as well;
/// larger inputs spill sorted runs of at most one budget each to
/// `out_path + ".spill/"` and stream a loser-tree K-way merge into
/// the output, rejecting adjacent-equal keys during the merge — the
/// same dedup semantics, and **byte-identical output** to the
/// in-memory path (both emit the unique sorted record sequence
/// through BGraphWriter). Spill runs are unlinked on every exit path,
/// including a validation failure mid-merge; a failed merge also
/// removes the partially written output.
BGraphInfo sort_bgraph(const std::string& in_path,
                       const std::string& out_path,
                       std::uint64_t mem_budget_bytes = 0);

/// One streaming pass of dataset statistics. `degree_hist_log2[b]`
/// counts nodes whose degree d satisfies 2^b <= d < 2^(b+1)
/// (`isolated` counts d = 0 separately).
struct BGraphSummary {
  BGraphInfo info;
  Weight min_weight = 1;
  std::uint64_t max_degree = 0;
  double avg_degree = 0.0;
  std::uint64_t isolated = 0;
  std::vector<std::uint64_t> degree_hist_log2;
};

BGraphSummary summarize_bgraph(const std::string& path);

/// Builds a CsrGraph straight from the binary stream in two passes
/// (count, place): peak memory is the finished CSR plus one degree
/// array and one IO buffer — no intermediate adjacency lists, no edge
/// vector. This is the million-node ingest path; bench_datasets records
/// its peak-RSS-to-raw-edge-bytes ratio.
///
/// With a pool, both passes shard over contiguous record ranges (each
/// shard reads through its own BGraphReader): the count pass fills
/// per-shard degree arrays reduced serially in shard order, the place
/// pass writes each shard's half-edges at cursor bases precomputed
/// from the per-shard degrees — every half-edge lands in exactly the
/// slot the serial build gives it, so the result is **byte-identical
/// at any worker count**. The shard count is additionally capped so
/// the per-shard arrays stay within half the raw edge bytes,
/// preserving the bench-gated peak-RSS < 3x bound.
CsrGraph csr_from_bgraph(const std::string& path,
                         runtime::ThreadPool* pool = nullptr);

// --- bcsr v1 (packed CSR image) --------------------------------------

/// Writes g's CSR arrays as a bcsr v1 file (deterministic bytes:
/// padding lanes are zeroed). Mappable with `map_csr`.
void write_csr(const CsrGraph& g, const std::string& path);

/// Loads a bcsr v1 file by copying its arrays into an owned CsrGraph.
CsrGraph read_csr(const std::string& path);

/// Memory-maps a bcsr v1 file read-only and wraps it as a CsrGraph
/// view: no copy, demand paging, pages shared across every process
/// mapping the file. The offsets array is always validated
/// (monotonicity + final count); `validate_edges` additionally scans
/// every half-edge for `to < n` / weight >= 1 — the safe default, one
/// sequential pass. Pass false for trusted caches to keep the mapping
/// fully lazy. The returned graph is read-only in the mapped sense:
/// `assign_reweighted` detaches to owned storage automatically.
CsrGraph map_csr(const std::string& path, bool validate_edges = true);

}  // namespace qc
