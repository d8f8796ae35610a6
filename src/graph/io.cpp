#include "graph/io.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <span>
#include <sstream>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "runtime/thread_pool.h"
#include "util/parse.h"
#include "util/rng.h"

namespace qc {

namespace {

// The binary formats are defined little-endian; every supported target
// is. The bcsr payload is additionally defined to match the in-memory
// array layout exactly, which is what makes mmap a zero-copy load.
static_assert(std::endian::native == std::endian::little,
              "binary graph formats require a little-endian target");
static_assert(sizeof(std::size_t) == 8,
              "64-bit offsets require a 64-bit target");
static_assert(sizeof(HalfEdge) == 16 && offsetof(HalfEdge, to) == 0 &&
                  offsetof(HalfEdge, weight) == 8,
              "bcsr payload layout must match HalfEdge");

constexpr unsigned char kBGraphMagic[8] = {'b', 'g', 'r', 'a',
                                           'p', 'h', '1', '\0'};
constexpr unsigned char kBcsrMagic[8] = {'b', 'c', 's', 'r',
                                         'q', 'c', '1', '\0'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kFlagSorted = 1;
constexpr std::size_t kIoBufRecords = 4096;  // 64 KiB per buffer

void put_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint64_t edge_key(NodeId u, NodeId v) {
  return (std::uint64_t{u} << 32) | v;
}

/// 48-byte header shared by both binary formats: magic(8) version(4)
/// flags(4) n(8) count(8) max_weight(8) reserved(8). `count` is m for
/// bgraph, the half-edge count (2m) for bcsr.
void encode_header(unsigned char* h, const unsigned char* magic,
                   std::uint32_t flags, std::uint64_t n, std::uint64_t count,
                   Weight max_weight) {
  std::memcpy(h, magic, 8);
  put_u32(h + 8, kFormatVersion);
  put_u32(h + 12, flags);
  put_u64(h + 16, n);
  put_u64(h + 24, count);
  put_u64(h + 32, max_weight);
  put_u64(h + 40, 0);
}

std::uint64_t file_size_of(std::FILE* f, const std::string& path) {
  const long cur = std::ftell(f);
  QC_REQUIRE(cur >= 0 && std::fseek(f, 0, SEEK_END) == 0,
             path + ": seek failed");
  const long end = std::ftell(f);
  QC_REQUIRE(end >= 0 && std::fseek(f, cur, SEEK_SET) == 0,
             path + ": seek failed");
  return static_cast<std::uint64_t>(end);
}

void write_all(std::FILE* f, const void* data, std::size_t bytes,
               const std::string& path) {
  QC_REQUIRE(std::fwrite(data, 1, bytes, f) == bytes,
             path + ": write failed");
}

// --- wgraph v1 (text) -------------------------------------------------

// Reads wgraph v1 text: the `wgraph <n> <m>` header, then one `u v w`
// edge per line; blank and '#' lines are skipped. Every number goes
// through the strict parser and every edge through the one weight
// rule, and each error names its line (after `source`, when given).
// Calls on_header(n) once, then on_edge(u, v, w) per edge.
template <typename OnHeader, typename OnEdge>
void read_wgraph_text(std::istream& in, const std::string& source,
                      OnHeader on_header, OnEdge on_edge) {
  const std::string prefix = source.empty() ? "" : source + ": ";
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t edges_seen = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::string where = prefix + "line " + std::to_string(line_no);
    std::istringstream ls(line);
    std::string tok[4];
    int count = 0;
    while (count < 4 && ls >> tok[count]) ++count;
    if (!have_header) {
      QC_REQUIRE(count == 3 && tok[0] == "wgraph",
                 where + ": expected 'wgraph <n> <m>' header");
      n = parse_unsigned<std::uint64_t>(where, tok[1]);
      m = parse_unsigned<std::uint64_t>(where, tok[2]);
      on_header(n);
      have_header = true;
      continue;
    }
    QC_REQUIRE(count >= 3, where + ": expected 'u v w'");
    QC_REQUIRE(count == 3, where + ": trailing tokens");
    const auto u = parse_unsigned<std::uint64_t>(where, tok[0]);
    const auto v = parse_unsigned<std::uint64_t>(where, tok[1]);
    const auto w = parse_unsigned<Weight>(where, tok[2]);
    QC_REQUIRE(u < n && v < n, where + ": node id out of range");
    QC_REQUIRE(u != v, where + ": self loop");
    require_edge_weight(w, where);
    on_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
    ++edges_seen;
  }
  QC_REQUIRE(have_header, prefix + "missing wgraph header");
  QC_REQUIRE(edges_seen == m, prefix + "edge count mismatch: header says " +
                                  std::to_string(m) + ", file has " +
                                  std::to_string(edges_seen));
}

}  // namespace

std::string to_edge_list(const WeightedGraph& g) {
  std::ostringstream os;
  os << "wgraph " << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
  return os.str();
}

WeightedGraph parse_edge_list(const std::string& text) {
  std::istringstream is(text);
  WeightedGraph g;
  read_wgraph_text(
      is, "",
      [&](std::uint64_t n) {
        QC_REQUIRE(n <= (std::uint64_t{1} << 31), "node count too large");
        g = WeightedGraph(static_cast<NodeId>(n));
      },
      [&](NodeId u, NodeId v, Weight w) { g.add_edge(u, v, w); });
  return g;
}

void save_graph(const WeightedGraph& g, const std::string& path) {
  std::ofstream out(path);
  QC_REQUIRE(out.good(), "cannot open for writing: " + path);
  out << to_edge_list(g);
  QC_REQUIRE(out.good(), "write failed: " + path);
}

WeightedGraph load_graph(const std::string& path) {
  std::ifstream in(path);
  QC_REQUIRE(in.good(), "cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_edge_list(buf.str());
}

// --- bgraph v1 writer -------------------------------------------------

BGraphWriter::BGraphWriter(const std::string& path, std::uint64_t n)
    : path_(path), n_(n) {
  QC_REQUIRE(n <= (std::uint64_t{1} << 32),
             path + ": node count " + std::to_string(n) +
                 " exceeds the 2^32 NodeId range");
  file_ = std::fopen(path.c_str(), "w+b");
  QC_REQUIRE(file_ != nullptr, "cannot open for writing: " + path);
  unsigned char h[kBGraphHeaderBytes];
  encode_header(h, kBGraphMagic, 0, n_, 0, 1);
  write_all(file_, h, sizeof h, path_);
  buf_.reserve(kIoBufRecords * kBGraphRecordBytes);
}

BGraphWriter::~BGraphWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void BGraphWriter::add(NodeId u, NodeId v, Weight w) {
  QC_REQUIRE(!closed_, path_ + ": writer already closed");
  QC_REQUIRE(u < v, path_ + ": record " + std::to_string(m_) +
                        ": edges must be canonical (u < v), got u=" +
                        std::to_string(u) + " v=" + std::to_string(v));
  QC_REQUIRE(std::uint64_t{v} < n_,
             path_ + ": record " + std::to_string(m_) + ": node id " +
                 std::to_string(v) + " out of range (n=" +
                 std::to_string(n_) + ")");
  if (!is_edge_weight(w)) {
    require_edge_weight(w, path_ + ": record " + std::to_string(m_));
  }
  const std::uint64_t key = edge_key(u, v);
  if (m_ > 0 && key <= last_key_) sorted_ = false;
  last_key_ = key;
  max_weight_ = std::max(max_weight_, w);
  unsigned char rec[kBGraphRecordBytes];
  put_u32(rec, u);
  put_u32(rec + 4, v);
  put_u64(rec + 8, w);
  buf_.insert(buf_.end(), rec, rec + sizeof rec);
  if (buf_.size() >= kIoBufRecords * kBGraphRecordBytes) flush_buffer();
  ++m_;
}

void BGraphWriter::flush_buffer() {
  if (!buf_.empty()) {
    write_all(file_, buf_.data(), buf_.size(), path_);
    buf_.clear();
  }
}

BGraphInfo BGraphWriter::close() {
  BGraphInfo info{n_, m_, max_weight_, sorted_};
  if (closed_) return info;
  flush_buffer();
  // Durability ordering: the payload must reach disk before the header
  // stops saying m = 0. A crash between the two then leaves the
  // placeholder header — which the reader rejects — instead of a
  // parseable-but-truncated file.
  QC_REQUIRE(std::fflush(file_) == 0, path_ + ": flush failed");
#if !defined(_WIN32)
  QC_REQUIRE(::fsync(::fileno(file_)) == 0, path_ + ": fsync failed");
#endif
  unsigned char h[kBGraphHeaderBytes];
  encode_header(h, kBGraphMagic, sorted_ ? kFlagSorted : 0, n_, m_,
                max_weight_);
  QC_REQUIRE(std::fseek(file_, 0, SEEK_SET) == 0, path_ + ": seek failed");
  write_all(file_, h, sizeof h, path_);
  QC_REQUIRE(std::fflush(file_) == 0, path_ + ": flush failed");
  std::fclose(file_);
  file_ = nullptr;
  closed_ = true;
  return info;
}

// --- bgraph v1 reader -------------------------------------------------

BGraphReader::BGraphReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  QC_REQUIRE(file_ != nullptr, "cannot open: " + path);
  const std::uint64_t size = file_size_of(file_, path_);
  QC_REQUIRE(size >= kBGraphHeaderBytes,
             path + ": truncated header — file is " + std::to_string(size) +
                 " bytes, a bgraph header needs " +
                 std::to_string(kBGraphHeaderBytes));
  unsigned char h[kBGraphHeaderBytes];
  QC_REQUIRE(std::fread(h, 1, sizeof h, file_) == sizeof h,
             path + ": header read failed");
  QC_REQUIRE(std::memcmp(h, kBGraphMagic, 8) == 0,
             path + ": bad magic at byte 0 (not a bgraph v1 file)");
  const std::uint32_t version = get_u32(h + 8);
  QC_REQUIRE(version == kFormatVersion,
             path + ": unsupported version " + std::to_string(version) +
                 " at byte 8 (expected " + std::to_string(kFormatVersion) +
                 ")");
  const std::uint32_t flags = get_u32(h + 12);
  QC_REQUIRE((flags & ~kFlagSorted) == 0,
             path + ": unknown flag bits at byte 12: " +
                 std::to_string(flags));
  info_.n = get_u64(h + 16);
  info_.m = get_u64(h + 24);
  info_.max_weight = get_u64(h + 32);
  info_.sorted = (flags & kFlagSorted) != 0;
  QC_REQUIRE(info_.n <= (std::uint64_t{1} << 32),
             path + ": node count " + std::to_string(info_.n) +
                 " at byte 16 exceeds the 2^32 NodeId range");
  require_edge_weight(info_.max_weight, path + ": max_weight at byte 32");
  // Overflow-safe size check: reject counts the file cannot possibly
  // hold before computing header + m * record.
  const std::uint64_t payload = size - kBGraphHeaderBytes;
  QC_REQUIRE(info_.m <= payload / kBGraphRecordBytes,
             path + ": edge count " + std::to_string(info_.m) +
                 " at byte 24 overflows the file — " + std::to_string(size) +
                 " bytes holds at most " +
                 std::to_string(payload / kBGraphRecordBytes) + " records");
  QC_REQUIRE(payload == info_.m * kBGraphRecordBytes,
             path + ": size mismatch — header says m=" +
                 std::to_string(info_.m) + " (" +
                 std::to_string(kBGraphHeaderBytes +
                                info_.m * kBGraphRecordBytes) +
                 " bytes), file is " + std::to_string(size) + " bytes");
  buf_.resize(kIoBufRecords * kBGraphRecordBytes);
}

BGraphReader::~BGraphReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void BGraphReader::rewind() { seek_record(0); }

void BGraphReader::seek_record(std::uint64_t index) {
  QC_REQUIRE(index <= info_.m, path_ + ": seek to record " +
                                   std::to_string(index) + " past m=" +
                                   std::to_string(info_.m));
  QC_REQUIRE(std::fseek(file_,
                        static_cast<long>(kBGraphHeaderBytes +
                                          index * kBGraphRecordBytes),
                        SEEK_SET) == 0,
             path_ + ": seek failed");
  read_ = index;
  last_key_ = 0;
  order_anchor_ = index;
  buf_pos_ = 0;
  buf_len_ = 0;
}

void BGraphReader::refill() {
  const std::uint64_t remaining = info_.m - read_;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining, kIoBufRecords) * kBGraphRecordBytes);
  const std::size_t got = std::fread(buf_.data(), 1, want, file_);
  QC_REQUIRE(got == want,
             path_ + ": short read at byte " +
                 std::to_string(kBGraphHeaderBytes +
                                read_ * kBGraphRecordBytes) +
                 " (wanted " + std::to_string(want) + " bytes, got " +
                 std::to_string(got) + ")");
  buf_pos_ = 0;
  buf_len_ = want;
}

bool BGraphReader::next(Edge& e) {
  if (read_ == info_.m) return false;
  if (buf_pos_ == buf_len_) refill();
  const unsigned char* rec = buf_.data() + buf_pos_;
  const std::uint64_t at = kBGraphHeaderBytes + read_ * kBGraphRecordBytes;
  const std::uint32_t u = get_u32(rec);
  const std::uint32_t v = get_u32(rec + 4);
  const std::uint64_t w = get_u64(rec + 8);
  QC_REQUIRE(u < v, path_ + ": record " + std::to_string(read_) +
                        " at byte " + std::to_string(at) +
                        ": not canonical (u=" + std::to_string(u) +
                        " >= v=" + std::to_string(v) + ")");
  QC_REQUIRE(std::uint64_t{v} < info_.n,
             path_ + ": record " + std::to_string(read_) + " at byte " +
                 std::to_string(at) + ": node id " + std::to_string(v) +
                 " out of range (n=" + std::to_string(info_.n) + ")");
  QC_REQUIRE(w >= 1, path_ + ": record " + std::to_string(read_) +
                         " at byte " + std::to_string(at) + ": zero weight");
  QC_REQUIRE(w <= info_.max_weight,
             path_ + ": record " + std::to_string(read_) + " at byte " +
                 std::to_string(at) + ": weight " + std::to_string(w) +
                 " exceeds the header max_weight " +
                 std::to_string(info_.max_weight));
  if (info_.sorted) {
    const std::uint64_t key = edge_key(u, v);
    QC_REQUIRE(read_ == order_anchor_ || key > last_key_,
               path_ + ": record " + std::to_string(read_) + " at byte " +
                   std::to_string(at) +
                   ": order violation under the sorted flag");
    last_key_ = key;
  }
  e = Edge{u, v, w};
  buf_pos_ += kBGraphRecordBytes;
  ++read_;
  return true;
}

// --- bgraph conversions ----------------------------------------------

BGraphInfo write_bgraph(const WeightedGraph& g, const std::string& path) {
  BGraphWriter out(path, g.node_count());
  for (const Edge& e : g.edges()) out.add(e.u, e.v, e.weight);
  return out.close();
}

WeightedGraph load_bgraph(const std::string& path) {
  BGraphReader in(path);
  QC_REQUIRE(in.info().n <= std::numeric_limits<NodeId>::max(),
             path + ": node count " + std::to_string(in.info().n) +
                 " too large for an in-memory WeightedGraph");
  std::vector<Edge> edges;
  edges.reserve(in.info().m);
  Edge e;
  while (in.next(e)) edges.push_back(e);
  return WeightedGraph::from_edges(static_cast<NodeId>(in.info().n),
                                   std::move(edges));
}

BGraphInfo convert_text_to_bgraph(const std::string& text_path,
                                  const std::string& bgraph_path) {
  std::ifstream in(text_path);
  QC_REQUIRE(in.good(), "cannot open: " + text_path);
  std::unique_ptr<BGraphWriter> out;
  read_wgraph_text(
      in, text_path,
      [&](std::uint64_t n) {
        out = std::make_unique<BGraphWriter>(bgraph_path, n);
      },
      [&](NodeId u, NodeId v, Weight w) {
        if (u > v) std::swap(u, v);
        out->add(u, v, w);
      });
  return out->close();
}

void convert_bgraph_to_text(const std::string& bgraph_path,
                            const std::string& text_path) {
  BGraphReader in(bgraph_path);
  std::ofstream out(text_path);
  QC_REQUIRE(out.good(), "cannot open for writing: " + text_path);
  out << "wgraph " << in.info().n << ' ' << in.info().m << '\n';
  Edge e;
  while (in.next(e)) {
    out << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
  QC_REQUIRE(out.good(), "write failed: " + text_path);
}

// --- out-of-core shuffle / sort machinery ----------------------------

namespace {

/// Stateless splitmix64 finalizer: bucket assignment and per-bucket
/// seed derivation for the external shuffle (same family as
/// runtime::derive_seed — a pure function of its inputs, never of
/// scheduling).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// RAII spill directory: created on construction, removed with all its
/// contents on destruction — the cleanup path for external-sort runs
/// and shuffle buckets, including a validation failure mid-merge.
class TempDirGuard {
 public:
  explicit TempDirGuard(std::string dir) : dir_(std::move(dir)) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // stale leftovers from a crash
    std::filesystem::create_directories(dir_, ec);
    QC_REQUIRE(!ec, "cannot create spill directory: " + dir_);
  }
  ~TempDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TempDirGuard(const TempDirGuard&) = delete;
  TempDirGuard& operator=(const TempDirGuard&) = delete;

  std::string file(std::size_t i) const {
    return dir_ + "/run" + std::to_string(i);
  }

 private:
  std::string dir_;
};

/// Buffered writer for headerless spill files (raw 16-byte records in
/// the bgraph wire layout). No fsync — spill files never outlive the
/// operation that wrote them.
class SpillWriter {
 public:
  explicit SpillWriter(std::string path) : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), "wb");
    QC_REQUIRE(file_ != nullptr, "cannot open for writing: " + path_);
    buf_.reserve(kIoBufRecords * kBGraphRecordBytes);
  }
  ~SpillWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  void add(const Edge& e) {
    unsigned char rec[kBGraphRecordBytes];
    put_u32(rec, e.u);
    put_u32(rec + 4, e.v);
    put_u64(rec + 8, e.weight);
    buf_.insert(buf_.end(), rec, rec + sizeof rec);
    ++records_;
    if (buf_.size() >= kIoBufRecords * kBGraphRecordBytes) flush();
  }

  std::uint64_t records() const { return records_; }

  void close() {
    if (file_ == nullptr) return;
    flush();
    QC_REQUIRE(std::fflush(file_) == 0, path_ + ": flush failed");
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  void flush() {
    if (!buf_.empty()) {
      write_all(file_, buf_.data(), buf_.size(), path_);
      buf_.clear();
    }
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t records_ = 0;
  std::vector<unsigned char> buf_;
};

/// Buffered reader over one spill file written by SpillWriter. Records
/// were validated on the way in (they came through BGraphReader), so
/// this is a plain decoder.
class SpillReader {
 public:
  SpillReader(std::string path, std::uint64_t records)
      : path_(std::move(path)), remaining_(records) {
    file_ = std::fopen(path_.c_str(), "rb");
    QC_REQUIRE(file_ != nullptr, "cannot open: " + path_);
    buf_.resize(kIoBufRecords * kBGraphRecordBytes);
  }
  ~SpillReader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  bool next(Edge& e) {
    if (remaining_ == 0) return false;
    if (pos_ == len_) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining_, kIoBufRecords) *
          kBGraphRecordBytes);
      QC_REQUIRE(std::fread(buf_.data(), 1, want, file_) == want,
                 path_ + ": short read in spill file");
      pos_ = 0;
      len_ = want;
    }
    const unsigned char* rec = buf_.data() + pos_;
    e = Edge{get_u32(rec), get_u32(rec + 4), get_u64(rec + 8)};
    pos_ += kBGraphRecordBytes;
    --remaining_;
    return true;
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t remaining_ = 0;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Loser tree over K sorted run cursors keyed by (u, v): popping the
/// global minimum replays only the leaf-to-root path (ceil(log2 K)
/// comparisons per record instead of K - 1). Internal nodes store the
/// loser of their subtree match; the overall winner sits outside the
/// tree. Runs that drain are treated as +inf keys and sink to losers,
/// so the merge ends when the winner itself is drained. Equal keys
/// (duplicate edges) surface on consecutive pops regardless of which
/// run holds them, which is what lets the caller keep the adjacent-
/// equality dedup check of the in-memory sort.
class LoserTree {
 public:
  explicit LoserTree(std::vector<std::unique_ptr<SpillReader>>* runs)
      : runs_(runs),
        k_(runs->size()),
        tree_(k_, kNone),
        cur_(k_),
        done_(k_, 0) {
    for (std::size_t i = 0; i < k_; ++i) {
      done_[i] = (*runs_)[i]->next(cur_[i]) ? 0 : 1;
    }
    for (std::size_t i = k_; i-- > 0;) adjust(i);
  }

  bool empty() const { return done_[winner_] != 0; }
  const Edge& value() const { return cur_[winner_]; }

  void pop() {
    done_[winner_] = (*runs_)[winner_]->next(cur_[winner_]) ? 0 : 1;
    adjust(winner_);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// True when run a's head beats run b's (strictly smaller key). The
  /// kNone sentinel is the classic -inf placeholder the tree is built
  /// with: it wins every match, so each constructor-time adjust()
  /// deposits its real leaf at the leaf's first unclaimed node and
  /// carries the sentinel the rest of the way without disturbing
  /// matches already played. A drained run is +inf: it loses to every
  /// live one.
  bool wins(std::size_t a, std::size_t b) const {
    if (a == kNone) return true;
    if (b == kNone) return false;
    if (done_[a] != 0) return false;
    if (done_[b] != 0) return true;
    return edge_key(cur_[a].u, cur_[a].v) < edge_key(cur_[b].u, cur_[b].v);
  }

  /// Replays the match path from run s's leaf to the root, leaving the
  /// loser at each node and the subtree winner in winner_.
  void adjust(std::size_t s) {
    for (std::size_t t = (s + k_) / 2; t > 0; t /= 2) {
      if (wins(tree_[t], s)) std::swap(s, tree_[t]);
    }
    winner_ = s;
  }

  std::vector<std::unique_ptr<SpillReader>>* runs_;
  std::size_t k_;
  std::vector<std::size_t> tree_;  ///< internal nodes 1..k-1: loser index
  std::vector<Edge> cur_;          ///< head record of each run
  std::vector<unsigned char> done_;
  std::size_t winner_ = kNone;
};

std::uint64_t resolve_budget(std::uint64_t mem_budget_bytes) {
  return mem_budget_bytes == 0 ? kDefaultMemBudgetBytes : mem_budget_bytes;
}

// The radix sort's scratch copy of the records, mapped from the kernel
// and unmapped when the sort ends. Through malloc, a second buffer as
// large as the input would return to the heap together with the
// records, and glibc trims a heap top that grows past twice its mmap
// threshold: a later allocation then faults in fresh pages that the
// one-copy sort left resident. (bench_datasets' external_sort child,
// forked after an in-memory sort of the same file, read 2.4-2.7 MiB of
// new RSS instead of 1.7.)
class EdgeScratch {
 public:
  explicit EdgeScratch(std::size_t count) : count_(count) {
    if (count_ == 0) return;
#if defined(_WIN32)
    data_ = new Edge[count_];
#else
    void* p = ::mmap(nullptr, count_ * sizeof(Edge), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<Edge*>(p);
#endif
  }
  ~EdgeScratch() {
    if (data_ == nullptr) return;
#if defined(_WIN32)
    delete[] data_;
#else
    ::munmap(data_, count_ * sizeof(Edge));
#endif
  }
  EdgeScratch(const EdgeScratch&) = delete;
  EdgeScratch& operator=(const EdgeScratch&) = delete;

  std::span<Edge> span() { return {data_, count_}; }

 private:
  Edge* data_ = nullptr;
  std::size_t count_;
};

// Sorts canonical records of an n-node graph by (u, v): an LSD radix
// sort on the compact key (u << b) | v, where b = bit_width(n - 1)
// bits hold any id, in 12-bit digits (three passes at n = 2^18). One
// counting pass fills every digit's histogram; a digit that all
// records share is skipped, and every other one scatters the records
// stably between `edges` and `scratch` (same size), so the sort needs
// 2·16·m bytes. Returns whichever of the two the last pass filled, in
// the unique ascending (u, v) order that std::sort and the external
// merge give.
std::span<const Edge> radix_sort_edges(std::span<Edge> edges,
                                       std::span<Edge> scratch,
                                       std::uint64_t n) {
  if (edges.size() < 2) return edges;
  constexpr unsigned kDigitBits = 12;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const unsigned id_bits = static_cast<unsigned>(std::bit_width(n - 1));
  const unsigned digits = (2 * id_bits + kDigitBits - 1) / kDigitBits;
  const auto key = [id_bits](const Edge& e) {
    return (std::uint64_t{e.u} << id_bits) | e.v;
  };
  const auto digit = [](std::uint64_t k, unsigned d) {
    return static_cast<std::size_t>(k >> (d * kDigitBits)) & (kBuckets - 1);
  };
  std::vector<std::size_t> count(digits * kBuckets, 0);
  for (const Edge& e : edges) {
    const std::uint64_t k = key(e);
    for (unsigned d = 0; d < digits; ++d) ++count[d * kBuckets + digit(k, d)];
  }
  for (unsigned d = 0; d < digits; ++d) {
    std::size_t* next = count.data() + d * kBuckets;
    if (next[digit(key(edges[0]), d)] == edges.size()) continue;
    std::size_t start = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      start += std::exchange(next[b], start);
    }
    for (const Edge& e : edges) scratch[next[digit(key(e), d)]++] = e;
    std::swap(edges, scratch);
  }
  return edges;
}

}  // namespace

BGraphInfo shuffle_bgraph(const std::string& in_path,
                          const std::string& out_path, std::uint64_t seed,
                          std::uint64_t mem_budget_bytes) {
  const std::uint64_t budget = resolve_budget(mem_budget_bytes);
  BGraphReader in(in_path);
  Edge e;
  if (in.info().m * sizeof(Edge) <= budget) {
    // Small-input fast path: one in-memory Fisher-Yates pass —
    // unchanged semantics (and bytes) from before budgets existed.
    std::vector<Edge> edges;
    edges.reserve(in.info().m);
    while (in.next(e)) edges.push_back(e);
    Rng rng(seed);
    rng.shuffle(edges);
    BGraphWriter out(out_path, in.info().n);
    for (const Edge& edge : edges) out.add(edge.u, edge.v, edge.weight);
    return out.close();
  }
  // Out-of-core: seeded bucket scatter, then one in-memory shuffle per
  // bucket. Bucket count targets half the budget per bucket so the
  // binomial spread around the mean stays comfortably inside it.
  const std::uint64_t total = in.info().m * sizeof(Edge);
  const std::uint64_t per_bucket = std::max<std::uint64_t>(budget / 2, 1);
  const std::size_t buckets = static_cast<std::size_t>(
      std::min<std::uint64_t>((total + per_bucket - 1) / per_bucket, 4096));
  TempDirGuard spill(out_path + ".spill");
  std::vector<std::unique_ptr<SpillWriter>> scatter;
  scatter.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    scatter.push_back(std::make_unique<SpillWriter>(spill.file(b)));
  }
  std::uint64_t index = 0;
  while (in.next(e)) {
    const std::size_t b =
        static_cast<std::size_t>(mix64(seed ^ mix64(index)) % buckets);
    scatter[b]->add(e);
    ++index;
  }
  BGraphWriter out(out_path, in.info().n);
  std::vector<Edge> bucket_edges;
  for (std::size_t b = 0; b < buckets; ++b) {
    scatter[b]->close();
    const std::uint64_t records = scatter[b]->records();
    bucket_edges.clear();
    bucket_edges.reserve(static_cast<std::size_t>(records));
    SpillReader r(spill.file(b), records);
    while (r.next(e)) bucket_edges.push_back(e);
    Rng rng(mix64(seed) ^ mix64(b + 1));
    rng.shuffle(bucket_edges);
    for (const Edge& edge : bucket_edges) out.add(edge.u, edge.v, edge.weight);
  }
  return out.close();
}

BGraphInfo sort_bgraph(const std::string& in_path,
                       const std::string& out_path,
                       std::uint64_t mem_budget_bytes) {
  const std::uint64_t budget = resolve_budget(mem_budget_bytes);
  BGraphReader in(in_path);
  Edge e;
  const auto by_key = [](const Edge& a, const Edge& b) {
    return edge_key(a.u, a.v) < edge_key(b.u, b.v);
  };
  if (in.info().m * sizeof(Edge) <= budget) {
    // In memory when the records fit the budget: radix-sorted when its
    // scratch copy fits as well, else std::sort-ed in place. The
    // external path below must stay byte-identical to both.
    std::vector<Edge> edges;
    edges.reserve(in.info().m);
    while (in.next(e)) edges.push_back(e);
    const bool radix = 2 * edges.size() * sizeof(Edge) <= budget;
    EdgeScratch scratch(radix ? edges.size() : 0);
    std::span<const Edge> sorted = edges;
    if (radix) {
      sorted = radix_sort_edges(edges, scratch.span(), in.info().n);
    } else {
      std::sort(edges.begin(), edges.end(), by_key);
    }
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      QC_REQUIRE(edge_key(sorted[i - 1].u, sorted[i - 1].v) !=
                     edge_key(sorted[i].u, sorted[i].v),
                 in_path + ": duplicate edge (" + std::to_string(sorted[i].u) +
                     ", " + std::to_string(sorted[i].v) + ")");
    }
    BGraphWriter out(out_path, in.info().n);
    for (const Edge& edge : sorted) out.add(edge.u, edge.v, edge.weight);
    return out.close();
  }
  // Out-of-core: spill sorted runs of at most one budget each, then
  // stream a loser-tree K-way merge into the output. The merged record
  // sequence is the unique ascending-key order — exactly what the
  // in-memory path writes — so the output bytes are identical.
  const std::uint64_t run_cap =
      std::max<std::uint64_t>(budget / sizeof(Edge), 1);
  TempDirGuard spill(out_path + ".spill");
  std::vector<std::uint64_t> run_records;
  std::vector<Edge> run;
  run.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(run_cap, in.info().m)));
  const auto flush_run = [&] {
    if (run.empty()) return;
    std::sort(run.begin(), run.end(), by_key);
    SpillWriter w(spill.file(run_records.size()));
    for (const Edge& r : run) w.add(r);
    w.close();
    run_records.push_back(run.size());
    run.clear();
  };
  while (in.next(e)) {
    run.push_back(e);
    if (run.size() >= run_cap) flush_run();
  }
  flush_run();
  run.shrink_to_fit();
  std::vector<std::unique_ptr<SpillReader>> runs;
  runs.reserve(run_records.size());
  for (std::size_t i = 0; i < run_records.size(); ++i) {
    runs.push_back(std::make_unique<SpillReader>(spill.file(i),
                                                 run_records[i]));
  }
  try {
    BGraphWriter out(out_path, in.info().n);
    LoserTree tree(&runs);
    bool have_prev = false;
    std::uint64_t prev_key = 0;
    while (!tree.empty()) {
      const Edge cur = tree.value();
      const std::uint64_t key = edge_key(cur.u, cur.v);
      QC_REQUIRE(!have_prev || key != prev_key,
                 in_path + ": duplicate edge (" + std::to_string(cur.u) +
                     ", " + std::to_string(cur.v) + ")");
      have_prev = true;
      prev_key = key;
      out.add(cur.u, cur.v, cur.weight);
      tree.pop();
    }
    return out.close();
  } catch (...) {
    // A failed merge leaves a placeholder-headered partial output
    // (unparseable by design); remove it rather than leave the
    // confusing husk. The spill guard unlinks the runs either way.
    std::error_code ec;
    std::filesystem::remove(out_path, ec);
    throw;
  }
}

BGraphSummary summarize_bgraph(const std::string& path) {
  BGraphReader in(path);
  BGraphSummary s;
  s.info = in.info();
  s.min_weight = in.info().m == 0 ? 1 : std::numeric_limits<Weight>::max();
  std::vector<std::uint32_t> degree(static_cast<std::size_t>(in.info().n), 0);
  Edge e;
  while (in.next(e)) {
    ++degree[e.u];
    ++degree[e.v];
    s.min_weight = std::min(s.min_weight, e.weight);
  }
  s.degree_hist_log2.assign(33, 0);
  for (const std::uint32_t d : degree) {
    if (d == 0) {
      ++s.isolated;
      continue;
    }
    s.max_degree = std::max<std::uint64_t>(s.max_degree, d);
    ++s.degree_hist_log2[std::bit_width(d) - 1];
  }
  while (s.degree_hist_log2.size() > 1 && s.degree_hist_log2.back() == 0) {
    s.degree_hist_log2.pop_back();
  }
  s.avg_degree = in.info().n == 0
                     ? 0.0
                     : 2.0 * double(in.info().m) / double(in.info().n);
  return s;
}

CsrGraph csr_from_bgraph(const std::string& path, runtime::ThreadPool* pool) {
  const BGraphInfo info = BGraphReader(path).info();
  QC_REQUIRE(info.n <= std::numeric_limits<NodeId>::max(),
             path + ": node count " + std::to_string(info.n) +
                 " too large for an in-memory CsrGraph");
  const std::size_t n = static_cast<std::size_t>(info.n);
  const std::uint64_t m = info.m;
  // Shard count: bounded by the pool width, by a minimum of records
  // per shard (tiny files gain nothing from fan-out), and by memory —
  // each shard holds a u32 degree array plus a size_t cursor array
  // (12n bytes); capping shards at m/n keeps the cursors' total at
  // half the raw edge bytes, so the place-pass peak stays near
  // 2.5x raw and the bench's <3x gate holds at any worker count.
  // Without a pool the build is one shard on the calling thread.
  std::size_t shards = 1;
  if (pool != nullptr && n > 0) {
    const std::uint64_t mem_cap = std::max<std::uint64_t>(m / n, 1);
    const std::uint64_t work_cap = std::max<std::uint64_t>(m / 32768, 1);
    shards = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(pool->worker_count(), 16),
        std::min(mem_cap, work_cap)));
  }

  std::vector<std::uint64_t> bounds(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) bounds[s] = m * s / shards;

  // Count pass: per-shard degree arrays over contiguous record ranges,
  // each shard streaming through its own reader.
  struct ShardCount {
    std::vector<std::uint32_t> degree;
    Weight mx = 1;
    std::uint64_t first_key = 0;
    std::uint64_t last_key = 0;
  };
  std::vector<ShardCount> counts(shards);
  runtime::parallel_for(pool, shards, [&](std::size_t s) {
    BGraphReader r(path);
    r.seek_record(bounds[s]);
    ShardCount& sc = counts[s];
    sc.degree.assign(n, 0);
    Edge e;
    for (std::uint64_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      QC_REQUIRE(r.next(e), path + ": short shard read");
      ++sc.degree[e.u];
      ++sc.degree[e.v];
      sc.mx = std::max(sc.mx, e.weight);
      const std::uint64_t key = edge_key(e.u, e.v);
      if (i == bounds[s]) sc.first_key = key;
      sc.last_key = key;
    }
  });
  // The per-shard readers verified order inside their ranges; stitch
  // the seams so a sorted file gets exactly a single reader's check.
  if (info.sorted) {
    for (std::size_t s = 1; s < shards; ++s) {
      if (bounds[s - 1] == bounds[s] || bounds[s] == bounds[s + 1]) continue;
      QC_REQUIRE(counts[s].first_key > counts[s - 1].last_key,
                 path + ": record " + std::to_string(bounds[s]) +
                     ": order violation under the sorted flag");
    }
  }

  // Serial reduce in shard order: global offsets, then per-shard
  // cursor bases (cursor[s][u] = offsets[u] + half-edges row u receives
  // from shards before s), freeing each degree array as it is folded.
  Weight mx = 1;
  for (const ShardCount& sc : counts) mx = std::max(mx, sc.mx);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    std::size_t d = 0;
    for (const ShardCount& sc : counts) d += sc.degree[u];
    offsets[u + 1] = offsets[u] + d;
  }
  std::vector<std::vector<std::size_t>> cursors(shards);
  std::vector<std::size_t> acc(offsets.begin(), offsets.end() - 1);
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    cursors[s] = acc;
    for (std::size_t u = 0; u < n; ++u) acc[u] += counts[s].degree[u];
    counts[s].degree = std::vector<std::uint32_t>();
  }
  cursors.back() = std::move(acc);
  counts.back().degree = std::vector<std::uint32_t>();

  // Place pass: every record's two half-edge slots are fixed by the
  // cursor bases, so concurrent shards write disjoint indices and the
  // array is byte-identical at any shard count: each row holds its
  // half-edges in file order, as CsrGraph(WeightedGraph) places them
  // for a graph built from this edge sequence.
  std::vector<HalfEdge> halves(offsets[n]);
  runtime::parallel_for(pool, shards, [&](std::size_t s) {
    BGraphReader r(path);
    r.seek_record(bounds[s]);
    std::vector<std::size_t>& cur = cursors[s];
    Edge e;
    for (std::uint64_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      QC_REQUIRE(r.next(e), path + ": short shard read");
      halves[cur[e.u]++] = HalfEdge{e.v, e.weight};
      halves[cur[e.v]++] = HalfEdge{e.u, e.weight};
    }
  });
  return CsrGraph::from_parts(std::move(offsets), std::move(halves), mx);
}

// --- bcsr v1 (packed CSR image) --------------------------------------

namespace {

constexpr std::size_t kBcsrHeaderBytes = 48;

struct BcsrLayout {
  std::uint64_t n = 0;
  std::uint64_t halves = 0;
  Weight max_weight = 1;
  std::uint64_t offsets_bytes() const { return (n + 1) * 8; }
  std::uint64_t halves_bytes() const { return halves * sizeof(HalfEdge); }
  std::uint64_t total_bytes() const {
    return kBcsrHeaderBytes + offsets_bytes() + halves_bytes();
  }
};

BcsrLayout decode_bcsr_header(const unsigned char* h, std::uint64_t size,
                              const std::string& path) {
  QC_REQUIRE(std::memcmp(h, kBcsrMagic, 8) == 0,
             path + ": bad magic at byte 0 (not a bcsr v1 file)");
  const std::uint32_t version = get_u32(h + 8);
  QC_REQUIRE(version == kFormatVersion,
             path + ": unsupported version " + std::to_string(version) +
                 " at byte 8");
  BcsrLayout lay;
  lay.n = get_u64(h + 16);
  lay.halves = get_u64(h + 24);
  lay.max_weight = get_u64(h + 32);
  QC_REQUIRE(lay.n < (std::uint64_t{1} << 32),
             path + ": node count " + std::to_string(lay.n) +
                 " at byte 16 exceeds the NodeId range");
  require_edge_weight(lay.max_weight, path + ": max_weight at byte 32");
  const std::uint64_t payload = size - kBcsrHeaderBytes;
  QC_REQUIRE(lay.offsets_bytes() <= payload &&
                 lay.halves <= (payload - lay.offsets_bytes()) /
                                   sizeof(HalfEdge),
             path + ": counts at bytes 16/24 overflow the file (" +
                 std::to_string(size) + " bytes)");
  QC_REQUIRE(size == lay.total_bytes(),
             path + ": size mismatch — header implies " +
                 std::to_string(lay.total_bytes()) + " bytes, file is " +
                 std::to_string(size));
  return lay;
}

void validate_csr_offsets(std::span<const std::size_t> offsets,
                          std::uint64_t halves, const std::string& path) {
  QC_REQUIRE(offsets.front() == 0, path + ": offsets[0] != 0");
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    QC_REQUIRE(offsets[i - 1] <= offsets[i],
               path + ": offsets not monotone at index " +
                   std::to_string(i) + " (byte " +
                   std::to_string(kBcsrHeaderBytes + i * 8) + ")");
  }
  QC_REQUIRE(offsets.back() == halves,
             path + ": offsets end at " + std::to_string(offsets.back()) +
                 " but the header promises " + std::to_string(halves) +
                 " half-edges");
}

// Tests every half-edge and builds the error text only for the first
// one that fails: a mapped scale-18 graph has 4.4M half-edges, and a
// string per half-edge cost nine times the scan itself.
void validate_csr_halves(std::span<const HalfEdge> halves, std::uint64_t n,
                         Weight max_weight, std::uint64_t base_byte,
                         const std::string& path) {
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const HalfEdge& h = halves[i];
    if (std::uint64_t{h.to} < n && h.weight >= 1 && h.weight <= max_weight) {
      continue;
    }
    const std::string at =
        path + ": half-edge " + std::to_string(i) + " at byte " +
        std::to_string(base_byte + i * sizeof(HalfEdge));
    QC_REQUIRE(std::uint64_t{h.to} < n, at + ": target out of range");
    QC_REQUIRE(h.weight >= 1 && h.weight <= max_weight,
               at + ": weight outside [1, max_weight]");
  }
}

}  // namespace

void write_csr(const CsrGraph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  QC_REQUIRE(f != nullptr, "cannot open for writing: " + path);
  const auto offsets = g.offsets();
  const auto halves = g.halves();
  unsigned char h[kBcsrHeaderBytes];
  encode_header(h, kBcsrMagic, 0, g.node_count(), halves.size(),
                g.max_weight());
  write_all(f, h, sizeof h, path);
  write_all(f, offsets.data(), offsets.size_bytes(), path);
  // Half-edges are written through a scratch block with the padding
  // lane explicitly zeroed — in-memory padding bytes are indeterminate
  // and would make the file non-deterministic.
  std::vector<unsigned char> block(kIoBufRecords * sizeof(HalfEdge));
  std::size_t i = 0;
  while (i < halves.size()) {
    const std::size_t count =
        std::min(kIoBufRecords, halves.size() - i);
    std::memset(block.data(), 0, count * sizeof(HalfEdge));
    for (std::size_t j = 0; j < count; ++j) {
      unsigned char* rec = block.data() + j * sizeof(HalfEdge);
      put_u32(rec, halves[i + j].to);
      put_u64(rec + 8, halves[i + j].weight);
    }
    write_all(f, block.data(), count * sizeof(HalfEdge), path);
    i += count;
  }
  QC_REQUIRE(std::fflush(f) == 0, path + ": flush failed");
  std::fclose(f);
}

CsrGraph read_csr(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  QC_REQUIRE(f != nullptr, "cannot open: " + path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};
  const std::uint64_t size = file_size_of(f, path);
  QC_REQUIRE(size >= kBcsrHeaderBytes,
             path + ": truncated header — file is " + std::to_string(size) +
                 " bytes, a bcsr header needs " +
                 std::to_string(kBcsrHeaderBytes));
  unsigned char h[kBcsrHeaderBytes];
  QC_REQUIRE(std::fread(h, 1, sizeof h, f) == sizeof h,
             path + ": header read failed");
  const BcsrLayout lay = decode_bcsr_header(h, size, path);
  std::vector<std::size_t> offsets(static_cast<std::size_t>(lay.n) + 1);
  QC_REQUIRE(std::fread(offsets.data(), 1, lay.offsets_bytes(), f) ==
                 lay.offsets_bytes(),
             path + ": short read in the offsets array");
  std::vector<HalfEdge> halves(static_cast<std::size_t>(lay.halves));
  QC_REQUIRE(std::fread(halves.data(), 1, lay.halves_bytes(), f) ==
                 lay.halves_bytes(),
             path + ": short read in the half-edge array");
  validate_csr_offsets(offsets, lay.halves, path);
  validate_csr_halves(halves, lay.n, lay.max_weight,
                      kBcsrHeaderBytes + lay.offsets_bytes(), path);
  return CsrGraph::from_parts(std::move(offsets), std::move(halves),
                              lay.max_weight);
}

#if defined(_WIN32)

CsrGraph map_csr(const std::string& path, bool) {
  // No mmap shim on this platform: fall back to the owning loader.
  return read_csr(path);
}

#else

CsrGraph map_csr(const std::string& path, bool validate_edges) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  QC_REQUIRE(fd >= 0, "cannot open: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw ArgumentError("cannot stat: " + path);
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kBcsrHeaderBytes) {
    ::close(fd);
    throw ArgumentError(path + ": truncated header — file is " +
                        std::to_string(size) + " bytes, a bcsr header needs " +
                        std::to_string(kBcsrHeaderBytes));
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                      MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  QC_REQUIRE(base != MAP_FAILED, "mmap failed: " + path);
  std::shared_ptr<const void> keep_alive(
      base, [size](const void* p) {
        ::munmap(const_cast<void*>(p), static_cast<std::size_t>(size));
      });
  const unsigned char* bytes = static_cast<const unsigned char*>(base);
  const BcsrLayout lay = decode_bcsr_header(bytes, size, path);
  const std::span<const std::size_t> offsets(
      reinterpret_cast<const std::size_t*>(bytes + kBcsrHeaderBytes),
      static_cast<std::size_t>(lay.n) + 1);
  const std::span<const HalfEdge> halves(
      reinterpret_cast<const HalfEdge*>(bytes + kBcsrHeaderBytes +
                                        lay.offsets_bytes()),
      static_cast<std::size_t>(lay.halves));
  validate_csr_offsets(offsets, lay.halves, path);
  if (validate_edges) {
    validate_csr_halves(halves, lay.n, lay.max_weight,
                        kBcsrHeaderBytes + lay.offsets_bytes(), path);
  }
  return CsrGraph::mapped(offsets, halves, lay.max_weight,
                          std::move(keep_alive));
}

#endif

}  // namespace qc
