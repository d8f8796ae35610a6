// Resident query service over warm graph artifacts.
//
// Every driver before this subsystem was batch-shaped: build a graph,
// run one algorithm, print, exit — so each invocation re-paid CSR
// construction, eccentricity tables, and the toolkit's first-level
// d̃^ℓ rows. The `QueryEngine` inverts that: it loads N named graphs
// once, keeps the derived artifacts (CsrGraph, EdgeSlotIndex,
// eccentricity tables, `paths::ToolkitCache`) resident, and answers
// diameter / radius / eccentricity / SSSP / approximate-distance
// queries from many concurrent clients against the warm state.
//
// Three load-bearing properties (tests/test_service.cpp pins each):
//
//  * Determinism. A query's result is a pure function of
//    (graph, type, operands, seed). Admission order, batching, worker
//    count, and client concurrency never change any result — warm
//    tables are built by deterministic pooled algorithms (PR 2's
//    contract), seeds come from `Query::seed` (never from threads or
//    arrival time), and result slots are index-ordered.
//
//  * Admission control. At most `EngineOptions::max_in_flight` admitted
//    queries exist at once; `submit` past that throws `AdmissionError`
//    immediately instead of queueing unboundedly. Once admitted, a
//    query is always answered — shutdown drains the queue.
//
//  * Batching. The dispatcher drains up to `max_batch` queued queries
//    at a time and groups compatible ones — same graph, same type — so
//    a handler sees the whole group in one `run_batch` call and can
//    coalesce work: the SSSP handler fans sources across the qc_pool
//    pool, the approx-distance handler prefetches the union of first-
//    level rows before answering any member.
//
// Dispatch is a registry: `register_handler` adds a new query type
// without touching the engine core (the unweighted-diameter
// specialization and the Theorem 1.1 drivers register exactly this
// way — see register_unweighted_handlers / register_theorem11_handlers).
//
// Mutations ride the same registry: the built-in "update" type batches
// edge insert/remove/reweight ops through `GraphContext::apply_update`,
// which repairs the warm tables delta-aware (toolkit row invalidation,
// eccentricity-table delta repair) instead of discarding them; the CSR
// view and slot index rebuild flat on next use. Ordering against reads is a
// per-graph reader/writer lock: handlers whose `mutating()` returns
// true run under the exclusive side, everything else shares — so reads
// never observe a half-applied batch, and a graph's queries serialize
// against its updates without stalling other graphs.
//
// Threading rules for handlers: `run_batch` executes on a client or
// dispatcher thread, and handlers may (and do) run warm-table builds
// and `runtime::parallel_for` on the engine's pool directly; several
// callers may share that pool at once. Handlers must not keep per-call
// mutable state on `this` — one handler instance serves concurrent
// `query()` callers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "runtime/thread_pool.h"
#include "util/mathx.h"

namespace qc::runtime {
class MetricsRegistry;  // runtime/metrics.h
}

namespace qc::paths {
class ToolkitCache;  // paths/reference.h
struct Params;       // paths/params.h
}  // namespace qc::paths

namespace qc::service {

/// Thrown by `submit` when admission control refuses a query: the
/// engine is saturated (`max_in_flight` admitted queries outstanding)
/// or shutting down. The query was *not* enqueued; retrying later is
/// safe. Distinct from ArgumentError so clients can treat backpressure
/// differently from malformed requests.
class AdmissionError : public std::runtime_error {
 public:
  explicit AdmissionError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One request. `type` selects the handler; the operand fields mean
/// whatever the handler documents (see docs/service.md for the
/// built-ins: `node` is the SSSP/eccentricity source and the
/// approx-distance s, `target` the approx-distance t, `seed` feeds the
/// randomized Theorem 1.1 handlers, and the "update" type reads `op` /
/// `node` / `target` / `weight` as one edge mutation). `id` is opaque
/// to the engine and echoed into the result so clients can match
/// responses to requests.
struct Query {
  std::uint64_t id = 0;
  std::string graph;  ///< named graph; "" = the engine's only graph
  std::string type;   ///< handler key, e.g. "diameter", "sssp"
  NodeId node = 0;
  NodeId target = 0;
  std::uint64_t seed = 1;
  std::string op;     ///< "update" sub-op: "insert" | "remove" | "reweight"
  Weight weight = 1;  ///< "update" weight operand (insert/reweight)
};

/// One answer. Exactly one of {ok, error} is meaningful; `value` is the
/// scalar answer in `scale`-scaled fixed-point units (scale == 1 for
/// the exact handlers), `dist` is the per-node vector for SSSP-shaped
/// queries. Defaulted equality is what the determinism tests compare —
/// every field is part of the contract.
struct QueryResult {
  std::uint64_t id = 0;
  std::string type;
  bool ok = false;
  std::string error;
  Dist value = 0;
  std::uint64_t scale = 1;     ///< fixed-point scale of value (σ·σ″ etc.)
  std::vector<Dist> dist;      ///< per-node payload (SSSP), else empty

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// One loaded graph plus its lazily-built warm artifacts. Accessors
/// build on first use (guarded by a warm mutex — concurrent queries pay
/// for each table exactly once) and return references that stay valid
/// until the next `apply_update` on this context. Mutations go through
/// `apply_update` exclusively, under the engine's per-graph writer
/// lock, so readers never observe a half-repaired table.
/// The toolkit accessors require a connected graph (ArgumentError
/// otherwise), mirroring the Theorem 1.1 preconditions.
class GraphContext {
 public:
  /// The toolkit overrides are threaded into core::derive_params for
  /// the resident ToolkitCache (and must be mirrored by every handler
  /// that derives its own Params — the Theorem 1.1 handlers do). 0 =
  /// the paper defaults.
  GraphContext(std::string name, WeightedGraph g,
               std::uint32_t toolkit_eps_inv = 0,
               std::uint64_t toolkit_r_override = 0);

  /// Mapped-residency variant: serves reads straight from a read-only
  /// memory-mapped bcsr view (`view.is_mapped()` must hold; the
  /// shared_ptr keep-alive inside the view pins the mapping, so N
  /// contexts constructed from copies of one view share a single
  /// mapping and its page cache). No owned WeightedGraph exists until
  /// a handler needs one: `weighted_graph()` materializes lazily (the
  /// toolkit / Theorem 1.1 path), and the first "update" performs the
  /// copy-on-write detach — see apply_update. `source_path` is
  /// reporting-only (the serve driver's residency summary).
  GraphContext(std::string name, CsrGraph view, std::string source_path,
               std::uint32_t toolkit_eps_inv = 0,
               std::uint64_t toolkit_r_override = 0);
  ~GraphContext();

  GraphContext(const GraphContext&) = delete;
  GraphContext& operator=(const GraphContext&) = delete;

  const std::string& name() const { return name_; }

  /// The owned WeightedGraph. On a mapped context this is empty until
  /// `weighted_graph()` or an update materializes it — handlers should
  /// read through `csr()` / `node_count()` / `edge_count()`, which
  /// serve either storage mode.
  const WeightedGraph& graph() const { return g_; }

  /// The adjacency every read handler uses: the mapped read-only view
  /// while one is live, the owned graph's lazily-built CSR otherwise.
  /// Callers must hold state_mutex() (shared side suffices) — the
  /// engine's handler paths do.
  const CsrGraph& csr() const;

  NodeId node_count() const;
  std::size_t edge_count() const;

  /// Owned WeightedGraph, materializing it from the mapped view on
  /// first call (the toolkit and Theorem 1.1 handlers need adjacency
  /// rows, not just CSR spans). Materialization keeps the mapped view
  /// alive for `csr()` reads — only an update detaches it.
  const WeightedGraph& weighted_graph();

  /// True while reads are served from the mapped bcsr view (i.e. the
  /// copy-on-write detach has not happened).
  bool is_mapped() const { return mapped_ != nullptr; }
  /// Identity / liveness of the underlying mapping (nullptr / 0 when
  /// not mapped): equal addresses across contexts prove they share one
  /// mapping.
  const void* mapping_address() const;
  long mapping_use_count() const;
  /// The bcsr file this context was mapped from ("" for owned graphs).
  const std::string& source_path() const { return source_path_; }

  /// Connectivity. Owned mode defers to the graph's cached verdict;
  /// mapped mode runs one DFS over the view on first call and caches
  /// the answer (invalidated by the detach, which re-derives it from
  /// the owned graph).
  bool connected() const;

  std::uint32_t toolkit_eps_inv() const { return toolkit_eps_inv_; }
  std::uint64_t toolkit_r_override() const { return toolkit_r_override_; }

  /// Per-graph reader/writer lock ordering queries against updates:
  /// the engine runs non-mutating handlers under the shared side and
  /// mutating ones under the exclusive side.
  std::shared_mutex& state_mutex() const { return state_mutex_; }

  /// Weighted eccentricity table (pooled Dijkstra sweep on first use).
  const std::vector<Dist>& weighted_eccentricities(runtime::ThreadPool& pool);

  /// Hop eccentricity table (pooled BFS sweep on first use) — the
  /// unweighted specialization's warm state.
  const std::vector<Dist>& hop_eccentricities(runtime::ThreadPool& pool);

  /// Resident first-level row cache, built on first use with
  /// core::derive_params(g) under this context's toolkit overrides —
  /// the same Params a Theorem 1.1 run with those overrides derives,
  /// so the cache can be handed to `Theorem11Options::toolkit` as-is.
  paths::ToolkitCache& toolkit();
  const paths::Params& toolkit_params();

  /// What one `apply_update` did to the warm state (diagnostics; the
  /// dynamic-update tests and bench read these to prove the delta
  /// paths actually ran).
  struct UpdateOutcome {
    UpdateStats stats;                      ///< graph-layer effects
    std::size_t changed_edges = 0;          ///< net edges whose state changed
    std::size_t ecc_rows_recomputed = 0;    ///< weighted table rows redone
    std::size_t hop_rows_recomputed = 0;    ///< hop table rows redone
    std::size_t toolkit_rows_dropped = 0;   ///< Lemma-invalidated d̃^ℓ rows
    bool toolkit_rebuilt = false;           ///< params identity changed
    bool scratch = false;                   ///< rebuild-from-scratch path ran
  };

  // On a mapped context, apply_update first performs the copy-on-write
  // detach — materialize the owned graph from the view, then drop the
  // view — exactly once per context (later updates find owned storage),
  // reporting it via UpdateStats::mapped_detached in the outcome.

  /// Applies an edge batch (WeightedGraph::apply, which drops the CSR
  /// view and slot index) and repairs the warm tables. With
  /// `incremental` toolkit rows are invalidated per the endpoint
  /// certificate (paths::ToolkitCache::invalidate_rows) after a
  /// rebind_params, and the eccentricity tables are delta-repaired: a
  /// source u's distance vector can only change if some changed edge
  /// lies on a shortest path from u in the old or the new graph, which
  /// 2·|endpoints| endpoint Dijkstras/BFS certify exactly — only the
  /// affected sources re-run. Without `incremental` (or when the batch
  /// disconnects the graph) every warm artifact is discarded instead.
  /// Validation is atomic and comes first (WeightedGraph::check_update):
  /// an ArgumentError propagates before any search runs, with the graph
  /// and all warm state untouched. Callers must hold the exclusive
  /// side of state_mutex() (the engine's update handler does).
  UpdateOutcome apply_update(const GraphUpdate& update,
                             runtime::ThreadPool& pool, bool incremental);

  /// Which warm artifacts exist right now (reporting only — the serve
  /// driver's startup summary).
  struct WarmState {
    bool csr = false;
    bool connectivity = false;
    bool weighted_ecc = false;
    bool hop_ecc = false;
    std::size_t toolkit_rows = 0;  ///< cached d̃^ℓ rows (0 = no cache yet)
    bool mapped = false;           ///< reads served from the bcsr mapping
    bool materialized = false;     ///< owned WeightedGraph exists

    friend bool operator==(const WarmState&, const WarmState&) = default;
  };
  WarmState warm_state() const;

 private:
  /// core::derive_params(g_) with this context's overrides applied.
  /// Defined in the .cpp (needs core/theorem11.h).
  paths::Params derive_toolkit_params() const;

  /// Builds g_ from the mapped view if it does not exist yet. Caller
  /// holds warm_mutex_.
  void materialize_locked();

  std::string name_;
  WeightedGraph g_;
  /// Mapped storage mode: the read-only bcsr view (null once detached
  /// or for owned contexts). Mutated only under the exclusive side of
  /// state_mutex() plus warm_mutex_ (apply_update's detach).
  std::unique_ptr<CsrGraph> mapped_;
  std::string source_path_;
  /// Whether g_ holds the graph (always for owned contexts; false on a
  /// mapped context until weighted_graph() / the detach).
  bool g_materialized_ = true;
  /// Mapped-mode connectivity cache: -1 unknown, else 0/1. Guarded by
  /// warm_mutex_.
  mutable int mapped_connected_ = -1;
  std::uint32_t toolkit_eps_inv_ = 0;
  std::uint64_t toolkit_r_override_ = 0;
  mutable std::shared_mutex state_mutex_;
  /// Guards lazy builds below (once_flag cannot be reset, and
  /// apply_update legitimately re-arms the builds).
  mutable std::mutex warm_mutex_;
  bool ecc_valid_ = false;
  bool hop_ecc_valid_ = false;
  std::vector<Dist> ecc_;
  std::vector<Dist> hop_ecc_;
  std::unique_ptr<paths::ToolkitCache> toolkit_;
};

/// Everything a handler needs to answer a group of queries.
struct QueryContext {
  GraphContext& graph;
  runtime::ThreadPool& pool;
  /// EngineOptions::incremental_updates, threaded through so the
  /// update handler (and the bench's scratch-baseline engine) picks
  /// the cache-maintenance policy per engine, not per query.
  bool incremental_updates = true;
};

/// One query type. `run_batch` receives every query of a compatible
/// group (same graph, same type, batch order) and must fill
/// `results[i]` for `queries[i]` — set `ok`/payload or `ok = false`
/// with `error`; the engine stamps `id` and `type` afterwards, so
/// handlers cannot mismatch them. Throwing fails the whole group with
/// the exception text (fine for preconditions that hold for all
/// members, e.g. "graph is not connected").
class QueryHandler {
 public:
  virtual ~QueryHandler() = default;

  /// The registry key this handler serves (stable, lowercase).
  virtual std::string type() const = 0;

  /// True for handlers that mutate the graph or its warm artifacts.
  /// The engine runs mutating groups under the exclusive side of the
  /// graph's state_mutex() (readers share), so a mutating handler owns
  /// the graph for the whole batch.
  virtual bool mutating() const { return false; }

  virtual void run_batch(QueryContext& ctx, std::span<const Query> queries,
                         std::span<QueryResult> results) = 0;
};

struct EngineOptions {
  /// Workers of the engine-owned qc_pool pool, the calling thread
  /// counted (0 = hardware concurrency). Results are byte-identical at
  /// any value.
  unsigned workers = 0;
  /// Admission bound: maximum admitted-but-unanswered queries. submit
  /// beyond it throws AdmissionError.
  std::size_t max_in_flight = 1024;
  /// Maximum queries one dispatch drains and groups together.
  std::size_t max_batch = 64;
  /// Run the background dispatcher thread. Off = the owner pumps the
  /// queue via drain() (the deterministic-batching tests do this to
  /// control grouping exactly).
  bool auto_dispatch = true;
  /// Optional run-report sink (borrowed; must outlive the engine).
  /// When set, the engine records "service.*" counters and per-type
  /// latency histograms into it — see docs/service.md for the schema.
  runtime::MetricsRegistry* metrics = nullptr;
  /// Cache-maintenance policy for "update" queries: delta-aware repair
  /// of the warm artifacts (default) vs discard-and-rebuild. Answers
  /// are byte-identical either way — the dynamic bench runs one engine
  /// of each and diffs full response transcripts.
  bool incremental_updates = true;
  /// Toolkit parameter overrides applied to every graph this engine
  /// loads (forwarded to GraphContext; 0 = paper defaults). The
  /// dynamic bench uses them to pin a locality-friendly ℓ at large n.
  std::uint32_t toolkit_eps_inv = 0;
  std::uint64_t toolkit_r_override = 0;
};

/// The resident engine. Construction registers the six built-in
/// handlers (diameter, radius, eccentricity, sssp, approx_distance,
/// update); graphs and further handlers are added by the owner, then
/// clients call `query` (synchronous) or `submit`
/// (admission-controlled, batched) from any number of threads.
///
/// Registration (`add_graph`, `register_handler`) is thread-safe but
/// meant for setup: do it before serving traffic, or accept that
/// in-flight queries race against the new entry (they see it or they
/// don't — never a torn state).
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions opt = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Loads a named graph. Throws ArgumentError on an empty or duplicate
  /// name. From here on the graph changes only through "update" queries
  /// (GraphContext::apply_update), which repair the warm artifacts in
  /// step — reads between updates serve from warm state as before.
  GraphContext& add_graph(std::string name, WeightedGraph g);

  /// Loads a named graph as a memory-mapped bcsr view (graph/io.h
  /// `map_csr`). The engine keys mappings by canonical file path: N
  /// specs naming the same file share one mapping (one set of resident
  /// pages), which `GraphContext::mapping_address()` lets callers
  /// verify. Answers are identical to owned-copy loading; the graph
  /// converts to owned storage on its first "update" (copy-on-write
  /// detach, reported in UpdateStats::mapped_detached). Throws
  /// ArgumentError on an empty/duplicate name or an unreadable file.
  GraphContext& add_graph_mapped(std::string name,
                                 const std::string& bcsr_path);

  /// Looks up a loaded graph; "" resolves to the engine's only graph
  /// (nullptr when none or several are loaded — ambiguity is an error
  /// the caller must surface). Unknown names return nullptr.
  GraphContext* find_graph(std::string_view name);

  std::vector<std::string> graph_names() const;

  /// Adds a query type. Throws ArgumentError on an empty or duplicate
  /// type key.
  void register_handler(std::unique_ptr<QueryHandler> handler);

  bool has_handler(std::string_view type) const;
  std::vector<std::string> handler_types() const;

  /// Eagerly builds the warm artifacts of one graph (CSR + slot index +
  /// connectivity always; eccentricity tables and the toolkit cache
  /// when connected) so first queries don't pay construction latency.
  void warm(std::string_view name);
  void warm_all();

  /// Synchronous path: answers on the calling thread against the warm
  /// state, bypassing admission control and batching (the caller *is*
  /// the backpressure). Safe from any number of threads concurrently.
  QueryResult query(const Query& q);

  /// Admission-controlled path: enqueues and returns a future. Throws
  /// AdmissionError when saturated or stopping; otherwise the future is
  /// always eventually fulfilled (errors arrive as ok = false results,
  /// not exceptions). With auto_dispatch the background dispatcher
  /// picks the query up; otherwise call drain().
  std::future<QueryResult> submit(Query q);

  /// Manually dispatches one batch: drains up to max_batch queued
  /// queries, groups by (graph, type), runs each group's handler, and
  /// fulfills the promises. Mutating queries are coalescing barriers
  /// on their graph: grouping never reorders a query across a
  /// same-graph mutating query in either direction, so admission
  /// order is the order reads observe updates in. Returns how many
  /// queries it answered (0 = queue was empty). The
  /// deterministic-batching tests call this with max_batch = 1 vs max
  /// to pin grouping-independence.
  std::size_t drain();

  /// Admitted-but-unanswered queries right now (queued + executing).
  std::size_t in_flight() const;

  unsigned worker_count() const { return pool_.worker_count(); }
  const EngineOptions& options() const { return opt_; }
  runtime::ThreadPool& pool() { return pool_; }

 private:
  struct Pending {
    Query q;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point admitted;
  };

  void register_builtin_handlers();
  void dispatch_loop();
  /// Whether `type` is served by a mutating() handler — such queries
  /// are coalescing barriers on their graph (see drain()).
  bool is_mutating_type(std::string_view type) const;
  /// Runs one already-grouped batch (same graph, same type) and writes
  /// results; never throws (handler exceptions become error results).
  void execute_group(std::span<const Query> queries,
                     std::span<QueryResult> results);
  void record_query_metrics(const Query& q, const QueryResult& r,
                            double seconds);

  EngineOptions opt_;
  runtime::ThreadPool pool_;

  mutable std::mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<GraphContext>, std::less<>> graphs_;
  std::map<std::string, std::unique_ptr<QueryHandler>, std::less<>> handlers_;
  /// One mapped view per canonical bcsr path: contexts added via
  /// add_graph_mapped copy from these, so same-file specs share the
  /// mapping (the registry entry also keeps it alive across detaches
  /// of individual contexts — cheap: the view owns no arrays).
  std::map<std::string, CsrGraph, std::less<>> mapped_files_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> pending_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::optional<std::thread> dispatcher_;  // last member: started in ctor
};

/// The bucket layout of every "service.latency_seconds.<type>"
/// histogram the engine records (1µs to ~33s in powers of two).
/// Callers reading quantiles out of the shared registry pass this to
/// `MetricsRegistry::histogram` so lookup never conflicts with the
/// engine's registration.
std::vector<double> latency_histogram_bounds();

/// Registers the unweighted specialization as extension query types —
/// "unweighted_diameter" and "unweighted_eccentricity" answer from the
/// hop-eccentricity warm table (the Õ(√(nD)) Le Gall–Magniez setting's
/// exact baseline). Exists to demonstrate that a specialization plugs
/// into the registry without touching the engine core.
void register_unweighted_handlers(QueryEngine& engine);

/// Registers the Theorem 1.1 drivers as query types — "t11_diameter"
/// and "t11_radius" run the full quantum estimate with Query::seed,
/// handing the context's resident ToolkitCache to
/// `Theorem11Options::toolkit` so repeated estimates on one graph share
/// first-level rows instead of rebuilding them per run.
void register_theorem11_handlers(QueryEngine& engine);

}  // namespace qc::service
