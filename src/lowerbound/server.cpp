#include "lowerbound/server.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace qc::lb {

namespace {

/// Truncated BFS flood: announce-depth wave for a fixed number of
/// rounds — a representative algorithm to drive the simulation lemma
/// (any algorithm works; the lemma is about the network, not the task).
class TruncatedBfsProgram final : public congest::NodeProgram {
 public:
  TruncatedBfsProgram(NodeId root, std::uint64_t rounds,
                      std::uint32_t depth_bits)
      : root_(root), rounds_(rounds), depth_bits_(depth_bits) {}

  void on_start(congest::NodeContext& ctx) override {
    if (ctx.id() == root_) {
      depth_ = 0;
      congest::Message m;
      m.push(0, depth_bits_);
      ctx.broadcast(m);
    }
  }

  void on_round(congest::NodeContext& ctx,
                std::span<const congest::Incoming> inbox) override {
    for (const auto& in : inbox) {
      if (depth_ == kInfDist) {
        depth_ = in.msg.field(0) + 1;
        if (round_ + 1 < rounds_) {
          congest::Message m;
          m.push(depth_, depth_bits_);
          ctx.broadcast(m);
        }
      }
    }
    ++round_;
  }

  bool done() const override { return round_ >= rounds_; }

 private:
  NodeId root_;
  std::uint64_t rounds_;
  std::uint32_t depth_bits_;
  Dist depth_ = kInfDist;
  std::uint64_t round_ = 0;
};

}  // namespace

SimulationSchedule::SimulationSchedule(const Gadget& gadget)
    : gadget_(&gadget) {}

std::uint64_t SimulationSchedule::horizon() const {
  return std::uint64_t{1} << (gadget_->params().h - 1);
}

Owner SimulationSchedule::owner(std::uint64_t r, NodeId v) const {
  const Side side = gadget_->side(v);
  if (side == Side::kAlice) return Owner::kAlice;
  if (side == Side::kBob) return Owner::kBob;
  QC_REQUIRE(r < horizon(), "schedule round beyond horizon");
  if (r == 0) return Owner::kServer;

  const auto& p = gadget_->params();
  const std::uint64_t row = std::uint64_t{1} << p.h;  // 2^h

  // Locate v inside V_S. Paths: server keeps 1-based j in
  // [1+r, 2^h - r], Alice takes the left of it, Bob the right.
  // Tree depth d: server keeps 1-based j in
  // [ceil((1+r)/2^{h-d}), ceil((2^h - r)/2^{h-d})].
  const NodeId tree_count =
      static_cast<NodeId>((std::uint64_t{1} << (p.h + 1)) - 1);
  if (v < tree_count) {
    // depth = floor(log2(v+1)), index within level.
    std::uint32_t d = 0;
    NodeId base = 0;
    while (base + (NodeId{1} << d) <= v) {
      base += NodeId{1} << d;
      ++d;
    }
    const std::uint64_t j1 = (v - base) + 1;  // 1-based index in level
    const std::uint64_t denom = std::uint64_t{1} << (p.h - d);
    const std::uint64_t lo = ceil_div(1 + r, denom);
    const std::uint64_t hi = ceil_div(row - r, denom);
    if (j1 < lo) return Owner::kAlice;
    if (j1 > hi) return Owner::kBob;
    return Owner::kServer;
  }
  // Path node: position within its path.
  const std::uint64_t offset = v - tree_count;
  const std::uint64_t j1 = offset % row + 1;  // 1-based position
  if (j1 < 1 + r) return Owner::kAlice;
  if (j1 > row - r) return Owner::kBob;
  return Owner::kServer;
}

ServerSimulationReport meter_server_simulation(
    const Gadget& gadget, const std::vector<congest::TraceEntry>& trace,
    std::uint64_t rounds) {
  const SimulationSchedule schedule(gadget);
  QC_REQUIRE(rounds + 1 < schedule.horizon(),
             "execution too long for the Lemma 4.1 schedule (T < 2^h/2)");

  ServerSimulationReport rep;
  rep.rounds = rounds;
  rep.per_round_bound = 2 * gadget.params().h;
  std::vector<std::uint64_t> charged_in_round(rounds + 2, 0);

  const NodeId tree_count =
      static_cast<NodeId>((std::uint64_t{1} << (gadget.params().h + 1)) - 1);

  for (const auto& entry : trace) {
    ++rep.total_messages;
    // A message sent during round k is consumed while owners have
    // advanced to the end-of-round-(k+1) partition.
    const Owner from_owner = schedule.owner(entry.round, entry.from);
    const Owner to_owner = schedule.owner(entry.round + 1, entry.to);
    if (to_owner == Owner::kAlice && from_owner == Owner::kBob) {
      rep.partition_sound = false;
    }
    if (to_owner == Owner::kBob && from_owner == Owner::kAlice) {
      rep.partition_sound = false;
    }
    if (to_owner == Owner::kServer && from_owner != Owner::kServer) {
      ++rep.charged_messages;
      rep.charged_bits += entry.bits;
      ++charged_in_round[entry.round];
      if (entry.to >= tree_count) rep.charged_only_tree = false;
    }
  }
  rep.max_charged_in_round = *std::max_element(charged_in_round.begin(),
                                               charged_in_round.end());
  rep.within_bound =
      rep.charged_messages <= rep.per_round_bound * (rounds + 1) &&
      rep.max_charged_in_round <= rep.per_round_bound;
  return rep;
}

ServerSimulationReport run_and_meter_bfs(const Gadget& gadget,
                                         std::uint64_t rounds, NodeId root) {
  const WeightedGraph& g = gadget.graph();
  if (root == kAnyRoot) root = gadget.root();
  QC_REQUIRE(root < g.node_count(), "root out of range");
  congest::Config cfg;
  cfg.hooks.record_trace = true;
  const std::uint32_t depth_bits = bits_for(g.node_count());

  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(
        std::make_unique<TruncatedBfsProgram>(root, rounds, depth_bits));
  }
  congest::Simulator sim(g, cfg);
  const auto stats = sim.run(programs);
  return meter_server_simulation(gadget, sim.trace(), stats.rounds);
}

namespace {

ReductionCheck check_reduction(const GadgetParams& params,
                               const PairInput& input, bool radius,
                               bool use_full_graph) {
  ReductionCheck out;
  out.f_value = radius ? eval_f_prime(input) : eval_f(input);

  Weight alpha;
  Weight beta;
  std::uint64_t n_full;
  Dist measured;
  Dist slack = 0;  // additive +n window when measuring the full graph
  if (use_full_graph) {
    const Gadget gadget(params, input, radius);
    alpha = gadget.alpha();
    beta = gadget.beta();
    n_full = gadget.graph().node_count();
    measured = radius ? weighted_radius(gadget.graph())
                      : weighted_diameter(gadget.graph());
    slack = n_full;
  } else {
    const ContractedGadget contracted(params, input, radius);
    alpha = contracted.alpha();
    beta = contracted.beta();
    n_full = params.node_count() + (radius ? 1 : 0);
    measured = radius ? weighted_radius(contracted.graph())
                      : weighted_diameter(contracted.graph());
  }

  out.measured = measured;
  out.threshold_low = std::min(alpha + beta, 3 * alpha);
  out.threshold_high = std::max(2 * alpha, beta) + slack;
  out.gap_respected = out.f_value ? (measured <= out.threshold_high)
                                  : (measured >= out.threshold_low);

  // Distinguishability: with α=n², β=2n² a (3/2−ε)-approximation
  // (here ε = 1/4) of any true value ≤ max{2α,β}+n stays strictly
  // below min{α+β,3α} = 3n², so the two cases separate.
  const double approx_ceiling =
      (1.5 - 0.25) * static_cast<double>(std::max(2 * alpha, beta) +
                                         static_cast<Dist>(n_full));
  out.distinguishable =
      approx_ceiling <
      static_cast<double>(std::min(alpha + beta, 3 * alpha));
  return out;
}

}  // namespace

ReductionCheck check_diameter_reduction(const GadgetParams& params,
                                        const PairInput& input,
                                        bool use_full_graph) {
  return check_reduction(params, input, false, use_full_graph);
}

ReductionCheck check_radius_reduction(const GadgetParams& params,
                                      const PairInput& input,
                                      bool use_full_graph) {
  return check_reduction(params, input, true, use_full_graph);
}

double theorem42_round_bound(const GadgetParams& params,
                             std::uint32_t bandwidth) {
  const double inputs = static_cast<double>(std::uint64_t{1} << params.s) *
                        static_cast<double>(params.ell);
  return std::sqrt(inputs) /
         (static_cast<double>(params.h) * static_cast<double>(bandwidth));
}

}  // namespace qc::lb
