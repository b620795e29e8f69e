#ifndef SPPNET_SIM_ADAPTIVE_SIM_H_
#define SPPNET_SIM_ADAPTIVE_SIM_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "sppnet/adaptive/local_rules.h"
#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/instance.h"
#include "sppnet/workload/capacity.h"

namespace sppnet {

/// In-simulation adaptation plan: executes the Section 5.3 local rules
/// (split / coalesce clusters, grow outdegree toward the suggested
/// value, shrink the TTL) as scheduled protocol events *inside* the
/// discrete-event simulator, mutating the live network incrementally —
/// no regeneration. Super-peers probe their neighbors' loads
/// periodically (LoadProbe / LoadReport control messages, costed
/// through the CostTable like every other wire message), and every
/// decision interval each super-peer applies the shared LocalPolicy
/// predicates to its measured window loads.
///
/// Determinism mirrors FaultPlan's contract: an inactive plan (the
/// default) is never consulted, leaving the run bit-identical to a
/// build without the adaptation layer; an active plan draws every
/// stochastic decision (rule II peering attempts) from a dedicated RNG
/// stream salted from the simulation seed, so enabling adaptation
/// never perturbs the protocol stream.
struct AdaptivePlan {
  /// Seconds between load-probe sweeps (every super-peer probes every
  /// overlay neighbor). 0 disables the adaptation layer entirely.
  double probe_interval_seconds = 0.0;
  /// Seconds between decision rounds (each round applies rules I-III
  /// to the loads measured since the previous round).
  double decision_interval_seconds = 30.0;
  /// The Section 5.3 policy; its rule predicates are shared verbatim
  /// with the offline controller (adaptive/local_rules.h).
  LocalPolicy policy;

  /// The adaptation stream: Rng(sim_seed ^ kStreamSalt). Distinct from
  /// every other layer salt (audited in sim/plan.cc).
  static constexpr std::uint64_t kStreamSalt = 0xd1b54a32d192ed03ull;

  /// True when the plan schedules any adaptation activity. An inactive
  /// plan leaves the simulator's event stream, RNG consumption, report
  /// and published metrics bit-identical to a run without the layer.
  bool enabled() const { return probe_interval_seconds > 0.0; }

  /// Aborts (SPPNET_CHECK) on invalid configurations: negative or
  /// non-finite intervals, a probe interval exceeding the decision
  /// interval, or an invalid policy. Called at every entry point that
  /// consumes a plan, matching FaultPlan's contract.
  void Validate() const;
};

/// Dynamic cluster membership and overlay topology while the simulator
/// adapts a live network, plus the rule engine that mutates it.
///
/// Cluster ids are stable slot indices: a split appends a new slot, a
/// coalesce marks the consumed slot dead — there is no compaction, so
/// in-flight messages addressed by cluster id stay meaningful. Node
/// ids never change either: a promoted client keeps its node id as the
/// new cluster's head, and a resigned head keeps its node id as an
/// ordinary member. All iteration orders (insertion-ordered member
/// lists, ascending std::set neighbor sets) are deterministic, and the
/// only randomness (rule II peering attempts) comes from a stream
/// salted from the simulation seed — so runs are bit-reproducible.
class AdaptiveController {
 public:
  static constexpr std::uint32_t kNoHead = 0xffffffffu;

  /// One super-peer's measured window load, as handed to a round.
  /// `valid` is false for dead clusters and clusters whose head is
  /// currently down — the rules skip those.
  struct LoadSample {
    bool valid = false;
    double total_bps = 0.0;
    double proc_hz = 0.0;
    /// Directional split of total_bps, filled only when the capacity
    /// layer is active (the rules read total_bps; the capacity
    /// overload check compares each direction against its own budget).
    double in_bps = 0.0;
    double out_bps = 0.0;
  };

  /// Rule I overload: `promoted` (the largest-collection member of
  /// `cluster`) became the head of the appended slot `new_cluster`;
  /// `moved` lists the members that migrated to it.
  struct SplitAction {
    std::uint32_t cluster = 0;
    std::uint32_t new_cluster = 0;
    std::uint32_t promoted = 0;
    std::vector<std::uint32_t> moved;
  };
  /// Rule I underload: cluster `from` merged into `into`; its head
  /// `resigned_head` became an ordinary member of `into`, along with
  /// every member in `moved`.
  struct CoalesceAction {
    std::uint32_t into = 0;
    std::uint32_t from = 0;
    std::uint32_t resigned_head = 0;
    std::vector<std::uint32_t> moved;
  };
  /// Rule II: clusters `a` and `b` peered up.
  struct EdgeAction {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };
  /// Capacity rule (active capacity view with demote_overloaded only):
  /// `old_head` of `cluster` was sustained-overloaded against its own
  /// capacity and a strictly more capable member existed, so the head
  /// role moved to `new_head`. Membership is unchanged — the simulator
  /// executes the re-upload storm to the new head.
  struct DemoteAction {
    std::uint32_t cluster = 0;
    std::uint32_t old_head = 0;
    std::uint32_t new_head = 0;
  };
  /// Everything one decision round changed. The controller has already
  /// applied the mutations to its own state; the simulator executes
  /// the matching protocol traffic (joins for moved members, the
  /// peering handshake, the TTL broadcast).
  struct RoundActions {
    std::vector<SplitAction> splits;
    std::vector<CoalesceAction> coalesces;
    std::vector<EdgeAction> edges;
    std::vector<DemoteAction> demotes;
    bool ttl_decreased = false;
    int new_ttl = 0;
    /// LocalPolicy::RoundQuiescent over this round's counts, and no
    /// capacity demotion fired.
    bool quiescent = false;
  };

  /// Seeds the dynamic state from the instance layout (requires
  /// redundancy_k == 1, like the offline controller) and derives the
  /// rule II stream from `sim_seed` with a dedicated salt.
  AdaptiveController(const NetworkInstance& instance,
                     const LocalPolicy& policy, std::uint64_t sim_seed);

  // --- Topology / membership queries (all O(1) or O(members)) -------------
  bool IsHead(std::uint32_t node) const { return is_head_[node]; }
  std::uint32_t HeadOf(std::size_t cluster) const { return head_[cluster]; }
  std::size_t ClusterOfNode(std::uint32_t node) const {
    return node_cluster_[node];
  }
  const std::vector<std::uint32_t>& MembersOf(std::size_t cluster) const {
    return members_[cluster];
  }
  const std::set<std::uint32_t>& NeighborsOf(std::size_t cluster) const {
    return adj_[cluster];
  }
  bool Dead(std::size_t cluster) const { return dead_[cluster]; }
  /// Total slots ever created (live + dead); cluster ids are < this.
  std::size_t NumClusterSlots() const { return head_.size(); }
  std::size_t LiveClusters() const { return live_clusters_; }
  /// Sum of shared files over the cluster's head and members (the
  /// dynamic counterpart of NetworkInstance::indexed_files).
  double FilesSum(std::size_t cluster) const { return files_sum_[cluster]; }
  double FilesOfNode(std::uint32_t node) const { return files_[node]; }
  /// Mean overlay degree over live clusters.
  double AvgOutdegree() const;

  // --- Mutation from the simulator -----------------------------------------
  /// Moves a member node to another (live) cluster — the discovery
  /// re-join path of the fault layer, kept in one membership store.
  void MoveClient(std::uint32_t node, std::size_t to_cluster);

  /// Installs the capacity layer's view (CapacityPlan): per-node
  /// sampled capacities plus the two decision-axis switches. With
  /// `aware_election`, SplitCluster promotes the most capable member
  /// (workload/election.h) instead of the largest collection; with
  /// `demote_overloaded`, RunRound swaps out heads whose window load
  /// exceeds `overload_utilization` of their own capacity for
  /// kSustainRounds consecutive rounds. Not checkpointed: the view is
  /// a pure function of (instance, seed, plan) the restoring simulator
  /// re-installs identically — only cap_over_streak_ is run state.
  void SetCapacityView(std::vector<PeerCapacity> capacities,
                       double overload_utilization, bool aware_election,
                       bool demote_overloaded);

  /// Stores `reporter`'s load as observed by `observer` (a LoadReport
  /// arriving). Reports are stamped with the current round; a report is
  /// "fresh" for exactly one decision round, so coalesce decisions
  /// never act on stale numbers.
  void RecordReport(std::size_t observer, std::size_t reporter,
                    double total_bps, double proc_hz);

  /// One decision round: applies rules I-III to `own_loads` (indexed by
  /// cluster slot) and the recorded neighbor reports, mutates the
  /// dynamic state, and returns what changed so the simulator can
  /// account the protocol traffic. `current_ttl` feeds rule III; the
  /// returned `new_ttl` is `current_ttl` or `current_ttl - 1`.
  RoundActions RunRound(const std::vector<LoadSample>& own_loads,
                        int current_ttl);

  // --- Checkpoint (streaming mode) ------------------------------------------
  /// Serializes every mutable member — membership, overlay, streaks,
  /// fresh reports, the rule II stream position. The per-node file
  /// volumes are not written: they are a static copy of the instance
  /// the restoring constructor rebuilds identically.
  void SaveTo(CheckpointWriter& w) const;
  /// Overwrites the state of a controller freshly constructed from the
  /// same instance/policy/seed. Returns false on a malformed payload.
  bool LoadFrom(CheckpointReader& r);

 private:
  struct NeighborReport {
    std::uint32_t reporter = 0;
    double total_bps = 0.0;
    double proc_hz = 0.0;
    std::uint64_t round = 0;
  };

  void SplitCluster(std::size_t i, RoundActions& actions);
  void CoalesceClusters(std::size_t into, std::size_t from,
                        RoundActions& actions);
  /// Capacity rule: hands cluster `i`'s head role to its most capable
  /// member if that member strictly outranks the current head; no-op
  /// (returns false) otherwise.
  bool DemoteHead(std::size_t i, RoundActions& actions);
  /// Files-weighted mean BFS reach over the live overlay at `ttl` hops
  /// and at `ttl - 1` hops, from one BFS per source (the in-sim
  /// stand-in for the evaluator's mean_reach in rule III;
  /// deterministic, no RNG). Requires ttl >= 1.
  struct ReachPair {
    double at_ttl = 0.0;
    double at_shorter = 0.0;
  };
  ReachPair MeanReach(int ttl) const;
  const NeighborReport* FreshReport(std::size_t observer,
                                    std::uint32_t reporter) const;

  LocalPolicy policy_;
  Rng rng_;  ///< Rule II peering stream (salted from the sim seed).

  std::vector<std::uint32_t> node_cluster_;  // Per node id.
  std::vector<std::uint8_t> is_head_;        // Per node id.
  std::vector<double> files_;                // Per node id (static copy).
  std::vector<std::uint32_t> head_;          // Per cluster slot; kNoHead.
  std::vector<std::vector<std::uint32_t>> members_;  // Insertion order.
  std::vector<std::set<std::uint32_t>> adj_;         // Ascending.
  std::vector<std::uint8_t> dead_;
  /// Rule-I settle timer: slots touched by a split or coalesce sit out
  /// classification (and partner selection) while > 0, so the re-upload
  /// storm of the structural change never feeds the next decision —
  /// without it the loop limit-cycles (merge -> storm -> "overloaded"
  /// -> split -> "underloaded" -> merge ...).
  std::vector<std::uint8_t> cooldown_;
  /// Sustained-load filters: consecutive windows a slot has measured
  /// over / under the thresholds. Rule I acts only after
  /// kSustainRounds consecutive windows agree — measured window loads
  /// are Poisson-noisy, and acting on a single spike keeps the
  /// membership churning forever at the thresholds.
  std::vector<std::uint8_t> over_streak_;
  std::vector<std::uint8_t> under_streak_;
  /// Capacity rule's sustained filter: consecutive rounds the slot's
  /// head measured above its own overload-utilization threshold. Same
  /// kSustainRounds agreement requirement as rule I, for the same
  /// reason (Poisson-noisy windows).
  std::vector<std::uint8_t> cap_over_streak_;
  std::vector<double> files_sum_;
  std::vector<std::vector<NeighborReport>> reports_;  // Per observer slot.
  std::size_t live_clusters_ = 0;
  std::uint64_t rounds_completed_ = 0;

  // Capacity view (SetCapacityView; empty/false without the capacity
  // layer — the blind paths below are then bit-identical to a build
  // without it).
  std::vector<PeerCapacity> capacities_;  // Per node id.
  double cap_overload_util_ = 0.0;
  bool cap_aware_election_ = false;
  bool cap_demote_ = false;
};

}  // namespace sppnet

#endif  // SPPNET_SIM_ADAPTIVE_SIM_H_
