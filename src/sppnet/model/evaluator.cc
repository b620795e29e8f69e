#include "sppnet/model/evaluator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/topology/bfs.h"

namespace sppnet {

LoadVector InstanceLoads::MeanOf(const std::vector<LoadVector>& loads) {
  LoadVector sum;
  for (const auto& l : loads) sum += l;
  if (!loads.empty()) sum *= 1.0 / static_cast<double>(loads.size());
  return sum;
}

namespace {

/// Raw per-entity accumulation in bytes/sec and processing units/sec;
/// converted to bps / Hz only at the very end.
struct RawLoad {
  double in_bytes = 0.0;
  double out_bytes = 0.0;
  double units = 0.0;
};

/// One (source, node) element of a batch's canonical flood. A source's
/// reach list is ordered by (depth ascending, node id ascending), entry
/// 0 being the source itself; per-level offsets into the list give each
/// entry's depth. `parent_pos` is the batch-compact slot of the canonical
/// BFS-tree parent: the minimum-id neighbor one level closer to the
/// source (entry 0 names its own slot). `fwd` counts the neighbors that
/// forward the query, i.e. the node's receptions before correcting for
/// children, which do not send back on their arrival edge.
///
/// Each entry is written once and read once per batch, and at N = 10^4
/// a batch's entries outgrow the L2 cache, so the entry size sets much
/// of the accumulation's memory traffic. `Pos` is 16 bits wide when the
/// graph has at most kNarrowMaxNodes nodes: slots are then below 2^16
/// and so is every degree (the graph is simple), and the traffic halves.
template <typename Pos>
struct ReachEntry {
  Pos own_pos = 0;  // Slot in the batch-compact arrays.
  Pos parent_pos = 0;
  Pos fwd = 0;
};
constexpr std::size_t kNarrowMaxNodes =
    std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;

/// Batch-compact record of one reached node: its constants and its
/// accumulators. It fills two cache lines; a parent's update in the
/// reverse pass touches only the first.
struct alignas(64) Slot {
  // Reverse-pass state of the current source, zeroed after each use:
  // the bundle forwarded up by children, and the number of children
  // that forward the query (and so do not send it back).
  double acc_m = 0.0, acc_r = 0.0, acc_a = 0.0;
  std::uint32_t kids = 0;
  std::uint32_t degree = 0;
  // Weighted sums over the batch's sources (w = source query rate):
  // query transmissions/receptions and reach...
  double wt = 0.0, wr = 0.0, wreach = 0.0;
  // ...response bundles sent (excluding each source's own row)...
  double snd_m = 0.0, snd_r = 0.0, snd_a = 0.0;
  // ...and subtree-only bundles received (children's, excluding the
  // node's own response — summed directly so no cancellation occurs).
  double sub_m = 0.0, sub_r = 0.0, sub_a = 0.0;
  // The node's own response: message probability, results, addresses.
  double own_m = 0.0, own_r = 0.0, own_a = 0.0;
};
static_assert(sizeof(Slot) == 128);

/// Software prefetch distances, in level entries (stage 1) and reach
/// entries (stage 2): far enough ahead to cover an L3 access.
constexpr std::size_t kWordPrefetchEntries = 4;
constexpr std::uint32_t kSlotPrefetchEntries = 16;

/// Everything one 64-source batch contributes to the evaluation,
/// extracted on the worker so the fold (which runs on one thread, in
/// batch order) stays cheap and deterministic.
struct BatchResult {
  // Sparse per-cluster query-phase load, node ids ascending.
  std::vector<std::pair<NodeId, RawLoad>> pool_delta;
  double weighted_results = 0.0;
  double weighted_epl = 0.0;
  double weighted_reach = 0.0;
  double total_weight = 0.0;
  double duplicates = 0.0;  // Sum over batch sources of w * dup.
  // Deterministic kernel tallies.
  std::uint64_t levels = 0;
  std::uint64_t frontier_entries = 0;
  std::uint64_t reached = 0;
  std::size_t scratch_bytes = 0;  // Size-based, so parallelism-independent.
  // Wall-clock phase times; report-only.
  double expand_seconds = 0.0;
  double accumulate_seconds = 0.0;
};

/// Node-indexed state of a batch's level walk, kept in one record so a
/// neighbor visit makes one random load instead of three.
struct NodeWords {
  std::uint64_t prev = 0;  // Sources reaching the node one level up.
  std::uint64_t fwd = 0;   // Sources for which it forwards (depth < ttl).
  std::uint32_t pos = 0;   // Slot in the batch-compact arrays.
};

/// Per-worker reusable state. The node-indexed `prev`/`fwd` words are
/// zero between batches, and `pos` is set for every node a batch reaches
/// before it is read; the compact arrays have one slot per distinct node
/// reached by the current batch. Every value read during a batch is
/// (re)initialized by that batch, so results never depend on which
/// batches a worker ran before — the property that makes parallelism
/// bit-transparent.
template <typename Pos>
struct BatchScratch {
  explicit BatchScratch(std::size_t n) : words(n) {}

  BatchedBfs bfs;
  std::vector<NodeWords> words;
  std::vector<std::uint64_t> union_bits;  // SortUniqueNodes scratch.
  std::vector<NodeId> union_nodes;  // Distinct reached nodes, ascending.
  std::vector<RawLoad> pool;
  std::vector<Slot> slots;
  std::array<std::vector<ReachEntry<Pos>>, kBfsWordBits> reach;
  // level_begin[d][i]: index of source i's first depth-d reach entry.
  std::vector<std::array<std::uint32_t, kBfsWordBits>> level_begin;
};

/// Appends (own, parent, fwd) to the reach list of every source in
/// `sources`.
template <typename Pos>
void Emit(BatchScratch<Pos>& sc, std::uint64_t sources, std::uint32_t own,
          std::uint32_t parent, std::uint32_t fwd) {
  const ReachEntry<Pos> entry{static_cast<Pos>(own), static_cast<Pos>(parent),
                              static_cast<Pos>(fwd)};
  for (; sources != 0; sources &= sources - 1) {
    sc.reach[static_cast<std::size_t>(std::countr_zero(sources))].push_back(
        entry);
  }
}

class Evaluator {
 public:
  Evaluator(const NetworkInstance& inst, const Configuration& config,
            const ModelInputs& inputs)
      : inst_(inst),
        config_(config),
        costs_(inputs.costs),
        n_(inst.NumClusters()),
        k_(inst.redundancy_k),
        qlen_(inputs.stats.query_length_bytes),
        qbytes_(inputs.costs.QueryBytes(qlen_)),
        sendq_(inputs.costs.SendQueryUnits(qlen_)),
        recvq_(inputs.costs.RecvQueryUnits(qlen_)) {
    cluster_pool_.assign(n_, RawLoad{});
    partner_raw_.assign(inst.TotalPartners(), RawLoad{});
    client_raw_.assign(inst.TotalClients(), RawLoad{});
    conn_.resize(n_);
    users_.resize(n_);
    query_rate_of_cluster_.resize(n_);
    submit_rate_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      conn_[i] = inst.PartnerConnections(i);
      users_[i] = static_cast<double>(inst.ClusterUsers(i));
      query_rate_of_cluster_[i] = users_[i] * config.query_rate;
      submit_rate_[i] =
          static_cast<double>(inst.NumClients(i)) * config.query_rate;
    }
    client_conn_ = inst.ClientConnections();
  }

  InstanceLoads Run(const EvalOptions& options) {
    out_.results_per_query.assign(n_, 0.0);
    out_.epl_per_source.assign(n_, 0.0);
    out_.reach_per_source.assign(n_, 0.0);

    if (inst_.topology.is_complete()) {
      EvaluateQueriesComplete();
    } else {
      if (n_ <= kNarrowMaxNodes) {
        EvaluateQueriesBatched<std::uint16_t>(options);
      } else {
        EvaluateQueriesBatched<std::uint32_t>(options);
      }
    }
    EvaluateJoinsAndUpdates();
    return Finalize();
  }

 private:
  // --- Response-message composition helpers -------------------------------
  // A bundle of expected response traffic is described by (msgs, results,
  // addrs); both bytes and processing costs are linear in those three.
  double ResponseBytes(double msgs, double results, double addrs) const {
    return costs_.response_base_bytes * msgs +
           costs_.response_per_addr_bytes * addrs +
           costs_.response_per_result_bytes * results;
  }
  double SendResponseUnits(double msgs, double results, double addrs,
                           double connections) const {
    return costs_.send_response_units * msgs +
           costs_.send_response_per_addr * addrs +
           costs_.send_response_per_result * results +
           msgs * costs_.MultiplexUnits(connections);
  }
  double RecvResponseUnits(double msgs, double results, double addrs,
                           double connections) const {
    return costs_.recv_response_units * msgs +
           costs_.recv_response_per_addr * addrs +
           costs_.recv_response_per_result * results +
           msgs * costs_.MultiplexUnits(connections);
  }

  /// Client <-> super-peer traffic that every client-originated query
  /// incurs inside the source cluster `s`: the submission hop and the
  /// forwarding of every response (msgs/results/addrs totals) to the
  /// querying client. `source_pool` is cluster s's query-traffic pool
  /// (batch-local in the batched path). Client entries are only ever
  /// touched by their own cluster's source, so writing them from a
  /// worker is race-free and order-independent.
  void ApplyIntraClusterQueryTraffic(std::size_t s, double total_msgs,
                                     double total_results, double total_addrs,
                                     RawLoad& source_pool) {
    const double submit_rate = submit_rate_[s];  // client queries/sec
    // Submission hop: one query message client -> one partner.
    source_pool.in_bytes += submit_rate * qbytes_;
    source_pool.units +=
        submit_rate * (recvq_ + costs_.MultiplexUnits(conn_[s]));
    // Response forwarding: every response message (network + the local
    // one assembled from the cluster's own index) is relayed to the
    // querying client.
    source_pool.out_bytes +=
        submit_rate * ResponseBytes(total_msgs, total_results, total_addrs);
    source_pool.units += submit_rate * SendResponseUnits(
                             total_msgs, total_results, total_addrs, conn_[s]);
    // Client side, per client of cluster s (each submits at query_rate).
    const double rate = config_.query_rate;
    RawLoad client_delta;
    client_delta.out_bytes = rate * qbytes_;
    client_delta.units = rate * (sendq_ + costs_.MultiplexUnits(client_conn_));
    client_delta.in_bytes =
        rate * ResponseBytes(total_msgs, total_results, total_addrs);
    client_delta.units += rate * RecvResponseUnits(total_msgs, total_results,
                                                   total_addrs, client_conn_);
    for (std::size_t c = inst_.client_offset[s];
         c < inst_.client_offset[s + 1]; ++c) {
      client_raw_[c].in_bytes += client_delta.in_bytes;
      client_raw_[c].out_bytes += client_delta.out_bytes;
      client_raw_[c].units += client_delta.units;
    }
  }

  // --- Sparse (power-law) query evaluation ---------------------------------
  //
  // Sources are processed in batches of 64 by the bit-parallel batched
  // BFS kernel. One batch is evaluated in three stages:
  //
  //   1. Walk the level entries (node, source-word) once. For all the
  //      word's sources together, a scan of the node's sorted neighbors
  //      against the previous level's words finds each source's canonical
  //      parent, and the forwarding-neighbor count comes from the degree
  //      (or, in the last levels, from the words of the levels < TTL).
  //      Each (source, node) pair lands in its source's reach list.
  //   2. Per source, one reverse pass over the reach list runs the
  //      flooding-cost and response-tree recurrences, accumulating only
  //      the *weighted integer/bundle sums* per reached node (the load
  //      algebra is linear in them).
  //   3. Once per reached node per batch, expand those sums into the
  //      RawLoad pool using the per-node cost constants.
  //
  // Per-batch results are folded into the global pools in batch order on
  // the calling thread, so evaluation parallelism never reorders any
  // floating-point reduction (the model/trials.cc contract).

  template <typename Pos>
  BatchResult ComputeBatch(std::size_t b, BatchScratch<Pos>& sc) {
    const Graph& graph = inst_.topology.graph();
    BatchResult res;
    const std::size_t begin = b * kBfsWordBits;
    const std::size_t end = std::min(n_, begin + kBfsWordBits);
    const std::size_t batch_size = end - begin;
    std::array<NodeId, kBfsWordBits> sources;
    for (std::size_t i = 0; i < batch_size; ++i) {
      sources[i] = static_cast<NodeId>(begin + i);
    }

    const auto t0 = std::chrono::steady_clock::now();
    sc.bfs.Run(graph, {sources.data(), batch_size}, config_.ttl);
    const auto t1 = std::chrono::steady_clock::now();
    res.expand_seconds = std::chrono::duration<double>(t1 - t0).count();

    // Union of reached nodes -> batch-compact positions.
    const int num_levels = sc.bfs.num_levels();
    sc.union_nodes.clear();
    std::uint64_t frontier_entries = 0;
    for (int d = 0; d < num_levels; ++d) {
      const auto level = sc.bfs.Level(d);
      frontier_entries += level.size();
      for (const BatchLevelEntry& e : level) sc.union_nodes.push_back(e.node);
    }
    SortUniqueNodes(sc.union_nodes, n_, sc.union_bits);
    const std::size_t m = sc.union_nodes.size();
    sc.pool.assign(m, RawLoad{});
    sc.slots.assign(m, Slot{});
    for (std::uint32_t p = 0; p < m; ++p) {
      const NodeId u = sc.union_nodes[p];
      sc.words[u].pos = p;
      Slot& slot = sc.slots[p];
      slot.degree = static_cast<std::uint32_t>(graph.Degree(u));
      slot.own_m = inst_.response_prob[u];
      slot.own_r = inst_.expected_results[u];
      slot.own_a = inst_.expected_addrs[u];
    }

    // Stage 1. A node at depth d has all its neighbors within depth
    // d + 1, so below depth ttl - 1 every neighbor forwards and the count
    // is the degree. Levels d >= ttl - 1 count, per source, the neighbors
    // whose `fwd` word carries its bit.
    const int ttl = config_.ttl;
    const int forwarding_levels = std::min(num_levels, ttl);
    for (int d = 0; d < forwarding_levels; ++d) {
      for (const BatchLevelEntry& e : sc.bfs.Level(d)) {
        sc.words[e.node].fwd |= e.word;
      }
    }
    for (std::size_t i = 0; i < batch_size; ++i) sc.reach[i].clear();
    sc.level_begin.resize(static_cast<std::size_t>(num_levels) + 1);
    std::array<std::uint32_t, kBfsWordBits> counted{};
    std::array<std::uint32_t, kBfsWordBits> parent{};
    for (int d = 0; d < num_levels; ++d) {
      for (std::size_t i = 0; i < batch_size; ++i) {
        sc.level_begin[d][i] = static_cast<std::uint32_t>(sc.reach[i].size());
      }
      const bool all_forward = d + 1 < ttl;
      const std::span<const BatchLevelEntry> level = sc.bfs.Level(d);
      for (std::size_t j = 0; j < level.size(); ++j) {
        const BatchLevelEntry& e = level[j];
        // The neighbor words are random reads; start those of a later
        // entry now so their misses overlap this entry's work.
        if (j + kWordPrefetchEntries < level.size()) {
          for (const NodeId u :
               graph.Neighbors(level[j + kWordPrefetchEntries].node)) {
            __builtin_prefetch(&sc.words[u]);
          }
        }
        const std::span<const NodeId> neighbors = graph.Neighbors(e.node);
        const std::uint32_t own = sc.words[e.node].pos;
        // Canonical parent: neighbors are sorted, so the first one whose
        // previous-level word carries a source's bit is its minimum-id
        // parent. The sources themselves (d == 0) have none.
        std::uint64_t remaining = d == 0 ? 0 : e.word;
        if (all_forward) {
          const auto degree = static_cast<std::uint32_t>(neighbors.size());
          if (d == 0) {
            Emit(sc, e.word, own, own, degree);
            continue;
          }
          // Every source finds its parent, which ends the scan.
          for (const NodeId u : neighbors) {
            const NodeWords& nw = sc.words[u];
            const std::uint64_t hit = remaining & nw.prev;
            if (hit == 0) continue;
            Emit(sc, hit, own, nw.pos, degree);
            remaining ^= hit;
            if (remaining == 0) break;
          }
          continue;
        }
        // Last levels: the forwarder count needs every neighbor, so the
        // parent search shares the full scan.
        for (std::uint64_t w = e.word; w != 0; w &= w - 1) {
          const int i = std::countr_zero(w);
          counted[i] = 0;
          parent[i] = own;
        }
        for (const NodeId u : neighbors) {
          const NodeWords& nw = sc.words[u];
          for (std::uint64_t w = nw.fwd & e.word; w != 0; w &= w - 1) {
            ++counted[std::countr_zero(w)];
          }
          for (std::uint64_t hit = remaining & nw.prev; hit != 0;
               hit &= hit - 1) {
            parent[std::countr_zero(hit)] = nw.pos;
          }
          remaining &= ~nw.prev;
        }
        for (std::uint64_t w = e.word; w != 0; w &= w - 1) {
          const int i = std::countr_zero(w);
          sc.reach[static_cast<std::size_t>(i)].push_back(
              {static_cast<Pos>(own), static_cast<Pos>(parent[i]),
               static_cast<Pos>(counted[i])});
        }
      }
      if (d > 0) {
        for (const BatchLevelEntry& e : sc.bfs.Level(d - 1)) {
          sc.words[e.node].prev = 0;
        }
      }
      for (const BatchLevelEntry& e : sc.bfs.Level(d)) {
        sc.words[e.node].prev = e.word;
      }
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
      sc.level_begin[num_levels][i] =
          static_cast<std::uint32_t>(sc.reach[i].size());
    }
    for (const BatchLevelEntry& e : sc.bfs.Level(num_levels - 1)) {
      sc.words[e.node].prev = 0;
    }
    for (int d = 0; d < forwarding_levels; ++d) {
      for (const BatchLevelEntry& e : sc.bfs.Level(d)) {
        sc.words[e.node].fwd = 0;
      }
    }

    // Stage 2: one reverse pass per source, in reverse canonical order,
    // so children are finalized before their parents (a parent precedes
    // its children in the list). Each slot gets one contribution per
    // source, in source order.
    for (std::size_t i = 0; i < batch_size; ++i) {
      const std::size_t s = begin + i;
      const double w = query_rate_of_cluster_[s];
      const std::vector<ReachEntry<Pos>>& list = sc.reach[i];
      const auto r_count = static_cast<std::uint32_t>(list.size());
      res.reached += r_count;

      std::uint64_t recv_total = 0;
      double source_msgs = 0.0, source_results = 0.0, source_addrs = 0.0;
      double epl_num = 0.0, epl_den = 0.0;
      for (int d = num_levels; d-- > 0;) {
        const bool forwards = d < ttl;
        const std::uint32_t first = sc.level_begin[d][i];
        for (std::uint32_t idx = sc.level_begin[d + 1][i]; idx-- > first;) {
          const ReachEntry<Pos>& e = list[idx];
          // The slot array outgrows L2 at N = 10^4; fetch the slots of
          // the entry visited kSlotPrefetchEntries steps later now.
          if (idx >= kSlotPrefetchEntries) {
            const ReachEntry<Pos>& ahead = list[idx - kSlotPrefetchEntries];
            const auto* own_slot =
                reinterpret_cast<const char*>(&sc.slots[ahead.own_pos]);
            __builtin_prefetch(own_slot, 1);
            __builtin_prefetch(own_slot + 64, 1);
            __builtin_prefetch(&sc.slots[ahead.parent_pos], 1);
          }
          Slot& slot = sc.slots[e.own_pos];

          // Flooding costs: transmissions exclude the arrival edge;
          // receptions exclude forwarding children's arrival edges.
          const double t =
              forwards ? static_cast<double>(slot.degree) -
                             (idx != 0 ? 1.0 : 0.0)
                       : 0.0;
          const std::uint32_t recv = std::uint32_t{e.fwd} - slot.kids;
          slot.kids = 0;
          recv_total += recv;
          slot.wt += w * t;
          slot.wr += w * static_cast<double>(recv);
          slot.wreach += w;

          // Response accumulation up the canonical predecessor tree.
          const double am = slot.acc_m;
          const double ar = slot.acc_r;
          const double aa = slot.acc_a;
          slot.acc_m = slot.acc_r = slot.acc_a = 0.0;
          const double msgs = am + slot.own_m;
          const double results = ar + slot.own_r;
          const double addrs = aa + slot.own_a;
          // Receive the subtree part (own response originates locally).
          slot.sub_m += w * am;
          slot.sub_r += w * ar;
          slot.sub_a += w * aa;
          if (idx == 0) {  // The source: nothing sent onward.
            source_msgs = msgs;
            source_results = results;
            source_addrs = addrs;
            continue;
          }
          // Send own response plus everything forwarded from the subtree.
          slot.snd_m += w * msgs;
          slot.snd_r += w * results;
          slot.snd_a += w * addrs;
          // Pass the bundle to the canonical parent.
          Slot& parent = sc.slots[e.parent_pos];
          parent.acc_m += msgs;
          parent.acc_r += results;
          parent.acc_a += addrs;
          if (forwards) ++parent.kids;
          // EPL bookkeeping: response messages travel d hops.
          epl_num += slot.own_m * static_cast<double>(d);
          epl_den += slot.own_m;
        }
      }

      ApplyIntraClusterQueryTraffic(s, source_msgs, source_results,
                                    source_addrs, sc.pool[list[0].own_pos]);

      out_.results_per_query[s] = source_results;
      out_.epl_per_source[s] = epl_den > 0.0 ? epl_num / epl_den : 0.0;
      out_.reach_per_source[s] = static_cast<double>(r_count);
      res.weighted_results += w * source_results;
      res.weighted_epl += w * out_.epl_per_source[s];
      res.weighted_reach += w * static_cast<double>(r_count);
      res.total_weight += w;
      res.duplicates +=
          w * static_cast<double>(recv_total -
                                  static_cast<std::uint64_t>(r_count - 1));
    }

    // Stage 3: expand the weighted sums into per-node loads, once per
    // reached node per batch: the load algebra is linear in the
    // per-source bundles, so summing bundles first is exact up to FP
    // reassociation — and the reassociation is fixed here, shared by
    // both engines.
    for (std::uint32_t p = 0; p < m; ++p) {
      const NodeId u = sc.union_nodes[p];
      const Slot& sum = sc.slots[p];
      RawLoad& pool = sc.pool[p];
      const double mux = costs_.MultiplexUnits(conn_[u]);
      pool.out_bytes += sum.wt * qbytes_;
      pool.units += sum.wt * (sendq_ + mux);
      pool.in_bytes += sum.wr * qbytes_;
      pool.units += sum.wr * (recvq_ + mux);
      // Every reached cluster processes the query over its index once.
      pool.units +=
          sum.wreach * costs_.ProcessQueryUnits(inst_.expected_results[u]);
      pool.out_bytes += ResponseBytes(sum.snd_m, sum.snd_r, sum.snd_a);
      pool.units +=
          SendResponseUnits(sum.snd_m, sum.snd_r, sum.snd_a, conn_[u]);
      pool.in_bytes += ResponseBytes(sum.sub_m, sum.sub_r, sum.sub_a);
      pool.units +=
          RecvResponseUnits(sum.sub_m, sum.sub_r, sum.sub_a, conn_[u]);
    }
    res.pool_delta.reserve(m);
    for (std::uint32_t p = 0; p < m; ++p) {
      res.pool_delta.emplace_back(sc.union_nodes[p], sc.pool[p]);
    }

    res.levels = static_cast<std::uint64_t>(num_levels);
    res.frontier_entries = frontier_entries;
    // Size-based footprint accounting (capacities depend on worker
    // history, sizes do not — the gauge must be parallelism-invariant):
    // the node-indexed words, the kernel's visited/next words, the two
    // node bitmaps, the per-slot arrays, the level lists, the reach lists
    // and their per-level offsets.
    std::size_t reach_entries = 0;
    for (std::size_t i = 0; i < batch_size; ++i) {
      reach_entries += sc.reach[i].size();
    }
    res.scratch_bytes =
        n_ * sizeof(NodeWords) +
        2 * n_ * sizeof(std::uint64_t) +
        2 * WordsForBits(n_) * sizeof(std::uint64_t) +
        m * (sizeof(NodeId) + sizeof(RawLoad) + sizeof(Slot)) +
        (static_cast<std::size_t>(num_levels) + 1) * kBfsWordBits *
            sizeof(std::uint32_t) +
        static_cast<std::size_t>(frontier_entries) * sizeof(BatchLevelEntry) +
        reach_entries * sizeof(ReachEntry<Pos>);
    res.accumulate_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t1)
                                 .count();
    return res;
  }

  template <typename Pos>
  void EvaluateQueriesBatched(const EvalOptions& options) {
    SPPNET_CHECK(config_.ttl >= 0);
    const std::size_t num_batches = WordsForBits(n_);

    double weighted_results = 0.0;
    double weighted_epl = 0.0;
    double weighted_reach = 0.0;
    double total_weight = 0.0;
    std::uint64_t levels_total = 0;
    std::uint64_t frontier_total = 0;
    std::uint64_t reached_total = 0;
    std::size_t scratch_bytes_max = 0;
    double expand_seconds = 0.0;
    double accumulate_seconds = 0.0;
    const auto fold = [&](BatchResult&& r) {
      for (const auto& [u, delta] : r.pool_delta) {
        RawLoad& pool = cluster_pool_[u];
        pool.in_bytes += delta.in_bytes;
        pool.out_bytes += delta.out_bytes;
        pool.units += delta.units;
      }
      weighted_results += r.weighted_results;
      weighted_epl += r.weighted_epl;
      weighted_reach += r.weighted_reach;
      total_weight += r.total_weight;
      out_.duplicate_msgs_per_sec += r.duplicates;
      levels_total += r.levels;
      frontier_total += r.frontier_entries;
      reached_total += r.reached;
      scratch_bytes_max = std::max(scratch_bytes_max, r.scratch_bytes);
      expand_seconds += r.expand_seconds;
      accumulate_seconds += r.accumulate_seconds;
    };

    const std::size_t workers =
        std::max<std::size_t>(1, std::min(options.parallelism, num_batches));
    if (workers <= 1) {
      BatchScratch<Pos> scratch(n_);
      for (std::size_t b = 0; b < num_batches; ++b) {
        fold(ComputeBatch(b, scratch));
      }
    } else {
      // Workers claim batches in order off an atomic counter; the
      // calling thread folds results strictly in batch order. The
      // in-flight window bounds buffered results (and so memory) while
      // still letting fast workers run ahead.
      std::mutex mu;
      std::condition_variable space_available;
      std::condition_variable result_ready;
      std::map<std::size_t, BatchResult> ready;
      std::size_t fold_cursor = 0;
      std::atomic<std::size_t> next_batch{0};
      const std::size_t window = 2 * workers;

      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
          BatchScratch<Pos> scratch(n_);
          while (true) {
            const std::size_t b = next_batch.fetch_add(1);
            if (b >= num_batches) break;
            {
              std::unique_lock<std::mutex> lock(mu);
              space_available.wait(
                  lock, [&] { return b < fold_cursor + window; });
            }
            BatchResult r = ComputeBatch(b, scratch);
            {
              std::lock_guard<std::mutex> lock(mu);
              ready.emplace(b, std::move(r));
            }
            result_ready.notify_all();
          }
        });
      }
      for (std::size_t b = 0; b < num_batches; ++b) {
        BatchResult r;
        {
          std::unique_lock<std::mutex> lock(mu);
          result_ready.wait(lock, [&] { return ready.count(b) != 0; });
          r = std::move(ready.at(b));
          ready.erase(b);
          ++fold_cursor;
        }
        space_available.notify_all();
        fold(std::move(r));
      }
      for (std::thread& thread : pool) thread.join();
    }

    FinishSourceAverages(weighted_results, weighted_epl, weighted_reach,
                         total_weight);
    if (options.metrics != nullptr) {
      options.metrics->GetCounter("eval.sources").Increment(n_);
      options.metrics->GetCounter("eval.bfs.batches").Increment(num_batches);
      options.metrics->GetCounter("eval.bfs.levels").Increment(levels_total);
      options.metrics->GetCounter("eval.bfs.frontier_entries")
          .Increment(frontier_total);
      options.metrics->GetCounter("eval.reached").Increment(reached_total);
      options.metrics->GetGauge("eval.scratch.bytes")
          .SetMax(static_cast<double>(scratch_bytes_max));
      options.metrics->GetTimer("eval.bfs.expand").Record(expand_seconds);
      options.metrics->GetTimer("eval.accumulate").Record(accumulate_seconds);
    }
  }

  // --- Complete ("strongly connected") query evaluation -------------------
  // Every non-source cluster sits at depth 1, so all per-source floods
  // collapse into totals over clusters: O(n) overall.
  void EvaluateQueriesComplete() {
    double sum_rate = 0.0;  // total queries/sec
    double sum_p = 0.0, sum_n = 0.0, sum_k = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum_rate += query_rate_of_cluster_[i];
      sum_p += inst_.response_prob[i];
      sum_n += inst_.expected_results[i];
      sum_k += inst_.expected_addrs[i];
    }
    const auto nd = static_cast<double>(n_);
    const bool forwards_duplicates = config_.ttl >= 2 && n_ >= 3;

    double weighted_results = 0.0;
    double weighted_epl = 0.0;
    double weighted_reach = 0.0;

    for (std::size_t v = 0; v < n_; ++v) {
      RawLoad& pool = cluster_pool_[v];
      const double w_own = query_rate_of_cluster_[v];
      const double w_other = sum_rate - w_own;
      const double mux = costs_.MultiplexUnits(conn_[v]);

      // As source: flood to all n-1 neighbors and process own query.
      pool.out_bytes += w_own * (nd - 1.0) * qbytes_;
      pool.units += w_own * (nd - 1.0) * (sendq_ + mux);
      pool.units += w_own * costs_.ProcessQueryUnits(inst_.expected_results[v]);
      // As source: responses arrive directly from every other cluster.
      {
        const double msgs = sum_p - inst_.response_prob[v];
        const double res = sum_n - inst_.expected_results[v];
        const double addr = sum_k - inst_.expected_addrs[v];
        pool.in_bytes += w_own * ResponseBytes(msgs, res, addr);
        pool.units += w_own * RecvResponseUnits(msgs, res, addr, conn_[v]);
      }
      // As responder for every foreign query: one fresh reception,
      // processing, and a direct response back to the source.
      pool.in_bytes += w_other * qbytes_;
      pool.units += w_other * (recvq_ + mux);
      pool.units +=
          w_other * costs_.ProcessQueryUnits(inst_.expected_results[v]);
      pool.out_bytes += w_other * ResponseBytes(inst_.response_prob[v],
                                                inst_.expected_results[v],
                                                inst_.expected_addrs[v]);
      pool.units += w_other * SendResponseUnits(inst_.response_prob[v],
                                                inst_.expected_results[v],
                                                inst_.expected_addrs[v],
                                                conn_[v]);
      // TTL >= 2: depth-1 clusters forward to everyone but the source,
      // producing n-2 redundant transmissions and receptions each.
      if (forwards_duplicates) {
        const double dup = nd - 2.0;
        pool.out_bytes += w_other * dup * qbytes_;
        pool.units += w_other * dup * (sendq_ + mux);
        pool.in_bytes += w_other * dup * qbytes_;
        pool.units += w_other * dup * (recvq_ + mux);
      }

      ApplyIntraClusterQueryTraffic(v, sum_p, sum_n, sum_k, pool);

      out_.results_per_query[v] = sum_n;
      out_.epl_per_source[v] = n_ > 1 ? 1.0 : 0.0;
      out_.reach_per_source[v] = nd;
      weighted_results += w_own * sum_n;
      weighted_epl += w_own * out_.epl_per_source[v];
      weighted_reach += w_own * nd;
    }
    if (forwards_duplicates) {
      out_.duplicate_msgs_per_sec = sum_rate * (nd - 1.0) * (nd - 2.0);
    }
    FinishSourceAverages(weighted_results, weighted_epl, weighted_reach,
                         sum_rate);
  }

  void FinishSourceAverages(double weighted_results, double weighted_epl,
                            double weighted_reach, double total_weight) {
    if (total_weight > 0.0) {
      out_.mean_results = weighted_results / total_weight;
      out_.mean_epl = weighted_epl / total_weight;
      out_.mean_reach = weighted_reach / total_weight;
    }
  }

  // --- Joins and updates (topology-independent) ----------------------------
  void EvaluateJoinsAndUpdates() {
    const auto kd = static_cast<double>(k_);
    const double upd_rate = config_.update_rate;
    const double client_mux = costs_.MultiplexUnits(client_conn_);

    for (std::size_t i = 0; i < n_; ++i) {
      const double sp_mux = costs_.MultiplexUnits(conn_[i]);

      // Client joins and updates: a client sends its Join metadata and
      // Update messages to every partner (aggregate join cost is k times
      // greater with redundancy, Section 3.2); each partner receives and
      // indexes the full payload.
      for (std::size_t c = inst_.client_offset[i];
           c < inst_.client_offset[i + 1]; ++c) {
        const auto files = static_cast<double>(inst_.client_files[c]);
        const double join_rate = 1.0 / inst_.client_lifespan[c];
        const double join_bytes = costs_.JoinBytes(files);

        client_raw_[c].out_bytes += join_rate * kd * join_bytes;
        client_raw_[c].units +=
            join_rate * kd * (costs_.SendJoinUnits(files) + client_mux);
        client_raw_[c].out_bytes += upd_rate * kd * costs_.UpdateBytes();
        client_raw_[c].units +=
            upd_rate * kd * (costs_.send_update_units + client_mux);

        for (int p = 0; p < k_; ++p) {
          RawLoad& partner = partner_raw_[i * static_cast<std::size_t>(k_) +
                                          static_cast<std::size_t>(p)];
          partner.in_bytes += join_rate * join_bytes;
          partner.units += join_rate * (costs_.RecvJoinUnits(files) +
                                        costs_.ProcessJoinUnits(files) +
                                        sp_mux);
          partner.in_bytes += upd_rate * costs_.UpdateBytes();
          partner.units += upd_rate * (costs_.recv_update_units +
                                       costs_.process_update_units + sp_mux);
        }
      }

      // Partner churn: a (re)joining partner indexes its own collection
      // locally and, with 2-redundancy, mirrors it to the other partner.
      // (Client re-joins triggered by super-peer failure are a dynamic
      // effect; the discrete-event simulator captures them, the static
      // mean-value model follows the paper and does not.)
      for (int p = 0; p < k_; ++p) {
        const std::size_t slot =
            i * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p);
        RawLoad& self = partner_raw_[slot];
        const auto files = static_cast<double>(inst_.partner_files[slot]);
        const double join_rate = 1.0 / inst_.partner_lifespan[slot];

        self.units += join_rate * costs_.ProcessJoinUnits(files);
        self.units += upd_rate * costs_.process_update_units;
        // Mirror own metadata to every co-partner (k-redundancy: each
        // partner holds the other partners' data too).
        for (int q = 0; q < k_; ++q) {
          if (q == p) continue;
          RawLoad& other = partner_raw_[i * static_cast<std::size_t>(k_) +
                                        static_cast<std::size_t>(q)];
          const double join_bytes = costs_.JoinBytes(files);
          self.out_bytes += join_rate * join_bytes;
          self.units += join_rate * (costs_.SendJoinUnits(files) + sp_mux);
          other.in_bytes += join_rate * join_bytes;
          other.units += join_rate * (costs_.RecvJoinUnits(files) +
                                      costs_.ProcessJoinUnits(files) + sp_mux);
          self.out_bytes += upd_rate * costs_.UpdateBytes();
          self.units += upd_rate * (costs_.send_update_units + sp_mux);
          other.in_bytes += upd_rate * costs_.UpdateBytes();
          other.units += upd_rate * (costs_.recv_update_units +
                                     costs_.process_update_units + sp_mux);
        }
      }
    }
  }

  // --- Final conversion ----------------------------------------------------
  LoadVector Convert(const RawLoad& raw) const {
    LoadVector lv;
    lv.in_bps = BytesPerSecToBps(raw.in_bytes);
    lv.out_bps = BytesPerSecToBps(raw.out_bytes);
    lv.proc_hz = costs_.UnitsToHz(raw.units);
    return lv;
  }

  InstanceLoads Finalize() {
    const double inv_k = 1.0 / static_cast<double>(k_);
    out_.partner_load.resize(inst_.TotalPartners());
    for (std::size_t i = 0; i < n_; ++i) {
      // Query-phase traffic is spread across partners round-robin; joins
      // and updates hit each partner in full.
      const LoadVector shared = Convert(cluster_pool_[i]) * inv_k;
      for (int p = 0; p < k_; ++p) {
        const std::size_t slot =
            i * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p);
        out_.partner_load[slot] = shared + Convert(partner_raw_[slot]);
      }
    }
    out_.client_load.resize(inst_.TotalClients());
    for (std::size_t c = 0; c < client_raw_.size(); ++c) {
      out_.client_load[c] = Convert(client_raw_[c]);
    }
    out_.aggregate = LoadVector{};
    for (const auto& l : out_.partner_load) out_.aggregate += l;
    for (const auto& l : out_.client_load) out_.aggregate += l;
    return std::move(out_);
  }

  const NetworkInstance& inst_;
  const Configuration& config_;
  const CostTable& costs_;
  const std::size_t n_;
  const int k_;
  const double qlen_;
  const double qbytes_;
  const double sendq_;
  const double recvq_;

  std::vector<RawLoad> cluster_pool_;   // Query traffic, shared per cluster.
  std::vector<RawLoad> partner_raw_;    // Join/update traffic, per partner.
  std::vector<RawLoad> client_raw_;
  std::vector<double> conn_;            // Open connections per partner.
  std::vector<double> users_;
  std::vector<double> query_rate_of_cluster_;
  std::vector<double> submit_rate_;     // Client-originated queries/sec.
  double client_conn_ = 1.0;

  InstanceLoads out_;
};

}  // namespace

InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs) {
  return EvaluateInstance(instance, config, inputs, EvalOptions{});
}

InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs,
                               const EvalOptions& options) {
  SPPNET_CHECK(instance.NumClusters() >= 1);
  Evaluator evaluator(instance, config, inputs);
  return evaluator.Run(options);
}

}  // namespace sppnet
