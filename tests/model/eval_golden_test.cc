// ctest-label: threaded
// Golden pin of the sparse-topology evaluator: FNV-1a digests of every
// InstanceLoads field, one set per configuration, checked at every
// parallelism level. eval_identity_test only compares parallelism levels
// against each other, and those share the accumulation code, so a change
// to that code that moves every variant alike would pass it. These
// digests fail on any change to any bit of any field; re-pin them only
// for a deliberate model change. When they were generated the
// scalar-reference BFS kernel was still an evaluator option and matched
// them too.
//
// On a mismatch the failure message prints the new digest of every field.

#include <bit>
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/instance.h"
#include "sppnet/topology/generators.h"

namespace sppnet {
namespace {

/// 64-bit FNV-1a over the IEEE-754 bit patterns of a double stream.
class Fnv1a {
 public:
  void Add(double x) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= bits & 0xFF;
      hash_ *= 0x100000001B3ULL;
      bits >>= 8;
    }
  }
  void Add(const LoadVector& v) {
    Add(v.in_bps);
    Add(v.out_bps);
    Add(v.proc_hz);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

template <typename T>
std::uint64_t DigestOf(const std::vector<T>& values) {
  Fnv1a h;
  for (const T& v : values) h.Add(v);
  return h.value();
}

template <typename T>
std::uint64_t DigestOf(const T& value) {
  Fnv1a h;
  h.Add(value);
  return h.value();
}

/// One digest per InstanceLoads field, in declaration order.
struct LoadDigests {
  std::uint64_t partner_load;
  std::uint64_t client_load;
  std::uint64_t results_per_query;
  std::uint64_t epl_per_source;
  std::uint64_t reach_per_source;
  std::uint64_t aggregate;
  std::uint64_t mean_results;
  std::uint64_t mean_epl;
  std::uint64_t mean_reach;
  std::uint64_t duplicate_msgs_per_sec;
};

LoadDigests Digest(const InstanceLoads& l) {
  return {DigestOf(l.partner_load),      DigestOf(l.client_load),
          DigestOf(l.results_per_query), DigestOf(l.epl_per_source),
          DigestOf(l.reach_per_source),  DigestOf(l.aggregate),
          DigestOf(l.mean_results),      DigestOf(l.mean_epl),
          DigestOf(l.mean_reach),        DigestOf(l.duplicate_msgs_per_sec)};
}

std::string Describe(const LoadDigests& d) {
  std::ostringstream os;
  os << std::hex << std::uppercase << std::setfill('0') << "{";
  const std::uint64_t fields[] = {
      d.partner_load,   d.client_load,  d.results_per_query,
      d.epl_per_source, d.reach_per_source, d.aggregate,
      d.mean_results,   d.mean_epl,     d.mean_reach,
      d.duplicate_msgs_per_sec};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    os << (i == 0 ? "" : ", ") << "0x" << std::setw(16) << fields[i] << "ULL";
  }
  os << "}";
  return os.str();
}

struct GoldenCase {
  const char* name;
  std::size_t graph_size;
  double cluster_size;
  int redundancy_k;
  int ttl;
  double outdegree;
  /// Nonzero: a Watts-Strogatz overlay of this degree (beta 0.1)
  /// through GenerateInstanceWithTopology instead of PLOD.
  std::size_t small_world_degree;
  std::uint64_t seed;
  LoadDigests expected;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

NetworkInstance MakeInstance(const GoldenCase& c, Configuration& config,
                             const ModelInputs& inputs) {
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = c.graph_size;
  config.cluster_size = c.cluster_size;
  config.redundancy_k = c.redundancy_k;
  config.ttl = c.ttl;
  config.avg_outdegree = c.outdegree;
  Rng rng(c.seed);
  if (c.small_world_degree == 0) {
    return GenerateInstance(config, inputs, rng);
  }
  Graph graph = GenerateSmallWorld(config.NumClusters(),
                                   c.small_world_degree, 0.1, rng);
  return GenerateInstanceWithTopology(Topology::FromGraph(std::move(graph)),
                                      config, inputs, rng);
}

class EvalGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EvalGoldenTest, DigestsPinnedOnEveryEngineAndParallelism) {
  const GoldenCase& c = GetParam();
  Configuration config;
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance inst = MakeInstance(c, config, inputs);
  ASSERT_FALSE(inst.topology.is_complete());

  for (const std::size_t parallelism : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "parallelism " << parallelism);
    EvalOptions options;
    options.parallelism = parallelism;
    const LoadDigests got =
        Digest(EvaluateInstance(inst, config, inputs, options));
    const LoadDigests& want = c.expected;
    EXPECT_EQ(got.partner_load, want.partner_load);
    EXPECT_EQ(got.client_load, want.client_load);
    EXPECT_EQ(got.results_per_query, want.results_per_query);
    EXPECT_EQ(got.epl_per_source, want.epl_per_source);
    EXPECT_EQ(got.reach_per_source, want.reach_per_source);
    EXPECT_EQ(got.aggregate, want.aggregate);
    EXPECT_EQ(got.mean_results, want.mean_results);
    EXPECT_EQ(got.mean_epl, want.mean_epl);
    EXPECT_EQ(got.mean_reach, want.mean_reach);
    EXPECT_EQ(got.duplicate_msgs_per_sec, want.duplicate_msgs_per_sec);
    if (testing::Test::HasFailure()) {
      FAIL() << c.name << " digests: " << Describe(got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EvalGoldenTest,
    ::testing::Values(
        // Pure super-peer network at the paper's TTL: the configuration
        // that dominates the Fig. 4/5 sweep.
        GoldenCase{"PlodTtl7ClusterSize1", 1000, 1, 1, 7, 3.1, 0, 11,
                   {0x3856BE1EEE32CC33ULL, 0xCBF29CE484222325ULL,
                    0x64DD8DA019584564ULL, 0x4236267C30014F21ULL,
                    0x745FE3E23204B861ULL, 0xBFCBF4965F1CBC27ULL,
                    0x7C4B038733801D66ULL, 0x5B474087281C7876ULL,
                    0x6B9328C91901E331ULL, 0x984E3763BCA65A43ULL}},
        // 500 clusters: a remainder batch of 52 sources.
        GoldenCase{"PlodRemainderBatch", 5000, 10, 1, 5, 3.1, 0, 12,
                   {0x1193FD580CF303D4ULL, 0x00716302B5124950ULL,
                    0xE8E3CDF702576112ULL, 0xC4095B4F989C16CCULL,
                    0x48C51297563E97C9ULL, 0x0D0BA4AED3537645ULL,
                    0x3DADA005285511BEULL, 0x20A9F5F5C9452F3BULL,
                    0xF414240001B51EAAULL, 0x829BE62D60CA3E63ULL}},
        // 2-redundant partners.
        GoldenCase{"PlodRedundancy2", 3000, 10, 2, 4, 3.1, 0, 13,
                   {0xCB9C135B1490218AULL, 0x1CC0C16DA1A7E626ULL,
                    0x83AEB1A646689575ULL, 0x2F5A19DD353C49EBULL,
                    0x2B6793BBAC3BEABBULL, 0x70B601EC34823364ULL,
                    0xD020F01838995095ULL, 0x2C87D1BA945A2B1DULL,
                    0x9E28ECCB1F68F0C1ULL, 0x6B254DA160C180D8ULL}},
        GoldenCase{"PlodTtl0", 1000, 5, 1, 0, 3.1, 0, 14,
                   {0xADB3709ED3573C2DULL, 0xC66C1887E1496F82ULL,
                    0x8D47A4CADBC0680BULL, 0xA947E50590DE8025ULL,
                    0x48C53310198607A5ULL, 0x9305AEFA6E7B29C0ULL,
                    0x2905280185BED026ULL, 0xA8C7F832281A39C5ULL,
                    0xAAB1693229BA1DB8ULL, 0xA8C7F832281A39C5ULL}},
        GoldenCase{"PlodTtl1", 1000, 5, 1, 1, 3.1, 0, 15,
                   {0xB4DFC2094F4950B9ULL, 0x977E36A87CDFFCF3ULL,
                    0x0CC7953FA42355B0ULL, 0x48C53310198607A5ULL,
                    0x7B6A6BD7DAF14BC6ULL, 0xFAA103D934C1BEADULL,
                    0xAF4692BFB5412979ULL, 0xAAB1693229BA1DB8ULL,
                    0x36C1BACECE9D2EB6ULL, 0xA8C7F832281A39C5ULL}},
        GoldenCase{"PlodTtl2", 1000, 5, 1, 2, 3.1, 0, 16,
                   {0x03FCC0E2F7AC11EFULL, 0x29E8B9344850141DULL,
                    0xFC00134DFA58B4DBULL, 0xD7E3FA07FE9C044EULL,
                    0xABA9A275EB2506ADULL, 0x99CD1FD560E94DDBULL,
                    0x3AC29A3BD0CB4F8CULL, 0xF7DA4FC5EC264269ULL,
                    0xF2404B6BC965E5C8ULL, 0x7011CEC068500038ULL}},
        // Dense overlay, short TTL: most nodes reached, many duplicates.
        GoldenCase{"PlodDenseShortTtl", 6000, 20, 1, 2, 20.0, 0, 17,
                   {0x4F709F7AD4271843ULL, 0xA4E757348D117BDBULL,
                    0x2E10B4EC82207215ULL, 0xAA2FE5FC8A05389AULL,
                    0x191883D86890DA74ULL, 0x5D91F1747327BB35ULL,
                    0x332DA2C82658B881ULL, 0xB46991CB3DC5A22AULL,
                    0xB9B925D722DDDCC4ULL, 0x554B6F39A1C0BF94ULL}},
        GoldenCase{"SmallWorld", 4000, 10, 1, 6, 0.0, 6, 18,
                   {0x9CF87007311ED6B4ULL, 0x1C1F62CED6183947ULL,
                    0x6BF29FE0112FD655ULL, 0xCCF11F52CD42D912ULL,
                    0xC3D29E63E9E15FF0ULL, 0x60D002F79802628DULL,
                    0x94944E53FEB569AEULL, 0x0C861B340060DCF1ULL,
                    0x9C709841319DD6F5ULL, 0x7B7D0A2E0F9D0CF9ULL}}),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sppnet
