// Fig. 10: single-level vs multi-level HiSVSIM runtime on the deep
// circuits (qaoa, qft, qnn, qpe, adder) at the largest rank count.

#include <cstdio>

#include "bench_util.hpp"
#include "partition/multilevel.hpp"
#include "sv/traffic.hpp"

namespace {

using namespace hisim;

/// Modeled DRAM traffic of a two-level run: level-1 gather/scatter streams
/// the distributed state once per part; each level-2 part streams the
/// level-1 inner vector (DRAM-resident when it exceeds the LLC); gate
/// execution stays inside the cache-sized level-2 vectors. The single-level
/// run instead pays one inner-vector sweep *per gate*. This model carries
/// the Fig. 10 effect, which is a >LLC cache phenomenon our scaled wall
/// times cannot expose directly.
double multilevel_dram_bytes(const Circuit& c,
                             const partition::TwoLevelPartitioning& two) {
  const double sv = static_cast<double>(dim(c.num_qubits())) * kAmpBytes;
  double bytes = 0;
  for (std::size_t i = 0; i < two.level1.num_parts(); ++i) {
    bytes += 2.0 * sv;  // level-1 gather + scatter
    bytes += 2.0 * sv * static_cast<double>(two.level2[i].num_parts());
  }
  return bytes;
}

double singlelevel_dram_bytes(const Circuit& c,
                              const partition::Partitioning& parts) {
  const double sv = static_cast<double>(dim(c.num_qubits())) * kAmpBytes;
  double bytes = 0;
  for (const auto& part : parts.parts)
    bytes += 2.0 * sv + 2.0 * sv * static_cast<double>(part.gates.size());
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const unsigned p = args.process_qubits.back();

  std::printf("== Fig. 10: single-level vs multi-level (%u ranks) ==\n", 1u << p);
  std::printf("(wall = modeled end-to-end seconds; dram = modeled DRAM GiB "
              "for >LLC level-1 vectors)\n\n");
  bench::print_row({"circuit", "wall-1L", "wall-2L", "dram-1L", "dram-2L",
                    "dram-gain", "l1-parts", "l2-parts"},
                   {10, 9, 9, 9, 9, 9, 8, 8});

  double gains = 0;
  unsigned cases = 0;
  for (const auto& e : bench::scaled_suite(args)) {
    const std::string& name = e.meta.name;
    if (name != "qaoa" && name != "qft" && name != "qnn" && name != "qpe" &&
        name != "adder37")
      continue;
    const Circuit& c = e.circuit;
    const unsigned l = c.num_qubits() - p;
    const unsigned level2 = l > 4 ? l - 4 : l;  // cache-sized second level
    const auto single = bench::run_hisvsim(args, c, p,
                                           partition::Strategy::DagP);
    const auto multi = bench::run_hisvsim(args, c, p,
                                          partition::Strategy::DagP, level2);
    const dag::CircuitDag dag(c);
    partition::PartitionOptions po;
    po.limit = l;
    po.seed = args.seed;
    const auto parts1 = partition::make_partition(dag, po);
    const auto two = partition::partition_two_level(dag, po, level2);
    const double dram1 = singlelevel_dram_bytes(c, parts1);
    const double dram2 = multilevel_dram_bytes(c, two);
    const double gain = dram2 > 0 ? dram1 / dram2 : 0.0;
    gains += gain;
    ++cases;
    bench::print_row(
        {name, bench::fmt(single.total_seconds(), 4),
         bench::fmt(multi.total_seconds(), 4),
         bench::fmt(dram1 / (1u << 30), 3), bench::fmt(dram2 / (1u << 30), 3),
         bench::fmt(gain, 2), std::to_string(two.level1.num_parts()),
         std::to_string(two.total_inner_parts())},
        {10, 9, 9, 9, 9, 9, 8, 8});
  }
  if (cases > 0)
    std::printf("\nmean modeled DRAM-traffic gain: %.2fx (paper: 15.8%% mean "
                "runtime reduction, up to 1.47x over single-level)\n",
                gains / cases);
  return 0;
}
