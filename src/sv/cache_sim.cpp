#include "sv/cache_sim.hpp"

#include <algorithm>
#include <span>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "sv/hierarchical.hpp"

namespace hisim::sv {

CacheLevel::CacheLevel(Index capacity_bytes, unsigned ways,
                       unsigned line_bytes)
    : ways_(ways) {
  HISIM_CHECK(bits::is_pow2(line_bytes) && bits::is_pow2(capacity_bytes));
  line_shift_ = bits::log2_floor(line_bytes);
  const Index lines = capacity_bytes / line_bytes;
  HISIM_CHECK(lines >= ways && lines % ways == 0);
  num_sets_ = lines / ways;
  tags_.assign(lines, ~Index{0});
  lru_.assign(lines, 0);
}

bool CacheLevel::access(Index byte_addr) {
  const Index line = byte_addr >> line_shift_;
  const Index set = line & (num_sets_ - 1);
  const Index base = set * ways_;
  ++clock_;
  for (unsigned w = 0; w < ways_; ++w) {
    if (tags_[base + w] == line) {
      lru_[base + w] = clock_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  // Evict the LRU way.
  unsigned victim = 0;
  for (unsigned w = 1; w < ways_; ++w)
    if (lru_[base + w] < lru_[base + victim]) victim = w;
  tags_[base + victim] = line;
  lru_[base + victim] = clock_;
  return false;
}

CacheHierarchy::CacheHierarchy(const Config& cfg) {
  levels_.emplace_back(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
  levels_.emplace_back(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes);
  levels_.emplace_back(cfg.l3_bytes, cfg.l3_ways, cfg.line_bytes);
}

void CacheHierarchy::access(Index byte_addr) {
  for (unsigned lvl = 0; lvl < 3; ++lvl) {
    if (levels_[lvl].access(byte_addr)) {
      ++served_[lvl];
      // Install in upper levels happened in their access() miss path
      // already (we only reach level lvl after missing above).
      return;
    }
  }
  ++served_[3];
}

double CacheHierarchy::pct(unsigned level) const {
  const Index t = total();
  return t == 0 ? 0.0
               : 100.0 * static_cast<double>(served_[level]) /
                     static_cast<double>(t);
}

void CacheHierarchy::reset_counters() {
  served_ = {};
  for (auto& l : levels_) l.reset_counters();
}

namespace {

/// Address of amplitude i of the outer vector.
constexpr Index amp_addr(Index i) { return i * kAmpBytes; }

/// Replays one gate sweeping a vector of 2^n amplitudes laid out at byte
/// offset `base`. Models the paper's Fig. 1 access pattern: single-qubit
/// (and controlled single-target) gates touch amplitude pairs with stride
/// 2^target; diagonal gates stream linearly; generic k-qubit gates gather
/// blocks. `qs` are the gate's qubits on that vector.
void replay_gate(const Gate& g, std::span<const Qubit> qs, unsigned n,
                 Index base, CacheHierarchy& cache) {
  const Index dim_n = Index{1} << n;
  if (g.is_diagonal()) {
    for (Index i = 0; i < dim_n; ++i) cache.access(base + amp_addr(i));
    return;
  }
  const unsigned nc = g.num_controls();
  if (nc > 0 || g.arity() == 1) {
    const Qubit t = qs.back();
    Index cm = 0;
    for (unsigned j = 0; j < nc; ++j) cm |= Index{1} << qs[j];
    const Index tb = Index{1} << t;
    for (Index m = 0; m < (dim_n >> 1); ++m) {
      const Index i0 = bits::insert_zero(m, t);
      if ((i0 & cm) != cm) continue;
      cache.access(base + amp_addr(i0));
      cache.access(base + amp_addr(i0 | tb));
      cache.access(base + amp_addr(i0));           // write back
      cache.access(base + amp_addr(i0 | tb));
    }
    return;
  }
  // Generic k-qubit block gather.
  const unsigned k = g.arity();
  Index mask = 0;
  for (Qubit q : qs) mask |= Index{1} << q;
  const Index inv = ~mask & (dim_n - 1);
  const Index kdim = Index{1} << k;
  for (Index m = 0; m < (dim_n >> k); ++m) {
    const Index b = bits::deposit(m, inv);
    for (int pass = 0; pass < 2; ++pass)  // gather, then scatter
      for (Index t = 0, off = 0; t < kdim; ++t, off = (off - mask) & mask)
        cache.access(base + amp_addr(b | off));
  }
}

}  // namespace

void replay_flat_trace(const Circuit& c, CacheHierarchy& cache) {
  for (const Gate& g : c.gates())
    replay_gate(g, g.qubits, c.num_qubits(), /*base=*/0, cache);
}

void replay_hierarchical_trace(const Circuit& c,
                               const partition::Partitioning& parts,
                               CacheHierarchy& cache) {
  const unsigned n = c.num_qubits();
  // Inner vector lives past the outer one (fresh allocation per part).
  const Index inner_base = dim(n) * kAmpBytes;
  for (const PartNode& p : compile_parts(c, parts).root.parts) {
    const Index mask = p.mask;
    const Index inv = ~mask & (dim(n) - 1);
    const Index kdim = dim(p.width);
    for (Index m = 0; m < (dim(n) >> p.width); ++m) {
      const Index base = bits::deposit(m, inv);
      for (Index t = 0, off = 0; t < kdim; ++t, off = (off - mask) & mask) {
        cache.access(amp_addr(base | off));  // gather
        cache.access(inner_base + amp_addr(t));
      }
      for (const PartOp& op : p.ops)
        replay_gate(c.gate(op.gate), op.qubits, p.width, inner_base, cache);
      for (Index t = 0, off = 0; t < kdim; ++t, off = (off - mask) & mask) {
        cache.access(inner_base + amp_addr(t));  // scatter
        cache.access(amp_addr(base | off));
      }
    }
  }
}

}  // namespace hisim::sv
