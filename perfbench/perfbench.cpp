// End-to-end and per-layer benchmark of the HiSVSIM engine.
//
// Runs one named workload through the public Engine API on all six targets,
// each at its default Options, checks every output against a flat
// reference, and prints one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1
// reports the per-layer metrics of the same workload, taken from
// Result::metrics, from the spans the program already emits, and from
// timing calls into layer entry points (kernel table, worker pool) here.
// perfbench/run.py builds this binary and forwards its arguments; see
// perfbench/README.md for the workloads and every metric's definition.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/gate.hpp"
#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/observables.hpp"
#include "sv/simulator.hpp"

namespace {

using namespace hisim;

constexpr double kTol = 1e-9;  // fidelity / observable tolerance

// ---------------------------------------------------------------------------
// Workloads

/// One (target, circuit) pairing of a workload. A sweep op runs the
/// workload's parameter points through one execute_sweep call.
struct Op {
  Target target;
  std::string circuit;  // "qft" | "ising" | "qaoa"
  unsigned n;
  unsigned process_qubits = 0;  // sharded targets only
};

struct Workload {
  std::vector<Op> ops;
  unsigned sweep_points = 0;  // > 0: "qaoa" ops run as sweeps
};

/// The workloads; README.md says why each was chosen. Each runs every
/// target, so that every run reports every metric: its focus targets at
/// the workload's size, the others on the same circuits at a side size
/// where they are cheap. Sharded targets run on 4 ranks (2 process
/// qubits).
Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  auto add = [&](std::initializer_list<const char*> circuits,
                 std::initializer_list<Target> targets, unsigned n) {
    for (const char* c : circuits)
      for (Target t : targets)
        w.ops.push_back({t, c, smoke ? std::min(n, 10u) : n,
                         target_is_distributed(t) ? 2u : 0u});
  };
  const auto sharded = {Target::DistributedSerial,
                        Target::DistributedThreaded, Target::IqsBaseline};
  // Side sizes: n = 20 (16 MiB), and n = 18 for multilevel, whose
  // per-iteration StateVector churn makes it about 20x slower than flat.
  // (At n = 16 its allocator-bound time varied by a third between runs.)
  if (name == "ooc") {
    // qft-24: a 256 MiB state streamed by every pass. The ising arm is
    // left out: hierarchical ising-24 alone takes about 22 s.
    add({"qft"}, {Target::Flat, Target::Hierarchical}, 24);
    add({"qft"}, sharded, 20);
    add({"qft"}, {Target::Multilevel}, 18);
  } else if (name == "dist") {
    add({"qft", "ising"}, sharded, 22);
    add({"qft", "ising"}, {Target::Flat, Target::Hierarchical}, 20);
    add({"qft", "ising"}, {Target::Multilevel}, 18);
  } else if (name == "sweep") {
    w.sweep_points = smoke ? 4 : 8;
    add({"qaoa"},
        {Target::Flat, Target::Hierarchical, Target::Multilevel,
         Target::DistributedSerial, Target::DistributedThreaded,
         Target::IqsBaseline},
        16);
  } else {
    throw Error("unknown workload '" + name + "' (ooc | dist | sweep)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Inputs and references

/// One circuit instance shared by every op that runs it, with the flat
/// reference its outputs are checked against.
struct Instance {
  Circuit circuit;
  sv::StateVector ref;  // concrete circuits: reference final state
  // Sweep circuits: points, MaxCut edge observables, reference values.
  std::vector<ParamBinding> points;
  std::vector<sv::PauliString> observables;
  std::vector<std::vector<double>> ref_obs;
};

/// The reference: the circuit as given (no optimization pipeline), applied
/// gate by gate by the flat simulator on the scalar kernel tier.
sv::StateVector reference_state(const Circuit& c) {
  sv::StateVector s(c.num_qubits());
  sv::FlatSimulator().run(c, s, &sv::scalar_kernel_ops());
  return s;
}

Instance make_instance(const std::string& circuit, unsigned n,
                       std::uint64_t seed, unsigned sweep_points) {
  Instance inst;
  if (circuit == "qft") {
    inst.circuit = circuits::qft(n);
  } else if (circuit == "ising") {
    inst.circuit = circuits::ising(n, 3, seed);
  } else if (circuit == "qaoa") {
    const circuits::QaoaInstance q = circuits::qaoa_instance(n);
    inst.circuit = q.circuit;
    for (const auto& [a, b] : q.edges) {
      sv::PauliString p;
      p.factors = {{a, sv::Pauli::Z}, {b, sv::Pauli::Z}};
      inst.observables.push_back(p);
    }
    Rng rng(seed);
    for (unsigned i = 0; i < sweep_points; ++i) {
      ParamBinding b;
      for (std::size_t r = 0; r < q.gammas.size(); ++r) {
        b[q.gammas[r]] = rng.uniform(0.1, M_PI);
        b[q.betas[r]] = rng.uniform(0.1, M_PI / 2);
      }
      const sv::StateVector s = reference_state(q.circuit.bound(b));
      std::vector<double> obs;
      for (const sv::PauliString& p : inst.observables)
        obs.push_back(sv::expectation(s, p));
      inst.points.push_back(std::move(b));
      inst.ref_obs.push_back(std::move(obs));
    }
    return inst;
  } else {
    throw Error("unknown circuit '" + circuit + "'");
  }
  inst.ref = reference_state(inst.circuit);
  return inst;
}

/// The must-fail probe: moves every reference away from the truth by far
/// more than the tolerance, so every operation must count as failed.
void perturb(Instance& inst) {
  if (inst.ref.size() > 0) {
    Index k = 0;
    for (Index i = 1; i < inst.ref.size(); ++i)
      if (std::abs(inst.ref[i]) > std::abs(inst.ref[k])) k = i;
    inst.ref[k] = -inst.ref[k];
  }
  for (auto& obs : inst.ref_obs)
    for (double& v : obs) v += 1e-6;
}

bool state_ok(const sv::StateVector& got, const sv::StateVector& ref) {
  if (got.size() != ref.size()) return false;
  const double norm = got.norm();
  const double fid = got.fidelity(ref);
  return std::abs(norm - 1.0) <= kTol && fid >= 1.0 - kTol;  // NaN fails
}

bool obs_ok(const std::vector<double>& got, const std::vector<double>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::abs(got[i] - ref[i]) <= kTol)) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Running one op

struct OpResult {
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Result::metrics summed over the op's results, plus computed bytes.
  std::map<std::string, double> metrics;
};

void add_metrics(std::map<std::string, double>& into, const Result& r) {
  for (const auto& [k, v] : r.metrics) into[k] += v;
  // Computed, not measured: one read and one write sweep of the full
  // state per executed gate (the flat path), and per final gather.
  const double state_bytes =
      static_cast<double>(kAmpBytes) * std::ldexp(1.0, int(r.qubits));
  into["bench.flat_bytes"] += 2.0 * state_bytes * double(r.gates);
  into["bench.state_bytes"] += state_bytes;
}

bool output_ok(const Result& r, const Instance& inst, std::size_t point) {
  return inst.points.empty() ? state_ok(r.state, inst.ref)
                             : obs_ok(r.observables, inst.ref_obs[point]);
}

/// Runs a plan once: one execute, or for a sweep circuit with
/// `whole_sweep` one execute_sweep over every point (else its first point
/// alone), timed by the wall clock around the call. Every output is
/// checked against the reference; a throw or a miss is counted, never
/// fatal.
OpResult run_op(const ExecutionPlan& plan, const Instance& inst,
                bool whole_sweep) {
  const bool sweep = whole_sweep && !inst.points.empty();
  ExecOptions eo;
  eo.observables = inst.observables;
  eo.want_state = inst.points.empty();
  if (!inst.points.empty() && !sweep) eo.bindings = inst.points[0];
  OpResult out;
  out.attempted = sweep ? inst.points.size() : 1;
  Timer t;
  try {
    std::vector<Result> rs;
    if (sweep)
      rs = plan.execute_sweep(inst.points, eo);
    else
      rs.push_back(plan.execute(eo));
    out.seconds = t.seconds();
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (!output_ok(rs[i], inst, i)) ++out.failed;
      add_metrics(out.metrics, rs[i]);
    }
    if (rs.size() != out.attempted) out.failed = out.attempted;
  } catch (const std::exception& e) {
    out.seconds = t.seconds();
    out.failed = out.attempted;
    std::fprintf(stderr, "perfbench: execute threw: %s\n", e.what());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  unsigned long tid = 0;
};

/// Reads the duration events of the current trace session back out of
/// its Chrome-trace export (one event object per line).
std::vector<Span> collect_spans() {
  std::vector<Span> spans;
  std::istringstream in(trace::TraceSession::chrome_json());
  std::string line;
  auto field = [&](const char* key) -> const char* {
    const std::size_t pos = line.find(key);
    return pos == std::string::npos ? nullptr
                                    : line.c_str() + pos + std::strlen(key);
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const char* name = field("\"name\": \"");
    const char* ts = field("\"ts\": ");
    const char* dur = field("\"dur\": ");
    const char* tid = field("\"tid\": ");
    if (!name || !ts || !dur || !tid) continue;
    Span s;
    s.name.assign(name, std::strchr(name, '"'));
    s.ts = std::strtod(ts, nullptr);
    s.dur = std::strtod(dur, nullptr);
    s.tid = std::strtoul(tid, nullptr, 10);
    spans.push_back(std::move(s));
  }
  return spans;
}

/// Self time (seconds) of the spans named `name`: each one's duration
/// minus the time its direct children on the same thread cover.
double self_seconds(std::vector<Span> spans, const std::string& name) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].tid != spans[i].tid ||
            spans[stack.back()].ts + spans[stack.back()].dur <= spans[i].ts))
      stack.pop_back();
    if (!stack.empty()) child[stack.back()] += spans[i].dur;
    stack.push_back(i);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) total += std::max(0.0, spans[i].dur - child[i]);
  return total * 1e-6;
}

// ---------------------------------------------------------------------------
// Host

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Copy-bandwidth ceiling (GB/s, bytes read plus bytes written) of the
/// worker pool: `passes` parallel::for_range copies between two buffers
/// of `buf_bytes` each, after one untimed pass that faults the pages in.
/// Median pass rate.
double copy_gbps(std::size_t buf_bytes, int passes) {
  const Index n = buf_bytes / sizeof(double);
  std::vector<double> a(n, 1.0), b(n, 0.0);
  auto pass = [&] {
    parallel::for_range(
        0, n,
        [&](Index lo, Index hi) {
          std::memcpy(b.data() + lo, a.data() + lo, (hi - lo) * sizeof(double));
        },
        Index{1} << 16);
  };
  pass();
  std::vector<double> rates;
  for (int i = 0; i < passes; ++i) {
    Timer t;
    pass();
    rates.push_back(2.0 * double(buf_bytes) / t.seconds() * 1e-9);
  }
  return median(rates);
}

std::string read_first(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? "" : line.substr(c + 2);
    }
  return "";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

/// CPU model, cores, caches, SIMD, resolved kernel tier, RAM, pool
/// threads and the measured copy ceiling, as one JSON object.
std::string host_fingerprint(double gbps) {
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  std::string simd;
  for (const char* f : {"avx2", "avx512f", "fma"})
    if (flags.find(std::string(" ") + f + " ") != std::string::npos)
      simd += (simd.empty() ? "" : ",") + std::string(f);
  std::string l2, l3;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first(dir + "level");
    if (level == "2") l2 = read_first(dir + "size");
    if (level == "3") l3 = read_first(dir + "size");
  }
  const double ram_gib = double(sysconf(_SC_PHYS_PAGES)) *
                         double(sysconf(_SC_PAGESIZE)) / double(1ull << 30);
  std::ostringstream os;
  char buf[64];
  os << "{\"cpu\": " << json_str(cpuinfo_field("model name"))
     << ", \"cores\": " << std::thread::hardware_concurrency()
     << ", \"l2\": " << json_str(l2) << ", \"l3\": " << json_str(l3)
     << ", \"simd\": " << json_str(simd)
     << ", \"kernel_tier\": " << json_str(sv::kernel_ops().name);
  std::snprintf(buf, sizeof buf, "%.1f", ram_gib);
  os << ", \"ram_gib\": " << buf
     << ", \"pool_threads\": " << parallel::num_threads();
  std::snprintf(buf, sizeof buf, "%.3f", gbps);
  os << ", \"host.copy_gbps\": " << buf << "}";
  return os.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// CPU time the hypervisor has taken from each of this VM's vCPUs
/// ("steal" in the cpuN lines of /proc/stat), in seconds; empty where the
/// kernel does not report it.
std::vector<double> stolen_seconds() {
  std::ifstream in("/proc/stat");
  std::vector<double> out;
  std::string line;
  const double tick = double(sysconf(_SC_CLK_TCK));
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        !std::isdigit(static_cast<unsigned char>(line[3])))
      continue;
    std::istringstream f(line);
    std::string cpu;
    double v[8] = {};
    f >> cpu;
    for (double& x : v) f >> x;
    if (f) out.push_back(v[7] / tick);
  }
  return out;
}

/// Largest share of one vCPU's time stolen while `fn` ran. One stalled
/// vCPU holds up every fork-join barrier, and a serial op's own vCPU is
/// the one that counts, so the worst vCPU is the measure.
template <typename Fn>
double stolen_share(Fn&& fn) {
  const std::vector<double> s0 = stolen_seconds();
  Timer t;
  fn();
  const double dt = std::max(t.seconds(), 1e-9);
  const std::vector<double> s1 = stolen_seconds();
  double worst = 0.0;
  for (std::size_t c = 0; c < std::min(s0.size(), s1.size()); ++c)
    worst = std::max(worst, (s1[c] - s0[c]) / dt);
  return worst;
}

/// On a shared host a run the hypervisor stole from measures the
/// neighbours: steal of a quarter of the CPU makes the barrier-heavy ops
/// 3-5x slower. Runs with at most this stolen share count as calm.
constexpr double kCalmSteal = 0.1;

struct Sample {
  double seconds;
  double steal;  // stolen share of the VM's CPU time during the run
};

/// Median of the calm samples; of the less-stolen half when none is calm.
double calm_median(std::vector<Sample> s) {
  std::stable_sort(s.begin(), s.end(), [](const Sample& a, const Sample& b) {
    return a.steal < b.steal;
  });
  std::vector<double> v;
  for (const Sample& x : s)
    if (x.steal <= kCalmSteal) v.push_back(x.seconds);
  for (std::size_t k = 0; v.empty() && 2 * k < s.size(); ++k)
    v.push_back(s[k].seconds);
  return median(v);
}

// ---------------------------------------------------------------------------
// Kernel arm

/// Achieved GB/s of each kernel class on a 2^n state, from the bytes
/// each class touches (computed: amplitudes read and written x 16 B).
std::map<std::string, double> kernel_arm(unsigned n, int reps) {
  const sv::KernelOps& ops = sv::kernel_ops();
  sv::StateVector s(n);
  const Qubit a = n / 2, b = n / 2 + 1;
  const double full = 2.0 * double(s.bytes());
  const double th = 0.3;
  const cplx e0 = std::polar(1.0, -th), e1 = std::polar(1.0, th);
  const cplx h = 1.0 / std::sqrt(2.0);
  const cplx u2[4] = {h, h, h, -h};
  cplx u4[16];
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      u4[4 * r + c] = u2[2 * (r >> 1) + (c >> 1)] * u2[2 * (r & 1) + (c & 1)];
  const std::vector<Qubit> pair = {a, b};
  const std::vector<cplx> phases = {e0, e1, e1, e0};
  const Gate swap = Gate::swap(a, b);
  struct Class {
    const char* name;
    double bytes;
    std::function<void()> fn;
  };
  const std::vector<Class> classes = {
      {"dense_1q", full, [&] { ops.apply_1q(s, a, u2); }},
      {"diag_1q", full, [&] { ops.apply_1q_diag(s, a, e0, e1); }},
      // CP as qft emits it: d0 = 1 is skipped, a quarter of the state moves.
      {"ctrl_diag_1q", full / 4,
       [&] { ops.apply_ctrl_diag(s, pair, Index{1} << a, b, 1.0, e1); }},
      // Permutations bypass the table: the dispatcher's tier-invariant
      // path swaps the half of the state whose two bits differ.
      {"perm_2q", full / 2, [&] { sv::apply_gate(s, swap, ops); }},
      {"dense_2q", full, [&] { ops.apply_2q(s, a, b, u4); }},
      {"diag_2q", full, [&] { ops.apply_diag(s, pair, phases); }},
  };
  std::map<std::string, double> out;
  for (int width : {0, 1}) {
    parallel::set_num_threads(width == 0 ? 0 : 1);
    const std::string suffix = width == 0 ? ".gbps" : ".gbps_1t";
    for (const Class& c : classes) {
      c.fn();  // untimed: pool start-up, first touch
      std::vector<double> rates;
      for (int i = 0; i < reps; ++i) {
        Timer t;
        c.fn();
        rates.push_back(c.bytes / t.seconds() * 1e-9);
      }
      out[std::string("sv.kernel.") + c.name + suffix] = median(rates);
    }
  }
  parallel::set_num_threads(0);
  return out;
}

// ---------------------------------------------------------------------------
// Main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;    // tiny sizes, for the benchmark's own test
  bool perturb = false;  // must-fail probe of the correctness check
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--perturb-reference") a.perturb = true;
    else throw Error("unknown argument '" + k + "'");
  }
  if (a.workload.empty()) throw Error("--workload is required");
  return a;
}

struct Metric {
  double value;
  const char* unit;
};

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.smoke);
  const std::size_t nops = w.ops.size();

  // Inputs from the seed, and their references.
  std::map<std::string, Instance> instances;
  std::vector<const Instance*> inst_of(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    const Op& op = w.ops[i];
    const std::string key = op.circuit + "-" + std::to_string(op.n);
    auto it = instances.find(key);
    if (it == instances.end())
      it = instances
               .emplace(key, make_instance(op.circuit, op.n, args.seed,
                                           w.sweep_points))
               .first;
    inst_of[i] = &it->second;
  }
  if (args.perturb)
    for (auto& [key, inst] : instances) perturb(inst);

  // Set-up: every Engine::compile of the workload, in rounds. The first
  // rounds make the plans; more rounds run at the start of each pass, so
  // that setup_s, the calm median of all rounds, spans the whole run.
  std::vector<ExecutionPlan> plans(nops);
  std::vector<Sample> setup_samples;
  std::map<std::string, std::vector<double>> compile_samples;
  auto setup_round = [&](bool keep) {
    double total = 0.0;
    std::map<std::string, double> per_target;
    const double steal = stolen_share([&] {
      for (std::size_t i = 0; i < nops; ++i) {
        Options o;
        o.target = w.ops[i].target;
        o.process_qubits = w.ops[i].process_qubits;
        Timer t;
        ExecutionPlan plan = Engine(o).compile(inst_of[i]->circuit);
        const double dt = t.seconds();
        total += dt;
        per_target[target_name(o.target)] += dt;
        if (keep) plans[i] = std::move(plan);
      }
    });
    setup_samples.push_back({total, steal});
    for (const auto& [k, v] : per_target) compile_samples[k].push_back(v);
  };
  constexpr int kSetupRounds = 3;
  for (int r = 0; r < kSetupRounds; ++r) setup_round(r == 0);

  // Warm-up: one untimed execute per plan (checked and counted).
  std::size_t attempted = 0, failed = 0;
  std::vector<OpResult> warm(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    warm[i] = run_op(plans[i], *inst_of[i], /*whole_sweep=*/false);
    attempted += warm[i].attempted;
    failed += warm[i].failed;
  }

  // Measurement, in passes over the ops. After the first pass, an op
  // shorter than kMinOpSeconds repeats within each pass, and each pass's
  // run of one op is tagged with its stolen share. An op's time is the
  // calm median of its samples; a target's time is the sum of its ops'
  // times. Untraced runs stop at the first op boundary once the time is
  // up (after two passes). Traced runs measure each op once untraced and
  // once traced per pass, in whole passes, until the time is up.
  constexpr double kMinOpSeconds = 0.5;
  std::vector<std::vector<Sample>> samples(nops);
  const std::vector<double> stolen0 = stolen_seconds();
  std::vector<int> reps(nops, 1);
  // Traced runs: per-pass layer numbers (Result::metrics of the untraced
  // executes, span statistics of the traced ones).
  std::vector<std::map<std::string, double>> passes;
  // Medians need two passes; the traced run's layer numbers carry no
  // bound, so one pass is enough there.
  const std::size_t min_passes = args.trace ? 1 : 2;
  Timer clock;
  auto time_up = [&] {
    return passes.size() >= min_passes && clock.seconds() >= args.seconds;
  };
  while (!time_up()) {
    for (int r = 0; r < kSetupRounds; ++r) setup_round(false);
    std::map<std::string, double> pass;
    double untraced = 0.0, traced = 0.0, dropped = 0.0;
    std::vector<Span> spans;
    for (std::size_t i = 0; i < nops && !(time_up() && !args.trace); ++i) {
      const std::string tn = target_name(w.ops[i].target);
      const std::size_t first = samples[i].size();
      const double steal = stolen_share([&] {
        for (int rep = 0; rep < reps[i]; ++rep) {
          const OpResult r =
              run_op(plans[i], *inst_of[i], /*whole_sweep=*/true);
          attempted += r.attempted;
          failed += r.failed;
          samples[i].push_back({r.seconds, 0.0});
          if (!args.trace) continue;
          untraced += r.seconds;
          for (const auto& [k, v] : r.metrics) pass[tn + "|" + k] += v;
          trace::TraceSession::start();
          const OpResult t =
              run_op(plans[i], *inst_of[i], /*whole_sweep=*/true);
          trace::TraceSession::stop();
          attempted += t.attempted;
          failed += t.failed;
          traced += t.seconds;
          const std::vector<Span> sp = collect_spans();
          spans.insert(spans.end(), sp.begin(), sp.end());
          dropped += double(trace::TraceSession::dropped_count());
          trace::TraceSession::clear();
        }
      });
      for (std::size_t k = first; k < samples[i].size(); ++k)
        samples[i][k].steal = steal;
      if (passes.empty() && !args.trace)
        reps[i] = std::clamp(
            int(std::ceil(kMinOpSeconds /
                          std::max(samples[i][0].seconds, 1e-6))),
            1, 64);
    }
    if (args.trace) {
      pass["trace.overhead"] = traced / untraced - 1.0;
      pass["trace.dropped"] = dropped;
      pass["parallel.regions"] = double(std::count_if(
          spans.begin(), spans.end(),
          [](const Span& sp) { return sp.name == "pool.region"; }));
      pass["hisvsim.bind_s"] = self_seconds(spans, "bind");
    }
    passes.push_back(std::move(pass));
  }
  // The run's stolen share, averaged over the vCPUs.
  double stolen = 0.0;
  {
    const std::vector<double> s1 = stolen_seconds();
    for (std::size_t c = 0; c < std::min(stolen0.size(), s1.size()); ++c)
      stolen += (s1[c] - stolen0[c]) /
                (double(stolen0.size()) * clock.seconds());
  }
  std::map<std::string, double> target_seconds;
  for (std::size_t i = 0; i < nops; ++i) {
    const double m = calm_median(samples[i]);
    target_seconds[target_name(w.ops[i].target)] += m;
    std::vector<double> all;
    int calm = 0;
    for (const Sample& x : samples[i]) {
      all.push_back(x.seconds);
      calm += x.steal <= kCalmSteal;
    }
    std::fprintf(stderr,
                 "perfbench: %s %s/%s-%u: %zu samples, median %.4f s, "
                 "calm %.4f s over %d\n",
                 args.workload.c_str(), target_name(w.ops[i].target),
                 w.ops[i].circuit.c_str(), w.ops[i].n, all.size(),
                 median(all), m, calm);
  }
  auto med = [&](const std::string& key) {
    std::vector<double> v;
    for (const auto& p : passes) {
      const auto it = p.find(key);
      v.push_back(it == p.end() ? 0.0 : it->second);
    }
    return median(v);
  };

  std::map<std::string, Metric> metrics;
  const double rss = peak_rss_mib();
  const double gbps = copy_gbps(args.smoke ? (8u << 20) : (256u << 20), 6);
  if (!args.trace) {
    static const std::pair<Target, const char*> kTimes[] = {
        {Target::Flat, "flat_s"},
        {Target::Hierarchical, "hierarchical_s"},
        {Target::Multilevel, "multilevel_s"},
        {Target::DistributedSerial, "dist_serial_s"},
        {Target::DistributedThreaded, "dist_threaded_s"},
        {Target::IqsBaseline, "iqs_s"},
    };
    for (const auto& [t, name] : kTimes)
      metrics[name] = {target_seconds[target_name(t)], "s"};
    metrics["setup_s"] = {calm_median(setup_samples), "s"};
    metrics["peak_rss_mib"] = {rss, "MiB"};
  } else {
    metrics["host.copy_gbps"] = {gbps, "GB/s"};
    metrics["parallel.regions"] = {med("parallel.regions"), "count"};
    metrics["trace.overhead"] = {med("trace.overhead"), "ratio"};
    metrics["trace.dropped"] = {med("trace.dropped"), "count"};
    metrics["hisvsim.bind_s"] = {med("hisvsim.bind_s"), "s"};
    for (const auto& [tn, v] : compile_samples)
      metrics["hisvsim.compile_s." + tn] = {median(v), "s"};
    // Compile-side numbers: constant per plan, read from the warm-up.
    double optimize = 0.0, removed = 0.0, part_s = 0.0, parts = 0.0,
           inner = 0.0;
    for (std::size_t i = 0; i < nops; ++i) {
      const auto& m = warm[i].metrics;
      auto get = [&](const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
      };
      optimize += get("compile.optimize_seconds");
      removed += get("compile.gates_removed");
      part_s += plans[i].partition_seconds();
      parts += double(plans[i].num_parts());
      inner += double(plans[i].num_inner_parts());
    }
    metrics["opt.optimize_s"] = {optimize, "s"};
    metrics["opt.gates_removed"] = {removed, "count"};
    metrics["partition.partition_s"] = {part_s, "s"};
    metrics["partition.parts"] = {parts, "count"};
    metrics["partition.inner_parts"] = {inner, "count"};

    auto tm = [&](const char* target, const char* key) {
      return med(std::string(target) + "|" + key);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double flat_apply = tm("flat", "apply.seconds");
    const double flat_gbps =
        ratio(tm("flat", "bench.flat_bytes"), flat_apply) * 1e-9;
    metrics["sv.flat.apply_s"] = {flat_apply, "s"};
    metrics["sv.flat.gbps"] = {flat_gbps, "GB/s"};
    metrics["sv.flat.roofline"] = {ratio(flat_gbps, gbps), "ratio"};
    for (const auto& [target, prefix] :
         {std::pair<const char*, const char*>{"hierarchical", "sv.hier."},
          {"multilevel", "sv.ml."}}) {
      const std::string p = prefix;
      const double gather = tm(target, "gather.seconds");
      const double apply = tm(target, "apply.seconds");
      const double scatter = tm(target, "scatter.seconds");
      // Gather reads the outer state and writes the inner buffers, scatter
      // the reverse: each moves 2 x state bytes per part, which is the
      // program's own sv.outer_bytes_moved count.
      const double outer = tm(target, "sv.outer_bytes_moved");
      const double inner_b = tm(target, "sv.inner_bytes_touched");
      metrics[p + "gather_s"] = {gather, "s"};
      metrics[p + "apply_s"] = {apply, "s"};
      metrics[p + "scatter_s"] = {scatter, "s"};
      metrics[p + "outer_bytes"] = {outer, "B"};
      metrics[p + "gather_gbps"] = {ratio(outer, gather) * 1e-9, "GB/s"};
      metrics[p + "scatter_gbps"] = {ratio(outer, scatter) * 1e-9, "GB/s"};
      metrics[p + "inner_gbps"] = {ratio(inner_b, apply) * 1e-9, "GB/s"};
      metrics[p + "roofline"] = {
          ratio(ratio(2.0 * outer, gather + scatter) * 1e-9, gbps), "ratio"};
    }
    {
      double apply = 0, ex = 0, count = 0, bytes = 0, overlap = 0,
             gather = 0, state = 0;
      for (const char* t : {"distributed-serial", "distributed-threaded"}) {
        apply += tm(t, "apply.seconds.sum");
        ex += tm(t, "exchange.measured_seconds.sum");
        count += tm(t, "exchange.count");
        bytes += tm(t, "exchange.bytes");
        overlap += tm(t, "exchange.overlap_seconds.sum");
        gather += tm(t, "gather.seconds");
        state += tm(t, "bench.state_bytes");
      }
      metrics["dist.apply_s"] = {apply, "s"};
      metrics["dist.exchange_s"] = {ex, "s"};
      metrics["dist.exchange_count"] = {count, "count"};
      metrics["dist.exchange_bytes"] = {bytes, "B"};
      metrics["dist.exchange_gbps"] = {ratio(bytes, ex) * 1e-9, "GB/s"};
      metrics["dist.overlap_s"] = {overlap, "s"};
      metrics["dist.gather_s"] = {gather, "s"};
      metrics["dist.gather_gbps"] = {ratio(2.0 * state, gather) * 1e-9, "GB/s"};
    }
    metrics["iqs.compute_s"] = {tm("iqs-baseline", "compute.seconds"), "s"};
    metrics["iqs.exchange_count"] = {tm("iqs-baseline", "exchange.count"),
                                     "count"};
    for (const auto& [k, v] : kernel_arm(args.smoke ? 14 : 26, 3))
      metrics[k] = {v, "GB/s"};
  }

  const double failed_share = double(failed) / double(attempted);
  std::printf("{\"summary\": {\"workload\": %s, \"seed\": %llu, \"passes\": %zu, "
              "\"failed_share\": %.17g, \"steal_share\": %.4f}, "
              "\"host\": %s}\n",
              json_str(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), passes.size(),
              failed_share, stolen, host_fingerprint(gbps).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [k, m] : metrics) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ", ",
                json_str(k).c_str(), m.value, json_str(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
