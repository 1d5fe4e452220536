#include "circuit/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/check.hpp"

namespace hisim {

void Circuit::add(Gate g) {
  validate_gate(g);
  gates_.push_back(std::move(g));
}

void Circuit::set_gate(std::size_t i, Gate g) {
  HISIM_CHECK_MSG(i < gates_.size(),
                  "set_gate index " << i << " out of range ("
                                    << gates_.size() << " gates)");
  validate_gate(g);
  gates_[i] = std::move(g);
}

void Circuit::validate_gate(const Gate& g) const {
  for (Qubit q : g.qubits)
    HISIM_CHECK_MSG(q < num_qubits_, "gate qubit q[" << q << "] out of range ("
                                                     << num_qubits_
                                                     << "-qubit circuit)");
  // A non-finite angle (or coefficient) would run to a NaN state.
  for (const ParamExpr& e : g.params)
    HISIM_CHECK_MSG(std::isfinite(e.offset) && std::isfinite(e.coeff),
                    "gate " << gate_name(g.kind)
                            << " has a non-finite parameter ("
                            << e.to_string() << ")");
  // A symbolic expression must reference *this* circuit's registry — a
  // Param handle from another circuit would otherwise silently bind to
  // whatever parameter happens to share its id here.
  for (const ParamExpr& e : g.params) {
    if (!e.symbolic) continue;
    HISIM_CHECK_MSG(e.param < param_names_.size() &&
                        param_names_[e.param] == e.name,
                    "gate parameter '"
                        << e.name
                        << "' is not registered on this circuit (create "
                           "handles with this circuit's param())");
  }
}

void Circuit::append(const Circuit& other) {
  HISIM_CHECK(other.num_qubits_ <= num_qubits_);
  // Merge the registries by name first, so appended symbolic expressions
  // can be re-indexed into this circuit's id space.
  std::vector<unsigned> remap(other.param_names_.size());
  for (std::size_t i = 0; i < other.param_names_.size(); ++i)
    remap[i] = param(other.param_names_[i]).id;
  for (const Gate& g : other.gates_) {
    Gate copy = g;
    for (ParamExpr& e : copy.params) {
      if (!e.symbolic) continue;
      HISIM_CHECK_MSG(e.param < remap.size(),
                      "appended gate references parameter '"
                          << e.name << "' not registered on its circuit");
      e.param = remap[e.param];
    }
    add(std::move(copy));
  }
}

Param Circuit::param(const std::string& name) {
  HISIM_CHECK_MSG(!name.empty(), "parameter name must be non-empty");
  for (std::size_t i = 0; i < param_names_.size(); ++i)
    if (param_names_[i] == name)
      return Param{static_cast<unsigned>(i), name};
  param_names_.push_back(name);
  return Param{static_cast<unsigned>(param_names_.size() - 1), name};
}

Circuit Circuit::bound(std::span<const double> values) const {
  Circuit out(num_qubits_, name_);
  out.gates_.reserve(gates_.size());
  for (const Gate& g : gates_) {
    Gate copy = g;
    for (ParamExpr& e : copy.params)
      if (e.symbolic) e = ParamExpr(e.value_at(values));
    out.gates_.push_back(std::move(copy));
  }
  return out;
}

Circuit Circuit::bound(const ParamBinding& binding) const {
  return bound(resolve_binding(param_names_, binding));
}

unsigned Circuit::depth() const {
  std::vector<unsigned> level(num_qubits_, 0);
  unsigned depth = 0;
  for (const Gate& g : gates_) {
    unsigned lvl = 0;
    for (Qubit q : g.qubits) lvl = std::max(lvl, level[q]);
    ++lvl;
    for (Qubit q : g.qubits) level[q] = lvl;
    depth = std::max(depth, lvl);
  }
  return depth;
}

std::map<std::string, std::size_t> Circuit::gate_histogram() const {
  std::map<std::string, std::size_t> hist;
  for (const Gate& g : gates_) ++hist[gate_name(g.kind)];
  return hist;
}

unsigned Circuit::used_qubits() const {
  std::set<Qubit> used;
  for (const Gate& g : gates_) used.insert(g.qubits.begin(), g.qubits.end());
  return static_cast<unsigned>(used.size());
}

std::string Circuit::summary() const {
  std::ostringstream os;
  os << name_ << ": " << num_qubits_ << " qubits, " << num_gates()
     << " gates, depth " << depth() << ", sv "
     << std::ldexp(static_cast<double>(kAmpBytes),
                   static_cast<int>(num_qubits_) - 20)
     << " MiB";
  return os.str();
}

}  // namespace hisim
