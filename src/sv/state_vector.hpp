#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace hisim::sv {

/// Dense state vector of an n-qubit register (2^n complex amplitudes,
/// little-endian: bit q of an index is qubit q). Initialized to |0...0>.
class StateVector {
 public:
  StateVector() = default;
  explicit StateVector(unsigned num_qubits) {
    resize(num_qubits);  // zero-fills the fresh allocation
    amps_[0] = 1.0;
  }

  /// Re-sizes to `num_qubits` as a scratch buffer: amplitudes are left
  /// unspecified and the allocation is kept, so shrinking and regrowing up
  /// to the largest size used never reallocates.
  void resize(unsigned num_qubits) {
    // Validate before allocating (2^35 amplitudes = 512 GiB).
    HISIM_CHECK_MSG(num_qubits <= 34, "state vector would exceed 256 GiB");
    num_qubits_ = num_qubits;
    amps_.resize(dim(num_qubits));
  }

  unsigned num_qubits() const { return num_qubits_; }
  Index size() const { return amps_.size(); }
  Index bytes() const { return size() * kAmpBytes; }

  cplx& operator[](Index i) { return amps_[i]; }
  const cplx& operator[](Index i) const { return amps_[i]; }

  cplx* data() { return amps_.data(); }
  const cplx* data() const { return amps_.data(); }

  /// Sum of |a_i|^2 (1.0 for a normalized state).
  double norm() const;

  /// Probability of measuring qubit q as 1.
  double prob_one(Qubit q) const;

  /// Largest |a_i - b_i| between two states of equal size.
  double max_abs_diff(const StateVector& other) const;

  /// |<this|other>|^2 (1.0 iff identical up to global phase).
  double fidelity(const StateVector& other) const;

  /// Resets to |0...0>.
  void reset();

 private:
  unsigned num_qubits_ = 0;
  std::vector<cplx> amps_;
};

/// Deep validator (see common/check.hpp): aborts unless `actual` matches
/// `expected` within the accumulated-rounding tolerance a unitary gate
/// sequence may introduce. `where` names the seam for the failure message.
/// Called by the execute paths of checked builds after every unitary
/// segment; callable directly by tests (death tests corrupt a norm and
/// assert the abort).
void validate_norm_preserved(double expected, double actual,
                             const char* where);

}  // namespace hisim::sv
