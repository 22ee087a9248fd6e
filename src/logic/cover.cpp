#include "logic/cover.hpp"

#include <stdexcept>

namespace stc {

TruthTable::TruthTable(std::size_t num_vars) : num_vars_(num_vars) {
  if (num_vars > 20) throw std::invalid_argument("TruthTable: num_vars > 20");
  on_.resize(num_minterms());
  dc_.resize(num_minterms());
}

std::vector<Minterm> TruthTable::on_minterms() const {
  std::vector<Minterm> out;
  for (Minterm m = 0; m < num_minterms(); ++m)
    if (on_.get(m)) out.push_back(m);
  return out;
}

std::vector<Minterm> TruthTable::dc_minterms() const {
  std::vector<Minterm> out;
  for (Minterm m = 0; m < num_minterms(); ++m)
    if (dc_.get(m)) out.push_back(m);
  return out;
}

std::vector<Minterm> TruthTable::off_minterms() const {
  std::vector<Minterm> out;
  for (Minterm m = 0; m < num_minterms(); ++m)
    if (is_off(m)) out.push_back(m);
  return out;
}

std::size_t Cover::num_literals() const {
  std::size_t n = 0;
  for (const auto& c : cubes_) n += c.num_literals();
  return n;
}

bool Cover::evaluate(Minterm m) const {
  for (const auto& c : cubes_)
    if (c.contains_minterm(m)) return true;
  return false;
}

bool Cover::implements(const TruthTable& tt) const {
  if (tt.num_vars() != num_vars_) return false;
  for (Minterm m = 0; m < tt.num_minterms(); ++m) {
    const bool v = evaluate(m);
    if (tt.is_on(m) && !v) return false;
    if (tt.is_off(m) && v) return false;
  }
  return true;
}

std::string Cover::to_string() const {
  std::string out;
  for (const auto& c : cubes_) {
    out += c.to_string(num_vars_);
    out += '\n';
  }
  return out;
}

}  // namespace stc
