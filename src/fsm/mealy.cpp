#include "fsm/mealy.hpp"

#include <stdexcept>

#include "partition/partition.hpp"
#include "util/strings.hpp"

namespace stc {

MealyMachine::MealyMachine(std::string name, std::size_t num_states,
                           std::size_t num_inputs, std::size_t num_outputs)
    : name_(std::move(name)),
      num_states_(num_states),
      num_inputs_(num_inputs),
      num_outputs_(num_outputs),
      next_(num_states * num_inputs, kNoState),
      out_(num_states * num_inputs, kNoOutput),
      state_names_(num_states) {
  if (num_states == 0 || num_inputs == 0 || num_outputs == 0)
    throw std::invalid_argument("MealyMachine: alphabet sizes must be positive");
  if (num_outputs > std::size_t{1} << kMaxOutputBits)
    throw std::invalid_argument("MealyMachine: " + std::to_string(num_outputs) +
                                " outputs do not fit a 32-bit Output");
  for (State s = 0; s < num_states; ++s) state_names_[s] = "s" + std::to_string(s);
}

void MealyMachine::set_reset_state(State s) {
  if (s >= num_states_) throw std::out_of_range("MealyMachine::set_reset_state");
  reset_state_ = s;
}

void MealyMachine::set_alphabet_bits(std::size_t in_bits, std::size_t out_bits) {
  if (out_bits > kMaxOutputBits)
    throw std::invalid_argument("MealyMachine: output_bits " + std::to_string(out_bits) +
                                " do not fit a 32-bit Output");
  if (in_bits && (std::size_t{1} << in_bits) < num_inputs_)
    throw std::invalid_argument("MealyMachine: input_bits too small");
  if (out_bits && (std::size_t{1} << out_bits) < num_outputs_)
    throw std::invalid_argument("MealyMachine: output_bits too small");
  input_bits_ = in_bits;
  output_bits_ = out_bits;
}

std::size_t MealyMachine::effective_input_bits() const {
  if (input_bits_) return input_bits_;
  const std::size_t b = ceil_log2(num_inputs_);
  return b == 0 ? 1 : b;
}

std::size_t MealyMachine::effective_output_bits() const {
  if (output_bits_) return output_bits_;
  const std::size_t b = ceil_log2(num_outputs_);
  return b == 0 ? 1 : b;
}

void MealyMachine::set_transition(State s, Input i, State ns, Output out) {
  if (ns >= num_states_) throw std::out_of_range("MealyMachine: next state out of range");
  if (out >= num_outputs_) throw std::out_of_range("MealyMachine: output out of range");
  next_[index(s, i)] = ns;
  out_[index(s, i)] = out;
}

bool MealyMachine::is_complete() const {
  for (auto n : next_)
    if (n == kNoState) return false;
  return true;
}

std::size_t MealyMachine::complete(State fill_state, Output fill_output) {
  if (fill_state >= num_states_ || fill_output >= num_outputs_)
    throw std::out_of_range("MealyMachine::complete");
  std::size_t filled = 0;
  for (std::size_t k = 0; k < next_.size(); ++k) {
    if (next_[k] == kNoState) {
      next_[k] = fill_state;
      out_[k] = fill_output;
      ++filled;
    }
  }
  return filled;
}

std::size_t MealyMachine::num_specified() const {
  std::size_t n = 0;
  for (auto s : next_)
    if (s != kNoState) ++n;
  return n;
}

void MealyMachine::validate(bool require_complete) const {
  if (reset_state_ >= num_states_)
    throw std::logic_error("MealyMachine: reset state out of range");
  for (std::size_t k = 0; k < next_.size(); ++k) {
    if (next_[k] == kNoState) {
      if (require_complete)
        throw std::logic_error("MealyMachine '" + name_ + "': incomplete table");
      continue;
    }
    if (next_[k] >= num_states_)
      throw std::logic_error("MealyMachine: next state out of range");
    if (out_[k] >= num_outputs_)
      throw std::logic_error("MealyMachine: output out of range");
  }
}

const std::string& MealyMachine::state_name(State s) const {
  return state_names_.at(s);
}

void MealyMachine::set_state_name(State s, std::string name) {
  state_names_.at(s) = std::move(name);
}

State MealyMachine::find_state(const std::string& name) const {
  for (State s = 0; s < num_states_; ++s)
    if (state_names_[s] == name) return s;
  return kNoState;
}

std::string MealyMachine::transition_table() const {
  std::string out = "state";
  for (Input i = 0; i < num_inputs_; ++i) out += strprintf("\t%u", i);
  out += '\n';
  for (State s = 0; s < num_states_; ++s) {
    out += state_names_[s];
    for (Input i = 0; i < num_inputs_; ++i) {
      if (has_transition(s, i)) {
        out += strprintf("\t%s/%u", state_names_[next(s, i)].c_str(), output(s, i));
      } else {
        out += "\t-/-";
      }
    }
    out += '\n';
  }
  return out;
}

std::string MealyMachine::to_dot() const {
  std::string out = "digraph \"" + name_ + "\" {\n  rankdir=LR;\n";
  out += "  __start [shape=point];\n";
  out += "  __start -> \"" + state_names_[reset_state_] + "\";\n";
  for (State s = 0; s < num_states_; ++s) {
    for (Input i = 0; i < num_inputs_; ++i) {
      if (!has_transition(s, i)) continue;
      out += strprintf("  \"%s\" -> \"%s\" [label=\"%u/%u\"];\n",
                       state_names_[s].c_str(), state_names_[next(s, i)].c_str(),
                       i, output(s, i));
    }
  }
  out += "}\n";
  return out;
}

bool MealyMachine::operator==(const MealyMachine& o) const {
  return num_states_ == o.num_states_ && num_inputs_ == o.num_inputs_ &&
         num_outputs_ == o.num_outputs_ && reset_state_ == o.reset_state_ &&
         next_ == o.next_ && out_ == o.out_;
}

std::size_t MealyMachine::index(State s, Input i) const {
  if (s >= num_states_ || i >= num_inputs_)
    throw std::out_of_range("MealyMachine: (state, input) out of range");
  return static_cast<std::size_t>(s) * num_inputs_ + i;
}

}  // namespace stc
