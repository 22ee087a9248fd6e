#include "fsm/kiss.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace stc {
namespace {

struct RawRow {
  std::string in_cube;
  std::string cur;
  std::string next;
  std::string out_bits;
  std::size_t line = 0;  // 1-based source line, for error messages
};

// Sanity bounds on the declared table sizes. They are checked BEFORE any
// allocation sized from the directives, so a corrupt or hostile header
// (".s 99999999999999999999", which also silently wraps a naive
// parse) cannot drive huge reserves. Real MCNC/IWLS machines are
// orders of magnitude below both.
constexpr std::size_t kMaxStates = std::size_t{1} << 20;
constexpr std::size_t kMaxRows = std::size_t{1} << 24;

/// Parse a directive argument as a bounded decimal count. Rejects
/// non-digits, overlong strings (which could wrap the accumulator), and
/// values above `max`.
std::size_t parse_bounded(const std::string& tok, std::size_t max,
                          const char* what, std::size_t lineno) {
  if (tok.empty() || tok.size() > 12 ||
      tok.find_first_not_of("0123456789") != std::string::npos)
    throw KissParseError(
        strprintf("line %zu: %s wants a decimal count, got '%s'", lineno, what,
                  tok.c_str()));
  const std::size_t value = parse_size(tok);
  if (value > max)
    throw KissParseError(strprintf("line %zu: %s %zu exceeds the limit %zu",
                                   lineno, what, value, max));
  return value;
}

/// Expand a cube with '-' positions into every matching input value.
/// Bit 0 of the value corresponds to the LEFTMOST cube character (MSB-first
/// reading is conventional, but any fixed convention works as long as the
/// writer matches; we use MSB-first).
void expand_cube(const std::string& cube, std::size_t lineno, std::size_t pos,
                 Input value, std::vector<Input>& out) {
  if (pos == cube.size()) {
    out.push_back(value);
    return;
  }
  const char c = cube[pos];
  if (c == '0' || c == '1') {
    expand_cube(cube, lineno, pos + 1,
                static_cast<Input>((value << 1) | (c == '1')), out);
  } else if (c == '-') {
    expand_cube(cube, lineno, pos + 1, static_cast<Input>(value << 1), out);
    expand_cube(cube, lineno, pos + 1, static_cast<Input>((value << 1) | 1), out);
  } else {
    throw KissParseError(
        strprintf("line %zu: bad input cube character: %s", lineno, cube.c_str()));
  }
}

Output parse_output_bits(const std::string& bits, std::size_t lineno) {
  Output value = 0;
  for (char c : bits) {
    value <<= 1;
    if (c == '1') {
      value |= 1;
    } else if (c != '0' && c != '-') {
      throw KissParseError(
          strprintf("line %zu: bad output character: %s", lineno, bits.c_str()));
    }
  }
  return value;
}

}  // namespace

MealyMachine parse_kiss2(const std::string& text, const KissOptions& options) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  std::size_t ni = 0, no = 0, ns = 0, np = 0;
  bool seen_i = false, seen_o = false, seen_s = false, seen_p = false;
  bool seen_end = false;
  std::string reset_name;
  std::vector<RawRow> rows;

  // One shared shape for the duplicate-directive complaints.
  auto reject_duplicate = [&](bool seen, const char* directive) {
    if (seen)
      throw KissParseError(
          strprintf("line %zu: duplicate %s directive", lineno, directive));
  };

  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments (both '#' and ';' styles appear in the wild).
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    auto tok = split_ws(line);
    if (seen_end)
      throw KissParseError(
          strprintf("line %zu: content after .e: %s", lineno, line.c_str()));
    auto arg = [&]() -> const std::string& {
      if (tok.size() < 2)
        throw KissParseError(strprintf("line %zu: %s needs an argument", lineno,
                                       tok[0].c_str()));
      return tok[1];
    };
    if (tok[0] == ".i") {
      reject_duplicate(seen_i, ".i");
      seen_i = true;
      ni = parse_bounded(arg(), 64, ".i", lineno);
    } else if (tok[0] == ".o") {
      reject_duplicate(seen_o, ".o");
      seen_o = true;
      no = parse_bounded(arg(), kMaxOutputBits, ".o", lineno);
    } else if (tok[0] == ".s") {
      reject_duplicate(seen_s, ".s");
      seen_s = true;
      ns = parse_bounded(arg(), kMaxStates, ".s", lineno);
    } else if (tok[0] == ".p") {
      reject_duplicate(seen_p, ".p");
      seen_p = true;
      np = parse_bounded(arg(), kMaxRows, ".p", lineno);
      rows.reserve(np);  // np is bounded above, so this cannot explode
    } else if (tok[0] == ".r") {
      reset_name = arg();
    } else if (tok[0] == ".e" || tok[0] == ".end") {
      seen_end = true;  // keep scanning: trailing rows are an error
    } else if (tok[0][0] == '.') {
      throw KissParseError(
          strprintf("line %zu: unknown directive: %s", lineno, tok[0].c_str()));
    } else {
      if (tok.size() != 4)
        throw KissParseError(strprintf("line %zu: transition row needs 4 fields: %s",
                                       lineno, line.c_str()));
      if (rows.size() >= kMaxRows)
        throw KissParseError(
            strprintf("line %zu: more than %zu transition rows", lineno, kMaxRows));
      rows.push_back({tok[0], tok[1], tok[2], tok[3], lineno});
    }
  }

  if (ni == 0) throw KissParseError(seen_i ? ".i must be positive" : "missing .i");
  if (no == 0) throw KissParseError(seen_o ? ".o must be positive" : "missing .o");
  if (ni > 20) throw KissParseError(".i too large to enumerate");
  if (np != 0 && np != rows.size())
    throw KissParseError(strprintf(".p says %zu rows, found %zu", np, rows.size()));

  // Collect state names in order of first appearance (current first, as is
  // conventional for KISS benchmarks; reset name, if given, goes first).
  std::map<std::string, State> state_ids;
  std::vector<std::string> state_names;
  auto intern = [&](const std::string& name) -> State {
    auto it = state_ids.find(name);
    if (it != state_ids.end()) return it->second;
    const State id = static_cast<State>(state_names.size());
    state_ids.emplace(name, id);
    state_names.push_back(name);
    return id;
  };
  if (!reset_name.empty()) intern(reset_name);
  for (const auto& r : rows) {
    intern(r.cur);
    if (r.next != "*") intern(r.next);
  }

  if (ns != 0 && ns != state_names.size())
    throw KissParseError(strprintf(".s says %zu states, found %zu", ns,
                                   state_names.size()));

  const std::size_t num_inputs = std::size_t{1} << ni;
  const std::size_t num_outputs = std::size_t{1} << no;
  MealyMachine m("kiss", state_names.size(), num_inputs, num_outputs);
  m.set_alphabet_bits(ni, no);
  for (State s = 0; s < state_names.size(); ++s) m.set_state_name(s, state_names[s]);
  if (!reset_name.empty()) m.set_reset_state(state_ids.at(reset_name));

  for (const auto& r : rows) {
    if (r.in_cube.size() != ni)
      throw KissParseError(strprintf("line %zu: input cube width mismatch: %s",
                                     r.line, r.in_cube.c_str()));
    if (r.out_bits.size() != no)
      throw KissParseError(strprintf("line %zu: output width mismatch: %s",
                                     r.line, r.out_bits.c_str()));
    if (r.next == "*") {
      if (!options.complete_with_reset)
        throw KissParseError(
            strprintf("line %zu: unspecified next state '*' (machine not fully "
                      "specified)", r.line));
      continue;  // handled by the completion pass below
    }
    std::vector<Input> inputs;
    expand_cube(r.in_cube, r.line, 0, 0, inputs);
    const State cur = state_ids.at(r.cur);
    const State nxt = state_ids.at(r.next);
    const Output out = parse_output_bits(r.out_bits, r.line);
    for (Input i : inputs) {
      if (m.has_transition(cur, i) &&
          (m.next(cur, i) != nxt || m.output(cur, i) != out)) {
        throw KissParseError(strprintf("line %zu: conflicting rows for state %s",
                                       r.line, r.cur.c_str()));
      }
      m.set_transition(cur, i, nxt, out);
    }
  }

  if (!m.is_complete()) {
    if (!options.complete_with_reset)
      throw KissParseError("machine is not fully specified (missing (state,input) rows)");
    m.complete(m.reset_state(), 0);
  }
  m.validate();
  return m;
}

MealyMachine load_kiss2_file(const std::string& path, const KissOptions& options) {
  std::ifstream in(path);
  if (!in) {
    const int err = errno;
    throw Error(ErrorCode::kIo, "cannot open KISS2 file",
                strprintf("path=%s; errno=%d (%s)", path.c_str(), err,
                          std::strerror(err)));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  MealyMachine m = parse_kiss2(buf.str(), options);
  // Derive a machine name from the file name.
  auto slash = path.find_last_of('/');
  auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  auto dot = base.find_last_of('.');
  m.set_name(dot == std::string::npos ? base : base.substr(0, dot));
  return m;
}

std::string write_kiss2(const MealyMachine& m) {
  const std::size_t ni = m.effective_input_bits();
  const std::size_t no = m.effective_output_bits();
  std::string out;
  out += strprintf(".i %zu\n.o %zu\n", ni, no);
  out += strprintf(".p %zu\n.s %zu\n", m.num_specified(), m.num_states());
  out += ".r " + m.state_name(m.reset_state()) + "\n";
  for (State s = 0; s < m.num_states(); ++s) {
    for (Input i = 0; i < m.num_inputs(); ++i) {
      if (!m.has_transition(s, i)) continue;
      std::string cube(ni, '0');
      for (std::size_t b = 0; b < ni; ++b)
        if ((i >> (ni - 1 - b)) & 1) cube[b] = '1';
      std::string bits(no, '0');
      const Output o = m.output(s, i);
      for (std::size_t b = 0; b < no; ++b)
        if ((o >> (no - 1 - b)) & 1) bits[b] = '1';
      out += cube + " " + m.state_name(s) + " " + m.state_name(m.next(s, i)) +
             " " + bits + "\n";
    }
  }
  out += ".e\n";
  return out;
}

}  // namespace stc
