#include "encoding/encoding.hpp"

#include <algorithm>
#include <set>

#include "partition/partition.hpp"

namespace stc {

bool Encoding::valid() const {
  std::set<std::uint64_t> seen;
  for (auto c : codes) {
    if (width < 64 && c >= (std::uint64_t{1} << width)) return false;
    if (!seen.insert(c).second) return false;
  }
  return true;
}

Encoding natural_encoding(std::size_t num_states) {
  Encoding e;
  e.width = std::max<std::size_t>(1, ceil_log2(num_states));
  e.codes.resize(num_states);
  for (std::size_t k = 0; k < num_states; ++k) e.codes[k] = k;
  return e;
}

}  // namespace stc
