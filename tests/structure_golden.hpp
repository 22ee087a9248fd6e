#pragma once
// The pinned cost figures of a flow's four structures, shared by the
// corpus structure goldens and the SharedBlock suite (which pins the s1
// multi-level flow it already runs instead of running it a second time).

#include <gtest/gtest.h>

#include "synth/flow.hpp"

namespace stc {

/// The pinned fields of one StructureReport. Two-level flows report no
/// factored cost point, so their ml_literals and factored_nodes are 0.
struct FigGolden {
  double area_ge;
  std::size_t depth, cubes, literals, ml_literals, factored_nodes, flipflops;
};

inline void expect_matches(const StructureReport& r, const FigGolden& g, Technology tech) {
  SCOPED_TRACE(r.kind);
  EXPECT_DOUBLE_EQ(r.area_ge, g.area_ge);
  EXPECT_EQ(r.depth, g.depth);
  EXPECT_EQ(r.logic.cubes, g.cubes);
  EXPECT_EQ(r.logic.literals, g.literals);
  ASSERT_EQ(r.logic_ml.has_value(), tech == Technology::kMultiLevel);
  EXPECT_EQ(r.logic_ml ? r.logic_ml->literals : 0, g.ml_literals);
  EXPECT_EQ(r.factored_nodes, g.factored_nodes);
  EXPECT_EQ(r.flipflops, g.flipflops);
}

/// s1's multi-level flow, figs. 1-4. Its run is tens of seconds, almost
/// all of it algebraic extraction; the row is the same at the default
/// OSTR allowance and at SharedBlock's 4000 nodes.
inline constexpr FigGolden kS1MultiLevelGolden[4] = {
    {20684.5, 10, 4744, 65634, 25034, 4365, 5},
    {20722, 12, 4744, 65634, 25034, 4365, 10},
    {28834, 10, 7579, 102450, 35105, 6308, 10},
    {24276, 10, 8791, 125076, 29788, 5558, 10}};

}  // namespace stc
