#pragma once
// Survivable Krylov wiring (DESIGN.md §17).
//
// A survivable CG holds one la::Pcg per part, each with that part's row
// slice of the dots, and runs its phases around RankContext::part_allreduce:
// the fixed part-tree sums the partials, so every part sees the full dots
// bitwise under any part->rank mapping, and a rank kill between phases
// rolls back to a committed iteration and replays bitwise.
//
// replicated_reduce adapts the same part-tree to la::SolveOptions::reduce,
// wiring the stock la::cg into a phoenix world: each rank computes the
// *full* dots on its replica, the tree sums the nparts identical copies,
// and the hook rescales by 1/nparts — exact (not just close) when nparts
// is a power of two, since the scale touches only the exponent.

#include <functional>
#include <span>

#include "phoenix/driver.hpp"

namespace coe::phoenix {

/// la::SolveOptions::reduce hook backed by the part-tree. Requires exactly
/// one owned part (Spare policy or fault-free) and a power-of-two part
/// count for bitwise-exact rescaling of the replicated sums.
std::function<void(std::span<double>)> replicated_reduce(RankContext& rc,
                                                         int chan);

}  // namespace coe::phoenix
