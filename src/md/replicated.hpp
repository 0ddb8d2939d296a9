#pragma once
// Replicated-data MD on the coe::mpi substrate (the decomposition ddcMD
// grew out of, and the paper's Section 4.6 baseline for small systems):
// every rank holds the full system and integrates identically; the pair
// force pass is split by neighbor-list rows, and one aggregated collective
// per step sums the partial force arrays plus the energy and virial —
// [fx | fy | fz | energy | virial] in a single (3n+2)-wide recursive-doubling
// allreduce. Recursive doubling associates every element by rank count
// alone, so every rank holds bitwise the same sums.

#include <cstddef>
#include <cstdint>

#include "core/machine.hpp"
#include "mpi/comm.hpp"
#include "net/collective.hpp"
#include "net/reprice.hpp"

namespace coe::md {

struct ReplicatedConfig {
  std::size_t per_side = 5;   ///< particles per lattice side (n = side^3)
  double density = 0.8;
  double temperature = 1.0;
  double rcut = 2.5;
  double skin = 0.3;
  double dt = 0.002;
  int steps = 20;
  std::uint64_t seed = 2718;

  /// When set, every rank logs its collective traffic and the modeled
  /// compute deltas between reductions here (for coe::xray merging; not
  /// owned, may be null).
  net::NetLog* log = nullptr;
  /// When set alongside `log`, result.modeled carries the reprice summary
  /// of the logged traffic (not owned, may be null).
  const hsim::ClusterModel* cluster = nullptr;
};

struct ReplicatedResult {
  double potential = 0.0;    ///< final-step potential energy
  double kinetic = 0.0;
  double temperature = 0.0;
  double virial = 0.0;
  std::size_t n = 0;         ///< particle count
  mpi::TrafficStats traffic;
  net::NetStats net;         ///< summed over ranks
  net::RepriceResult modeled;  ///< populated when cfg.log and cfg.cluster set
};

/// Runs `ranks` replicated-data ranks for cfg.steps velocity-Verlet steps
/// (NVE, LJ fluid); returns rank 0's final thermodynamic state, which every
/// rank holds identically.
ReplicatedResult replicated_md_run(int ranks, const ReplicatedConfig& cfg);

}  // namespace coe::md
