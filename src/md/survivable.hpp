#pragma once
// Survivable replicated-data MD (DESIGN.md §17): a phoenix::run_survivable
// run loop over the same MdReplica that replicated_md_run drives. Every
// logical part holds a full replica and computes the pair forces over its
// neighbor-list row slice; the partial [fx | fy | fz | energy | virial]
// arrays are summed by the driver's fixed binary part-tree (real p2p
// messages, association independent of the part->rank mapping), so a run
// that rides through a rank kill replays to a bitwise-identical trajectory.
// The checkpoint blob is the replica's, its slice of the neighbor list
// included.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/machine.hpp"
#include "net/reprice.hpp"
#include "phoenix/driver.hpp"

namespace coe::md {

struct SurvivableMdConfig {
  std::size_t per_side = 4;  ///< particles per lattice side (n = side^3)
  double density = 0.8;
  double temperature = 1.0;
  double rcut = 2.5;
  double skin = 0.3;
  double dt = 0.002;
  int steps = 8;  ///< velocity-Verlet steps (driver adds the force init)
  std::uint64_t seed = 2718;

  int workers = 4;
  int spares = 0;
  phoenix::RepairPolicy policy = phoenix::RepairPolicy::Shrink;
  int ckpt_every = 4;  ///< in driver steps (step 0 is the initial forces)

  hsim::MachineModel node = hsim::machines::host();
  const hsim::ClusterModel* cluster = nullptr;
  net::NetLog* log = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  bool trace_ranks = false;
  std::function<bool(int, std::size_t)> fault_hook;
  mpi::RunOptions mpi;
};

struct SurvivableMdResult {
  double potential = 0.0;  ///< final-step potential energy
  double kinetic = 0.0;
  double temperature = 0.0;
  double virial = 0.0;
  std::size_t n = 0;
  phoenix::SurvivableReport report;
  net::RepriceResult modeled;  ///< populated when cfg.cluster is set
};

/// Runs cfg.workers replica parts (+ cfg.spares parked spares) under the
/// phoenix driver; survives injected rank kills per cfg.policy.
SurvivableMdResult survivable_md_run(const SurvivableMdConfig& cfg);

}  // namespace coe::md
