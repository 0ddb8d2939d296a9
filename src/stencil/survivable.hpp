#pragma once
// Survivable distributed wave (DESIGN.md §17): a phoenix::run_survivable
// run loop over the same WaveSlab kernel that distributed_wave_run drives.
// Each logical part owns one x-slab; slabs exchange the two ghost-deep
// halo planes per direction as one aggregated part-addressed message per
// neighbor per step and carry (u, u_prev) as their checkpoint blob. With
// no kills the field therefore equals distributed_wave_run's bitwise, and
// a run that rides through a rank kill (restore + replay) matches its own
// fault-free reference bitwise.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/machine.hpp"
#include "net/reprice.hpp"
#include "phoenix/driver.hpp"

namespace coe::stencil {

struct SurvivableWaveConfig {
  std::size_t nx = 32;  ///< global interior points (x divisible by workers)
  std::size_t ny = 8;
  std::size_t nz = 8;
  double length = 1.0;
  double c = 1.0;
  int steps = 8;  ///< leapfrog steps (the driver adds the Taylor backstep)
  double dt_factor = 0.5;

  int workers = 4;
  int spares = 0;
  phoenix::RepairPolicy policy = phoenix::RepairPolicy::Shrink;
  /// Checkpoint cadence in driver steps (step 0 is the backstep).
  int ckpt_every = 4;

  hsim::MachineModel node = hsim::machines::host();
  /// Replays the logged traffic against this interconnect (not owned).
  const hsim::ClusterModel* cluster = nullptr;
  net::NetLog* log = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  bool trace_ranks = false;
  std::function<bool(int, std::size_t)> fault_hook;
  mpi::RunOptions mpi;
};

struct SurvivableWaveResult {
  std::vector<double> field;  ///< global interior field, x-major
  double dt = 0.0;
  phoenix::SurvivableReport report;
  net::RepriceResult modeled;  ///< populated when cfg.cluster is set
};

/// Runs cfg.workers parts (+ cfg.spares parked spares) under the phoenix
/// driver; survives injected rank kills per cfg.policy.
SurvivableWaveResult survivable_wave_run(
    const SurvivableWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0);

}  // namespace coe::stencil
