#pragma once
// coe::hsim -- analytic machine models for the heterogeneous systems the
// iCoE paper measured on (POWER8/9 hosts, P100/V100 GPUs, NVLink, Cori-II
// KNL nodes, and multi-node clusters).
//
// None of that hardware is available in this reproduction, so every kernel
// in the workload runs for real on the host and is annotated with its
// operation counts; these models convert counts into predicted times via a
// calibrated roofline (see DESIGN.md section 2).

#include <cstddef>
#include <cstdint>
#include <string>

namespace coe::hsim {

/// Kind of processor a model describes. Affects defaults such as kernel
/// launch overhead (zero for host processors).
enum class ProcessorKind { Cpu, Gpu };

/// Roofline-style description of one processor (a CPU socket pair or a
/// single GPU) plus the link that connects it to host memory.
struct MachineModel {
  std::string name;
  ProcessorKind kind = ProcessorKind::Cpu;

  double peak_flops = 1e12;     ///< double-precision FLOP/s, theoretical peak
  double mem_bw = 1e11;         ///< sustained memory bandwidth, B/s
  double flop_efficiency = 0.8; ///< achievable fraction of peak_flops
  double bw_efficiency = 0.8;   ///< achievable fraction of mem_bw

  double launch_overhead = 0.0; ///< s per kernel launch (GPU only)
  double mem_capacity = 1ull << 37; ///< bytes of directly attached memory

  /// Kernels from different streams that can execute concurrently (the
  /// CUDA concurrent-kernel limit; hardware queues on real GPUs). 1 means
  /// kernels serialize even across streams; transfers always overlap
  /// kernels because the DMA copy engines are separate resources.
  int concurrent_kernels = 1;

  // Host link (PCIe / NVLink). For CPUs this is a no-op link.
  double link_bw = 1e10;       ///< B/s host<->device
  double link_latency = 1e-5;  ///< s per transfer

  // Sustained effective rates.
  double flops() const { return peak_flops * flop_efficiency; }
  double bandwidth() const { return mem_bw * bw_efficiency; }

  /// Arithmetic-intensity ridge point (FLOP per byte) of the roofline.
  double ridge() const { return flops() / bandwidth(); }
};

/// Catalog of the machines named in the paper. Peak numbers follow public
/// spec sheets; efficiencies are calibrated so textbook kernels (STREAM
/// triad, DGEMM, 7-point stencil) land at commonly reported fractions.
namespace machines {
MachineModel power8();        ///< 2x POWER8 socket pair (EA "Minsky" host)
MachineModel power9();        ///< 2x POWER9 socket pair (Sierra host)
MachineModel power9_socket(); ///< single P9 socket (Table 5 "P9" column)
MachineModel power8_thread(); ///< one P8 core/thread (Fig. 8 CPU baseline)
MachineModel power9_thread(); ///< one P9 core/thread (Table 4 CPU baseline)
MachineModel p100();          ///< Pascal P100, NVLink1 host link
MachineModel v100();          ///< Volta V100, NVLink2 host link
MachineModel k40();           ///< early visualization-cluster GPU
MachineModel knl_node();      ///< Cori-II Xeon Phi 7250 node
MachineModel cpu_2011();      ///< ~2011 dual-socket node (Table 2 history)
MachineModel cpu_2014();      ///< ~2014 dual-socket node (Table 2 history)
MachineModel host();          ///< the real host this build runs on
}  // namespace machines

/// Latency/bandwidth (alpha-beta) model of a cluster interconnect with
/// tree-based collectives, used for the multi-node experiments (Table 2,
/// Figure 3, SW4-vs-Cori throughput).
struct ClusterModel {
  std::string name;
  int nodes = 1;
  double alpha = 1e-6;   ///< per-message latency, s
  double beta = 1e-10;   ///< per-byte time, s (inverse link bandwidth)

  /// Per-node NIC injection bandwidth, B/s. A node can only push (and pull)
  /// this fast regardless of how many messages it has in flight — the
  /// per-link occupancy resource net::reprice serializes on. 0 means
  /// "derive from beta" (1/beta), keeping the two views consistent.
  double injection_bw = 0.0;
  /// Fraction of full bisection bandwidth the fabric sustains (1.0 = full
  /// fat tree, <1 = tapered dragonfly/torus). net::reprice uses it as a
  /// global lower bound on any traffic pattern that crosses the machine.
  double bisection_factor = 1.0;

  /// Effective injection bandwidth (injection_bw, or 1/beta when unset).
  double effective_injection_bw() const {
    return injection_bw > 0.0 ? injection_bw : 1.0 / beta;
  }

  /// Time for a point-to-point message of `bytes`.
  double p2p(std::size_t bytes) const;
  /// Allreduce over `ranks` participants, Rabenseifner-style cost.
  double allreduce(std::size_t bytes, int ranks) const;
  /// All-to-all personalized exchange, `bytes` per pair.
  double alltoall(std::size_t bytes_per_pair, int ranks) const;
  /// Gather-to-one (the "aggregate" primitive in the Spark activity).
  double gather(std::size_t bytes_per_rank, int ranks) const;
};

namespace clusters {
ClusterModel sierra(int nodes);   ///< dual-rail EDR InfiniBand fat tree
ClusterModel cori(int nodes);     ///< Aries dragonfly
ClusterModel ethernet(int nodes); ///< commodity 10GbE (2011-era history)
}  // namespace clusters

}  // namespace coe::hsim
