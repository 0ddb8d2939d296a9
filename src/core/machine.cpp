#include "core/machine.hpp"

#include <cmath>

namespace coe::hsim {

namespace machines {

MachineModel power8() {
  MachineModel m;
  m.name = "POWER8 (2 sockets)";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 560e9;  // 2 x 10 cores x 3.5 GHz x 8 DP flop/cycle
  m.mem_bw = 230e9;      // Centaur buffered DRAM
  m.flop_efficiency = 0.60;
  m.bw_efficiency = 0.65;
  m.mem_capacity = 256ull << 30;
  return m;
}

MachineModel power9() {
  MachineModel m;
  m.name = "POWER9 (2 sockets)";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 1.01e12;  // 2 x 22 cores x 2.87 GHz x 8 DP flop/cycle
  m.mem_bw = 340e9;
  m.flop_efficiency = 0.60;
  m.bw_efficiency = 0.65;
  m.mem_capacity = 256ull << 30;
  return m;
}

MachineModel power9_socket() {
  MachineModel m = power9();
  m.name = "POWER9 (1 socket)";
  m.peak_flops /= 2;
  m.mem_bw /= 2;
  m.mem_capacity /= 2;
  return m;
}

MachineModel power8_thread() {
  MachineModel m = power8();
  m.name = "POWER8 (1 thread)";
  m.peak_flops = 28e9;   // 3.5 GHz x 8 DP flop/cycle
  m.mem_bw = 35e9;       // one thread + prefetch pulls a large share
  m.flop_efficiency = 0.85;
  m.bw_efficiency = 0.8;
  return m;
}

MachineModel power9_thread() {
  MachineModel m = power9();
  m.name = "POWER9 (1 thread)";
  m.peak_flops = 23e9;   // 2.87 GHz x 8 DP flop/cycle
  m.mem_bw = 45e9;       // one thread + prefetch pulls a large share
  m.flop_efficiency = 0.85;
  m.bw_efficiency = 0.8;
  return m;
}

MachineModel p100() {
  MachineModel m;
  m.name = "P100 (Pascal)";
  m.kind = ProcessorKind::Gpu;
  m.peak_flops = 5.3e12;
  m.mem_bw = 732e9;
  m.flop_efficiency = 0.55;
  m.bw_efficiency = 0.75;
  m.launch_overhead = 8e-6;
  m.concurrent_kernels = 4;
  m.mem_capacity = 16ull << 30;
  m.link_bw = 40e9;  // NVLink1 x2 bricks per GPU on Minsky
  m.link_latency = 8e-6;
  return m;
}

MachineModel v100() {
  MachineModel m;
  m.name = "V100 (Volta)";
  m.kind = ProcessorKind::Gpu;
  m.peak_flops = 7.8e12;
  m.mem_bw = 900e9;
  m.flop_efficiency = 0.60;  // improved caching vs Pascal (Section 4.7)
  m.bw_efficiency = 0.80;
  m.launch_overhead = 6e-6;
  m.concurrent_kernels = 8;  // Volta HW queues; plenty for our stream counts
  m.mem_capacity = 16ull << 30;
  m.link_bw = 75e9;  // NVLink2 x3 bricks per GPU on Witherspoon
  m.link_latency = 6e-6;
  return m;
}

MachineModel k40() {
  MachineModel m;
  m.name = "K40 (Kepler)";
  m.kind = ProcessorKind::Gpu;
  m.peak_flops = 1.43e12;
  m.mem_bw = 288e9;
  m.flop_efficiency = 0.45;
  m.bw_efficiency = 0.65;
  m.launch_overhead = 12e-6;
  m.concurrent_kernels = 2;
  m.mem_capacity = 12ull << 30;
  m.link_bw = 12e9;  // PCIe gen3 x16
  m.link_latency = 15e-6;
  return m;
}

MachineModel knl_node() {
  MachineModel m;
  m.name = "KNL node (Cori-II)";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 2.6e12;  // 68 cores, AVX-512
  m.mem_bw = 400e9;       // MCDRAM flat mode
  m.flop_efficiency = 0.25;  // hard-to-vectorize stencil reality
  m.bw_efficiency = 0.60;
  m.mem_capacity = 96ull << 30;
  return m;
}

MachineModel cpu_2011() {
  MachineModel m;
  m.name = "2011 dual-socket node";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 150e9;
  m.mem_bw = 50e9;
  m.flop_efficiency = 0.55;
  m.bw_efficiency = 0.60;
  m.mem_capacity = 64ull << 30;
  return m;
}

MachineModel cpu_2014() {
  MachineModel m;
  m.name = "2014 dual-socket node";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 450e9;
  m.mem_bw = 100e9;
  m.flop_efficiency = 0.55;
  m.bw_efficiency = 0.60;
  m.mem_capacity = 128ull << 30;
  return m;
}

MachineModel host() {
  MachineModel m;
  m.name = "build host";
  m.kind = ProcessorKind::Cpu;
  m.peak_flops = 50e9;
  m.mem_bw = 20e9;
  m.flop_efficiency = 0.5;
  m.bw_efficiency = 0.5;
  return m;
}

}  // namespace machines

double ClusterModel::p2p(std::size_t bytes) const {
  return alpha + beta * static_cast<double>(bytes);
}

double ClusterModel::allreduce(std::size_t bytes, int ranks) const {
  if (ranks <= 1) return 0.0;
  // Rabenseifner: reduce-scatter + allgather, 2*(p-1)/p of the data each,
  // plus 2*log2(p) latency terms.
  const double p = static_cast<double>(ranks);
  const double data = 2.0 * (p - 1.0) / p * static_cast<double>(bytes);
  return 2.0 * std::log2(p) * alpha + beta * data;
}

double ClusterModel::alltoall(std::size_t bytes_per_pair, int ranks) const {
  if (ranks <= 1) return 0.0;
  const double p = static_cast<double>(ranks);
  // Pairwise exchange: p-1 rounds, each moving bytes_per_pair both ways.
  return (p - 1.0) * (alpha + beta * static_cast<double>(bytes_per_pair));
}

double ClusterModel::gather(std::size_t bytes_per_rank, int ranks) const {
  if (ranks <= 1) return 0.0;
  const double p = static_cast<double>(ranks);
  // Binomial-tree gather: log2(p) rounds, root link carries all of it.
  return std::log2(p) * alpha +
         beta * static_cast<double>(bytes_per_rank) * (p - 1.0);
}

namespace clusters {

ClusterModel sierra(int nodes) {
  // Dual-rail EDR: ~23 GB/s injection per node, non-blocking fat tree.
  return ClusterModel{"Sierra EDR fat-tree", nodes, 1.3e-6, 1.0 / 23e9,
                      23e9, 1.0};
}

ClusterModel cori(int nodes) {
  // Aries dragonfly: full injection but a tapered global bisection.
  return ClusterModel{"Cori Aries dragonfly", nodes, 1.5e-6, 1.0 / 10e9,
                      10e9, 0.5};
}

ClusterModel ethernet(int nodes) {
  // Commodity 10GbE through an oversubscribed switch hierarchy.
  return ClusterModel{"10GbE", nodes, 30e-6, 1.0 / 1.1e9, 1.1e9, 0.25};
}

}  // namespace clusters

}  // namespace coe::hsim
