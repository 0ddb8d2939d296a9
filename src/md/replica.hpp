#pragma once
// One full replicated-data MD system (DESIGN.md §17.2): the LJ lattice,
// the neighbor-list rows of this replica's fixed slice, a pair-force pass
// over that slice into the (3n+2)-wide [fx | fy | fz | energy | virial]
// reduction aggregate, and the velocity-Verlet kick/drift loops.
// replicated_md_run (net::allreduce_sum) and survivable_md_run (the phoenix
// part tree) are two run loops over it that differ only in how the
// aggregate is summed across replicas.

#include <cstddef>
#include <span>
#include <vector>

#include "core/exec.hpp"
#include "core/rng.hpp"
#include "md/neighbor.hpp"
#include "md/particles.hpp"
#include "md/potentials.hpp"
#include "resil/checkpoint.hpp"

namespace coe::md {

class MdReplica final : public resil::Checkpointable {
 public:
  /// `cfg` supplies per_side, density, temperature, rcut, skin, dt, seed.
  /// Replica `part` of `parts` owns neighbor-list rows
  /// [n·part/parts, n·(part+1)/parts): it builds only those rows and
  /// computes their pair forces, so a checkpoint of it always restores the
  /// same slice.
  template <typename Cfg>
  MdReplica(const Cfg& cfg, int part, int parts)
      : dt_(cfg.dt), pot_(1.0, 1.0, cfg.rcut), nl_(cfg.rcut, cfg.skin) {
    core::Rng rng(cfg.seed);  // same seed: identical replicas everywhere
    init_lattice(p_, box_, cfg.per_side, cfg.density, cfg.temperature, rng);
    p_.zero_momentum();
    agg_.assign(3 * p_.n + 2, 0.0);
    const auto r = static_cast<std::size_t>(part);
    const auto nr = static_cast<std::size_t>(parts);
    lo_ = p_.n * r / nr;
    hi_ = p_.n * (r + 1) / nr;
  }

  std::size_t n() const { return p_.n; }
  /// The reduction aggregate: partial sums after partial_forces, the
  /// global sums once the run loop has reduced it in place.
  std::span<double> agg() { return agg_; }

  /// Pair forces over this replica's row slice into agg(), rebuilding the
  /// slice's rows first when needed. Positions are replica-identical, so
  /// every replica rebuilds (or not) in lockstep.
  void partial_forces(core::ExecContext& ctx);
  /// Installs the reduced aggregate as this replica's forces and energies.
  void adopt_forces();

  void half_kick_and_drift(core::ExecContext& ctx);
  void half_kick(core::ExecContext& ctx);

  double energy() const { return energy_; }
  double virial() const { return virial_; }
  double kinetic() const { return p_.kinetic_energy(); }
  double temperature() const { return p_.temperature(); }

  /// Positions, velocities, forces, energies AND the neighbor list (the
  /// slice's pairs + build-reference positions): the conditional rebuild schedule is part
  /// of the trajectory, so the list must roll back with the state it was
  /// built from.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  double dt_;
  Particles p_;
  Box box_;
  LennardJones pot_;
  NeighborList nl_;
  std::size_t lo_ = 0, hi_ = 0;  ///< this replica's neighbor-list rows
  bool nl_built_ = false;
  double energy_ = 0.0, virial_ = 0.0;
  std::vector<double> agg_;
};

}  // namespace coe::md
