#include "md/replica.hpp"

#include <algorithm>

#include "md/forces.hpp"

namespace coe::md {

void MdReplica::partial_forces(core::ExecContext& ctx) {
  if (!nl_built_ || nl_.needs_rebuild(p_, box_)) {
    nl_.build(ctx, p_, box_, lo_, hi_);
    nl_built_ = true;
  }
  const std::size_t n = p_.n;
  p_.zero_forces();
  const PairResult pr =
      compute_pair_forces(ctx, p_, box_, nl_, pot_, lo_, hi_);
  std::copy(p_.fx.begin(), p_.fx.end(), agg_.begin());
  std::copy(p_.fy.begin(), p_.fy.end(), agg_.begin() + n);
  std::copy(p_.fz.begin(), p_.fz.end(), agg_.begin() + 2 * n);
  agg_[3 * n] = pr.energy;
  agg_[3 * n + 1] = pr.virial;
}

void MdReplica::adopt_forces() {
  const std::size_t n = p_.n;
  std::copy(agg_.begin(), agg_.begin() + n, p_.fx.begin());
  std::copy(agg_.begin() + n, agg_.begin() + 2 * n, p_.fy.begin());
  std::copy(agg_.begin() + 2 * n, agg_.begin() + 3 * n, p_.fz.begin());
  energy_ = agg_[3 * n];
  virial_ = agg_[3 * n + 1];
}

void MdReplica::half_kick_and_drift(core::ExecContext& ctx) {
  const std::size_t n = p_.n;
  const double dt = dt_;
  ctx.record_kernel({9.0 * double(n), 96.0 * double(n)});
  for (std::size_t i = 0; i < n; ++i) {
    p_.half_kick(i, dt);
    p_.drift(i, dt, box_);
  }
}

void MdReplica::half_kick(core::ExecContext& ctx) {
  const std::size_t n = p_.n;
  const double dt = dt_;
  ctx.record_kernel({6.0 * double(n), 96.0 * double(n)});
  for (std::size_t i = 0; i < n; ++i) p_.half_kick(i, dt);
}

void MdReplica::save_state(std::vector<double>& out) const {
  out.clear();
  out.reserve(9 * p_.n + 2);
  for (const auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz, &p_.fx,
                        &p_.fy, &p_.fz}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  out.push_back(energy_);
  out.push_back(virial_);
  nl_.save_state(out);
}

void MdReplica::restore_state(const std::vector<double>& in) {
  const double* at = in.data();
  for (auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz, &p_.fx, &p_.fy,
                  &p_.fz}) {
    std::copy(at, at + p_.n, v->begin());
    at += p_.n;
  }
  energy_ = *at++;
  virial_ = *at++;
  nl_.load_state(at);
  nl_built_ = true;
}

}  // namespace coe::md
