#include "phoenix/krylov.hpp"

#include <stdexcept>

namespace coe::phoenix {

std::function<void(std::span<double>)> replicated_reduce(RankContext& rc,
                                                         int chan) {
  return [&rc, chan](std::span<double> v) {
    if (rc.owned().size() != 1) {
      throw std::logic_error(
          "phoenix::replicated_reduce: needs exactly one owned part");
    }
    rc.part_allreduce(chan, [v](int) { return v; });
    const double inv = 1.0 / static_cast<double>(rc.nparts());
    for (double& x : v) x *= inv;
  };
}

}  // namespace coe::phoenix
