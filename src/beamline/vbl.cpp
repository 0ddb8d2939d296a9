#include "beamline/vbl.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace coe::beamline {

Beamline::Beamline(core::ExecContext& ctx, VblConfig cfg)
    : ctx_(&ctx), cfg_(cfg), e_(cfg.n * cfg.n, cplx(0, 0)), kx2_(cfg.n) {
  const double dk = 2.0 * M_PI / cfg_.physical_size;
  for (std::size_t m = 0; m < cfg_.n; ++m) {
    const double f = m <= cfg_.n / 2
                         ? static_cast<double>(m)
                         : static_cast<double>(m) -
                               static_cast<double>(cfg_.n);
    kx2_[m] = (f * dk) * (f * dk);
  }
}

void Beamline::set_gaussian(double w0, double amplitude) {
  const std::size_t n = cfg_.n;
  const double h = cfg_.physical_size / static_cast<double>(n);
  const double c = 0.5 * cfg_.physical_size;
  ctx_->forall2(n, n, {10.0, 16.0}, [&](std::size_t i, std::size_t j) {
    const double x = h * (static_cast<double>(i) + 0.5) - c;
    const double y = h * (static_cast<double>(j) + 0.5) - c;
    e_[i * n + j] = amplitude * std::exp(-(x * x + y * y) / (w0 * w0));
  });
  z_ = 0.0;
}

void Beamline::add_phase_defect(double cx, double cy, double radius,
                                double phase) {
  const std::size_t n = cfg_.n;
  const double h = cfg_.physical_size / static_cast<double>(n);
  ctx_->forall2(n, n, {12.0, 32.0}, [&](std::size_t i, std::size_t j) {
    const double x = h * (static_cast<double>(i) + 0.5);
    const double y = h * (static_cast<double>(j) + 0.5);
    const double dx = x - cx, dy = y - cy;
    if (dx * dx + dy * dy <= radius * radius) {
      e_[i * n + j] *= cplx(std::cos(phase), std::sin(phase));
    }
  });
}

void Beamline::step() {
  const std::size_t n = cfg_.n;
  const double k0 = 2.0 * M_PI / cfg_.wavelength;
  // Diffraction half: E = IFFT[ exp(-i k_perp^2 dz / (2 k0)) FFT[E] ].
  fft2d(*ctx_, e_, n, /*inverse=*/false, cfg_.transpose);
  ctx_->forall2(n, n, {14.0, 40.0}, [&](std::size_t i, std::size_t j) {
    const double k2 = kx2_[i] + kx2_[j];
    const double ang = -k2 * cfg_.dz / (2.0 * k0);
    e_[i * n + j] *= cplx(std::cos(ang), std::sin(ang));
  });
  fft2d(*ctx_, e_, n, /*inverse=*/true, cfg_.transpose);
  // Amplifier: saturating gain (the "full amplifier step").
  if (cfg_.gain0 != 0.0) {
    ctx_->forall2(n, n, {12.0, 32.0}, [&](std::size_t i, std::size_t j) {
      const double inten = std::norm(e_[i * n + j]);
      const double g = cfg_.gain0 / (1.0 + inten / cfg_.i_sat);
      e_[i * n + j] *= std::exp(0.5 * g * cfg_.dz);
    });
  }
  z_ += cfg_.dz;
}

void Beamline::propagate(double distance) {
  const auto steps = static_cast<std::size_t>(
      std::ceil(distance / cfg_.dz - 1e-12));
  for (std::size_t s = 0; s < steps; ++s) step();
}

double Beamline::total_power() const {
  double p = 0.0;
  for (const auto& v : e_) p += std::norm(v);
  const double h = cfg_.physical_size / static_cast<double>(cfg_.n);
  return p * h * h;
}

double Beamline::beam_width() const {
  const std::size_t n = cfg_.n;
  const double h = cfg_.physical_size / static_cast<double>(n);
  const double c = 0.5 * cfg_.physical_size;
  double p = 0.0, r2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double x = h * (static_cast<double>(i) + 0.5) - c;
      const double y = h * (static_cast<double>(j) + 0.5) - c;
      const double inten = std::norm(e_[i * n + j]);
      p += inten;
      r2 += inten * (x * x + y * y);
    }
  }
  return p > 0.0 ? std::sqrt(r2 / p) : 0.0;
}

double Beamline::fluence_contrast() const {
  const std::size_t n = cfg_.n;
  double peak = 0.0, mean = 0.0;
  std::size_t count = 0;
  for (std::size_t i = n / 4; i < 3 * n / 4; ++i) {
    for (std::size_t j = n / 4; j < 3 * n / 4; ++j) {
      const double inten = std::norm(e_[i * n + j]);
      peak = std::max(peak, inten);
      mean += inten;
      ++count;
    }
  }
  mean /= static_cast<double>(count);
  return mean > 0.0 ? peak / mean : 0.0;
}

TransferPath gpudirect_h2d() {
  // Low-latency path, modest sustained bandwidth.
  return {"GPUDirect H2D", 1.6e-6, 5.0e9};
}

TransferPath gpudirect_d2h() {
  // The D2H direction sustains much less bandwidth, so staged copies win
  // already at a few hundred bytes (Section 4.11).
  return {"GPUDirect D2H", 1.2e-6, 0.35e9};
}

TransferPath cudamemcpy_path() {
  // Staged copy: higher setup cost, full NVLink bandwidth.
  return {"cudaMemcpy", 2.4e-6, 33.0e9};
}

double crossover_bytes(const TransferPath& a, const TransferPath& b) {
  // Solve a.latency + x/a.bw = b.latency + x/b.bw.
  const double inv_diff = 1.0 / a.bandwidth - 1.0 / b.bandwidth;
  if (inv_diff <= 0.0) return std::numeric_limits<double>::infinity();
  return (b.latency - a.latency) / inv_diff;
}

}  // namespace coe::beamline
