#pragma once
// The VBL laser-propagation mini-app (Section 4.11): split-step paraxial
// beam propagation -- discrete FFTs for the diffraction half-step plus
// pointwise field updates (the "triply-nested loops" parallelized with
// RAJA), a saturating amplifier gain step, and phase-plate defects whose
// downstream fluence ripples reproduce the Figure 9 experiment.

#include <complex>
#include <vector>

#include "beamline/fft.hpp"

namespace coe::beamline {

struct VblConfig {
  std::size_t n = 64;          ///< grid points per side (power of two)
  double physical_size = 0.01; ///< aperture side, meters
  double wavelength = 1.053e-6;///< meters (NIF-like)
  double dz = 0.1;             ///< propagation step, meters
  double gain0 = 0.0;          ///< small-signal gain per meter
  double i_sat = 1.0;          ///< saturation intensity
  TransposeKind transpose = TransposeKind::Tiled;
};

class Beamline {
 public:
  Beamline(core::ExecContext& ctx, VblConfig cfg);

  std::size_t n() const { return cfg_.n; }
  double z() const { return z_; }

  /// Gaussian beam of 1/e^2 intensity radius w0 centered in the aperture.
  void set_gaussian(double w0, double amplitude = 1.0);

  /// Circular phase defect (radius in meters, phase in radians) stamped
  /// onto the current field -- the "150 micron phase defects" of Fig. 9.
  void add_phase_defect(double cx, double cy, double radius, double phase);

  /// One split-step: diffraction (FFT - phase - IFFT) then amplifier gain.
  void step();

  /// Propagate a total distance (multiple steps).
  void propagate(double distance);

  /// Total power sum |E|^2 dA.
  double total_power() const;
  /// RMS intensity radius (beam width measure).
  double beam_width() const;
  /// Peak-to-mean fluence contrast in the central half of the aperture --
  /// the ripple metric for the phase-defect experiment.
  double fluence_contrast() const;

  const std::vector<cplx>& field() const { return e_; }

 private:
  core::ExecContext* ctx_;
  VblConfig cfg_;
  std::vector<cplx> e_;
  std::vector<double> kx2_;  ///< squared transverse wavenumbers per index
  double z_ = 0.0;
};

/// Host<->device transfer paths for the GPUDirect-vs-cudaMemcpy study.
struct TransferPath {
  const char* name;
  double latency;    ///< seconds
  double bandwidth;  ///< bytes/second

  double time(double bytes) const { return latency + bytes / bandwidth; }
};

TransferPath gpudirect_h2d();
TransferPath gpudirect_d2h();
TransferPath cudamemcpy_path();

/// Transfer size at which path b becomes faster than path a (infinity if
/// never).
double crossover_bytes(const TransferPath& a, const TransferPath& b);

}  // namespace coe::beamline
