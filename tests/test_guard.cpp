// Tests for coe::guard: seeded SDC injection, silent-error detectors
// (checksum scrubs, ABFT-checksummed SpMV, invariant/range monitors), and
// the containment guarantee when wired into resil::run_resilient — every
// injected corruption is detected before a step consumes it, rolled back,
// and the final answer is bitwise identical to a fault-free run. The
// acceptance runs (CG + stencil + MD) inject well over 100 corruptions
// between them. Seeds derive from COE_CHAOS_SEED (CI's chaos job sweeps
// it); every assertion here is cadence-based, not seed-based, so any seed
// must pass.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "guard/guard.hpp"
#include "la/la.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "prof/span.hpp"
#include "reaction/monodomain.hpp"
#include "resil/resil.hpp"
#include "stencil/wave.hpp"

namespace {

using namespace coe;

/// Chaos seed for this process: CI's chaos job sets COE_CHAOS_SEED per
/// matrix entry; a failure is reproducible by exporting the logged value.
std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("COE_CHAOS_SEED");
    std::uint64_t v = env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
    if (v == 0) v = 1;
    std::cout << "[chaos] COE_CHAOS_SEED=" << v << "\n";
    return v;
  }();
  return seed;
}

// --- SdcInjector -----------------------------------------------------------

TEST(SdcInjector, DeterministicForEqualSeeds) {
  std::vector<double> a(64, 1.5), b(64, 1.5);
  guard::SdcConfig cfg;
  cfg.every_polls = 1;
  cfg.seed = chaos_seed();
  guard::SdcInjector ia(cfg), ib(cfg);
  ia.add_target("buf", a);
  ib.add_target("buf", b);
  for (int k = 0; k < 20; ++k) {
    ia.poll(0.0);
    ib.poll(0.0);
  }
  ASSERT_EQ(ia.log().size(), 20u);
  ASSERT_EQ(ib.log().size(), 20u);
  for (std::size_t i = 0; i < ia.log().size(); ++i) {
    EXPECT_EQ(ia.log()[i].index, ib.log()[i].index);
    EXPECT_EQ(ia.log()[i].bit, ib.log()[i].bit);
    EXPECT_EQ(ia.log()[i].new_bits, ib.log()[i].new_bits);
  }
  // Bit-pattern compare: flips can produce NaN, where operator== would lie.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]));
  }
}

TEST(SdcInjector, EveryPollsCadence) {
  std::vector<double> buf(16, 0.25);
  guard::SdcConfig cfg;
  cfg.every_polls = 3;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.add_target("buf", buf);
  for (int k = 0; k < 12; ++k) inj.poll(0.0);
  EXPECT_EQ(inj.polls(), 12u);
  EXPECT_EQ(inj.injected(), 4u);
}

TEST(SdcInjector, MaxCorruptionsCapsInjection) {
  std::vector<double> buf(16, 0.25);
  guard::SdcConfig cfg;
  cfg.every_polls = 1;
  cfg.max_corruptions = 3;
  guard::SdcInjector inj(cfg);
  inj.add_target("buf", buf);
  for (int k = 0; k < 10; ++k) inj.poll(0.0);
  EXPECT_EQ(inj.injected(), 3u);
}

TEST(SdcInjector, ExponentBitClassIsLoud) {
  std::vector<double> buf(8, 1.0);
  guard::SdcConfig cfg;
  cfg.bit_lo = 62;
  cfg.bit_hi = 62;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  const auto c = inj.corrupt_one(buf, "buf");
  EXPECT_EQ(c.bit, 62);
  EXPECT_EQ(c.bits_flipped, 1);
  EXPECT_EQ(c.new_bits, c.old_bits ^ (1ull << 62));
  // Top exponent bit of 1.0: the damage is many orders of magnitude.
  const double v = buf[c.index];
  EXPECT_TRUE(v != 1.0);
  EXPECT_GT(std::abs(std::log2(std::abs(v))), 100.0);
}

TEST(SdcInjector, MantissaBitClassIsQuiet) {
  std::vector<double> buf(8, 1.0);
  guard::SdcConfig cfg;
  cfg.bit_lo = 0;
  cfg.bit_hi = 20;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  const auto c = inj.corrupt_one(buf, "buf");
  EXPECT_LE(c.bit, 20);
  const double v = buf[c.index];
  EXPECT_NE(v, 1.0);                      // the flip really landed...
  EXPECT_LT(std::abs(v - 1.0), 1e-9);     // ...but below any loose tolerance
}

TEST(SdcInjector, BurstStaysContiguousAndBounded) {
  std::vector<double> buf(8, 3.0);
  guard::SdcConfig cfg;
  cfg.every_polls = 1;
  cfg.burst_max = 4;
  cfg.seed = chaos_seed() + 7;
  guard::SdcInjector inj(cfg);
  inj.add_target("buf", buf);
  for (int k = 0; k < 32; ++k) inj.poll(0.0);
  for (const auto& c : inj.log()) {
    EXPECT_GE(c.bits_flipped, 1);
    EXPECT_LE(c.bits_flipped, 4);
    const std::uint64_t mask = c.old_bits ^ c.new_bits;
    // Exactly bits_flipped contiguous bits starting at c.bit.
    const std::uint64_t expect =
        ((c.bits_flipped >= 64 ? ~0ull : (1ull << c.bits_flipped) - 1ull))
        << c.bit;
    EXPECT_EQ(mask, expect);
  }
}

TEST(SdcInjector, ResidencyFilterSelectsOnlyEligibleTargets) {
  std::vector<double> dev(32, 1.0), host(32, 1.0);
  guard::SdcConfig cfg;
  cfg.every_polls = 1;
  cfg.target = guard::SdcTarget::Host;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.add_target("dev", dev, /*on_device=*/true);
  inj.add_target("host", host, /*on_device=*/false);
  for (int k = 0; k < 16; ++k) inj.poll(0.0);
  EXPECT_EQ(inj.injected(), 16u);
  for (const auto& c : inj.log()) EXPECT_EQ(c.target, "host");
  for (double v : dev) EXPECT_EQ(v, 1.0);
}

TEST(SdcInjector, DisabledWithoutTargetsOrClock) {
  guard::SdcInjector off(guard::SdcConfig{});  // rate 0, every_polls 0
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.poll(1e300), 0u);

  guard::SdcConfig cfg;
  cfg.every_polls = 1;
  guard::SdcInjector no_targets(cfg);
  EXPECT_FALSE(no_targets.enabled());  // armed clock, nothing to corrupt
  EXPECT_EQ(no_targets.poll(0.0), 0u);
}

TEST(SdcInjector, RateModeFollowsSimulatedClock) {
  std::vector<double> buf(64, 2.0);
  guard::SdcConfig cfg;
  cfg.rate = 100.0;  // one corruption per 0.01 simulated s on average
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.add_target("buf", buf);
  for (int k = 1; k <= 1000; ++k) inj.poll(static_cast<double>(k) * 0.01);
  EXPECT_GT(inj.injected(), 0u);
  EXPECT_LT(inj.injected(), 1000u);
}

// --- Detectors -------------------------------------------------------------

TEST(ChecksumDetector, CatchesAnySingleBitFlip) {
  auto ctx = core::make_device();
  std::vector<double> buf(256, 0.125);
  guard::ChecksumDetector det("scrub");
  det.add_target("buf", buf);
  EXPECT_TRUE(det.check(ctx));

  guard::SdcConfig cfg;
  cfg.bit_lo = 0;
  cfg.bit_hi = 0;  // the quietest possible flip: lowest mantissa bit
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.corrupt_one(buf, "buf");
  EXPECT_FALSE(det.check(ctx));
  EXPECT_EQ(det.stats().checks, 2u);
  EXPECT_EQ(det.stats().trips, 1u);

  det.arm(ctx);  // accept the current bits as the new reference
  EXPECT_TRUE(det.check(ctx));
}

TEST(ChecksumDetector, ChecksArePricedOnTheMachineModel) {
  auto ctx = core::make_device();
  std::vector<double> buf(1 << 14, 1.0);
  guard::ChecksumDetector det;
  det.add_target("buf", buf);
  const double t0 = ctx.simulated_time();
  EXPECT_TRUE(det.check(ctx));
  EXPECT_GT(ctx.simulated_time(), t0);  // the detection tax is real time
  EXPECT_GT(det.stats().check_s, 0.0);
}

TEST(BoundDetector, TripsOutsideBoundsAndOnNonFinite) {
  auto ctx = core::make_device();
  double value = 1.0;
  guard::BoundDetector det("bound", [&](core::ExecContext&) { return value; },
                           0.0, 2.0);
  EXPECT_TRUE(det.check(ctx));
  value = 3.0;
  EXPECT_FALSE(det.check(ctx));
  value = std::nan("");
  EXPECT_FALSE(det.check(ctx));
  EXPECT_EQ(det.stats().trips, 2u);
}

TEST(DriftDetector, TripsOnJumpNotOnSmallDrift) {
  auto ctx = core::make_device();
  double value = 100.0;
  guard::DriftDetector det("drift", [&](core::ExecContext&) { return value; },
                           1e-3);
  EXPECT_TRUE(det.check(ctx));  // unarmed: any finite value passes
  det.arm(ctx);
  value = 100.0 * (1.0 + 1e-6);
  EXPECT_TRUE(det.check(ctx));  // inside the per-step tolerance
  value = 101.0;
  EXPECT_FALSE(det.check(ctx));  // 1% jump against 0.1% tolerance
}

TEST(RangeDetector, StridedComponentRangesOverInterleavedState) {
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  reaction::TissueConfig tc;
  tc.nx = 12;
  tc.ny = 12;
  reaction::Monodomain tissue(gpu, cpu, tc);
  tissue.stimulate(0, 4, 0, 12, 60.0, 1.0);
  tissue.run(2.0);

  auto state = tissue.state_data();
  guard::DetectorSet det;
  det.emplace<guard::RangeDetector>("v_range", state,
                                    reaction::Monodomain::kVoltageLo,
                                    reaction::Monodomain::kVoltageHi, 4, 0);
  for (std::size_t gate = 1; gate <= 3; ++gate) {
    det.emplace<guard::RangeDetector>("gate_range", state,
                                      reaction::Monodomain::kGateLo,
                                      reaction::Monodomain::kGateHi, 4, gate);
  }
  EXPECT_TRUE(det.check_all(gpu));  // physiological state is in range

  // Blow the top exponent bit of one m-gate (offset 1 of cell 0): any gate
  // value in (0, 1) has that bit clear, so the flip always lands far above
  // kGateHi and the stride-4 component guard must trip — exactly one trip,
  // from the right component's detector.
  guard::SdcConfig cfg;
  cfg.bit_lo = 62;
  cfg.bit_hi = 62;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  auto gate = state.subspan(1, 1);
  inj.corrupt_one(gate, "m_gate");
  EXPECT_FALSE(det.check_all(gpu));
  EXPECT_EQ(det.trips(), 1u);
  EXPECT_EQ(det[0].stats().trips, 0u);  // the voltage guard stayed clean
}

TEST(DetectorSet, ChecksAllWithoutShortCircuit) {
  auto ctx = core::make_device();
  double bad = 10.0;  // outside [0,1] from the start
  guard::DetectorSet det;
  det.emplace<guard::BoundDetector>(
      "first", [&](core::ExecContext&) { return bad; }, 0.0, 1.0);
  auto& second = det.emplace<guard::BoundDetector>(
      "second", [](core::ExecContext&) { return 0.5; }, 0.0, 1.0);
  EXPECT_FALSE(det.check_all(ctx));
  // The second detector still ran (stats stay comparable across the set).
  EXPECT_EQ(second.stats().checks, 1u);
  EXPECT_EQ(det.checks(), 2u);
  EXPECT_EQ(det.trips(), 1u);
}

TEST(DetectorSet, PublishesMetricsAndProfilerSpans) {
  auto ctx = core::make_device();
  obs::MetricsRegistry metrics;
  prof::Profiler profiler;
  std::vector<double> buf(1024, 1.0);
  guard::DetectorSet det;
  det.set_sinks(&metrics, &profiler);
  auto& scrub = det.emplace<guard::ChecksumDetector>("scrub");
  scrub.add_target("buf", buf);
  det.arm_all(ctx);
  EXPECT_TRUE(det.check_all(ctx));
  buf[17] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(buf[17]) ^ 1u);
  EXPECT_FALSE(det.check_all(ctx));

  EXPECT_DOUBLE_EQ(metrics.counter("guard.checks"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("guard.trips"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("guard.scrub.trips"), 1.0);
  EXPECT_GT(metrics.counter("guard.check_s"), 0.0);

  // "guard/scrub" opens a shared "guard" node with the detector beneath it,
  // so the detection tax lines up next to the kernels in the report.
  const auto& root = profiler.root();
  const prof::Profiler::Node* guard_node = nullptr;
  for (const auto& c : root.children) {
    if (c->name == "guard") guard_node = c.get();
  }
  ASSERT_NE(guard_node, nullptr);
  ASSERT_EQ(guard_node->children.size(), 1u);
  EXPECT_EQ(guard_node->children[0]->name, "scrub");
  EXPECT_GE(guard_node->children[0]->calls, 2u);
  EXPECT_GT(guard_node->sim_s, 0.0);
}

// --- ABFT (Huang–Abraham checksummed SpMV) ---------------------------------

TEST(Abft, ColumnSumsAreTheTransposeChecksum) {
  auto a = la::poisson2d(6, 5);
  const auto w = a.column_sums();
  std::vector<double> e(a.rows(), 1.0), wt(a.cols(), 0.0);
  a.spmv_transpose(e, wt);
  ASSERT_EQ(w.size(), wt.size());
  for (std::size_t j = 0; j < w.size(); ++j) EXPECT_DOUBLE_EQ(w[j], wt[j]);
}

TEST(Abft, CleanApplyMatchesPlainSpmvBitwise) {
  auto ctx = core::make_device();
  auto a = la::poisson2d(10, 10);
  la::AbftCsrOperator guarded(a);
  core::Rng rng(chaos_seed());
  std::vector<double> x(a.cols()), y_plain(a.rows()), y_guarded(a.rows());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  a.spmv(ctx, x, y_plain);
  guarded.apply(ctx, x, y_guarded);
  for (std::size_t i = 0; i < y_plain.size(); ++i) {
    ASSERT_EQ(y_plain[i], y_guarded[i]);
  }
  EXPECT_EQ(guarded.checks(), 1u);
  EXPECT_EQ(guarded.trips(), 0u);
  EXPECT_LT(guarded.last_relative_error(), 1e-12);
}

TEST(Abft, StaleChecksumDetectsCorruptedMatrix) {
  // Corrupting A after the checksum vector w = A^T e is computed is the
  // classic ABFT scenario: the product is consistent with the corrupted
  // matrix but not with the checksum, so the identity e^T y = w^T x fails.
  auto ctx = core::make_device();
  auto a = la::poisson2d(8, 8);
  la::AbftCsrOperator guarded(a, 1e-9);
  std::vector<double> x(a.cols(), 1.0), y(a.rows());
  guarded.apply(ctx, x, y);
  EXPECT_EQ(guarded.trips(), 0u);

  guard::SdcConfig cfg;
  cfg.bit_lo = 55;  // exponent-range flip: loud corruption
  cfg.bit_hi = 55;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.corrupt_one(a.values(), "A.values");

  guarded.apply(ctx, x, y);
  EXPECT_EQ(guarded.checks(), 2u);
  EXPECT_EQ(guarded.trips(), 1u);
  EXPECT_GT(guarded.last_relative_error(), 1e-9);
  guarded.clear_trips();
  EXPECT_EQ(guarded.trips(), 0u);
}

TEST(Abft, CgSelfHealsThroughResidualRestart) {
  // cg() with the ABFT residual guard enabled on a clean run: checks
  // happen, nothing trips, and the answer matches the unguarded solve.
  auto a = la::poisson2d(12, 12);
  const std::size_t n = a.rows();
  core::Rng rng(chaos_seed());
  std::vector<double> x_true(n), b(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);

  std::vector<double> x(n, 0.0);
  la::SolveOptions opts;
  opts.max_iters = 500;
  opts.rel_tol = 1e-8;
  opts.abft_every = 5;
  // Near convergence the recursive and true residual norms agree
  // absolutely (to rounding) but not relatively; the tolerance must sit
  // above that floor or the guard trips on its own rounding noise.
  opts.abft_tol = 1e-4;
  auto res = la::cg(ctx, op, prec, b, x, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.abft_checks, 0u);
  EXPECT_EQ(res.abft_trips, 0u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-4);
}

/// CG stepping options: zero tolerance, so every step runs the full
/// iteration.
la::SolveOptions every_step() {
  la::SolveOptions opts;
  opts.rel_tol = 0.0;
  return opts;
}

TEST(CgStepper, ConvergesAndRoundTripsBitwise) {
  auto a = la::poisson2d(8, 8);
  const std::size_t n = a.rows();
  core::Rng rng(chaos_seed());
  std::vector<double> x_true(n), b(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_device();
  a.spmv(ctx, x_true, b);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);

  std::vector<double> x(n, 0.0);
  la::Pcg cg(ctx, op, prec, b, x, every_step());
  cg.start();
  EXPECT_EQ(cg.sdc_targets().size(), 4u);
  for (int k = 0; k < 20; ++k) cg.step();
  std::vector<double> ck;
  cg.save_state(ck);
  for (int k = 0; k < 20; ++k) cg.step();
  std::vector<double> final_a;
  cg.save_state(final_a);
  const double resid_a = cg.residual();

  cg.restore_state(ck);
  EXPECT_EQ(cg.iteration(), 20u);
  for (int k = 0; k < 20; ++k) cg.step();
  std::vector<double> final_b;
  cg.save_state(final_b);
  ASSERT_EQ(final_a.size(), final_b.size());
  for (std::size_t i = 0; i < final_a.size(); ++i) {
    ASSERT_EQ(final_a[i], final_b[i]) << "blob index " << i;
  }
  EXPECT_LT(resid_a, 1e-8);  // 40 PCG iterations on an 8x8 Poisson problem
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);

  // Stepping is la::cg one iteration at a time: 40 steps are the
  // 40-iteration zero-tolerance solve, bit for bit and launch for launch.
  auto ctx_step = core::make_device();
  std::vector<double> x_step(n, 0.0);
  la::Pcg stepper(ctx_step, op, prec, b, x_step, every_step());
  stepper.start();
  for (int k = 0; k < 40; ++k) stepper.step();
  auto ctx_cg = core::make_device();
  std::vector<double> x_cg(n, 0.0);
  la::SolveOptions opts = every_step();
  opts.max_iters = 40;
  la::cg(ctx_cg, op, prec, b, x_cg, opts);
  EXPECT_EQ(x_step, x_cg);
  EXPECT_EQ(ctx_step.simulated_time(), ctx_cg.simulated_time());
  EXPECT_EQ(ctx_step.counters().launches, ctx_cg.counters().launches);
}

// --- Guarded runs: containment acceptance ----------------------------------

// Wires an app into run_resilient under SDC injection exactly as
// guard/guard.hpp prescribes and returns the report. `targets` are the
// app's live state spans; the checksum scrub guards all of them.
template <typename App, typename Step>
resil::ResilienceReport guarded_run(
    App& app, core::ExecContext& ctx, std::size_t steps, Step&& do_step,
    std::vector<std::pair<std::string, std::span<double>>> targets,
    guard::SdcInjector& inj, resil::CheckpointStore* store = nullptr,
    obs::MetricsRegistry* metrics = nullptr) {
  guard::DetectorSet det;
  auto& scrub = det.emplace<guard::ChecksumDetector>("scrub");
  for (auto& [name, span] : targets) {
    inj.add_target(name, span);
    scrub.add_target(name, span);
  }
  det.set_sinks(metrics, nullptr);

  resil::ResilienceConfig cfg;
  cfg.checkpoint_interval = 1e-300;  // checkpoint after every step
  cfg.metrics = metrics;
  cfg.verify_hook = [&](std::size_t) {
    inj.poll(ctx.simulated_time());
    return det.check_all(ctx);
  };
  cfg.on_rollback = [&](std::size_t) { det.arm_all(ctx); };
  cfg.corruption_count = [&] { return inj.injected(); };
  return resil::run_resilient(
      app, ctx, steps,
      [&](std::size_t s) {
        do_step(s);
        det.arm_all(ctx);
      },
      cfg, store);
}

void expect_bitwise_equal(const resil::Checkpointable& a,
                          const resil::Checkpointable& b) {
  std::vector<double> sa, sb;
  a.save_state(sa);
  b.save_state(sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i], sb[i]) << "blob index " << i;
  }
}

TEST(GuardedRun, CgContainsEveryCorruptionBitwise) {
  auto a = la::poisson2d(16, 16);
  const std::size_t n = a.rows();
  core::Rng rng(7);
  std::vector<double> x_true(n), b(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  la::JacobiPreconditioner prec(a);
  const std::size_t steps = 60;

  // Fault-free reference (ABFT-checksummed operator: the guard stack's
  // SpMV is the one whose answer must be reproduced).
  auto ctx_ref = core::make_device();
  la::AbftCsrOperator op_ref(a);
  std::vector<double> x_ref(n, 0.0);
  a.spmv(ctx_ref, x_true, b);
  la::Pcg cg_ref(ctx_ref, op_ref, prec, b, x_ref, every_step());
  cg_ref.start();
  for (std::size_t s = 0; s < steps; ++s) cg_ref.step();

  // Corrupted run: a bit flip lands on every second verification poll.
  auto ctx = core::make_device();
  la::AbftCsrOperator op(a);
  std::vector<double> x(n, 0.0);
  la::Pcg cg(ctx, op, prec, b, x, every_step());
  cg.start();
  guard::SdcConfig sdc;
  sdc.every_polls = 2;
  sdc.seed = chaos_seed() * 1000003 + 1;
  guard::SdcInjector inj(sdc);
  resil::CheckpointStore store;
  auto rep = guarded_run(
      cg, ctx, steps, [&](std::size_t) { cg.step(); }, cg.sdc_targets(), inj,
      &store);

  ASSERT_TRUE(rep.completed);
  EXPECT_GE(inj.injected(), 40u);
  EXPECT_EQ(rep.corruptions_seen, inj.injected());
  EXPECT_EQ(rep.corruptions_contained, rep.corruptions_seen);
  EXPECT_EQ(rep.corruptions_escaped, 0u);
  EXPECT_DOUBLE_EQ(rep.escape_rate(), 0.0);
  EXPECT_EQ(rep.detections, rep.rollbacks);
  EXPECT_GT(rep.detections, 0u);
  EXPECT_GT(rep.steps_replayed, 0u);
  EXPECT_GT(rep.verify_time, 0.0);
  EXPECT_TRUE(store.verify_all());
  // ABFT never saw a corrupted operand: the scrub rolled every flip back
  // before a step's SpMV could consume it.
  EXPECT_EQ(op.trips(), 0u);
  expect_bitwise_equal(cg, cg_ref);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x[i], x_ref[i]);
}

TEST(GuardedRun, WaveSolverContainsEveryCorruptionBitwise) {
  auto build = [](core::ExecContext& ctx) {
    stencil::WaveSolver w(ctx, 10, 10, 10, 1.0, 1.0, {});
    w.set_initial(
        [](double x, double y, double z) {
          return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
        },
        [](double, double, double) { return 0.0; }, 0.01);
    return w;
  };
  const std::size_t steps = 40;

  auto ctx_ref = core::make_device();
  auto w_ref = build(ctx_ref);
  for (std::size_t s = 0; s < steps; ++s) w_ref.step(0.01);

  auto ctx = core::make_device();
  auto w = build(ctx);
  guard::SdcConfig sdc;
  sdc.every_polls = 2;
  sdc.seed = chaos_seed() * 1000003 + 2;
  guard::SdcInjector inj(sdc);
  auto rep = guarded_run(
      w, ctx, steps, [&](std::size_t) { w.step(0.01); }, w.sdc_targets(), inj);

  ASSERT_TRUE(rep.completed);
  EXPECT_GE(inj.injected(), 30u);
  EXPECT_EQ(rep.corruptions_contained, rep.corruptions_seen);
  EXPECT_EQ(rep.corruptions_escaped, 0u);
  EXPECT_GT(rep.detections, 0u);
  expect_bitwise_equal(w, w_ref);
}

TEST(GuardedRun, MdSimulationContainsEveryCorruptionBitwise) {
  auto build = [](core::ExecContext& gpu, core::ExecContext& cpu) {
    core::Rng init(13);
    md::Particles p;
    md::Box box;
    md::init_lattice(p, box, 4, 0.7, 1.0, init);
    return md::Simulation<md::LennardJones>(
        gpu, cpu, std::move(p), box, md::LennardJones(1.0, 1.0, 2.5),
        md::SimConfig{}, 0.4);
  };
  const std::size_t steps = 30;

  auto gpu_ref = core::make_device();
  auto cpu_ref = core::make_cpu();
  auto md_ref = build(gpu_ref, cpu_ref);
  for (std::size_t s = 0; s < steps; ++s) md_ref.step();

  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  auto sim = build(gpu, cpu);
  guard::SdcConfig sdc;
  sdc.every_polls = 2;
  sdc.seed = chaos_seed() * 1000003 + 3;
  guard::SdcInjector inj(sdc);
  obs::MetricsRegistry metrics;
  auto rep = guarded_run(
      sim, gpu, steps, [&](std::size_t) { sim.step(); }, sim.sdc_targets(),
      inj, nullptr, &metrics);

  ASSERT_TRUE(rep.completed);
  EXPECT_GE(inj.injected(), 25u);
  EXPECT_EQ(rep.corruptions_contained, rep.corruptions_seen);
  EXPECT_EQ(rep.corruptions_escaped, 0u);
  EXPECT_GT(rep.detections, 0u);
  expect_bitwise_equal(sim, md_ref);

  // Telemetry from both layers of the stack landed in one registry.
  EXPECT_GT(metrics.counter("guard.checks"), 0.0);
  EXPECT_GT(metrics.counter("guard.trips"), 0.0);
  EXPECT_GT(metrics.counter("resil.rollbacks"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("resil.escapes"), 0.0);
}

TEST(GuardedRun, WeakDetectorMeasuresEscapeRate) {
  // Quiet mantissa flips against a drift monitor too loose to see them:
  // every corruption is accepted by a passing verification and the report
  // says so — the escape rate is measured, not hidden.
  auto ctx = core::make_device();
  stencil::WaveSolver w(ctx, 8, 8, 8, 1.0, 1.0, {});
  w.set_initial(
      [](double x, double y, double z) {
        return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
      },
      [](double, double, double) { return 0.0; }, 0.01);
  const std::size_t steps = 30;

  guard::SdcConfig sdc;
  sdc.every_polls = 2;
  sdc.bit_lo = 0;
  sdc.bit_hi = 20;  // low mantissa: relative damage ~1e-10
  sdc.seed = chaos_seed() * 1000003 + 4;
  guard::SdcInjector inj(sdc);
  for (auto& [name, span] : w.sdc_targets()) inj.add_target(name, span);

  guard::DetectorSet det;
  det.emplace<guard::DriftDetector>(
      "energy_drift", [&](core::ExecContext&) { return w.field_norm2(); },
      1e-3);

  resil::ResilienceConfig cfg;
  cfg.checkpoint_interval = 1e-300;
  cfg.verify_hook = [&](std::size_t) {
    inj.poll(ctx.simulated_time());
    return det.check_all(ctx);
  };
  cfg.on_rollback = [&](std::size_t) { det.arm_all(ctx); };
  cfg.corruption_count = [&] { return inj.injected(); };
  auto rep = resil::run_resilient(
      w, ctx, steps,
      [&](std::size_t) {
        w.step(0.01);
        det.arm_all(ctx);
      },
      cfg);

  ASSERT_TRUE(rep.completed);
  EXPECT_GT(rep.corruptions_seen, 10u);
  EXPECT_EQ(rep.detections, 0u);  // nothing tripped...
  EXPECT_EQ(rep.corruptions_escaped, rep.corruptions_seen);  // ...all escaped
  EXPECT_EQ(rep.corruptions_contained, 0u);
  EXPECT_DOUBLE_EQ(rep.escape_rate(), 1.0);
}

// --- Checkpoint CRC containment --------------------------------------------

struct Blob : resil::Checkpointable {
  std::vector<double> v;
  void save_state(std::vector<double>& out) const override { out = v; }
  void restore_state(const std::vector<double>& in) override { v = in; }
};

TEST(CheckpointCrc, CorruptNewestGenerationFallsBackToOlder) {
  auto ctx = core::make_device();
  Blob b;
  resil::CheckpointStore store;
  b.v.assign(128, 1.0);
  store.write("b", 1, b, ctx);
  b.v.assign(128, 2.0);
  store.write("b", 2, b, ctx);
  ASSERT_TRUE(store.verify_all());

  // SDC lands in the newest checkpoint payload itself.
  auto gens = store.generations("b");
  ASSERT_EQ(gens.size(), 2u);
  guard::SdcConfig cfg;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  inj.corrupt_one(gens.back().data, "ck");
  EXPECT_FALSE(store.verify_all());
  EXPECT_NE(resil::CheckpointStore::payload_crc(gens.back()),
            gens.back().crc);

  b.v.assign(128, -1.0);
  std::size_t step = 0;
  ASSERT_TRUE(store.restore_latest("b", b, ctx, &step));
  EXPECT_EQ(step, 1u);  // served by the intact older generation
  EXPECT_DOUBLE_EQ(b.v[0], 1.0);
  EXPECT_EQ(store.stats().crc_failures, 1u);
  EXPECT_EQ(store.stats().fallbacks, 1u);
  // The corrupt generation was dropped, not retried.
  EXPECT_EQ(store.generations("b").size(), 1u);
  EXPECT_TRUE(store.verify_all());
}

TEST(CheckpointCrc, AllGenerationsCorruptMeansUnrecoverable) {
  auto ctx = core::make_device();
  Blob b;
  resil::CheckpointStore store;
  b.v.assign(64, 1.0);
  store.write("b", 1, b, ctx);
  b.v.assign(64, 2.0);
  store.write("b", 2, b, ctx);
  guard::SdcConfig cfg;
  cfg.seed = chaos_seed();
  guard::SdcInjector inj(cfg);
  for (auto& g : store.generations("b")) inj.corrupt_one(g.data, "ck");

  b.v.assign(64, -1.0);
  EXPECT_FALSE(store.restore_latest("b", b, ctx));
  EXPECT_EQ(store.stats().crc_failures, 2u);
  EXPECT_DOUBLE_EQ(b.v[0], -1.0);  // app state untouched by failed restore
}

TEST(CheckpointCrc, DriverRecoversFromCorruptNewestGeneration) {
  // In-driver version: a detector trips once, the newest generation has
  // been silently corrupted in the meantime, and the rollback path must
  // refuse it by CRC and recover from the older generation — finishing
  // with the exact fault-free answer.
  auto build = [](core::ExecContext& ctx) {
    stencil::WaveSolver w(ctx, 8, 8, 8, 1.0, 1.0, {});
    w.set_initial(
        [](double x, double y, double z) {
          return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
        },
        [](double, double, double) { return 0.0; }, 0.01);
    return w;
  };
  const std::size_t steps = 25;

  auto ctx_ref = core::make_device();
  auto w_ref = build(ctx_ref);
  for (std::size_t s = 0; s < steps; ++s) w_ref.step(0.01);

  auto ctx = core::make_device();
  auto w = build(ctx);
  resil::CheckpointStore store;
  guard::SdcConfig cfg_sdc;
  cfg_sdc.seed = chaos_seed();
  guard::SdcInjector inj(cfg_sdc);

  bool fired = false;
  resil::ResilienceConfig cfg;
  cfg.checkpoint_interval = 1e-300;
  cfg.verify_hook = [&](std::size_t) {
    auto gens = store.generations("run_resilient");
    if (!fired && gens.size() == 2) {
      fired = true;
      inj.corrupt_one(gens.back().data, "ck");  // rot the newest generation
      return false;  // and simultaneously report detected state corruption
    }
    return true;
  };
  auto rep = resil::run_resilient(
      w, ctx, steps, [&](std::size_t) { w.step(0.01); }, cfg, &store);

  ASSERT_TRUE(fired);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 1u);
  EXPECT_EQ(rep.checkpoint_crc_failures, 1u);
  EXPECT_EQ(store.stats().crc_failures, 1u);
  EXPECT_EQ(store.stats().fallbacks, 1u);
  EXPECT_GT(rep.steps_replayed, 0u);
  EXPECT_TRUE(store.verify_all());
  expect_bitwise_equal(w, w_ref);
}

}  // namespace
