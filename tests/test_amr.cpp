// Tests for the mini-SAMRAI module: box algebra, ghost exchange, pool-
// backed patch storage, prolongation/restriction, and the CleverLeaf Euler
// solver (Sod shock physics, conservation, multi-patch equivalence).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "amr/euler.hpp"
#include "amr/two_level.hpp"

namespace {

using namespace coe;

TEST(Box, Algebra) {
  amr::Box a{0, 0, 9, 4};
  EXPECT_EQ(a.ni(), 10);
  EXPECT_EQ(a.nj(), 5);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_TRUE(a.contains(9, 4));
  EXPECT_FALSE(a.contains(10, 0));
  auto g = a.grown(2);
  EXPECT_EQ(g.ilo, -2);
  EXPECT_EQ(g.size(), 14u * 9u);
  auto i = amr::Box::intersect(a, amr::Box{5, 3, 20, 20});
  EXPECT_EQ(i.ilo, 5);
  EXPECT_EQ(i.ihi, 9);
  EXPECT_EQ(i.jlo, 3);
  EXPECT_TRUE(amr::Box::intersect(a, amr::Box{20, 20, 30, 30}).empty());
  auto r = a.refined(2);
  EXPECT_EQ(r.ni(), 20);
  EXPECT_EQ(r.coarsened(2).ni(), a.ni());
}

TEST(Patch, PoolBackedFields) {
  core::MemoryPool pool;
  {
    amr::Patch p(pool, amr::Box{0, 0, 7, 7}, 2);
    p.add_field("rho");
    p.field("rho").at(3, 3) = 5.0;
    EXPECT_DOUBLE_EQ(p.field("rho").at(3, 3), 5.0);
    EXPECT_GT(pool.stats().current_bytes, 0u);
  }
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  // A second patch of the same shape reuses the freed block.
  amr::Patch q(pool, amr::Box{0, 0, 7, 7}, 2);
  q.add_field("rho");
  EXPECT_GT(pool.stats().reuse_count, 0u);
}

TEST(PatchField, SwapInteriorKeepsGhosts) {
  core::MemoryPool pool;
  const amr::Box box{2, -1, 5, 1};
  amr::PatchField a(pool, box, 2);
  amr::PatchField b(pool, box, 2);
  auto va = [](std::int64_t i, std::int64_t j) {
    return 1000.0 + 10.0 * double(i) + double(j);
  };
  auto vb = [](std::int64_t i, std::int64_t j) {
    return -2000.0 - 10.0 * double(i) - double(j);
  };
  const amr::Box gb = box.grown(2);
  for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
    for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) {
      a.at(i, j) = va(i, j);
      b.at(i, j) = vb(i, j);
    }
  }
  a.swap_interior(b);
  for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
    for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) {
      const bool in = box.contains(i, j);
      EXPECT_EQ(a.at(i, j), in ? vb(i, j) : va(i, j)) << i << "," << j;
      EXPECT_EQ(b.at(i, j), in ? va(i, j) : vb(i, j)) << i << "," << j;
    }
  }
  amr::PatchField other_box(pool, amr::Box{2, -1, 5, 2}, 2);
  amr::PatchField other_ghost(pool, box, 1);
  EXPECT_THROW(a.swap_interior(other_box), std::invalid_argument);
  EXPECT_THROW(a.swap_interior(other_ghost), std::invalid_argument);
}

TEST(PatchLevel, GhostExchangeBetweenPatches) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 15, 7}, 2,
                        amr::BoundaryKind::Periodic);
  auto& left = level.add_patch(amr::Box{0, 0, 7, 7});
  auto& right = level.add_patch(amr::Box{8, 0, 15, 7});
  left.add_field("f");
  right.add_field("f");
  for (std::int64_t i = 0; i <= 7; ++i) {
    for (std::int64_t j = 0; j <= 7; ++j) {
      left.field("f").at(i, j) = double(i * 100 + j);
      right.field("f").at(i + 8, j) = double((i + 8) * 100 + j);
    }
  }
  level.fill_ghosts("f");
  // Left patch's right ghosts come from the right patch.
  EXPECT_DOUBLE_EQ(left.field("f").at(8, 3), 803.0);
  EXPECT_DOUBLE_EQ(left.field("f").at(9, 0), 900.0);
  // Periodic wrap: left patch's left ghosts come from the right edge.
  EXPECT_DOUBLE_EQ(left.field("f").at(-1, 2), 1502.0);
  // Right patch's right ghosts wrap to the left edge.
  EXPECT_DOUBLE_EQ(right.field("f").at(16, 5), 5.0);
}

TEST(PatchLevel, OutflowClampsAtWalls) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 7, 7}, 1,
                        amr::BoundaryKind::Outflow);
  auto& p = level.add_patch(amr::Box{0, 0, 7, 7});
  p.add_field("f");
  for (std::int64_t i = 0; i <= 7; ++i) {
    for (std::int64_t j = 0; j <= 7; ++j) {
      p.field("f").at(i, j) = double(i);
    }
  }
  level.fill_ghosts("f");
  EXPECT_DOUBLE_EQ(p.field("f").at(-1, 3), 0.0);  // clamped to i = 0
  EXPECT_DOUBLE_EQ(p.field("f").at(8, 3), 7.0);   // clamped to i = 7
}

TEST(Refinement, RestrictionAverages) {
  core::MemoryPool pool;
  amr::PatchLevel coarse(pool, amr::Box{0, 0, 7, 7}, 1,
                         amr::BoundaryKind::Outflow);
  amr::PatchLevel fine(pool, amr::Box{0, 0, 15, 15}, 1,
                       amr::BoundaryKind::Outflow);
  auto& cp = coarse.add_patch(amr::Box{0, 0, 7, 7});
  auto& fp = fine.add_patch(amr::Box{4, 4, 11, 11});
  cp.add_field("f");
  fp.add_field("f");
  for (std::int64_t i = 4; i <= 11; ++i) {
    for (std::int64_t j = 4; j <= 11; ++j) {
      fp.field("f").at(i, j) = double(i + j);
    }
  }
  amr::restrict_onto(fine, coarse, "f", 2);
  // Coarse cell (2,2) covers fine cells (4..5, 4..5): mean of 8,9,9,10.
  EXPECT_DOUBLE_EQ(cp.field("f").at(2, 2), 9.0);
  // Uncovered coarse cells untouched.
  EXPECT_DOUBLE_EQ(cp.field("f").at(0, 0), 0.0);
}

TEST(Refinement, ProlongationFillsFineGhosts) {
  core::MemoryPool pool;
  amr::PatchLevel coarse(pool, amr::Box{0, 0, 7, 7}, 1,
                         amr::BoundaryKind::Outflow);
  auto& cp = coarse.add_patch(amr::Box{0, 0, 7, 7});
  cp.add_field("f");
  for (std::int64_t i = 0; i <= 7; ++i) {
    for (std::int64_t j = 0; j <= 7; ++j) {
      cp.field("f").at(i, j) = double(10 * i + j);
    }
  }
  amr::Patch fp(pool, amr::Box{4, 4, 11, 11}, 2);
  fp.add_field("f");
  amr::prolong_into(coarse, fp, "f", 2);
  // Fine ghost (3, 6) -> coarse (1, 3) = 13.
  EXPECT_DOUBLE_EQ(fp.field("f").at(3, 6), 13.0);
  EXPECT_DOUBLE_EQ(fp.field("f").at(12, 12), 66.0);
}

TEST(Euler, SodShockQualitative) {
  core::MemoryPool pool;
  const std::int64_t n = 200;
  amr::PatchLevel level(pool, amr::Box{0, 0, n - 1, 3}, 2,
                        amr::BoundaryKind::Outflow);
  level.add_patch(amr::Box{0, 0, n - 1, 3});
  auto ctx = core::make_seq();
  amr::EulerConfig cfg;
  cfg.dx = 1.0 / double(n);
  cfg.dy = 1.0 / double(n);
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([n](std::int64_t i, std::int64_t) {
    return amr::sod_state(i, n / 2);
  });
  solver.advance(0.15);
  // Density profile: left state ~1, right state ~0.125, shock moved right,
  // monotone decrease overall for Sod.
  const auto left = solver.primitive_at(5, 1);
  const auto right = solver.primitive_at(n - 5, 1);
  EXPECT_NEAR(left.rho, 1.0, 0.02);
  EXPECT_NEAR(right.rho, 0.125, 0.02);
  // Contact/shock structure exists between the states.
  const auto mid = solver.primitive_at(n / 2 + 10, 1);
  EXPECT_GT(mid.rho, 0.2);
  EXPECT_LT(mid.rho, 0.9);
  EXPECT_GT(mid.u, 0.1);  // gas moving right
}

TEST(Euler, PeriodicConservation) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 31, 31}, 2,
                        amr::BoundaryKind::Periodic);
  level.add_patch(amr::Box{0, 0, 31, 31});
  auto ctx = core::make_seq();
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / 32.0;
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([](std::int64_t i, std::int64_t j) {
    amr::PrimState s;
    s.rho = 1.0 + 0.2 * std::sin(2.0 * M_PI * double(i) / 32.0);
    s.u = 0.3;
    s.v = 0.1 * std::cos(2.0 * M_PI * double(j) / 32.0);
    s.p = 1.0;
    return s;
  });
  const double m0 = solver.total_mass();
  const double e0 = solver.total_energy();
  const double px0 = solver.total_momentum_x();
  for (int s = 0; s < 50; ++s) solver.step(solver.compute_dt());
  EXPECT_NEAR(solver.total_mass(), m0, 1e-10 * std::abs(m0));
  EXPECT_NEAR(solver.total_energy(), e0, 1e-10 * std::abs(e0));
  EXPECT_NEAR(solver.total_momentum_x(), px0, 1e-10 * std::abs(px0) + 1e-12);
}

TEST(Euler, TotalsAreCompensatedSums) {
  // A running sum of these densities cancels to 0; the integrals keep the
  // two unit cells. On a large level the same rounding swamps a 1e-12
  // relative mass-conservation check.
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 0, 3}, 2,
                        amr::BoundaryKind::Outflow);
  level.add_patch(amr::Box{0, 0, 0, 3});
  auto ctx = core::make_seq();
  amr::EulerSolver solver(ctx, level, amr::EulerConfig{});
  solver.init([](std::int64_t, std::int64_t j) {
    const double rho[4] = {1.0, 1e100, 1.0, -1e100};
    amr::PrimState s;
    s.rho = rho[j];
    s.u = 1.0;
    return s;
  });
  EXPECT_EQ(solver.total_mass(), 2.0);
  EXPECT_EQ(solver.total_momentum_x(), 2.0);
}

TEST(Euler, MultiPatchMatchesSinglePatch) {
  auto run = [](bool split) {
    core::MemoryPool pool;
    amr::PatchLevel level(pool, amr::Box{0, 0, 31, 15}, 2,
                          amr::BoundaryKind::Periodic);
    if (split) {
      level.add_patch(amr::Box{0, 0, 15, 15});
      level.add_patch(amr::Box{16, 0, 31, 15});
    } else {
      level.add_patch(amr::Box{0, 0, 31, 15});
    }
    auto ctx = core::make_seq();
    amr::EulerConfig cfg;
    cfg.dx = cfg.dy = 1.0 / 32.0;
    auto solver = std::make_unique<amr::EulerSolver>(ctx, level, cfg);
    solver->init([](std::int64_t i, std::int64_t j) {
      amr::PrimState s;
      s.rho = 1.0 + 0.3 * std::exp(-0.05 * (double(i - 16) * double(i - 16) +
                                            double(j - 8) * double(j - 8)));
      s.p = s.rho;
      return s;
    });
    const double dt = 0.5 * solver->compute_dt();
    for (int step = 0; step < 20; ++step) solver->step(dt);
    std::vector<double> rho;
    for (std::int64_t i = 0; i < 32; ++i) {
      for (std::int64_t j = 0; j < 16; ++j) {
        rho.push_back(solver->primitive_at(i, j).rho);
      }
    }
    return rho;
  };
  const auto single = run(false);
  const auto multi = run(true);
  ASSERT_EQ(single.size(), multi.size());
  for (std::size_t k = 0; k < single.size(); ++k) {
    EXPECT_NEAR(single[k], multi[k], 1e-12);
  }
}


TEST(Euler, MultiPatch2x2MatchesSinglePatchBitwise) {
  // A 2x2 split with an uneven j cut must reproduce the single-patch run
  // bit for bit: every face flux sees the same two cells whether they share
  // a patch or meet across a ghost exchange. u and v are nonzero, so both
  // flux directions and both momentum fields carry data across the cuts.
  for (const auto bc :
       {amr::BoundaryKind::Periodic, amr::BoundaryKind::Outflow}) {
    auto run = [bc](bool split) {
      core::MemoryPool pool;
      amr::PatchLevel level(pool, amr::Box{0, 0, 31, 23}, 2, bc);
      if (split) {
        level.add_patch(amr::Box{0, 0, 15, 9});
        level.add_patch(amr::Box{16, 0, 31, 9});
        level.add_patch(amr::Box{0, 10, 15, 23});
        level.add_patch(amr::Box{16, 10, 31, 23});
      } else {
        level.add_patch(amr::Box{0, 0, 31, 23});
      }
      auto ctx = core::make_seq();
      amr::EulerConfig cfg;
      cfg.dx = 1.0 / 32.0;
      cfg.dy = 1.0 / 24.0;
      amr::EulerSolver solver(ctx, level, cfg);
      solver.init([](std::int64_t i, std::int64_t j) {
        amr::PrimState s = amr::sod_state(i, 12);
        s.rho += 0.2 / (1.0 + double((j - 7) * (j - 7)));
        s.u = 0.3 - 0.01 * double(i);
        s.v = 0.2 + 0.015 * double(j);
        return s;
      });
      std::vector<double> out;
      for (int step = 0; step < 12; ++step) {
        out.push_back(solver.compute_dt());
        solver.step(out.back());
      }
      for (std::int64_t i = 0; i < 32; ++i) {
        for (std::int64_t j = 0; j < 24; ++j) {
          const auto s = solver.primitive_at(i, j);
          out.insert(out.end(), {s.rho, s.u, s.v, s.p});
        }
      }
      return out;
    };
    const auto single = run(false);
    const auto multi = run(true);
    ASSERT_EQ(single.size(), 12u + 4u * 32u * 24u);
    ASSERT_EQ(single.size(), multi.size());
    for (std::size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(single[k], multi[k])
          << "value " << k << (bc == amr::BoundaryKind::Periodic
                                   ? " (periodic)"
                                   : " (outflow)");
    }
  }
}

TEST(Euler, ThinPatchesMatchSinglePatchBitwise) {
  // Patches one row high (ilo == ihi, so the first row of states is also
  // the last), one column wide and a single cell must reproduce the
  // single-patch run bit for bit, under both boundary kinds.
  for (const auto bc :
       {amr::BoundaryKind::Periodic, amr::BoundaryKind::Outflow}) {
    auto run = [bc](bool split) {
      core::MemoryPool pool;
      amr::PatchLevel level(pool, amr::Box{0, 0, 11, 9}, 2, bc);
      if (split) {
        level.add_patch(amr::Box{0, 0, 0, 9});   // one row
        level.add_patch(amr::Box{1, 0, 11, 0});  // one column
        level.add_patch(amr::Box{1, 1, 1, 1});   // one cell
        level.add_patch(amr::Box{1, 2, 1, 9});   // one row
        level.add_patch(amr::Box{2, 1, 11, 9});
      } else {
        level.add_patch(amr::Box{0, 0, 11, 9});
      }
      auto ctx = core::make_seq();
      amr::EulerConfig cfg;
      cfg.dx = 1.0 / 12.0;
      cfg.dy = 1.0 / 10.0;
      amr::EulerSolver solver(ctx, level, cfg);
      solver.init([](std::int64_t i, std::int64_t j) {
        amr::PrimState s = amr::sod_state(i, 6);
        s.rho += 0.25 / (1.0 + double((j - 4) * (j - 4)));
        s.u = 0.2 - 0.02 * double(i);
        s.v = -0.1 + 0.03 * double(j);
        return s;
      });
      std::vector<double> out;
      for (int step = 0; step < 10; ++step) {
        out.push_back(solver.compute_dt());
        solver.step(out.back());
      }
      for (std::int64_t i = 0; i < 12; ++i) {
        for (std::int64_t j = 0; j < 10; ++j) {
          const auto s = solver.primitive_at(i, j);
          out.insert(out.end(), {s.rho, s.u, s.v, s.p});
        }
      }
      return out;
    };
    const auto single = run(false);
    const auto multi = run(true);
    ASSERT_EQ(single.size(), 10u + 4u * 12u * 10u);
    ASSERT_EQ(single.size(), multi.size());
    for (std::size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(single[k], multi[k])
          << "value " << k << (bc == amr::BoundaryKind::Periodic
                                   ? " (periodic)"
                                   : " (outflow)");
    }
  }
}

TEST(TwoLevel, FreeStreamPreserved) {
  // A uniform moving gas must remain exactly uniform through the
  // coarse/fine cycle (prolongation and restriction of constants are
  // identities; both solvers preserve free streams).
  core::MemoryPool pool;
  amr::PatchLevel coarse(pool, amr::Box{0, 0, 15, 15}, 2,
                         amr::BoundaryKind::Periodic);
  coarse.add_patch(amr::Box{0, 0, 15, 15});
  amr::PatchLevel fine(pool, amr::Box{0, 0, 31, 31}, 2,
                       amr::BoundaryKind::Periodic);
  fine.add_patch(amr::Box{8, 8, 23, 23});
  auto ctx = core::make_seq();
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / 16.0;
  amr::TwoLevelEuler sim(ctx, coarse, fine, 2, cfg);
  sim.init([](double, double) {
    amr::PrimState s;
    s.rho = 1.0;
    s.u = 0.4;
    s.v = -0.2;
    s.p = 1.0;
    return s;
  });
  for (int step = 0; step < 10; ++step) sim.step(sim.compute_dt());
  for (std::int64_t i = 0; i < 16; ++i) {
    for (std::int64_t j = 0; j < 16; ++j) {
      const auto s = sim.best_at(i, j);
      EXPECT_NEAR(s.rho, 1.0, 1e-12);
      EXPECT_NEAR(s.u, 0.4, 1e-12);
      EXPECT_NEAR(s.p, 1.0, 1e-11);
    }
  }
}

TEST(TwoLevel, RefinementSharpensTheShock) {
  // Sod tube with the fine level over the shock region: the two-level
  // solution must be closer to a fine-everywhere reference than the
  // coarse-only run (the whole point of SAMR).
  const std::int64_t n = 64;
  auto sod_xy = [n](double x, double) {
    return amr::sod_state(std::int64_t(x), n / 2);
  };

  // Reference: uniform fine grid (2x).
  core::MemoryPool pool_ref;
  amr::PatchLevel ref_level(pool_ref, amr::Box{0, 0, 2 * n - 1, 7}, 2,
                            amr::BoundaryKind::Outflow);
  ref_level.add_patch(amr::Box{0, 0, 2 * n - 1, 7});
  auto ctx = core::make_seq();
  amr::EulerConfig ref_cfg;
  ref_cfg.dx = ref_cfg.dy = 0.5 / double(n);
  amr::EulerSolver ref(ctx, ref_level, ref_cfg);
  ref.init([&](std::int64_t i, std::int64_t) {
    return amr::sod_state(i, n);  // same physical interface
  });
  ref.advance(0.1);

  auto error_vs_ref = [&](auto&& value_at) {
    double err = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double fine_avg = 0.5 * (ref.primitive_at(2 * i, 2).rho +
                                     ref.primitive_at(2 * i + 1, 2).rho);
      err += std::abs(value_at(i) - fine_avg);
    }
    return err / double(n);
  };

  // Coarse-only run.
  core::MemoryPool pool_c;
  amr::PatchLevel conly(pool_c, amr::Box{0, 0, n - 1, 3}, 2,
                        amr::BoundaryKind::Outflow);
  conly.add_patch(amr::Box{0, 0, n - 1, 3});
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / double(n);
  amr::EulerSolver coarse_only(ctx, conly, cfg);
  coarse_only.init([&](std::int64_t i, std::int64_t) {
    return amr::sod_state(i, n / 2);
  });
  coarse_only.advance(0.1);
  const double e_coarse = error_vs_ref([&](std::int64_t i) {
    return coarse_only.primitive_at(i, 1).rho;
  });

  // Two-level run with the fine patch over the evolving wave fan.
  core::MemoryPool pool_t;
  amr::PatchLevel coarse(pool_t, amr::Box{0, 0, n - 1, 3}, 2,
                         amr::BoundaryKind::Outflow);
  coarse.add_patch(amr::Box{0, 0, n - 1, 3});
  amr::PatchLevel fine(pool_t, amr::Box{0, 0, 2 * n - 1, 7}, 2,
                       amr::BoundaryKind::Outflow);
  fine.add_patch(amr::Box{n / 2, 0, 2 * n - n / 2 - 1, 7});
  amr::TwoLevelEuler sim(ctx, coarse, fine, 2, cfg);
  sim.init(sod_xy);
  sim.advance(0.1);
  const double e_amr = error_vs_ref([&](std::int64_t i) {
    return sim.best_at(i, 1).rho;
  });

  EXPECT_LT(e_amr, 0.8 * e_coarse);
}

}  // namespace
