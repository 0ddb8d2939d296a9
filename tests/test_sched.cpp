// Tests for the Opt job-scheduler simulator: conservation, policy ordering
// properties, quota behaviour, and the paper's two arrival regimes.
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/scheduler.hpp"

namespace {

using namespace coe;

sched::Job job(std::uint64_t id, double submit, double dur, int gpus = 1) {
  return sched::Job{id, submit, dur, dur, gpus};
}

TEST(Scheduler, SingleGpuFcfsIsSequential) {
  sched::Simulator sim({1, sched::Policy::Fcfs, 0.0, 0});
  auto m = sim.run({job(0, 0, 10), job(1, 0, 5), job(2, 0, 1)});
  EXPECT_EQ(m.completed, 3u);
  EXPECT_DOUBLE_EQ(m.makespan, 16.0);
  EXPECT_NEAR(m.utilization, 1.0, 1e-12);
  // FCFS order: starts at 0, 10, 15.
  EXPECT_DOUBLE_EQ(sim.outcomes()[1].start_time, 10.0);
  EXPECT_DOUBLE_EQ(sim.outcomes()[2].start_time, 15.0);
}

TEST(Scheduler, SjfReordersByEstimate) {
  sched::Simulator sim({1, sched::Policy::Sjf, 0.0, 0});
  auto m = sim.run({job(0, 0, 10), job(1, 0, 5), job(2, 0, 1)});
  EXPECT_DOUBLE_EQ(m.makespan, 16.0);
  // SJF runs 1, 5, 10: job 2 first, then 1, then 0.
  EXPECT_DOUBLE_EQ(sim.outcomes()[2].start_time, 0.0);
  EXPECT_DOUBLE_EQ(sim.outcomes()[1].start_time, 1.0);
  EXPECT_DOUBLE_EQ(sim.outcomes()[0].start_time, 6.0);
}

TEST(Scheduler, SjfMinimizesMeanWaitForBatch) {
  auto jobs = sched::make_workload({200, 30.0, 1.2, 0.0, 0.0, 7});
  sched::Simulator fcfs({4, sched::Policy::Fcfs, 0.0, 0});
  sched::Simulator sjf({4, sched::Policy::Sjf, 0.0, 0});
  const auto mf = fcfs.run(jobs);
  const auto ms = sjf.run(jobs);
  EXPECT_EQ(mf.completed, 200u);
  EXPECT_EQ(ms.completed, 200u);
  // SJF is optimal for mean wait on a single batch.
  EXPECT_LT(ms.mean_wait, mf.mean_wait);
  // Identical total work: makespans close (same conservation).
  EXPECT_NEAR(ms.makespan, mf.makespan, 0.2 * mf.makespan);
}

TEST(Scheduler, QuotaReservesGpusForLongJobs) {
  // 8 long jobs + 8 short ones on 4 GPUs, 2 GPUs reserved for long work.
  std::vector<sched::Job> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(job(i, 0, 100));
  for (int i = 8; i < 16; ++i) jobs.push_back(job(i, 0, 1));
  sched::Simulator quota({4, sched::Policy::SjfQuota, 50.0, 2});
  auto mq = quota.run(jobs);
  EXPECT_EQ(mq.completed, 16u);
  // Long jobs start at t = 0 under the reserve (plain SJF runs all the
  // short jobs first).
  int long_at_zero = 0;
  for (const auto& o : quota.outcomes()) {
    if (o.job.duration >= 50.0 && o.start_time == 0.0) ++long_at_zero;
  }
  EXPECT_EQ(long_at_zero, 2);
  // Plain SJF delays the first long job until all shorts are done.
  sched::Simulator sjf({4, sched::Policy::Sjf, 50.0, 2});
  sjf.run(jobs);
  for (const auto& o : sjf.outcomes()) {
    if (o.job.duration >= 50.0) {
      EXPECT_GT(o.start_time, 0.0);
    }
  }
}

TEST(Scheduler, QuotaPreventsLongJobStarvationUnderLoad) {
  // A saturating stream of short jobs starves long jobs under plain SJF;
  // the reserve guarantees the longs run.
  auto make_jobs = [] {
    // Slightly overloaded short stream: the queue never drains.
    auto jobs = sched::make_workload({600, 8.0, 1.5, 0.0, 0.6, 33});
    for (int i = 0; i < 2; ++i) {
      // Long jobs arrive while the machine is already saturated.
      jobs.push_back(sched::Job{9000u + std::uint64_t(i), 50.0, 300.0,
                                300.0, 1});
    }
    return jobs;
  };
  auto max_long_wait = [](const sched::Simulator& sim) {
    double w = 0.0;
    for (const auto& o : sim.outcomes()) {
      if (o.job.duration >= 300.0) {
        w = std::max(w, o.start_time - o.job.submit_time);
      }
    }
    return w;
  };
  sched::Simulator sjf({4, sched::Policy::Sjf, 100.0, 2});
  sched::Simulator quota({4, sched::Policy::SjfQuota, 100.0, 2});
  sjf.run(make_jobs());
  quota.run(make_jobs());
  EXPECT_LT(max_long_wait(quota), 0.5 * max_long_wait(sjf));
}

TEST(Scheduler, QuotaNeverDeadlocks) {
  // All jobs long and wide: the reserve path must keep making progress.
  std::vector<sched::Job> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(job(i, 0, 100, 3));
  sched::Simulator sim({4, sched::Policy::SjfQuota, 1.0, 2});
  auto m = sim.run(jobs);
  EXPECT_EQ(m.completed, 5u);
  EXPECT_DOUBLE_EQ(m.makespan, 500.0);
}

TEST(Scheduler, ConservationNoJobLostAnyPolicy) {
  auto jobs = sched::make_workload({500, 20.0, 1.5, 0.3, 0.5, 99});
  for (auto p : {sched::Policy::Fcfs, sched::Policy::Sjf,
                 sched::Policy::SjfQuota}) {
    sched::Simulator sim({8, p, 0.0, 0});
    auto m = sim.run(jobs);
    EXPECT_EQ(m.completed, 500u) << sched::to_string(p);
    // Every job ran for exactly its duration after its submit time.
    for (const auto& o : sim.outcomes()) {
      EXPECT_GE(o.start_time, o.job.submit_time);
      EXPECT_NEAR(o.finish_time - o.start_time, o.job.duration, 1e-9);
    }
  }
}

TEST(Scheduler, OverloadedArrivalsBlowUpWaitTimes) {
  // Paper conclusion: "job arrival rate should be throttled to less than
  // the aggregated processing capacity of the GPUs."
  const int gpus = 4;
  const double mean_dur = 10.0;
  const double capacity = gpus / mean_dur;  // jobs per second
  auto run_at = [&](double rate) {
    auto jobs = sched::make_workload({2000, mean_dur, 2.0, 0.0, rate, 5});
    sched::Simulator sim({gpus, sched::Policy::Fcfs, 0.0, 0});
    return sim.run(jobs).mean_wait;
  };
  const double wait_under = run_at(0.7 * capacity);
  const double wait_over = run_at(1.4 * capacity);
  EXPECT_GT(wait_over, 10.0 * wait_under);
}

TEST(Scheduler, BatchSjfQuotaImprovesUtilizationOverFcfs) {
  // Heavy-tailed batch with mixed widths: FCFS interleaves long jobs
  // arbitrarily; SJF+Quota keeps short jobs flowing while long/wide jobs
  // start early, so the tail of the schedule stays packed.
  auto jobs = sched::make_workload({400, 30.0, 0.7, 0.0, 0.0, 21});
  core::Rng rng(5);
  for (auto& j : jobs) j.gpus = 1 + int(rng.uniform_int(3));
  sched::Simulator fcfs({8, sched::Policy::Fcfs, 0.0, 0});
  sched::Simulator quota({8, sched::Policy::SjfQuota, 0.0, 0});
  const auto mf = fcfs.run(jobs);
  const auto mq = quota.run(jobs);
  EXPECT_LE(mq.mean_wait, mf.mean_wait);
  EXPECT_GE(mq.utilization, 0.95 * mf.utilization);
}

TEST(Workload, GeneratorStatistics) {
  auto jobs = sched::make_workload({5000, 60.0, 1.5, 0.0, 0.0, 3});
  double sum = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GT(j.duration, 0.0);
    EXPECT_DOUBLE_EQ(j.estimate, j.duration);
    EXPECT_DOUBLE_EQ(j.submit_time, 0.0);
    sum += j.duration;
  }
  EXPECT_NEAR(sum / 5000.0, 60.0, 3.0);
}

TEST(Workload, PoissonArrivalsAreOrderedAndSpaced) {
  auto jobs = sched::make_workload({1000, 10.0, 1.5, 0.0, 2.0, 11});
  double prev = 0.0, sum_gap = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.submit_time, prev);
    sum_gap += j.submit_time - prev;
    prev = j.submit_time;
  }
  EXPECT_NEAR(sum_gap / 1000.0, 0.5, 0.1);  // mean inter-arrival = 1/rate
}

}  // namespace
