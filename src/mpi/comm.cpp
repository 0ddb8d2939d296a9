#include "mpi/comm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "core/rng.hpp"

namespace coe::mpi {

namespace {
using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds));
}
}  // namespace

class World {
 public:
  /// Per-rank lifecycle under run-through recovery. Non-recoverable worlds
  /// only ever see Active.
  enum class RankState : std::uint8_t {
    Active,   ///< participating in collectives and agreement
    Parked,   ///< warm spare waiting for adoption
    Dead,     ///< failed, not yet acknowledged by a repair
    Retired,  ///< failed + acknowledged (shrink), or a spare whose thread
              ///< now runs under an adopted id
  };

  World(int ranks, RunOptions opts)
      : ranks_(ranks), opts_(std::move(opts)),
        ops_(static_cast<std::size_t>(ranks), 0),
        retry_rng_(opts_.retry_seed), reduce_buf_(),
        state_(static_cast<std::size_t>(ranks), RankState::Active),
        agree_contrib_(static_cast<std::size_t>(ranks), 0),
        spare_assign_(static_cast<std::size_t>(ranks)) {
    // Spares occupy the top of the world and start parked so collectives
    // never wait on them before they reach park_spare().
    for (int r = ranks_ - opts_.spares; r < ranks_; ++r) {
      if (r >= 0) state_[static_cast<std::size_t>(r)] = RankState::Parked;
    }
  }

  int size() const { return ranks_; }

  int epoch() const {
    std::lock_guard<std::mutex> lk(mtx_);
    return epoch_;
  }

  std::vector<int> failed_ranks() const {
    std::lock_guard<std::mutex> lk(mtx_);
    return dead_unacked_;
  }

  /// Fault-injection and abort gate, run at the top of every communicator
  /// operation. Each rank only touches its own ops_ slot. Recovery-protocol
  /// operations (agree/repair/await) use enter_recovery_op instead: the
  /// fault hook still fires (kills can land mid-recovery) but a pending
  /// failure does not bounce them — they ARE the failure handling. recv
  /// uses it too: its wait raises a pending failure only when the message
  /// is not already queued, so a deliverable receive completes ("pred
  /// wins") however late its rank reaches it.
  void enter_op(int rank) {
    {
      std::lock_guard<std::mutex> lk(mtx_);
      if (aborted_) throw_peer_failure();
      if (failure_pending_locked()) throw_rank_failed_locked();
    }
    run_fault_hook(rank);
  }

  void enter_recovery_op(int rank) {
    {
      std::lock_guard<std::mutex> lk(mtx_);
      if (aborted_) throw_peer_failure();
    }
    run_fault_hook(rank);
  }

  /// Marks the world failed and wakes every blocked rank.
  void mark_failed(int rank) {
    std::lock_guard<std::mutex> lk(mtx_);
    if (!aborted_) {
      aborted_ = true;
      failed_rank_ = rank;
    }
    cv_.notify_all();
  }

  /// Recoverable death: the rank leaves the membership, survivors' blocked
  /// and subsequent operations raise RankFailed, and any agreement round in
  /// flight re-checks completion without the casualty.
  void mark_dead(int rank) {
    std::lock_guard<std::mutex> lk(mtx_);
    if (rank >= 0 && rank < ranks_ &&
        state_[static_cast<std::size_t>(rank)] == RankState::Active) {
      state_[static_cast<std::size_t>(rank)] = RankState::Dead;
      dead_unacked_.push_back(rank);
      check_agree_locked();
    }
    cv_.notify_all();
  }

  void revoke() {
    require_recoverable("revoke");
    std::lock_guard<std::mutex> lk(mtx_);
    revoked_ = true;
    cv_.notify_all();
  }

  void send(int src, int dest, int tag, std::vector<double> data) {
    enter_op(src);
    std::lock_guard<std::mutex> lk(mtx_);
    stats_.messages += 1;
    stats_.bytes += static_cast<double>(data.size()) * 8.0;
    mail_[key(epoch_, src, dest, tag)].push(std::move(data));
    cv_.notify_all();
  }

  std::vector<double> recv(int src, int dest, int tag) {
    enter_recovery_op(dest);
    std::unique_lock<std::mutex> lk(mtx_);
    auto& q = mail_[key(epoch_, src, dest, tag)];
    wait_or_fail(lk, [&] { return !q.empty(); },
                 "recv(src=" + std::to_string(src) +
                     ", tag=" + std::to_string(tag) + ") on rank " +
                     std::to_string(dest));
    auto data = std::move(q.front());
    q.pop();
    return data;
  }

  /// Nonblocking probe: pops the matching message if one is queued.
  bool try_recv(int src, int dest, int tag, std::vector<double>& out) {
    enter_op(dest);
    std::lock_guard<std::mutex> lk(mtx_);
    auto it = mail_.find(key(epoch_, src, dest, tag));
    if (it == mail_.end() || it->second.empty()) return false;
    out = std::move(it->second.front());
    it->second.pop();
    return true;
  }

  void barrier(int rank) {
    enter_op(rank);
    std::unique_lock<std::mutex> lk(mtx_);
    const std::size_t gen = barrier_gen_;
    if (++barrier_count_ >= collective_target_locked()) {
      barrier_count_ = 0;
      ++barrier_gen_;
      ++stats_.barriers;
      cv_.notify_all();
    } else {
      try {
        wait_or_fail(lk, [&] { return barrier_gen_ != gen; },
                     "barrier on rank " + std::to_string(rank));
      } catch (const RankFailed&) {
        // Withdraw the contribution so the repaired world's first barrier
        // starts from a clean count.
        if (barrier_gen_ == gen && barrier_count_ > 0) --barrier_count_;
        throw;
      }
    }
  }

  enum class ReduceOp { Sum, Max };

  void allreduce(int rank, std::span<double> inout, ReduceOp op) {
    enter_op(rank);
    std::unique_lock<std::mutex> lk(mtx_);
    // A new epoch may not start writing until every rank of the previous
    // epoch has copied its result out.
    wait_or_fail(lk, [&] { return reduce_readers_ == 0; },
                 "allreduce (epoch drain) on rank " + std::to_string(rank));
    const std::size_t gen = reduce_gen_;
    if (reduce_count_ == 0) {
      reduce_buf_.assign(inout.begin(), inout.end());
    } else if (op == ReduceOp::Sum) {
      for (std::size_t i = 0; i < inout.size(); ++i) {
        reduce_buf_[i] += inout[i];
      }
    } else {
      for (std::size_t i = 0; i < inout.size(); ++i) {
        reduce_buf_[i] = std::max(reduce_buf_[i], inout[i]);
      }
    }
    stats_.bytes += static_cast<double>(inout.size()) * 8.0;
    if (++reduce_count_ >= collective_target_locked()) {
      reduce_count_ = 0;
      ++reduce_gen_;
      reduce_readers_ = collective_target_locked();
      ++stats_.allreduces;
      cv_.notify_all();
    } else {
      try {
        wait_or_fail(lk, [&] { return reduce_gen_ != gen; },
                     "allreduce on rank " + std::to_string(rank));
      } catch (const RankFailed&) {
        if (reduce_gen_ == gen && reduce_count_ > 0) --reduce_count_;
        throw;
      }
    }
    std::copy(reduce_buf_.begin(),
              reduce_buf_.begin() + static_cast<std::ptrdiff_t>(inout.size()),
              inout.begin());
    if (--reduce_readers_ == 0) cv_.notify_all();
  }

  std::uint64_t agree(int rank, std::uint64_t value, std::vector<int>* dead) {
    require_recoverable("agree_min");
    enter_recovery_op(rank);
    std::unique_lock<std::mutex> lk(mtx_);
    const std::size_t gen = agree_gen_;
    agree_contrib_[static_cast<std::size_t>(rank)] = 1;
    agree_value_ = std::min(agree_value_, value);
    check_agree_locked();
    if (agree_gen_ == gen) {
      wait_or_fail(lk, [&] { return agree_gen_ != gen; },
                   "agree_min on rank " + std::to_string(rank),
                   /*escape=*/false);
    }
    // Safe to read after the generation bump: the next round cannot
    // complete (and overwrite the result) before this rank contributes to
    // it, and dead ranks never read.
    if (dead) *dead = agree_dead_;
    return agree_result_;
  }

  RepairResult repair(int leader, const RepairPlan& plan) {
    require_recoverable("repair");
    enter_recovery_op(leader);
    std::lock_guard<std::mutex> lk(mtx_);
    RepairResult res;
    auto ack = [&](int d) {
      dead_unacked_.erase(
          std::remove(dead_unacked_.begin(), dead_unacked_.end(), d),
          dead_unacked_.end());
    };
    for (int d : plan.retire) {
      if (d < 0 || d >= ranks_ ||
          state_[static_cast<std::size_t>(d)] != RankState::Dead) {
        throw std::logic_error("repair: retire target " + std::to_string(d) +
                               " is not an unacknowledged dead rank");
      }
      state_[static_cast<std::size_t>(d)] = RankState::Retired;
      ack(d);
    }
    for (const auto& [d, s] : plan.adopt) {
      if (d < 0 || d >= ranks_ ||
          state_[static_cast<std::size_t>(d)] != RankState::Dead) {
        throw std::logic_error("repair: adoption target " + std::to_string(d) +
                               " is not an unacknowledged dead rank");
      }
      if (s < 0 || s >= ranks_ ||
          state_[static_cast<std::size_t>(s)] != RankState::Parked ||
          spare_assign_[static_cast<std::size_t>(s)].rank >= 0) {
        throw std::logic_error("repair: spare " + std::to_string(s) +
                               " is not an unassigned parked rank");
      }
      state_[static_cast<std::size_t>(d)] = RankState::Active;
      state_[static_cast<std::size_t>(s)] = RankState::Retired;
      spare_assign_[static_cast<std::size_t>(s)] = {d, leader, epoch_ + 1};
      ack(d);
    }
    ++epoch_;
    // Purge pre-repair in-flight messages: the epoch-salted keys mean they
    // could never match a post-repair receive, so drop them and hand them
    // back for drain logging. Deaths that landed after the agreement stay
    // in dead_unacked_ and re-trigger recovery on the next operation.
    for (auto& [k, q] : mail_) {
      while (!q.empty()) {
        res.purged.push_back({static_cast<int>(k >> 48),
                              static_cast<int>((k >> 32) & 0xffff),
                              static_cast<int>((k >> 16) & 0xffff),
                              static_cast<int>(k & 0xffff),
                              static_cast<double>(q.front().size()) * 8.0});
        q.pop();
      }
    }
    mail_.clear();
    barrier_count_ = 0;
    reduce_count_ = 0;
    reduce_readers_ = 0;
    revoked_ = false;
    res.epoch = epoch_;
    if (opts_.metrics) opts_.metrics->add("mpi.repairs");
    cv_.notify_all();
    return res;
  }

  int await_repair(int rank, int epoch_before) {
    require_recoverable("await_repair");
    enter_recovery_op(rank);
    std::unique_lock<std::mutex> lk(mtx_);
    const std::size_t deaths_before = dead_unacked_.size();
    wait_or_fail(lk,
                 [&] {
                   return epoch_ != epoch_before ||
                          dead_unacked_.size() != deaths_before;
                 },
                 "await_repair on rank " + std::to_string(rank),
                 /*escape=*/false);
    if (epoch_ != epoch_before) return epoch_;
    // The leader (or another survivor) died before the repair committed:
    // restart recovery.
    throw_rank_failed_locked();
  }

  Adoption park_spare(int rank) {
    require_recoverable("park_spare");
    std::unique_lock<std::mutex> lk(mtx_);
    auto& slot = spare_assign_[static_cast<std::size_t>(rank)];
    state_[static_cast<std::size_t>(rank)] = RankState::Parked;
    ++parked_count_;
    maybe_release_spares_locked();
    // No deadline: the world's abort broadcast or the all-threads-done
    // release is guaranteed to wake a parked spare eventually.
    cv_.wait(lk, [&] {
      return slot.rank >= 0 || aborted_ || release_spares_;
    });
    --parked_count_;
    if (slot.rank >= 0) return slot;
    state_[static_cast<std::size_t>(rank)] = RankState::Retired;
    if (aborted_) throw_peer_failure();
    return {};
  }

  /// Called by every rank thread as it exits fn (any path). Once every
  /// non-parked thread is done, still-parked spares are released empty.
  void note_thread_done() {
    std::lock_guard<std::mutex> lk(mtx_);
    ++done_threads_;
    maybe_release_spares_locked();
  }

  const TrafficStats& stats() const { return stats_; }

 private:
  struct SpareSlot : Adoption {};

  void require_recoverable(const char* what) const {
    if (!opts_.recoverable) {
      throw std::logic_error(std::string(what) +
                             " requires RunOptions::recoverable");
    }
  }

  void run_fault_hook(int rank) {
    const auto r = static_cast<std::size_t>(rank);
    ops_[r] += 1;
    if (opts_.fault_hook && opts_.fault_hook(rank, ops_[r])) {
      if (opts_.metrics) opts_.metrics->add("mpi.rank_failures");
      throw resil::RankFailure(
          rank, "rank " + std::to_string(rank) + " killed by fault injection");
    }
  }

  bool failure_pending_locked() const {
    return opts_.recoverable && (revoked_ || !dead_unacked_.empty());
  }

  int collective_target_locked() const {
    int n = 0;
    for (const auto s : state_) n += s == RankState::Active ? 1 : 0;
    return n;
  }

  /// Completes the agreement round once every live active rank has
  /// contributed. Called on contribution and on mark_dead — a casualty
  /// mid-agreement shrinks the quorum instead of deadlocking it.
  void check_agree_locked() {
    bool any = false;
    for (int r = 0; r < ranks_; ++r) {
      const auto s = state_[static_cast<std::size_t>(r)];
      if (s == RankState::Active && !agree_contrib_[static_cast<std::size_t>(r)])
        return;
      any = any || agree_contrib_[static_cast<std::size_t>(r)] != 0;
    }
    if (!any) return;
    agree_result_ = agree_value_;
    agree_dead_.clear();
    for (int r = 0; r < ranks_; ++r) {
      if (state_[static_cast<std::size_t>(r)] == RankState::Dead) {
        agree_dead_.push_back(r);
      }
    }
    std::fill(agree_contrib_.begin(), agree_contrib_.end(), 0);
    agree_value_ = ~std::uint64_t{0};
    ++agree_gen_;
    cv_.notify_all();
  }

  [[noreturn]] void throw_peer_failure() const {
    if (opts_.metrics) opts_.metrics->add("mpi.peer_failures");
    throw PeerFailure("rank " + std::to_string(failed_rank_) +
                      " failed; aborting collective/messaging");
  }

  [[noreturn]] void throw_rank_failed_locked() const {
    const int dead = dead_unacked_.empty() ? -1 : dead_unacked_.front();
    if (opts_.metrics) opts_.metrics->add("mpi.rank_failed_raised");
    throw RankFailed(dead, dead >= 0
                               ? "rank " + std::to_string(dead) +
                                     " failed; world awaiting repair"
                               : "world revoked; awaiting repair");
  }

  /// Waits for pred, the abort flag, a recoverable failure (when `escape`
  /// is set and the world is recoverable), or the deadline — whichever
  /// first. An expired deadline is retried up to opts_.max_retries times
  /// with exponential backoff and seeded jitter (each retry is a further
  /// wait with a growing extension — the condition-variable analog of
  /// re-issuing the operation) before CommTimeout is raised. Caller holds
  /// lk; the jitter RNG is only touched under it. pred wins over failure:
  /// an operation that can complete, completes.
  template <typename Pred>
  void wait_or_fail(std::unique_lock<std::mutex>& lk, Pred pred,
                    const std::string& what, bool escape = true) {
    double waited = 0.0;
    for (int attempt = 0;; ++attempt) {
      double wait_s = opts_.timeout_seconds;
      if (attempt > 0) {
        const double scale = static_cast<double>(1 << (attempt - 1));
        wait_s = opts_.retry_backoff_seconds * scale *
                 (0.5 + retry_rng_.uniform());
      }
      const auto deadline = deadline_from(wait_s);
      const bool ok = cv_.wait_until(lk, deadline, [&] {
        return aborted_ || pred() || (escape && failure_pending_locked());
      });
      if (!pred()) {
        if (aborted_) throw_peer_failure();
        if (escape && failure_pending_locked()) throw_rank_failed_locked();
      }
      if (ok) return;
      waited += wait_s;
      if (attempt >= opts_.max_retries) {
        if (opts_.metrics) opts_.metrics->add("mpi.timeouts");
        throw CommTimeout("timeout after " + std::to_string(waited) +
                          "s (" + std::to_string(attempt) + " retries) in " +
                          what);
      }
      ++stats_.retries;
      if (opts_.metrics) opts_.metrics->add("mpi.retries");
    }
  }

  /// Mailbox key: (epoch, src, dest, tag), 16 bits each. The epoch salt is
  /// what guarantees a message posted before a repair can never match a
  /// receive posted after it (the double-delivery hazard of satellite
  /// repair bugs); repair() purges the orphaned pre-epoch queues.
  static std::uint64_t key(int epoch, int src, int dest, int tag) {
    return (std::uint64_t(std::uint16_t(epoch)) << 48) |
           (std::uint64_t(std::uint16_t(src)) << 32) |
           (std::uint64_t(std::uint16_t(dest)) << 16) |
           std::uint64_t(std::uint16_t(tag));
  }

  int ranks_;
  RunOptions opts_;
  std::vector<std::size_t> ops_;  ///< per-rank completed-operation counts
  core::Rng retry_rng_;           ///< backoff jitter; guarded by mtx_
  mutable std::mutex mtx_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::queue<std::vector<double>>> mail_;
  bool aborted_ = false;
  int failed_rank_ = -1;
  int barrier_count_ = 0;
  std::size_t barrier_gen_ = 0;
  int reduce_count_ = 0;
  int reduce_readers_ = 0;
  std::size_t reduce_gen_ = 0;
  std::vector<double> reduce_buf_;
  TrafficStats stats_;

  // --- run-through recovery state (all guarded by mtx_) -----------------
  std::vector<RankState> state_;
  std::vector<int> dead_unacked_;  ///< death order
  bool revoked_ = false;
  int epoch_ = 0;
  // Agreement round: per-rank contribution flags, the min accumulator, and
  // the published result + dead-set snapshot of the last completed round.
  std::vector<char> agree_contrib_;
  std::uint64_t agree_value_ = ~std::uint64_t{0};
  std::uint64_t agree_result_ = ~std::uint64_t{0};
  std::vector<int> agree_dead_;
  std::size_t agree_gen_ = 0;
  // Spare parking: assignment slots written by repair, plus the counters
  // that release still-parked spares once every other thread is done.
  std::vector<SpareSlot> spare_assign_;
  int parked_count_ = 0;
  int done_threads_ = 0;
  bool release_spares_ = false;

  void maybe_release_spares_locked() {
    if (!release_spares_ && done_threads_ + parked_count_ >= ranks_) {
      release_spares_ = true;
      cv_.notify_all();
    }
  }
};

int Communicator::size() const { return world_->size(); }

void Communicator::send(int dest, int tag, std::vector<double> data) {
  world_->send(rank_, dest, tag, std::move(data));
}

std::vector<double> Communicator::recv(int src, int tag) {
  return world_->recv(src, rank_, tag);
}

Request Communicator::isend(int dest, int tag, std::vector<double> data) {
  // Eager: the deposit happens at post time, so the request is complete.
  world_->send(rank_, dest, tag, std::move(data));
  Request r;
  r.world_ = world_;
  r.self_ = rank_;
  r.peer_ = dest;
  r.tag_ = tag;
  r.done_ = true;
  return r;
}

Request Communicator::irecv(int src, int tag) {
  Request r;
  r.world_ = world_;
  r.self_ = rank_;
  r.peer_ = src;
  r.tag_ = tag;
  r.is_recv_ = true;
  return r;
}

std::vector<double> Communicator::wait(Request& r) {
  if (!r.valid() || r.done_) return r.data_;
  r.data_ = r.world_->recv(r.peer_, r.self_, r.tag_);
  r.done_ = true;
  return r.data_;
}

void Communicator::waitall(std::span<Request> rs) {
  for (std::size_t i = 0; i < rs.size(); ++i) {
    try {
      (void)wait(rs[i]);
    } catch (...) {
      // A failure woke the waitall mid-flight: keep every already-completed
      // payload readable, cancel everything still pending (including the
      // request that failed), and let the failure propagate. Without this a
      // survivor retrying communication after a repair could consume a
      // stale matched message through a leaked half-waited handle.
      for (std::size_t j = i; j < rs.size(); ++j) cancel(rs[j]);
      throw;
    }
  }
}

bool Communicator::test(Request& r) {
  if (!r.valid() || r.done_) return r.valid();
  if (!r.world_->try_recv(r.peer_, r.self_, r.tag_, r.data_)) return false;
  r.done_ = true;
  return true;
}

void Communicator::cancel(Request& r) {
  if (!r.valid() || r.done_) return;
  r.done_ = true;
  r.cancelled_ = true;
  r.data_.clear();
}

void Communicator::allreduce_sum(std::span<double> inout) {
  world_->allreduce(rank_, inout, World::ReduceOp::Sum);
}

double Communicator::allreduce_sum(double v) {
  double buf = v;
  world_->allreduce(rank_, std::span<double>(&buf, 1), World::ReduceOp::Sum);
  return buf;
}

double Communicator::allreduce_max(double v) {
  // Native single-pass max on the shared reduce buffer: one collective,
  // no messages.
  double buf = v;
  world_->allreduce(rank_, std::span<double>(&buf, 1), World::ReduceOp::Max);
  return buf;
}

void Communicator::allreduce_max(std::span<double> inout) {
  world_->allreduce(rank_, inout, World::ReduceOp::Max);
}

void Communicator::barrier() { world_->barrier(rank_); }

int Communicator::epoch() const { return world_->epoch(); }

std::vector<int> Communicator::failed_ranks() const {
  return world_->failed_ranks();
}

void Communicator::revoke() { world_->revoke(); }

std::uint64_t Communicator::agree_min(std::uint64_t value,
                                      std::vector<int>* dead) {
  return world_->agree(rank_, value, dead);
}

RepairResult Communicator::repair(const RepairPlan& plan) {
  return world_->repair(rank_, plan);
}

int Communicator::await_repair(int epoch_before) {
  return world_->await_repair(rank_, epoch_before);
}

Adoption Communicator::park_spare() { return world_->park_spare(rank_); }

Communicator Communicator::adopted_view(int rank) const {
  return Communicator(world_, rank);
}

TrafficStats run(int ranks, const RunOptions& opts,
                 const std::function<void(Communicator&)>& fn) {
  World world(ranks, opts);
  std::vector<std::thread> threads;
  // The originating failure (RankFailure, CommTimeout, a user exception)
  // outranks the PeerFailures it cascades into on surviving ranks. In
  // recoverable worlds a RankFailure is not an error at all: the rank
  // retires quietly and survivors run their recovery protocol.
  std::exception_ptr primary;
  std::exception_ptr secondary;
  std::mutex error_mtx;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(&world, r);
      try {
        fn(comm);
      } catch (const PeerFailure&) {
        {
          std::lock_guard<std::mutex> lk(error_mtx);
          if (!secondary) secondary = std::current_exception();
        }
        world.mark_failed(r);
      } catch (const resil::RankFailure& rf) {
        if (opts.recoverable) {
          // The hook reports the logical rank that was killed — for an
          // adopted spare that is the adopted id, not this thread's slot.
          world.mark_dead(rf.rank >= 0 ? rf.rank : r);
        } else {
          {
            std::lock_guard<std::mutex> lk(error_mtx);
            if (!primary) primary = std::current_exception();
          }
          world.mark_failed(r);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mtx);
          if (!primary) primary = std::current_exception();
        }
        world.mark_failed(r);
      }
      world.note_thread_done();
    });
  }
  for (auto& t : threads) t.join();
  if (opts.metrics) {
    const auto& s = world.stats();
    opts.metrics->add("mpi.runs");
    opts.metrics->add("mpi.messages", static_cast<double>(s.messages));
    opts.metrics->add("mpi.bytes", s.bytes);
    opts.metrics->add("mpi.allreduces", static_cast<double>(s.allreduces));
    opts.metrics->add("mpi.barriers", static_cast<double>(s.barriers));
    opts.metrics->add("mpi.total_retries", static_cast<double>(s.retries));
  }
  if (primary) std::rethrow_exception(primary);
  if (secondary) std::rethrow_exception(secondary);
  return world.stats();
}

TrafficStats run(int ranks, const std::function<void(Communicator&)>& fn) {
  return run(ranks, RunOptions{}, fn);
}

}  // namespace coe::mpi
