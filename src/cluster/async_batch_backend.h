// Copyright 2026 mpqopt authors.
//
// In-process execution on a persistent pool. AsyncBatchBackend keeps a
// fixed pool of helper threads alive for the backend's lifetime and
// pipelines rounds through it:
//
//  * Rounds submitted concurrently from any number of threads share the
//    pool; their tasks are interleaved fairly (each helper claims at most
//    one task per active round per pass, round-robin), so one large
//    query cannot starve the small ones behind it.
//  * Task handoff is lock-free on the hot path: claiming a task is a
//    single fetch_add on the round's atomic cursor. A mutex is touched
//    only when a round arrives or retires and when an idle helper parks.
//  * The submitting thread does not just block: it helps drain its own
//    round, so a single-threaded caller still makes progress even when
//    the pool is busy with other rounds. With zero helpers the submitter
//    runs every task itself, inline.
//
// Responses, per-task compute measurement, traffic accounting, and the
// modeled cluster time are identical to the rpc backend (shared
// FinalizeRound); only the host-side scheduling differs.

#ifndef MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_
#define MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_

#include <condition_variable>
#include <mutex>
#include <thread>

#include "cluster/backend.h"

namespace mpqopt {

/// Executes rounds on a persistent worker pool shared across rounds and
/// across concurrently submitting threads.
class AsyncBatchBackend : public ExecutionBackend {
 public:
  /// Spawns exactly `helper_threads` pool threads; 0 spawns none, and
  /// every task then runs on the thread that submitted its round.
  AsyncBatchBackend(NetworkModel model, int helper_threads);
  ~AsyncBatchBackend() override;

  MPQOPT_DISALLOW_COPY_AND_ASSIGN(AsyncBatchBackend);

  StatusOr<RoundResult> RunRound(const std::vector<WorkerTask>& tasks,
                                 const std::vector<std::vector<uint8_t>>&
                                     requests) override;

  const char* name() const override { return "async"; }

  int pool_size() const { return static_cast<int>(pool_.size()); }

 private:
  struct ActiveRound;

  /// Claims and executes one task of `round`; returns false if the
  /// round has no unclaimed tasks left.
  static bool RunOneTask(ActiveRound* round);

  void WorkerLoop();

  // Round registry. Guarded by registry_mutex_; generation_ bumps on
  // every arrival/retirement so workers know to refresh their snapshot.
  std::mutex registry_mutex_;
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<ActiveRound>> active_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> pool_;
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_
