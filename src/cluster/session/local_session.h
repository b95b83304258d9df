// Copyright 2026 mpqopt authors.
//
// LocalSessionHandle — session hosting for the in-process backend.
//
// The replicas live in the master process, exactly where SMA's per-node
// state lived before the session protocol existed. Every round — scatter
// steps and broadcasts alike — routes through the owning backend's
// RunRound as closures over the replica pointers; each task touches only
// its own replica, so the round's tasks may run in parallel. State held
// in-process cannot be lost, so no replay log is kept.

#ifndef MPQOPT_CLUSTER_SESSION_LOCAL_SESSION_H_
#define MPQOPT_CLUSTER_SESSION_LOCAL_SESSION_H_

#include <memory>
#include <vector>

#include "cluster/session/session.h"
#include "cluster/session/stateful_task.h"

namespace mpqopt {

class LocalSessionHandle : public SessionHandle {
 public:
  /// Opens one replica per open request via the kind's registered open
  /// function. `backend` hosts the scatter steps and outlives the
  /// handle; `counters` aggregates into the backend's health().
  static StatusOr<std::unique_ptr<SessionHandle>> Open(
      ExecutionBackend* backend, ExecutionBackend::SessionCounters* counters,
      StatefulTaskKind kind,
      const std::vector<std::vector<uint8_t>>& open_requests);

  ~LocalSessionHandle() override;

  size_t num_nodes() const override { return states_.size(); }
  StatusOr<RoundResult> Step(
      const std::vector<std::vector<uint8_t>>& requests) override;
  StatusOr<RoundResult> Broadcast(
      const std::vector<uint8_t>& payload) override;
  Status Close() override;

 private:
  LocalSessionHandle(ExecutionBackend* backend,
                     ExecutionBackend::SessionCounters* counters,
                     const StatefulTaskVtable* vtable)
      : backend_(backend), counters_(counters), vtable_(vtable) {}

  /// Records the first round error and counts the session failed once;
  /// later calls fail fast. A broadcast that errors mid-group leaves the
  /// replicas partially mutated, so the group can no longer be trusted —
  /// the same sticky contract RpcSessionHandle has.
  Status Fail(const Status& error);

  ExecutionBackend* backend_;
  ExecutionBackend::SessionCounters* counters_;
  const StatefulTaskVtable* vtable_;
  std::vector<std::unique_ptr<SessionState>> states_;
  Status failed_ = Status::OK();  ///< first unrecoverable error, sticky
  bool closed_ = false;
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SESSION_LOCAL_SESSION_H_
