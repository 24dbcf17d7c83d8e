// step_session.hpp — the step-session interface every algorithm body is
// written against, and its plain (un-checkpointed) instantiation.
//
// Each algorithm is one body templated on a Session: it asks the session
// for its logical rank, builds its communicators through session.comm(),
// restores its state when session.restored(), starts its step loop at
// session.resume_step(), and calls session.boundary(step, make) after
// every step.  Two sessions instantiate it:
//
//   PlainSession<T>    — runs the body straight through on the machine's
//                        own ranks: resume_step() is 0, restored() is
//                        false, comm() is a plain algorithm-region Comm,
//                        and boundary() never calls `make` (no snapshot,
//                        no std::function, no virtual dispatch);
//   ckpt::SessionT<T>  — the rollback session (collectives/rollback.hpp):
//                        logical ranks hosted on P + spares physical
//                        ranks, recovery-region comms, and a buddy commit
//                        at every interval-th boundary.
//
// Both sessions expose the same members, so one body serves both paths
// with the same message sequence.
#pragma once

#include <utility>
#include <vector>

#include "collectives/rollback.hpp"
#include "util/error.hpp"

namespace camb::mm {

template <typename T>
class PlainSession {
 public:
  explicit PlainSession(RankCtx& ctx) : ctx_(ctx) {}

  int rank() const { return ctx_.rank(); }
  int nprocs() const { return ctx_.nprocs(); }
  RankCtx& ctx() const { return ctx_; }

  static constexpr i64 resume_step() { return 0; }
  static constexpr bool restored() { return false; }
  /// Never reached: bodies only read the snapshot when restored().
  const SnapshotT<T>& snapshot() const {
    throw Error("a plain session has no snapshot to restore");
  }

  coll::Comm comm(std::vector<int> members,
                  int tag_blocks = coll::Comm::kDefaultTagBlocks) const {
    return coll::Comm(ctx_, std::move(members), tag_blocks);
  }

  template <typename Make>
  void boundary(i64 /*step*/, Make&& /*make*/) const {}

 private:
  RankCtx& ctx_;
};

}  // namespace camb::mm

/// Explicit instantiation of an algorithm body for both sessions of one
/// scalar T (used under CAMB_FOR_EACH_SCALAR in the algorithm sources).
#define CAMB_INSTANTIATE_BODY(T, Output, body, Config)              \
  template Output body<T, ::camb::mm::PlainSession<T>>(             \
      ::camb::mm::PlainSession<T>&, const Config&);                 \
  template Output body<T, ::camb::ckpt::SessionT<T>>(               \
      ::camb::ckpt::SessionT<T>&, const Config&);
