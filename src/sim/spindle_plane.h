// SpindlePlane: the shared-spindle execution plane — several shards'
// volumes on disjoint regions of ONE simulated disk, one head, one
// clock, with concurrent submission from the owners' threads and a
// deterministic service interleave.
//
// Topology. The plane owns a *hub* BlockDevice whose capacity is
// owners × stride (stride = the per-owner region, aligned up to the
// slab size) and hands each owner a view device (`CreateOwnerDevice`)
// aliasing its region. Each owner's IoScheduler is re-homed onto the
// plane with IoScheduler::AttachSpindle: sealed op chains accumulate
// into batches of `queue_depth` ops, which the owner *delivers* to the
// plane several at a time instead of servicing them against a private
// device.
//
// Service model — rounds. The plane services *rounds*: one delivered
// batch from every active owner whose queue front is a batch. A round
// cannot form until every active owner has something queued (a batch or
// a fence), which is what makes the interleave a function of the
// per-owner submission sequences alone — never of host thread timing.
// Within a round the service order is:
//
//   * FIFO  — a salted slot shuffle: positions are permuted by a hash
//     of (plane seed, round number, position), then each owner's
//     positions are refilled with its ops in program order. Different
//     owners interleave pseudo-randomly but reproducibly; one owner's
//     ops never reorder against each other.
//   * SPTF  — NCQ-style: repeatedly pick, among the owners' earliest
//     unserviced ops, the one whose first device request has the
//     smallest positioning cost from the current head (ties broken by
//     the salted key). Starvation is bounded by construction: a round
//     is a finite set and every op in it is serviced before the next
//     round begins.
//
// Charging — exact synchronous replay. An op's chain is serviced
// *contiguously*: every entry goes through BlockDevice::Apply on the
// owner's view, the very function the dedicated synchronous path
// charges with (ServiceRequest / ServiceFlush / CPU seconds /
// stream-window penalty over the op's own span). One owner alone on a
// spindle at queue depth 1 therefore reproduces the dedicated
// synchronous timeline bit for bit — clock, stats, and latency
// records. With several owners, consecutive chains from
// different owners pay the head movement between their regions; the
// hub attributes those as interference seeks on the owners' views.
//
// Closed loop & latency. Each owner runs its own closed loop of
// `depth` logical clients: an op's arrival is the completion time of
// the slot it reuses, service starts when the head reaches it, and
// completion − arrival is the recorded latency; start − arrival
// accumulates as the owner's queue_wait_s. Single owner at depth 1:
// arrival == start, queue wait identically zero.
//
// Fences. `IoScheduler::Settle` (regular fence — Drain/Engage/
// Disengage) pops in lockstep: one fence from every active owner, once
// every active owner's front is a fence; each popped owner resets its
// closed loop. `IoScheduler::SettlePhase` (phase fence — workload
// phase boundaries) pops eagerly when it reaches its owner's front and
// *parks* the owner; when every live owner is parked the plane resets
// the epoch — all owners unparked with their loops re-based at the hub
// clock — so the next phase starts aligned. Contract: SettlePhase must
// be phase-aligned (every owner calls it, and a barrier separates it
// from the owner's next submissions); regular fences should likewise
// be issued symmetrically across owners (the workload runners do both).
//
// Threading. Owners and the service meet under one mutex: each
// owner's queue of batches and fences, the fence counters and park
// flags, and the published results (completion frontiers, round count,
// fingerprint, spent chain storage). Service runs under a *baton*: an
// owner thread that must wait (its queue at the backpressure window,
// or its fence not yet popped) and finds the baton free takes it and
// advances the plane for as long as anything can advance — phase pops,
// fence layers, rounds — then releases it and wakes the waiters once.
// Rounds are taken off the queues under the mutex, every round already
// determined at once (while every active owner's front is a batch,
// round j takes each owner's j-th leading batch), serviced with the
// mutex released against state only the baton holder touches (the
// closed loops, the round scratch), and committed under the mutex. So
// other owners' host-side work (object assembly, cache lookups,
// verification) and their hand-overs overlap the spindle replay — that
// overlap is the wall-clock win the contended figures measure. Owners
// hand work over in bulk (IoScheduler::kHandoffOps ops a call), a
// blocked owner resumes only once its queue is half drained, and a
// push wakes nobody while the baton is out, so a depth-1 bulk load
// pays neither a lock hand-off nor a wake-up per op. Payload bytes
// still move at submission time on the owners' threads into disjoint,
// pre-allocated slab sets of the hub arena.
//
// Destruction. A scheduler being destroyed retires its owner: every op
// it still holds is handed over, the owner leaves the active set, and
// everything it has queued is serviced solo, in program order, before
// the scheduler is gone.

#ifndef LOREPO_SIM_SPINDLE_PLANE_H_
#define LOREPO_SIM_SPINDLE_PLANE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "sim/block_device.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"

namespace lor {
namespace sim {

/// One shared spindle serving several owners' volumes.
class SpindlePlane {
 public:
  struct Params {
    /// Disk parameterization template; its capacity is replaced by
    /// owners × stride, so the seek curve and zone layout are those of
    /// one physical disk spanning every owner's region.
    DiskParams disk;
    /// Per-owner region (one shard's volume), aligned up to
    /// BlockDevice::kSlabBytes internally.
    uint64_t region_bytes = 0;
    uint32_t owners = 1;
    DataMode data_mode = DataMode::kMetadataOnly;
    /// Service policy of the shared head — fixed for every owner.
    SchedPolicy policy = SchedPolicy::kSptf;
    /// Salts the FIFO shuffle / SPTF tie-breaks per round.
    uint64_t seed = 0;
  };

  explicit SpindlePlane(const Params& params);
  ~SpindlePlane();

  SpindlePlane(const SpindlePlane&) = delete;
  SpindlePlane& operator=(const SpindlePlane&) = delete;

  /// Creates owner `owner`'s view device (callable once per owner,
  /// before any traffic; typically all at construction time, serially).
  std::unique_ptr<BlockDevice> CreateOwnerDevice(uint32_t owner);

  /// Registers the scheduler ported onto `owner` (from
  /// IoScheduler::AttachSpindle).
  void BindOwner(uint32_t owner, IoScheduler* sched);

  SchedPolicy policy() const { return policy_; }
  uint32_t owners() const { return static_cast<uint32_t>(states_.size()); }
  uint64_t stride_bytes() const { return stride_; }
  BlockDevice* hub() { return hub_.get(); }
  const BlockDevice* hub() const { return hub_.get(); }

  /// Simulated time from `owner`'s perspective: its completion frontier
  /// (the hub clock before any traffic / after an epoch reset).
  double OwnerNow(uint32_t owner) const;

  // -- Submission protocol (called by ported IoSchedulers) -------------

  /// Queues the ops in `*ops` as consecutive batches of `batch_ops`
  /// ops (the last may be shorter), one queue entry each, and clears
  /// `*ops` (its capacity stays with the owner). An owner whose queue is
  /// at the backpressure window blocks — driving service itself while
  /// it can — until the queue is down to half the window, then queues
  /// the rest. Appends to `*spare_chains` the chain storage of the
  /// owner's ops serviced since its last call. Wakes blocked peers once
  /// per call, and not at all while a baton holder is servicing (it
  /// wakes them itself).
  void Deliver(uint32_t owner, std::vector<IoScheduler::Op>* ops,
               uint32_t batch_ops,
               std::vector<IoScheduler::Chain>* spare_chains);

  /// Queues a fence and blocks until the plane has popped it — i.e.
  /// every op this owner submitted before the fence has been serviced.
  /// A phase fence (`phase_end`) additionally blocks through the epoch
  /// reset, so on return every peer has reached its own phase boundary
  /// (or retired) and OwnerNow reads the re-based phase-end clock —
  /// deterministic regardless of which owner arrived last.
  void Fence(uint32_t owner, bool phase_end);

  /// Owner teardown: queues `*leftovers` (every op the owner still
  /// held, in batches of `batch_ops` like Deliver), removes the owner
  /// from the active set, and services everything it has queued solo,
  /// in program order, before returning — the owner's scheduler and
  /// view are still alive then.
  void Retire(uint32_t owner, std::vector<IoScheduler::Op>* leftovers,
              uint32_t batch_ops);

  /// Updates the owner's closed-loop width (callers fence first:
  /// IoScheduler::Engage/Disengage settle before calling this).
  void SetOwnerDepth(uint32_t owner, uint32_t depth);

  // -- Introspection (tests) -------------------------------------------

  /// Service rounds completed so far.
  uint64_t rounds() const;
  /// Order-sensitive fingerprint of (owner, completion) over every
  /// serviced op — equal fingerprints mean identical service
  /// interleaves and timelines.
  uint64_t service_hash() const;

 private:
  /// Queue entry: a delivered batch or a fence marker.
  struct Item {
    uint32_t ops = 0;       // batch size: its ops lead OwnerState::ops
    bool is_fence = false;
    bool is_phase = false;  // phase fences park the owner
  };

  /// Per-owner state. The first group is guarded by mu_: owners and
  /// the service meet there. The second belongs to the service and is
  /// touched only by the baton holder (or by a retirement, which holds
  /// mu_ while no baton is out), so a holder may service with mu_
  /// released. `depth` is the one crossing: SetOwnerDepth writes it
  /// under mu_, but only between the owner's fence pop and its next
  /// delivery, when no round can hold this owner's ops.
  struct OwnerState {
    // -- Guarded by mu_ ------------------------------------------------
    std::deque<Item> queue;
    /// The queued batches' ops, oldest first: a batch entry at the
    /// queue's front owns the first `Item::ops` of them.
    std::deque<IoScheduler::Op> ops;
    /// Chain storage of serviced ops, handed back at the owner's next
    /// Deliver.
    std::vector<IoScheduler::Chain> spent_chains;
    uint64_t fences_pushed = 0;
    uint64_t fences_popped = 0;
    bool bound = false;
    bool parked = false;
    bool retired = false;
    double last_completion = 0.0;  ///< Published completion frontier.
    IoScheduler* sched = nullptr;
    BlockDevice* view = nullptr;

    // -- The service's (baton) -----------------------------------------
    uint32_t depth = 1;
    /// Closed-loop state: slots allocated this epoch and the completion
    /// times of freed, not-yet-reused slots.
    uint32_t allocated = 0;
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        slots;
    double base = 0.0;      ///< Arrival floor for this epoch.
    double frontier = 0.0;  ///< Completion frontier, up to date.
    /// Chains serviced since the last commit to spent_chains.
    std::vector<IoScheduler::Chain> spent;
  };

  /// One op extracted into a service round.
  struct RoundOp {
    uint32_t owner = 0;
    uint64_t key = 0;       // salted shuffle / tie-break key
    uint32_t device_reqs = 0;  // kIo/kFlush entries serviced
    double arrival = 0.0;   // closed-loop arrival, assigned before service
    double start = 0.0;     // head reached the chain (filled at service)
    double completion = 0.0;
    IoScheduler::Op op;
  };

  bool active(const OwnerState& st) const {
    return st.bound && !st.parked && !st.retired;
  }

  /// First-traffic initialization: bases every owner's closed loop at
  /// the hub clock (repositories construct serially before traffic, so
  /// this instant is deterministic).
  void EnsureInitLocked();

  /// Takes the baton and advances while anything can (phase pops →
  /// fence layer → round, repeated), then releases it and wakes the
  /// waiters once. Releases and reacquires `lk` around each round's
  /// service. Returns true when anything advanced.
  bool DrainLocked(std::unique_lock<std::mutex>& lk);

  /// Wakes the waiters after a queue push, unless a baton holder is
  /// servicing (it re-examines every queue and wakes them when done).
  void NotifyLocked();

  /// Fires the epoch reset (unpark everyone, re-base the closed loops
  /// at the hub clock) once every live owner is parked.
  void MaybeEpochResetLocked();

  /// Pops phase fences at queue fronts, parking their owners; fires the
  /// epoch reset when every live owner is parked.
  bool TryPhasePopsLocked();

  /// Pops one regular fence from every active owner once all their
  /// fronts are fences, resetting each popped owner's closed loop.
  bool TryFenceLayerLocked();

  /// When every active owner has queued work and at least one front is
  /// a batch: takes the batches of every round already determined (one
  /// round when some front is a fence, else as many as the shortest run
  /// of leading batches), services them in order with `lk` released,
  /// and commits the results.
  bool TryRoundsLocked(std::unique_lock<std::mutex>& lk);

  /// Appends `*ops`' ops from first to end to `*st`'s queue as one
  /// batch.
  void QueueBatchLocked(OwnerState* st, std::vector<IoScheduler::Op>* ops,
                        size_t first, size_t end);

  /// Pops the batch at `owner`'s queue front onto round_.
  void TakeBatchLocked(uint32_t owner);

  /// Blocks until `pred()` holds, draining whenever the baton is free.
  template <typename Pred>
  void WaitLocked(std::unique_lock<std::mutex>& lk, Pred pred) {
    while (!pred()) {
      if (!servicing_ && DrainLocked(lk)) continue;
      cv_.wait(lk);
    }
  }

  /// Services the round round_[begin, end) against the hub, recording
  /// the service order in served_ (baton; mu_ may be held or not).
  void ServiceRound(size_t begin, size_t end);

  /// Replays one op's chain contiguously on the hub clock with the
  /// synchronous charging arithmetic; fills start/completion.
  void ServiceChain(RoundOp* rop);

  /// Applies the serviced round to the service's state, in service
  /// order: slots, frontiers, latency records, queue waits, counters,
  /// fingerprint, spent chains (baton).
  void PublishRound();

  /// Publishes the service's results to the mu_-guarded state: round
  /// count, fingerprint, completion frontiers and spent chains.
  void CommitLocked();

  /// Pops the closed-loop arrival for the next op of `st` (baton).
  double NextArrival(OwnerState* st);

  /// Services everything `st` still has queued, solo (retirement path;
  /// the owner's scheduler and view are still alive at that point).
  void DrainOwnerLocked(OwnerState* st);

  const SchedPolicy policy_;
  const uint64_t seed_;
  const uint64_t stride_;
  const uint64_t region_bytes_;
  std::unique_ptr<BlockDevice> hub_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool servicing_ = false;   // baton: one thread is advancing the plane
  bool initialized_ = false;
  uint64_t round_counter_ = 0;  // committed copies of the two below
  uint64_t service_hash_ = 1469598103934665603ull;  // FNV offset basis
  std::vector<OwnerState> states_;

  // The service's (baton): counters ahead of their commit, and round
  // scratch reused across rounds.
  uint64_t rounds_serviced_ = 0;
  uint64_t hash_ = 1469598103934665603ull;
  std::vector<RoundOp> round_;  // the taken rounds' ops, round after round
  std::vector<size_t> round_ends_;  // one past each taken round's last op
  std::vector<size_t> order_;   // FIFO: positions sorted by key
  std::vector<size_t> next_;    // per owner: earliest unserviced op
  std::vector<size_t> stop_;    // per owner: one past its last op
  std::vector<size_t> served_;  // round_ indices in service order
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_SPINDLE_PLANE_H_
