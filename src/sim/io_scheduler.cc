#include "sim/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/block_device.h"
#include "sim/op_cost_model.h"
#include "sim/spindle_plane.h"

namespace lor {
namespace sim {

IoScheduler::IoScheduler(BlockDevice* device, LatencyRecorder* recorder)
    : device_(device), recorder_(recorder) {}

IoScheduler::~IoScheduler() {
  if (plane_ != nullptr) {
    // Retirement hands over every held op and excludes this owner from
    // future rounds; the plane services the owner's stragglers solo.
    if (op_depth_ == 0) plane_->Retire(port_owner_, &held_, queue_depth_);
    return;
  }
  // Never leave queued work uncharged: a scheduler destroyed mid-flight
  // still settles its timeline against the device clock.
  if (op_depth_ == 0) Drain();
}

Status IoScheduler::Engage(uint32_t queue_depth, SchedPolicy policy) {
  if (queue_depth == 0) {
    return Status::InvalidArgument("queue depth must be at least 1");
  }
  if (op_depth_ > 0) {
    return Status::NotSupported("cannot change queue depth inside an op");
  }
  if (plane_ != nullptr) {
    // Port mode: depth changes the batch/closed-loop width; the service
    // policy is a property of the shared head, fixed at plane
    // construction for every owner.
    if (policy != plane_->policy()) {
      return Status::NotSupported(
          "scheduling policy is fixed per shared spindle");
    }
    Settle();
    queue_depth_ = queue_depth;
    policy_ = policy;
    plane_->SetOwnerDepth(port_owner_, queue_depth);
    return Status::OK();
  }
  Drain();
  engaged_ = true;
  queue_depth_ = queue_depth;
  policy_ = policy;
  const double now = device_->clock().now();
  device_free_ = now;
  horizon_ = now;
  return Status::OK();
}

Status IoScheduler::Disengage() {
  if (op_depth_ > 0) {
    return Status::NotSupported("cannot change queue depth inside an op");
  }
  if (plane_ != nullptr) {
    Settle();
    queue_depth_ = 1;
    plane_->SetOwnerDepth(port_owner_, 1);
    return Status::OK();
  }
  Drain();
  engaged_ = false;
  queue_depth_ = 1;
  return Status::OK();
}

void IoScheduler::AttachSpindle(SpindlePlane* plane, uint32_t owner) {
  assert(plane_ == nullptr && "already ported");
  assert(op_depth_ == 0 && !engaged_ && !building_open_);
  plane_ = plane;
  port_owner_ = owner;
  plane_->BindOwner(owner, this);
}

double IoScheduler::Now() const {
  if (plane_ != nullptr) return plane_->OwnerNow(port_owner_);
  return device_->clock().now();
}

void IoScheduler::HandOver() {
  if (held_.empty()) return;
  plane_->Deliver(port_owner_, &held_, queue_depth_, &spare_chains_);
}

void IoScheduler::Settle() {
  if (plane_ == nullptr) return;
  assert(op_depth_ == 0 && "Settle inside an op scope");
  HandOver();
  plane_->Fence(port_owner_, /*phase_end=*/false);
}

void IoScheduler::SettlePhase() {
  if (plane_ == nullptr) return;
  assert(op_depth_ == 0 && "SettlePhase inside an op scope");
  HandOver();
  plane_->Fence(port_owner_, /*phase_end=*/true);
}

void IoScheduler::Drain() {
  if (plane_ != nullptr) {
    Settle();
    return;
  }
  assert(op_depth_ == 0 && "Drain inside an op scope");
  assert(!building_open_);
  while (ServiceOne()) {
  }
  // Advance the device clock to the completion horizon so synchronous
  // code resuming after the drain observes every queued charge.
  const double now = device_->clock().now();
  if (horizon_ > now) device_->clock().Advance(horizon_ - now);
  allocated_slots_ = 0;
  free_slots_ = {};
}

void IoScheduler::Abandon() {
  assert(plane_ == nullptr && "crash simulation is per-spindle: shared-"
         "spindle owners do not support Abandon");
  assert(op_depth_ == 0 && "Abandon inside an op scope");
  building_open_ = false;
  building_ = Op{};
  pending_.clear();
  allocated_slots_ = 0;
  free_slots_ = {};
  engaged_ = false;
  queue_depth_ = 1;
  // The abandoned timeline never happened; post-crash work charges
  // synchronously from the clock as it stands.
  const double now = device_->clock().now();
  device_free_ = now;
  horizon_ = now;
}

uint32_t IoScheduler::inflight_ops() const {
  if (plane_ != nullptr) {
    return static_cast<uint32_t>(held_.size()) + (building_open_ ? 1u : 0u);
  }
  const uint32_t queued =
      static_cast<uint32_t>(pending_.size()) + (building_open_ ? 1u : 0u);
  return queued;
}

void IoScheduler::BeginOp(OpClass cls) {
  if (op_depth_++ > 0) return;  // Nested scopes attach to the outer op.
  if (plane_ != nullptr) {
    // Port mode: just open the chain. Admission (closed-loop arrival
    // assignment) happens on the plane when the op's batch joins a
    // service round.
    building_ = Op{};
    building_.cls = cls;
    if (!spare_chains_.empty()) {
      building_.chain = std::move(spare_chains_.back());
      building_.chain.clear();
      spare_chains_.pop_back();
    }
    building_open_ = true;
    return;
  }
  if (!engaged_) {
    sync_class_ = cls;
    sync_t0_ = device_->clock().now();
    return;
  }
  // Closed-loop admission: the op occupies a client slot. The first
  // queue_depth_ ops arrive immediately; afterwards each op reuses the
  // earliest-freeing slot and arrives at that completion time.
  double arrival = device_->clock().now();
  if (allocated_slots_ < queue_depth_) {
    ++allocated_slots_;
  } else {
    while (free_slots_.empty()) {
      if (!ServiceOne()) break;  // Slots leak only via scheduler misuse.
    }
    if (!free_slots_.empty()) {
      arrival = std::max(arrival, free_slots_.top());
      free_slots_.pop();
    }
  }
  building_ = Op{};
  building_.cls = cls;
  building_.arrival = arrival;
  building_.ready = arrival;
  building_open_ = true;
}

void IoScheduler::EndOp() {
  assert(op_depth_ > 0 && "EndOp without BeginOp");
  if (--op_depth_ > 0) return;
  if (plane_ != nullptr) {
    building_open_ = false;
    held_.push_back(std::move(building_));
    building_ = Op{};
    // Hand over whole batches only: a batch is one owner's share of a
    // service round, so it never splits across calls.
    if (held_.size() >= kHandoffOps && held_.size() % queue_depth_ == 0) {
      HandOver();
    }
    return;
  }
  if (!engaged_) {
    if (recorder_ != nullptr && sync_class_ != OpClass::kControl) {
      recorder_->Record(sync_class_, device_->clock().now() - sync_t0_);
    }
    return;
  }
  SealCurrentOp();
}

void IoScheduler::SealCurrentOp() {
  if (!building_open_) return;
  building_open_ = false;
  SettleFront(&building_);
  if (building_.done()) {
    CompleteOp(building_);
    return;
  }
  pending_.push_back(std::move(building_));
  building_ = Op{};
}

void IoScheduler::Enqueue(Request r) {
  assert(building_open_ && "device charge outside an op scope");
  r.seq = next_seq_++;
  building_.chain.push_back(r);
}

void IoScheduler::SettleFront(Op* op) {
  for (; !op->done(); ++op->head) {
    const Request& front = op->chain[op->head];
    switch (front.kind) {
      case Request::Kind::kCpu:
        op->ready += front.cpu_s;
        op->busy += front.cpu_s;
        break;
      case Request::Kind::kWinBegin:
        op->window_base = op->busy;
        break;
      case Request::Kind::kWinEnd: {
        // The stream window spans the op's own serviced seconds — the
        // async analogue of the synchronous wall-clock window. Queueing
        // delay from other ops is deliberately excluded: the penalty
        // models the host's streaming loop, which only runs while this
        // op's work does.
        const double window = op->busy - op->window_base;
        const double penalty =
            OpCostModel::StreamPenalty(front.len, front.cap, window);
        op->ready += penalty;
        op->busy += penalty;
        break;
      }
      case Request::Kind::kIo:
      case Request::Kind::kFlush:
        return;  // Device work: left for ServiceOne.
    }
  }
}

void IoScheduler::CompleteOp(const Op& op) {
  if (recorder_ != nullptr && op.cls != OpClass::kControl) {
    recorder_->Record(op.cls, op.ready - op.arrival);
  }
  horizon_ = std::max(horizon_, op.ready);
  free_slots_.push(op.ready);
  ++completed_ops_;
}

bool IoScheduler::ServiceOne() {
  // Reap ops whose chains are already settled empty (pure-CPU ops).
  for (auto it = pending_.begin(); it != pending_.end();) {
    SettleFront(&*it);
    if (it->done()) {
      CompleteOp(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (pending_.empty()) return false;

  // The device dispatches at max(its free time, the earliest ready
  // front): it cannot start work that has not been issued yet.
  double min_ready = std::numeric_limits<double>::infinity();
  for (const Op& op : pending_) min_ready = std::min(min_ready, op.ready);
  const double dispatch = std::max(device_free_, min_ready);

  // Pick among fronts issued by dispatch time.
  std::list<Op>::iterator pick = pending_.end();
  double pick_cost = std::numeric_limits<double>::infinity();
  uint64_t pick_seq = std::numeric_limits<uint64_t>::max();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->ready > dispatch) continue;
    const Request& front = it->chain[it->head];
    double cost = 0.0;
    if (policy_ == SchedPolicy::kSptf &&
        front.kind == Request::Kind::kIo) {
      cost = device_->PeekPositioningCost(front.offset);
    }
    const bool better =
        policy_ == SchedPolicy::kSptf
            ? (cost < pick_cost ||
               (cost == pick_cost && front.seq < pick_seq))
            : front.seq < pick_seq;
    if (better) {
      pick = it;
      pick_cost = cost;
      pick_seq = front.seq;
    }
  }
  assert(pick != pending_.end());

  const Request front = pick->chain[pick->head++];
  const double start = std::max(device_free_, pick->ready);
  const double service =
      front.kind == Request::Kind::kFlush
          ? device_->ServiceFlush()
          : device_->ServiceRequest(front.write, front.offset, front.len);
  const double completion = start + service;
  device_free_ = completion;
  pick->ready = completion;
  pick->busy += service;
  ++serviced_requests_;
  device_->NoteWriteServiced(front.tag);

  SettleFront(&*pick);
  if (pick->done()) {
    CompleteOp(*pick);
    pending_.erase(pick);
  }
  return true;
}

}  // namespace sim
}  // namespace lor
