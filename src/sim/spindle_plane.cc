#include "sim/spindle_plane.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

namespace lor {
namespace sim {
namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
/// Batches an owner may have queued before Deliver blocks (and drives
/// service itself). Bounds memory and keeps owners loosely in step.
constexpr size_t kBackpressureWindow = 64;

uint64_t SplitMix64(uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

SpindlePlane::SpindlePlane(const Params& params)
    : policy_(params.policy),
      seed_(params.seed),
      stride_((params.region_bytes + BlockDevice::kSlabBytes - 1) /
              BlockDevice::kSlabBytes * BlockDevice::kSlabBytes),
      region_bytes_(params.region_bytes) {
  assert(params.owners >= 1);
  assert(params.region_bytes > 0);
  hub_ = std::make_unique<BlockDevice>(
      params.disk.WithCapacity(stride_ * params.owners), params.data_mode);
  hub_->PreallocateArenaGroups();
  states_.resize(params.owners);
}

SpindlePlane::~SpindlePlane() = default;

std::unique_ptr<BlockDevice> SpindlePlane::CreateOwnerDevice(uint32_t owner) {
  std::lock_guard<std::mutex> lk(mu_);
  assert(owner < states_.size());
  assert(states_[owner].view == nullptr && "owner view already created");
  auto view = hub_->CreateOwnerView(static_cast<int32_t>(owner),
                                    static_cast<uint64_t>(owner) * stride_,
                                    region_bytes_);
  states_[owner].view = view.get();
  return view;
}

void SpindlePlane::BindOwner(uint32_t owner, IoScheduler* sched) {
  std::lock_guard<std::mutex> lk(mu_);
  OwnerState& st = states_[owner];
  assert(st.view != nullptr && "bind before CreateOwnerDevice");
  assert(!st.bound && "owner already bound");
  st.bound = true;
  st.sched = sched;
  cv_.notify_all();
}

void SpindlePlane::EnsureInitLocked() {
  if (initialized_) return;
  initialized_ = true;
  // Repositories construct serially (synchronous charges on the hub
  // clock) before any plane traffic, so this instant is deterministic.
  const double t0 = hub_->clock().now();
  for (OwnerState& st : states_) {
    st.base = t0;
    st.last_completion = t0;
  }
}

double SpindlePlane::OwnerNow(uint32_t owner) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Pre-traffic there can be no concurrent clock writer: servicing only
  // ever starts from queued work, which initializes first.
  if (!initialized_) return hub_->clock().now();
  return states_[owner].last_completion;
}

uint64_t SpindlePlane::rounds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return round_counter_;
}

uint64_t SpindlePlane::service_hash() const {
  std::lock_guard<std::mutex> lk(mu_);
  return service_hash_;
}

void SpindlePlane::Deliver(uint32_t owner, std::vector<IoScheduler::Op> ops) {
  if (ops.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  EnsureInitLocked();
  OwnerState& st = states_[owner];
  WaitLocked(lk, [&] { return st.queue.size() < kBackpressureWindow; });
  Item item;
  item.ops = std::move(ops);
  st.queue.push_back(std::move(item));
  cv_.notify_all();
}

void SpindlePlane::Fence(uint32_t owner, bool phase_end) {
  std::unique_lock<std::mutex> lk(mu_);
  EnsureInitLocked();
  OwnerState& st = states_[owner];
  Item f;
  f.is_fence = true;
  f.is_phase = phase_end;
  st.queue.push_back(std::move(f));
  const uint64_t my_seq = ++st.fences_pushed;
  cv_.notify_all();
  if (!phase_end) {
    WaitLocked(lk, [&] { return st.fences_popped >= my_seq; });
    return;
  }
  // A phase fence waits past its own pop (which parks the owner) for
  // the epoch reset that unparks it — only the reset unparks, so
  // popped-and-unparked means every peer reached its phase boundary
  // (or retired) and the loops were re-based. Returning earlier would
  // let the owner read a phase-end clock that nondeterministically
  // predates or postdates its peers' tails.
  WaitLocked(lk, [&] { return st.fences_popped >= my_seq && !st.parked; });
}

void SpindlePlane::Retire(uint32_t owner,
                          std::vector<IoScheduler::Op> leftovers) {
  std::unique_lock<std::mutex> lk(mu_);
  OwnerState& st = states_[owner];
  if (!st.bound || st.retired) return;
  while (servicing_) cv_.wait(lk);
  if (!leftovers.empty()) {
    EnsureInitLocked();
    Item item;
    item.ops = std::move(leftovers);
    st.queue.push_back(std::move(item));
  }
  st.retired = true;
  st.parked = false;
  // Stragglers are serviced solo, now, while this owner's scheduler and
  // view are still alive (we are inside the scheduler's destructor;
  // other owners may already be gone). Normal flows settle before
  // destruction, so the queue is almost always empty here.
  DrainOwnerLocked(&st);
  MaybeEpochResetLocked();
  cv_.notify_all();
}

void SpindlePlane::SetOwnerDepth(uint32_t owner, uint32_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  states_[owner].depth = depth == 0 ? 1 : depth;
}

bool SpindlePlane::AdvanceLocked(std::unique_lock<std::mutex>& lk) {
  assert(!servicing_);
  if (TryPhasePopsLocked()) return true;
  if (TryFenceLayerLocked()) return true;
  return TryRoundLocked(lk);
}

void SpindlePlane::MaybeEpochResetLocked() {
  bool any = false;
  for (const OwnerState& st : states_) {
    if (!st.bound || st.retired) continue;
    any = true;
    if (!st.parked) return;
  }
  if (!any) return;
  // Every live owner is parked at its phase boundary: re-base the
  // closed loops at the hub clock so the next phase starts aligned.
  const double t = hub_->clock().now();
  for (OwnerState& st : states_) {
    if (st.retired) continue;
    st.parked = false;
    st.allocated = 0;
    st.slots = {};
    st.base = t;
    st.last_completion = t;
  }
}

bool SpindlePlane::TryPhasePopsLocked() {
  bool progress = false;
  bool again = true;
  while (again) {
    again = false;
    for (OwnerState& st : states_) {
      if (st.retired || st.queue.empty()) continue;
      const Item& front = st.queue.front();
      if (!front.is_fence || !front.is_phase) continue;
      st.queue.pop_front();
      ++st.fences_popped;
      st.parked = true;
      progress = again = true;
    }
  }
  if (progress) {
    MaybeEpochResetLocked();
    cv_.notify_all();
  }
  return progress;
}

bool SpindlePlane::TryFenceLayerLocked() {
  bool any = false;
  for (const OwnerState& st : states_) {
    if (!active(st)) continue;
    if (st.queue.empty()) return false;
    const Item& front = st.queue.front();
    if (!front.is_fence || front.is_phase) return false;
    any = true;
  }
  if (!any) return false;
  // Lockstep layer: one regular fence from every active owner; each
  // resets its closed loop (the Drain/Engage semantics — everything
  // settled, the next op arrives at the current time).
  const double t = hub_->clock().now();
  for (OwnerState& st : states_) {
    if (!active(st)) continue;
    st.queue.pop_front();
    ++st.fences_popped;
    st.allocated = 0;
    st.slots = {};
    st.base = t;
  }
  cv_.notify_all();
  return true;
}

double SpindlePlane::NextArrivalLocked(OwnerState* st) {
  if (st->allocated < st->depth) {
    ++st->allocated;
    return st->base;
  }
  double arrival = st->base;
  if (!st->slots.empty()) {
    arrival = std::max(arrival, st->slots.top());
    st->slots.pop();
  }
  return arrival;
}

bool SpindlePlane::TryRoundLocked(std::unique_lock<std::mutex>& lk) {
  bool any_active = false;
  bool any_batch = false;
  for (const OwnerState& st : states_) {
    if (!active(st)) continue;
    any_active = true;
    if (st.queue.empty()) return false;  // round gates on every owner
    if (!st.queue.front().is_fence) any_batch = true;
  }
  if (!any_active || !any_batch) return false;

  ++round_counter_;
  const uint64_t salt = SplitMix64(seed_ ^ round_counter_);
  std::vector<RoundOp> round;
  uint64_t idx = 0;
  for (uint32_t o = 0; o < states_.size(); ++o) {
    OwnerState& st = states_[o];
    if (!active(st) || st.queue.front().is_fence) continue;
    Item item = std::move(st.queue.front());
    st.queue.pop_front();
    for (IoScheduler::Op& op : item.ops) {
      RoundOp rop;
      rop.owner = o;
      rop.key = SplitMix64(salt ^ (static_cast<uint64_t>(o) * kGolden) ^ idx);
      rop.arrival = NextArrivalLocked(&st);
      rop.op = std::move(op);
      round.push_back(std::move(rop));
      ++idx;
    }
  }

  // Replay against the hub with the lock released: other owners keep
  // doing host-side work (and queueing) while the spindle turns. The
  // baton flag keeps state advances serialized.
  servicing_ = true;
  lk.unlock();
  ServiceRound(&round);
  lk.lock();
  PublishRoundLocked(&round);
  servicing_ = false;
  cv_.notify_all();
  return true;
}

void SpindlePlane::ServiceRound(std::vector<RoundOp>* round) {
  std::vector<RoundOp>& ops = *round;
  const size_t n = ops.size();
  uint64_t seq = 0;
  if (policy_ == SchedPolicy::kFifo) {
    // Salted slot shuffle: permute positions by key, then refill each
    // owner's positions with its ops in program order. A single owner
    // holds every position, so its ops service in submission order
    // regardless of the salt.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ops[a].key < ops[b].key;
    });
    std::vector<std::deque<size_t>> per_owner(states_.size());
    for (size_t i = 0; i < n; ++i) per_owner[ops[i].owner].push_back(i);
    for (size_t pos : order) {
      std::deque<size_t>& q = per_owner[ops[pos].owner];
      RoundOp* rop = &ops[q.front()];
      q.pop_front();
      rop->seq = seq++;
      ServiceChain(rop);
    }
    return;
  }
  // SPTF: among the owners' earliest unserviced ops, pick the one whose
  // first device request has the cheapest positioning from the current
  // head; the salted key breaks ties. Per-owner program order is
  // preserved because only each owner's front is ever a candidate.
  std::vector<std::deque<size_t>> fronts(states_.size());
  for (size_t i = 0; i < n; ++i) fronts[ops[i].owner].push_back(i);
  for (size_t served = 0; served < n; ++served) {
    size_t pick = n;
    double pick_cost = std::numeric_limits<double>::infinity();
    uint64_t pick_key = std::numeric_limits<uint64_t>::max();
    for (const std::deque<size_t>& q : fronts) {
      if (q.empty()) continue;
      const size_t i = q.front();
      const IoScheduler::Op& op = ops[i].op;
      double cost = 0.0;
      for (size_t k = op.head; k < op.chain.size(); ++k) {
        const IoScheduler::Request& r = op.chain[k];
        if (r.kind == IoScheduler::Request::Kind::kIo) {
          cost = states_[ops[i].owner].view->PeekPositioningCost(r.offset);
          break;
        }
        if (r.kind == IoScheduler::Request::Kind::kFlush) break;
      }
      if (cost < pick_cost || (cost == pick_cost && ops[i].key < pick_key)) {
        pick = i;
        pick_cost = cost;
        pick_key = ops[i].key;
      }
    }
    assert(pick < n);
    fronts[ops[pick].owner].pop_front();
    ops[pick].seq = seq++;
    ServiceChain(&ops[pick]);
  }
}

void SpindlePlane::ServiceChain(RoundOp* rop) {
  BlockDevice* view = states_[rop->owner].view;
  SimClock& clk = hub_->clock();
  rop->start = clk.now();
  // The synchronous path's own Apply, chain-contiguous: a single owner
  // at depth 1 is therefore bit-identical to the dedicated path.
  double win_t0 = 0.0;
  IoScheduler::Op& op = rop->op;
  for (; !op.done(); ++op.head) {
    const IoScheduler::Request& r = op.chain[op.head];
    view->Apply(r, &win_t0);
    using Kind = IoScheduler::Request::Kind;
    if (r.kind == Kind::kIo || r.kind == Kind::kFlush) ++rop->device_reqs;
  }
  rop->completion = clk.now();
}

void SpindlePlane::PublishRoundLocked(std::vector<RoundOp>* round) {
  // Publish in service order so the fingerprint (and float
  // accumulation) reflect the actual interleave.
  std::vector<size_t> by_seq(round->size());
  for (size_t i = 0; i < round->size(); ++i) by_seq[i] = i;
  std::sort(by_seq.begin(), by_seq.end(), [&](size_t a, size_t b) {
    return (*round)[a].seq < (*round)[b].seq;
  });
  for (size_t i : by_seq) {
    RoundOp& rop = (*round)[i];
    OwnerState& st = states_[rop.owner];
    st.slots.push(rop.completion);
    st.last_completion = std::max(st.last_completion, rop.completion);
    st.view->stats_.queue_wait_s += rop.start - rop.arrival;
    if (st.sched != nullptr) {
      ++st.sched->completed_ops_;
      st.sched->serviced_requests_ += rop.device_reqs;
      LatencyRecorder* rec = st.sched->recorder();
      if (rec != nullptr && rop.op.cls != OpClass::kControl) {
        rec->Record(rop.op.cls, rop.completion - rop.arrival);
      }
    }
    service_hash_ = (service_hash_ ^ rop.owner) * kFnvPrime;
    uint64_t bits = 0;
    std::memcpy(&bits, &rop.completion, sizeof(bits));
    service_hash_ = (service_hash_ ^ bits) * kFnvPrime;
  }
}

void SpindlePlane::DrainOwnerLocked(OwnerState* st) {
  assert(!servicing_);
  while (!st->queue.empty()) {
    Item item = std::move(st->queue.front());
    st->queue.pop_front();
    if (item.is_fence) {
      ++st->fences_popped;
      continue;
    }
    std::vector<RoundOp> round;
    const uint32_t owner = static_cast<uint32_t>(st - states_.data());
    for (IoScheduler::Op& op : item.ops) {
      RoundOp rop;
      rop.owner = owner;
      rop.arrival = NextArrivalLocked(st);
      rop.op = std::move(op);
      round.push_back(std::move(rop));
    }
    // Single-owner rounds service in program order under both policies;
    // holding the lock is fine — nothing else can be servicing.
    ServiceRound(&round);
    PublishRoundLocked(&round);
  }
}

}  // namespace sim
}  // namespace lor
