#include "machine/mailbox.hpp"

#include <algorithm>
#include <cassert>

namespace camb {

Mailbox::Slot* Mailbox::find_slot(int src) {
  if (!slot_index_.empty()) {
    auto it = slot_index_.find(src);
    return it == slot_index_.end() ? nullptr : &slots_[it->second];
  }
  for (Slot& slot : slots_) {
    if (slot.src == src) return &slot;
  }
  return nullptr;
}

Mailbox::Slot& Mailbox::slot_for_push(int src) {
  if (Slot* slot = find_slot(src)) return *slot;
  if (slots_.empty()) slots_.reserve(8);  // one allocation for ~a dozen peers
  const auto k = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{src, kNil, kNil});
  if (!slot_index_.empty()) {
    slot_index_.emplace(src, k);
  } else if (slots_.size() > kLinearSlots) {
    // Past the linear-scan threshold: index every slot from here on.
    for (std::uint32_t j = 0; j < slots_.size(); ++j) {
      slot_index_.emplace(slots_[j].src, j);
    }
  }
  return slots_.back();
}

std::uint32_t Mailbox::find_tag(const Slot& slot, int tag,
                                std::uint32_t* prev) const {
  *prev = kNil;
  std::uint32_t i = slot.head;
  while (i != kNil && nodes_[i].msg.tag != tag) {
    *prev = i;
    i = nodes_[i].next;
  }
  return i;
}

Message Mailbox::take(Slot& slot, std::uint32_t i, std::uint32_t prev) {
  Node& node = nodes_[i];
  if (prev == kNil) {
    slot.head = node.next;
  } else {
    nodes_[prev].next = node.next;
  }
  if (slot.tail == i) slot.tail = prev;
  Message out = std::move(node.msg);
  node.msg.seq = 0;  // retires any index entry that still names this node
  node.next = free_;
  free_ = i;
  --size_;
  if (indexed_) {
    if (size_ == 0) {
      // Nothing left to reorder against: arrival order is sequence order
      // again.
      order_.clear();
      order_head_ = 0;
      indexed_ = false;
    } else {
      trim_index();
    }
  }
  return out;
}

Message Mailbox::take_node(std::uint32_t i) {
  Slot* slot = find_slot(nodes_[i].msg.src);
  assert(slot != nullptr);
  std::uint32_t prev = kNil;
  for (std::uint32_t j = slot->head; j != i; j = nodes_[j].next) prev = j;
  return take(*slot, i, prev);
}

void Mailbox::wait_for_mail(std::unique_lock<std::mutex>& lock) {
  if (Fiber* fiber = Fiber::current()) {
    fiber->park_on(waiters_, lock);
  } else {
    cv_.wait(lock);
  }
}

void Mailbox::trim_index() {
  while (order_head_ < order_.size() && !live(order_[order_head_])) {
    ++order_head_;
  }
  // Stale entries buried behind long-lived live entries can't be trimmed
  // from the front; once they (with the consumed prefix) outnumber the live
  // entries, rebuild the index without them.  The rebuild costs
  // O(entries) and needs at least `live` further pops to trigger again.
  if (order_.size() <= 2 * size_ + 64) return;
  std::size_t kept = 0;
  for (std::size_t k = order_head_; k < order_.size(); ++k) {
    if (live(order_[k])) order_[kept++] = order_[k];
  }
  order_.resize(kept);
  order_head_ = 0;
}

void Mailbox::build_index() {
  order_.clear();
  order_head_ = 0;
  for (const Slot& slot : slots_) {
    for (std::uint32_t i = slot.head; i != kNil; i = nodes_[i].next) {
      order_.push_back(Entry{i, nodes_[i].msg.seq});
    }
  }
  std::sort(order_.begin(), order_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  indexed_ = true;
}

void Mailbox::reorder(std::uint32_t i, int reorder_skip) {
  const Message& mover = nodes_[i].msg;
  if (!indexed_) {
    // Sequence order holds.  The mover passes nothing unless the newest
    // message queued before it carries a different envelope; only then is
    // the reordering observable and worth an explicit index.
    const Message* newest = nullptr;
    for (const Slot& slot : slots_) {
      for (std::uint32_t j = slot.head; j != kNil; j = nodes_[j].next) {
        const Message& m = nodes_[j].msg;
        if (j != i && (newest == nullptr || m.seq > newest->seq)) newest = &m;
      }
    }
    if (newest == nullptr ||
        (newest->src == mover.src && newest->tag == mover.tag)) {
      return;
    }
    build_index();
  }
  // The legal-reordering walk over the lightweight index; stale entries
  // (whose message is already gone) are passed for free, exactly as if they
  // were not there.  Position relative to stale entries is unobservable
  // (every reader skips them), so once the skip budget is spent the walk
  // stops immediately — even mid-run of stale entries.
  std::size_t pos = order_.size() - 1;
  while (reorder_skip > 0 && pos > order_head_) {
    Entry& prev = order_[pos - 1];
    if (live(prev)) {
      const Message& m = nodes_[prev.node].msg;
      if (m.src == mover.src && m.tag == mover.tag) break;
      --reorder_skip;
    }
    std::swap(prev, order_[pos]);
    --pos;
  }
}

void Mailbox::push(Message msg, int reorder_skip) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    msg.seq = next_seq_++;
    std::uint32_t i = free_;
    if (i != kNil) {
      free_ = nodes_[i].next;
      nodes_[i].msg = std::move(msg);
      nodes_[i].next = kNil;
    } else {
      if (nodes_.empty()) nodes_.reserve(4);  // typical in-flight depth
      i = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(msg), kNil});
    }
    const Message& m = nodes_[i].msg;
    Slot& slot = slot_for_push(m.src);
    if (slot.tail == kNil) {
      slot.head = i;
    } else {
      nodes_[slot.tail].next = i;
    }
    slot.tail = i;
    ++size_;
    if (indexed_) order_.push_back(Entry{i, m.seq});
    if (reorder_skip > 0 && size_ > 1) reorder(i, reorder_skip);
  }
  cv_.notify_all();
  waiters_.notify_all();
}

Message Mailbox::pop_matching(int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // find_slot, never slot_for_push: a receive polling a source that has
    // never sent (common while blocked on a slow or dead peer) must not
    // materialize an empty slot.
    if (Slot* slot = find_slot(src)) {
      std::uint32_t prev;
      const std::uint32_t i = find_tag(*slot, tag, &prev);
      if (i != kNil) return take(*slot, i, prev);
    }
    wait_for_mail(lock);
  }
}

RecvStatus Mailbox::pop_matching_or_failed(int src, int tag, double max_stamp,
                                           Message* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (Slot* slot = find_slot(src)) {
      std::uint32_t prev;
      const std::uint32_t i = find_tag(*slot, tag, &prev);
      if (i != kNil) {
        if (nodes_[i].msg.depart_time > max_stamp) return RecvStatus::kTimedOut;
        *out = take(*slot, i, prev);
        return RecvStatus::kDelivered;
      }
    }
    // Nothing buffered: only now may the failure marking decide the outcome.
    // A message buffered before the source died is a program-order fact of
    // the sender and is always delivered first (match above).
    if (std::find(dead_.begin(), dead_.end(), src) != dead_.end()) {
      return RecvStatus::kSrcDead;
    }
    for (const auto& [r, base] : deviated_) {
      if (r == src && tag < base) return RecvStatus::kSrcDeviated;
    }
    wait_for_mail(lock);
  }
}

Message Mailbox::pop_any() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (size_ == 0) wait_for_mail(lock);
  if (indexed_) {
    // trim_index ran after the last pop, so the front entry is live: the
    // earliest live entry of its envelope, i.e. its oldest queued message.
    const Entry e = order_[order_head_++];
    assert(live(e));
    return take_node(e.node);
  }
  // Sequence order: the oldest message is the oldest slot head.
  Slot* oldest = nullptr;
  for (Slot& slot : slots_) {
    if (slot.head != kNil &&
        (oldest == nullptr ||
         nodes_[slot.head].msg.seq < nodes_[oldest->head].msg.seq)) {
      oldest = &slot;
    }
  }
  return take(*oldest, oldest->head, kNil);
}

void Mailbox::mark_dead(int src) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::find(dead_.begin(), dead_.end(), src) == dead_.end()) {
      dead_.push_back(src);
    }
  }
  cv_.notify_all();
  waiters_.notify_all();
}

void Mailbox::mark_deviated(int src, int tag_base) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deviated_.emplace_back(src, tag_base);
  }
  cv_.notify_all();
  waiters_.notify_all();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

std::size_t Mailbox::bucket_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::vector<std::uint32_t> Mailbox::arrival_order() const {
  std::vector<std::uint32_t> out;
  out.reserve(size_);
  if (indexed_) {
    for (std::size_t k = order_head_; k < order_.size(); ++k) {
      if (live(order_[k])) out.push_back(order_[k].node);
    }
    return out;
  }
  for (const Slot& slot : slots_) {
    for (std::uint32_t i = slot.head; i != kNil; i = nodes_[i].next) {
      out.push_back(i);
    }
  }
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].msg.seq < nodes_[b].msg.seq;
  });
  return out;
}

void Mailbox::clear_all() {
  nodes_.clear();
  free_ = kNil;
  slots_.clear();
  slot_index_.clear();
  order_.clear();
  order_head_ = 0;
  indexed_ = false;
  size_ = 0;
}

std::vector<Message> Mailbox::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  out.reserve(size_);
  for (std::uint32_t i : arrival_order()) {
    out.push_back(std::move(nodes_[i].msg));
  }
  clear_all();
  return out;
}

void Mailbox::drain_undelivered(int dst, std::vector<UndeliveredMessage>& out,
                                const CommStats* names) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (size_ > 0) {
    for (std::uint32_t i : arrival_order()) {
      Message& msg = nodes_[i].msg;
      out.push_back(UndeliveredMessage{
          msg.src, dst, msg.tag, msg.payload.byte_size(),
          names != nullptr ? names->phase_name(msg.phase) : std::string(),
          msg.transport_dup});
    }
  }
  clear_all();
}

}  // namespace camb
