#include "machine/buffer_pool.hpp"

#include "machine/fiber.hpp"

namespace camb {

namespace {
thread_local BufferPool* tl_current_pool = nullptr;

/// The slot behind BufferPool::current(): per-fiber when running on a fiber
/// (the installed pool must migrate with the rank, not stay behind on a
/// worker thread that picks up a different rank next), per-thread otherwise.
BufferPool*& current_pool_slot() {
  if (Fiber* fiber = Fiber::current()) return fiber->pool_slot();
  return tl_current_pool;
}
}  // namespace

Buffer::Buffer(std::vector<double> v)
    : storage_(std::move(v)),
      pool_(BufferPool::current()),
      elems_(static_cast<i64>(storage_.size())) {}

void Buffer::release() {
  // Small storages are cheaper to free than to hand back across threads.
  if (pool_ != nullptr &&
      storage_.capacity() >= BufferPool::kMinPooledWords) {
    pool_->give(std::move(storage_));
  }
  storage_.clear();
  pool_ = nullptr;
  elems_ = 0;
  elem_bytes_ = 8;
}

Buffer Buffer::zeros(std::size_t words) {
  if (words >= BufferPool::kMinPooledWords) {
    if (BufferPool* pool = BufferPool::current()) return pool->zeros(words);
  }
  return Buffer(std::vector<double>(words));
}

Buffer Buffer::copy_of(const double* src, std::size_t words) {
  if (words >= BufferPool::kMinPooledWords) {
    if (BufferPool* pool = BufferPool::current()) {
      return pool->copy_of(src, words);
    }
  }
  return Buffer(std::vector<double>(src, src + words));
}

Buffer Buffer::copy_of(const std::vector<double>& v) {
  return copy_of(v.data(), v.size());
}

Buffer Buffer::clone() const {
  Buffer out = copy_of(storage_.data(), storage_.size());
  out.elems_ = elems_;
  out.elem_bytes_ = elem_bytes_;
  return out;
}

std::vector<double> Buffer::take() && {
  std::vector<double> out = std::move(storage_);
  storage_.clear();
  pool_ = nullptr;
  elems_ = 0;
  elem_bytes_ = 8;
  return out;
}

Buffer BufferPool::zeros(std::size_t words) {
  std::vector<double> storage = pop_free(words);
  storage.assign(words, 0.0);
  Buffer out;
  out.storage_ = std::move(storage);
  out.pool_ = this;
  out.elems_ = static_cast<i64>(words);
  return out;
}

Buffer BufferPool::copy_of(const double* src, std::size_t words) {
  std::vector<double> storage = pop_free(words);
  storage.assign(src, src + words);
  Buffer out;
  out.storage_ = std::move(storage);
  out.pool_ = this;
  out.elems_ = static_cast<i64>(words);
  return out;
}

Buffer BufferPool::bytes_copy(const void* src, i64 nbytes) {
  CAMB_CHECK(nbytes >= 0);
  const std::size_t words = static_cast<std::size_t>(ceil_div(nbytes, 8));
  std::vector<double> storage = pop_free(words);
  storage.resize(words);
  // Zero the tail word before the copy so pad bytes beyond nbytes are a
  // deterministic 0 (transport checksums read whole storage words).
  if (words > 0) storage[words - 1] = 0.0;
  std::memcpy(storage.data(), src, static_cast<std::size_t>(nbytes));
  Buffer out;
  out.storage_ = std::move(storage);
  out.pool_ = this;
  out.elems_ = static_cast<i64>(words);
  return out;
}

Buffer BufferPool::bytes_zeros(i64 nbytes) {
  CAMB_CHECK(nbytes >= 0);
  return zeros(static_cast<std::size_t>(ceil_div(nbytes, 8)));
}

int BufferPool::size_class(std::size_t words) {
  int cls = 0;
  std::size_t v = 1;
  while (v < words && cls < kMaxClass) {
    v <<= 1;
    ++cls;
  }
  return cls < kMinClass ? kMinClass : cls;
}

std::vector<double> BufferPool::pop_free(std::size_t words) {
  const std::size_t bucket =
      static_cast<std::size_t>(size_class(words) - kMinClass);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.acquires;
  auto& list = free_[bucket];
  if (list.empty()) return {};
  ++stats_.reuses;
  std::vector<double> storage = std::move(list.back());
  list.pop_back();
  return storage;
}

void BufferPool::give(std::vector<double>&& storage) {
  const std::size_t bucket =
      static_cast<std::size_t>(size_class(storage.capacity()) - kMinClass);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.returns;
  auto& list = free_[bucket];
  if (list.size() >= kMaxFree) {
    ++stats_.drops;
    return;  // storage freed on scope exit
  }
  list.push_back(std::move(storage));
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.free = 0;
  for (const auto& list : free_) out.free += list.size();
  return out;
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& list : free_) list.clear();
}

BufferPool* BufferPool::current() { return current_pool_slot(); }

BufferPool::Scope::Scope(BufferPool* pool) {
  BufferPool*& slot = current_pool_slot();
  prev_ = slot;
  slot = pool;
}

BufferPool::Scope::~Scope() { current_pool_slot() = prev_; }

}  // namespace camb
