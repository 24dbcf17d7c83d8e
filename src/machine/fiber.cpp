// fiber.cpp — stackful context switching and the fiber scheduler.
//
// Backend: on x86-64 the switch is ~30 instructions of inline assembly
// (callee-saved registers + mxcsr/x87 control words, per the SysV ABI);
// everywhere else it falls back to ucontext.  Both backends run under the
// same sanitizer discipline: every switch tells ASan which stack it is
// moving to (__sanitizer_start/finish_switch_fiber) and TSan which logical
// thread is now running (__tsan_switch_to_fiber), so the fiber build is
// fully analyzable by both.
//
// The one piece of per-OS-thread C++ runtime state that must migrate with
// a fiber is __cxa_eh_globals (the caught-exception stack): rollback code
// performs communication — and therefore parks — inside catch blocks, and
// two fibers interleaving their catch blocks on one worker thread would
// otherwise corrupt the thread's LIFO handler state.  Each switch swaps the
// 16-byte globals image through the context records.
#include "machine/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "machine/worker_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CAMB_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CAMB_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(CAMB_FIBER_ASAN)
#define CAMB_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(CAMB_FIBER_TSAN)
#define CAMB_FIBER_TSAN 1
#endif
#endif

#ifdef CAMB_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef CAMB_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// CAMB_FORCE_UCONTEXT (a CMake option) builds the portable backend on
// x86-64 too, so CI can exercise the fallback path real non-x86 hosts take.
#if defined(__x86_64__) && !defined(CAMB_FORCE_UCONTEXT)
#define CAMB_FIBER_X86_64 1
#else
#include <ucontext.h>
#endif

namespace camb {

void camb_fiber_start(Fiber* fiber);

namespace {

thread_local Fiber* tl_current_fiber = nullptr;

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t default_stack_bytes() {
  static const std::size_t bytes = [] {
    if (const char* env = std::getenv("CAMB_FIBER_STACK_KB")) {
      const long kb = std::atol(env);
      if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
    }
    return std::size_t{256 * 1024};
  }();
  return bytes;
}

// Per-fiber guarded mappings cost two kernel VMAs each (guard + stack);
// vm.max_map_count defaults to ~64 Ki, so beyond this many fibers stacks
// are packed into shared slabs instead (see FiberStack in the header).
constexpr int kPackedStackThreshold = 16384;
constexpr std::size_t kStacksPerSlab = 512;

// Planted at the base (lowest address) of every packed-slab stack, where a
// dedicated guard page would otherwise sit.  An overflow deep enough to
// cross into the neighboring fiber's slice clobbers a canary on the way, so
// the corruption is reported (at fiber completion) instead of silent.
constexpr std::uint64_t kStackCanary = 0x5ca1ab1e0ddba11eULL;

/// Guard page + `stack` usable bytes above it, as one private mapping.
void* map_guarded_stack(std::size_t stack) {
  const std::size_t page = page_size();
  void* base = mmap(nullptr, page + stack, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CAMB_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  // Guard page below the stack: overflow faults instead of corrupting
  // the neighboring fiber's stack.
  mprotect(base, page, PROT_NONE);
  return base;
}

/// The process-wide pool of guarded stacks behind every scheduler below the
/// packed threshold (see FiberStack in the header).  Idle stacks stay
/// mapped with their pages resident; the pool holds at most
/// kPackedStackThreshold of them, all of size_ usable bytes.
class StackPool {
 public:
  /// n guarded mappings of `stack` usable bytes, idle ones first.  Asking
  /// for a new size unmaps the idle stacks of the old one.
  std::vector<void*> acquire(std::size_t stack, int n) {
    std::vector<void*> out;
    std::vector<void*> stale;
    std::size_t stale_size = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stack != size_) {
        stale.swap(idle_);
        stale_size = size_;
        size_ = stack;
      }
      const std::size_t take =
          std::min(idle_.size(), static_cast<std::size_t>(n));
      out.assign(idle_.end() - static_cast<std::ptrdiff_t>(take), idle_.end());
      idle_.resize(idle_.size() - take);
      reused_ += static_cast<std::int64_t>(take);
      mapped_ += n - static_cast<std::int64_t>(take);
    }
    unmap(stale, stale_size);
    try {
      while (out.size() < static_cast<std::size_t>(n)) {
        out.push_back(map_guarded_stack(stack));
      }
    } catch (...) {
      release(stack, std::move(out));
      throw;
    }
    return out;
  }

  /// Take stacks back: kept while they match the pool's size and fit under
  /// the cap, unmapped otherwise.
  void release(std::size_t stack, std::vector<void*> stacks) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stack == size_) {
        const std::size_t room =
            static_cast<std::size_t>(kPackedStackThreshold) - idle_.size();
        const std::size_t keep = std::min(room, stacks.size());
        idle_.insert(idle_.end(),
                     stacks.end() - static_cast<std::ptrdiff_t>(keep),
                     stacks.end());
        stacks.resize(stacks.size() - keep);
      }
    }
    unmap(stacks, stack);
  }

  FiberScheduler::StackPoolStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {size_, idle_.size(), mapped_, reused_};
  }

 private:
  static void unmap(const std::vector<void*>& stacks, std::size_t stack) {
    for (void* base : stacks) munmap(base, page_size() + stack);
  }

  mutable std::mutex mutex_;
  std::size_t size_ = 0;
  std::vector<void*> idle_;  ///< mapping bases (guard page first)
  std::int64_t mapped_ = 0;
  std::int64_t reused_ = 0;
};

StackPool& stack_pool() {
  static StackPool pool;
  return pool;
}

}  // namespace

// The Itanium ABI's per-thread exception bookkeeping: a pointer to the
// caught-exception stack plus the uncaught count.  Declared locally (the
// real declaration lives in cxxabi.h under __cxxabiv1) so the 16-byte image
// can be swapped without dragging in the full ABI header.
struct CxaEhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

extern "C" CxaEhGlobals* __cxa_get_globals() noexcept;

// ---------------------------------------------------------------------------
// Context switch backends.

#ifdef CAMB_FIBER_X86_64

extern "C" {
void camb_ctx_swap(void** save_sp, void* load_sp);
void camb_fiber_entry();
void camb_fiber_main(void* arg);
}

// camb_ctx_swap(save_sp, load_sp): save the SysV callee-saved state on the
// current stack, publish the resulting stack pointer through *save_sp, then
// adopt load_sp and restore.  The frame layout (ascending from the saved
// rsp) is: mxcsr(4) fcw(2) pad(2) | r15 r14 r13 r12 rbx rbp | return addr.
//
// camb_fiber_entry is the return address planted in a *fresh* fiber frame:
// it receives the Fiber* in r12 (a callee-saved slot of that frame) and
// calls camb_fiber_main, which never returns.  At entry rsp is 16-byte
// aligned, so the call leaves the ABI-required rsp % 16 == 8.
asm(R"(
.text
.globl camb_ctx_swap
.type camb_ctx_swap,@function
.align 16
camb_ctx_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
.size camb_ctx_swap,.-camb_ctx_swap

.globl camb_fiber_entry
.type camb_fiber_entry,@function
.align 16
camb_fiber_entry:
    movq %r12, %rdi
    callq camb_fiber_main
    ud2
.size camb_fiber_entry,.-camb_fiber_entry
)");

extern "C" void camb_fiber_main(void* arg) {
  camb::camb_fiber_start(static_cast<camb::Fiber*>(arg));
}

#endif  // CAMB_FIBER_X86_64

namespace {

#ifdef CAMB_FIBER_X86_64

/// Plant the initial frame for a fresh fiber at the top of its stack, so
/// the first camb_ctx_swap into it "returns" into camb_fiber_entry.
void* make_fiber_frame(void* stack_top, Fiber* self) {
  auto* top = static_cast<unsigned char*>(stack_top);  // page-aligned
  unsigned char* sp = top - 64;
  std::memset(sp, 0, 64);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(sp, &mxcsr, sizeof(mxcsr));
  std::memcpy(sp + 4, &fcw, sizeof(fcw));
  void* r12 = self;
  std::memcpy(sp + 32, &r12, sizeof(r12));
  void* entry = reinterpret_cast<void*>(&camb_fiber_entry);
  std::memcpy(sp + 56, &entry, sizeof(entry));
  return sp;
}

#else  // ucontext fallback

void fiber_entry_uctx(unsigned int hi, unsigned int lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  camb::camb_fiber_start(reinterpret_cast<camb::Fiber*>(bits));
}

#endif  // CAMB_FIBER_X86_64

/// Switch from `from` to `to`, carrying the sanitizer bookkeeping and the
/// C++ exception globals across.  When `from_dying` the source context never
/// resumes (its ASan fake stack is released rather than saved).
void switch_context(FiberContext& from, FiberContext& to, bool from_dying) {
  CxaEhGlobals* globals = __cxa_get_globals();
  std::memcpy(from.eh_save, globals, sizeof(from.eh_save));
  std::memcpy(globals, to.eh_save, sizeof(from.eh_save));
#ifdef CAMB_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#ifdef CAMB_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.asan_fake,
                                 to.stack_base, to.stack_size);
#else
  (void)from_dying;
#endif
#ifdef CAMB_FIBER_X86_64
  camb_ctx_swap(&from.sp, to.sp);
#else
  swapcontext(static_cast<ucontext_t*>(from.uctx),
              static_cast<ucontext_t*>(to.uctx));
#endif
  // Back on `from` (possibly on a different worker thread).
#ifdef CAMB_FIBER_ASAN
  __sanitizer_finish_switch_fiber(from.asan_fake, nullptr, nullptr);
#endif
}

/// Fill in a worker thread's own context record: the scheduler needs the
/// thread's stack bounds (for ASan) and TSan identity to switch back to it.
void init_worker_context(FiberContext& ctx) {
#ifdef CAMB_FIBER_TSAN
  ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      ctx.stack_base = base;
      ctx.stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SchedulerKind plumbing.

namespace {
std::atomic<SchedulerKind> g_default_kind{SchedulerKind::kDefault};
}  // namespace

SchedulerKind scheduler_kind_from_name(const std::string& name) {
  if (name == "default") return SchedulerKind::kDefault;
  if (name == "threads") return SchedulerKind::kThreads;
  if (name == "fibers") return SchedulerKind::kFibers;
  throw Error("unknown scheduler \"" + name +
              "\" (want default|threads|fibers)");
}

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDefault:
      return "default";
    case SchedulerKind::kThreads:
      return "threads";
    case SchedulerKind::kFibers:
      return "fibers";
  }
  return "?";
}

SchedulerKind default_scheduler_kind() {
  const SchedulerKind forced = g_default_kind.load(std::memory_order_relaxed);
  if (forced != SchedulerKind::kDefault) return forced;
  static const SchedulerKind env_kind = [] {
    const char* env = std::getenv("CAMB_SCHEDULER");
    if (env == nullptr || *env == '\0') return SchedulerKind::kThreads;
    return scheduler_kind_from_name(env);
  }();
  return env_kind;
}

void set_default_scheduler_kind(SchedulerKind kind) {
  g_default_kind.store(kind, std::memory_order_relaxed);
}

SchedulerKind resolve_scheduler_kind(SchedulerKind kind) {
  return kind == SchedulerKind::kDefault ? default_scheduler_kind() : kind;
}

// ---------------------------------------------------------------------------
// FiberWaitList.

void FiberWaitList::add(Fiber* fiber) {
  std::lock_guard<std::mutex> guard(mutex_);
  waiters_.push_back(fiber);
  maybe_waiters_.store(true, std::memory_order_release);
}

void FiberWaitList::notify_all() {
  // Fast path for the threads scheduler and uncontended mailboxes.  A
  // parking fiber publishes maybe_waiters_ before releasing the blocking
  // site's mutex, and notifiers run after acquiring that mutex, so a false
  // negative here is impossible for a fiber that observed the pre-notify
  // state.
  if (!maybe_waiters_.load(std::memory_order_acquire)) return;
  // A mailbox has at most its owner parked on it, so the lone waiter is
  // taken without handing the list's storage away (a swap would make the
  // next add() allocate again).
  Fiber* lone = nullptr;
  std::vector<Fiber*> taken;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (waiters_.size() == 1) {
      lone = waiters_.front();
      waiters_.clear();
    } else {
      taken.swap(waiters_);
    }
    maybe_waiters_.store(false, std::memory_order_relaxed);
  }
  const auto wake = [](Fiber* fiber) {
    const int prev = fiber->wake_.exchange(Fiber::kWakeNotified,
                                           std::memory_order_acq_rel);
    // kWakeParking: the scheduler's exchange is still in flight and will
    // observe kWakeNotified — it requeues.  kWakeParked: it already ran —
    // we requeue.
    if (prev == Fiber::kWakeParked) fiber->sched_.enqueue(fiber);
  };
  if (lone != nullptr) wake(lone);
  for (Fiber* fiber : taken) wake(fiber);
}

// ---------------------------------------------------------------------------
// Fiber.

Fiber* Fiber::current() { return tl_current_fiber; }

void Fiber::maybe_preempt() {
  Fiber* fiber = tl_current_fiber;
  if (fiber != nullptr && fiber->chaos_) fiber->preempt();
}

Fiber::Fiber(FiberScheduler& sched, int index, const FiberStack& stack,
             bool chaos)
    : sched_(sched), index_(index), chaos_(chaos), packed_stack_(stack.packed) {
  ctx_.stack_base = stack.base;
  ctx_.stack_size = stack.size;
#ifdef CAMB_FIBER_TSAN
  ctx_.tsan_fiber = __tsan_create_fiber(0);
#endif
#ifdef CAMB_FIBER_ASAN
  // A reused stack's previous fiber never returned from its last frames,
  // so their redzone poison is still in the shadow.
  __asan_unpoison_memory_region(ctx_.stack_base, ctx_.stack_size);
#endif
  if (packed_stack_) {
    // Packed slabs have no per-stack guard page; the canary substitutes for
    // it, turning a silent cross-fiber scribble into a named error (checked
    // by check_stack_canary when the fiber completes).
    std::memcpy(ctx_.stack_base, &kStackCanary, sizeof(kStackCanary));
  }
#ifdef CAMB_FIBER_X86_64
  ctx_.sp = make_fiber_frame(
      static_cast<unsigned char*>(ctx_.stack_base) + ctx_.stack_size, this);
#else
  auto* uctx = new ucontext_t();
  getcontext(uctx);
  uctx->uc_stack.ss_sp = ctx_.stack_base;
  uctx->uc_stack.ss_size = ctx_.stack_size;
  uctx->uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(uctx, reinterpret_cast<void (*)()>(fiber_entry_uctx), 2,
              static_cast<unsigned int>(bits >> 32),
              static_cast<unsigned int>(bits & 0xffffffffu));
  ctx_.uctx = uctx;
#endif
}

Fiber::~Fiber() { release_stack(); }

void Fiber::release_stack() {
#ifdef CAMB_FIBER_TSAN
  if (ctx_.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(ctx_.tsan_fiber);
    ctx_.tsan_fiber = nullptr;
  }
#endif
#ifndef CAMB_FIBER_X86_64
  delete static_cast<ucontext_t*>(ctx_.uctx);
  ctx_.uctx = nullptr;
#endif
  if (packed_stack_ && ctx_.stack_base != nullptr) {
    // Packed slab slice: the mapping outlives the fiber, but the pages can
    // go back to the kernel now (bounds resident memory at huge P).
    madvise(ctx_.stack_base, ctx_.stack_size, MADV_DONTNEED);
    ctx_.stack_base = nullptr;
  }
}

void Fiber::check_stack_canary() {
  if (!packed_stack_ || ctx_.stack_base == nullptr) return;
  std::uint64_t word = 0;
  std::memcpy(&word, ctx_.stack_base, sizeof(word));
  if (word != kStackCanary && !error_) {
    error_ = std::make_exception_ptr(
        Error("fiber stack overflow: rank " + std::to_string(index_) +
              " overran its packed " + std::to_string(ctx_.stack_size / 1024) +
              " KiB stack (base canary clobbered); raise CAMB_FIBER_STACK_KB"));
  }
}

void camb_fiber_start(Fiber* fiber) { fiber->run_body(); }

void Fiber::run_body() {
#ifdef CAMB_FIBER_ASAN
  // First entry arrives via the planted frame, not switch_context, so the
  // pending start_switch is finished here (no fake stack to restore yet).
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  try {
    sched_.body_(index_);
  } catch (...) {
    error_ = std::current_exception();
  }
  yield_to_scheduler(Phase::kDone);
  std::abort();  // a completed fiber is never resumed
}

void Fiber::yield_to_scheduler(Phase why) {
  phase_ = why;
  switch_context(ctx_, *ret_, why == Phase::kDone);
  phase_ = Phase::kRunning;
}

void Fiber::preempt() { yield_to_scheduler(Phase::kYielded); }

void Fiber::park_on(FiberWaitList& waiters, std::unique_lock<std::mutex>& lock) {
  // Order matters: the wake state must read kWakeParking before this fiber
  // is visible on the wait list, else a fast notifier's kWakeNotified could
  // be overwritten.
  wake_.store(kWakeParking, std::memory_order_release);
  waiters.add(this);
  lock.unlock();
  yield_to_scheduler(Phase::kParking);
  wake_.store(kWakeRunning, std::memory_order_relaxed);
  lock.lock();
}

// ---------------------------------------------------------------------------
// FiberScheduler.

void FiberScheduler::run(int nfibers, const std::function<void(int)>& body,
                         const Options& opts) {
  if (nfibers <= 0) return;
  FiberScheduler sched(nfibers, body, opts);
  sched.execute();
}

void FiberScheduler::run(int nfibers, const std::function<void(int)>& body) {
  run(nfibers, body, Options());
}

FiberScheduler::FiberScheduler(int nfibers,
                               const std::function<void(int)>& body,
                               const Options& opts)
    : body_(body), opts_(opts), chaos_(opts.interleave_seed != 0),
      pick_state_(opts.interleave_seed) {
  const std::size_t page = page_size();
  const std::size_t bytes =
      opts_.stack_bytes != 0 ? opts_.stack_bytes : default_stack_bytes();
  stack_size_ = ((bytes + page - 1) / page) * page;
  packed_stacks_ = nfibers > kPackedStackThreshold;
  if (!packed_stacks_) pooled_ = stack_pool().acquire(stack_size_, nfibers);
  fibers_.reserve(static_cast<std::size_t>(nfibers));
  for (int i = 0; i < nfibers; ++i) {
    fibers_.push_back(new Fiber(*this, i, allocate_stack(i), chaos_));
  }
}

FiberScheduler::~FiberScheduler() {
  for (Fiber* fiber : fibers_) delete fiber;
  stack_pool().release(stack_size_, std::move(pooled_));
  for (const auto& [base, bytes] : slabs_) munmap(base, bytes);
}

FiberScheduler::StackPoolStats FiberScheduler::stack_pool_stats() {
  return stack_pool().stats();
}

FiberStack FiberScheduler::allocate_stack(int index) {
  const std::size_t page = page_size();
  const std::size_t stack = stack_size_;
  FiberStack out;
  out.size = stack;
  if (!packed_stacks_) {
    out.base =
        static_cast<unsigned char*>(pooled_[static_cast<std::size_t>(index)]) +
        page;
    return out;
  }
  out.packed = true;
  if (slab_left_ < stack) {
    const std::size_t bytes = page + kStacksPerSlab * stack;
    void* slab = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CAMB_CHECK_MSG(slab != MAP_FAILED, "fiber stack slab mmap failed");
    mprotect(slab, page, PROT_NONE);  // guard below the slab's lowest stack
    slabs_.emplace_back(slab, bytes);
    slab_cursor_ = static_cast<unsigned char*>(slab) + page;
    slab_left_ = kStacksPerSlab * stack;
  }
  out.base = slab_cursor_;
  slab_cursor_ += stack;
  slab_left_ -= stack;
  return out;
}

void FiberScheduler::enqueue(Fiber* fiber) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    fiber->phase_ = Fiber::Phase::kRunnable;
    runq_.push_back(fiber);
  }
  cv_.notify_one();
}

Fiber* FiberScheduler::take_next() {
  std::size_t idx = 0;
  if (chaos_ && runq_.size() > 1) {
    idx = static_cast<std::size_t>(splitmix64(pick_state_) % runq_.size());
  }
  Fiber* fiber = runq_[idx];
  if (idx == 0) {
    runq_.pop_front();  // FIFO pick: no out-of-line deque erase
  } else {
    runq_.erase(runq_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return fiber;
}

void FiberScheduler::execute() {
  const int n = static_cast<int>(fibers_.size());
  live_ = n;
  for (Fiber* fiber : fibers_) runq_.push_back(fiber);
  int workers = opts_.workers;
  if (chaos_) {
    workers = 1;  // one worker makes a seeded schedule fully reproducible
  } else if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  workers = std::max(1, std::min(workers, n));
  WorkerPool::instance().run(workers, [this](int) { worker_loop(); });
  if (deadlock_) {
    std::ostringstream msg;
    msg << "fiber scheduler deadlock: " << live_ << " of " << fibers_.size()
        << " ranks parked with nothing runnable; parked ranks:";
    int listed = 0;
    for (Fiber* fiber : fibers_) {
      if (fiber->phase_ == Fiber::Phase::kDone) continue;
      if (++listed > 16) {
        msg << " ...";
        break;
      }
      msg << ' ' << fiber->index_;
    }
    throw Error(msg.str());
  }
  for (Fiber* fiber : fibers_) {
    if (fiber->error_) std::rethrow_exception(fiber->error_);
  }
}

void FiberScheduler::worker_loop() {
  FiberContext wctx;
  init_worker_context(wctx);
#ifndef CAMB_FIBER_X86_64
  // swapcontext saves the worker frame into this record before adopting a
  // fiber; getcontext-style init is not needed for a save target, but the
  // ucontext_t storage is (a null uctx would segfault on the first switch).
  const auto worker_uctx = std::make_unique<ucontext_t>();
  wctx.uctx = worker_uctx.get();
#endif
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return !runq_.empty() || live_ == 0 || deadlock_; });
    if (live_ == 0 || deadlock_) return;
    Fiber* fiber = take_next();
    ++running_;
    lock.unlock();

    fiber->ret_ = &wctx;
    fiber->phase_ = Fiber::Phase::kRunning;
    tl_current_fiber = fiber;
    switch_context(wctx, fiber->ctx_, /*from_dying=*/false);
    tl_current_fiber = nullptr;
    const Fiber::Phase phase = fiber->phase_;

    lock.lock();
    if (phase == Fiber::Phase::kDone) {
      --running_;
      --live_;
      lock.unlock();
      fiber->check_stack_canary();
      fiber->release_stack();  // bound resident memory during huge runs
      lock.lock();
      if (live_ == 0) cv_.notify_all();
    } else if (phase == Fiber::Phase::kYielded) {
      --running_;
      runq_.push_back(fiber);
      cv_.notify_one();
    } else {  // Phase::kParking — finish the park handshake off the lock
      // The phase must be written before the exchange below: the instant
      // the exchange publishes kWakeParked, a notifier may requeue the
      // fiber and another worker may resume it.  running_ stays elevated
      // until the whole handshake (exchange + possible requeue) is done, so
      // no other worker can observe "queue empty, nothing running, fibers
      // live" while a notified fiber is still in flight between the unlock
      // and the exchange — that window used to read as a false deadlock.
      fiber->phase_ = Fiber::Phase::kParked;
      lock.unlock();
      const int prev = fiber->wake_.exchange(Fiber::kWakeParked,
                                             std::memory_order_acq_rel);
      lock.lock();
      if (prev == Fiber::kWakeNotified) {
        // The notifier fired mid-switch; requeue now (inline — mutex_ is
        // already held, so enqueue() would self-deadlock).
        fiber->phase_ = Fiber::Phase::kRunnable;
        runq_.push_back(fiber);
        cv_.notify_one();
      }
      --running_;
    }
    // Every wakeup originates from a running fiber (notify paths) or from
    // this worker's own post-processing (just finished), so an empty run
    // queue with nothing running and fibers still live is a genuine
    // deadlock — report it instead of hanging like thread-per-rank does.
    if (runq_.empty() && running_ == 0 && live_ > 0) {
      deadlock_ = true;
      cv_.notify_all();
      return;
    }
  }
}

}  // namespace camb
