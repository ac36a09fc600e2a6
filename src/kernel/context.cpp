#include "kernel/context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <limits>
#include <new>
#include <system_error>
#include <utility>

#include "kernel/report.hpp"

// ASan cannot follow a stack switch on its own (it sees one linear stack and
// reports false use-after-scope when we land on another fiber); the fiber
// annotations below tell it about every switch so sanitized builds are
// clean. See https://github.com/google/sanitizers/issues/189.
#if defined(__SANITIZE_ADDRESS__)
#define RTSC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTSC_ASAN_FIBERS 1
#endif
#endif
#ifdef RTSC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs to be told about fiber switches, or it
// attributes one fiber's accesses to another's stack and reports bogus
// races (and misses real ones) when several simulators run on separate
// threads (src/campaign/).
#if defined(__SANITIZE_THREAD__)
#define RTSC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RTSC_TSAN_FIBERS 1
#endif
#endif
#ifdef RTSC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// rtsc_ctx_switch(save_sp, load_sp): push the SysV callee-saved registers and
// the floating-point control state onto the current stack, store the stack
// pointer in *save_sp, switch to load_sp and pop the same frame from there.
// The frame, in 8-byte words upwards from a saved stack pointer:
//   [0] MXCSR (bytes 0-3) and x87 control word (bytes 4-5)
//   [1] r15  [2] r14  [3] r13  [4] r12  [5] rbx  [6] rbp  [7] return address
// Everything else is caller-saved, so the compiler already keeps it out of
// registers across this call. The signal mask is not switched (DESIGN.md §7).
extern "C" void rtsc_ctx_switch(void** save_sp, void* load_sp);
asm(R"(
    .pushsection .text
    .globl rtsc_ctx_switch
    .hidden rtsc_ctx_switch
    .type rtsc_ctx_switch, @function
    .p2align 4
rtsc_ctx_switch:
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
    ret
    .size rtsc_ctx_switch, .-rtsc_ctx_switch
    .popsection
)");
#endif

namespace rtsc::kernel {

namespace {
thread_local Coroutine* g_current = nullptr;

/// Announce an upcoming switch to the stack [bottom, bottom+size); the
/// current context's fake stack is parked in *fake_save (nullptr destroys
/// it — only valid when this context never runs again).
void start_switch_fiber([[maybe_unused]] void** fake_save,
                        [[maybe_unused]] const void* bottom,
                        [[maybe_unused]] std::size_t size) {
#ifdef RTSC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_save, bottom, size);
#endif
}

/// First call on the destination stack after a switch: restore this
/// context's fake stack and report where the switch came from.
void finish_switch_fiber([[maybe_unused]] void* fake_save,
                         [[maybe_unused]] const void** from_bottom,
                         [[maybe_unused]] std::size_t* from_size) {
#ifdef RTSC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_save, from_bottom, from_size);
#endif
}

[[nodiscard]] void* tsan_this_fiber() {
#ifdef RTSC_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

void tsan_switch_fiber([[maybe_unused]] void* fiber) {
#ifdef RTSC_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

std::size_t page_size() {
    static const std::size_t sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return sz;
}

std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) / align * align;
}

/// Stack mappings, guard page included and still PROT_NONE, that destroyed
/// coroutines left on this thread, kept for the next coroutine whose stack
/// has the same size. Reuse skips mmap, mprotect, munmap and the first-touch
/// page faults of a fresh stack (DESIGN.md §7).
class StackPool {
public:
    StackPool() = default;
    StackPool(const StackPool&) = delete;
    StackPool& operator=(const StackPool&) = delete;
    ~StackPool();

    /// A pooled mapping of exactly `bytes`, or nullptr.
    void* take(std::size_t bytes) noexcept {
        for (std::size_t i = count_; i-- > 0;) {
            if (slots_[i].bytes != bytes) continue;
            void* base = slots_[i].base;
            slots_[i] = slots_[--count_];
            return base;
        }
        return nullptr;
    }

    /// Keep a mapping for reuse; false, keeping nothing, when the pool is
    /// full.
    bool give(void* base, std::size_t bytes) noexcept {
        if (count_ == Coroutine::stack_pool_capacity) return false;
        slots_[count_++] = {base, bytes};
        return true;
    }

private:
    struct Mapping {
        void* base;
        std::size_t bytes;
    };
    Mapping slots_[Coroutine::stack_pool_capacity];
    std::size_t count_ = 0;
};

thread_local StackPool g_pool;
/// Set when this thread's pool is destroyed. A stack released after that
/// (a static's destructor runs after the main thread's thread-locals) is
/// unmapped directly. Trivially destructible, so it outlives the pool.
thread_local bool g_pool_closed = false;

StackPool::~StackPool() {
    for (std::size_t i = 0; i < count_; ++i)
        ::munmap(slots_[i].base, slots_[i].bytes);
    g_pool_closed = true;
}

/// A stack mapping of `bytes` whose lowest page is the guard page: a pooled
/// one if this thread has one, else a fresh one.
void* map_stack(std::size_t bytes, std::size_t pg) {
    if (!g_pool_closed)
        if (void* mem = g_pool.take(bytes)) return mem;
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc{};
    // Without the guard page an overflow would silently run into whatever is
    // mapped beneath, so failing to set it is fatal.
    if (::mprotect(mem, pg, PROT_NONE) != 0) {
        const int err = errno;
        ::munmap(mem, bytes);
        throw std::system_error(err, std::generic_category(),
                                "Coroutine: cannot protect the stack guard page");
    }
    return mem;
}

void unmap_stack(void* base, std::size_t bytes) noexcept {
    if (g_pool_closed || !g_pool.give(base, bytes)) ::munmap(base, bytes);
}
} // namespace

Coroutine* Coroutine::current() noexcept { return g_current; }

Coroutine::Coroutine(Body body, std::size_t stack_bytes) : body_(std::move(body)) {
    const std::size_t pg = page_size();
    // The page round-up plus the guard page must not wrap: a wrapped size
    // would put the initial frame on the guard page.
    if (stack_bytes > std::numeric_limits<std::size_t>::max() - 2 * pg + 1)
        throw std::bad_alloc{};
    stack_size_ = round_up(stack_bytes < 4 * pg ? 4 * pg : stack_bytes, pg);
    stack_lo_ = static_cast<char*>(map_stack(stack_size_ + pg, pg)) + pg;

#if defined(__x86_64__)
    // The frame the first rtsc_ctx_switch into this stack pops: default MXCSR
    // and x87 control word, zeroed registers, then entry() as the return
    // address with a null return address above it. entry() therefore starts
    // exactly as if called (rsp = 8 mod 16), and backtraces end there.
    auto* top = reinterpret_cast<std::uint64_t*>(static_cast<char*>(stack_lo_) +
                                                 stack_size_);
    std::uint64_t* frame = top - 9;
    frame[0] = 0x1F80u | (std::uint64_t{0x037F} << 32);
    for (int i = 1; i <= 6; ++i) frame[i] = 0;
    frame[7] = reinterpret_cast<std::uint64_t>(&Coroutine::entry);
    frame[8] = 0;
    sp_ = frame;
#else
    ::getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_lo_;
    ctx_.uc_stack.ss_size = stack_size_;
    ctx_.uc_link = nullptr; // bodies always return through run_body -> yield
    ::makecontext(&ctx_, &Coroutine::entry, 0);
#endif

#ifdef RTSC_TSAN_FIBERS
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Coroutine::~Coroutine() {
#ifdef RTSC_TSAN_FIBERS
    if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifdef RTSC_ASAN_FIBERS
    // Frames of a body that never returned keep their redzones poisoned; the
    // next coroutine on this stack, or a later mapping at this address, must
    // not inherit them.
    __asan_unpoison_memory_region(stack_lo_, stack_size_);
#endif
    const std::size_t pg = page_size();
    unmap_stack(static_cast<char*>(stack_lo_) - pg, stack_size_ + pg);
}

void Coroutine::entry() { g_current->run_body(); }

void Coroutine::run_body() {
    // First instruction on this fiber's stack: complete the switch that
    // resume() started and learn the resumer's stack for the way back.
    finish_switch_fiber(nullptr, &asan_return_stack_, &asan_return_stack_size_);
    try {
        body_();
    } catch (const ProcessKilled&) {
        // Simulator::kill_process unwound the body: a normal termination.
    } catch (...) {
        eptr_ = std::current_exception();
    }
    finished_ = true;
    // Final switch back to the scheduler; this coroutine never runs again,
    // so its fake stack is destroyed (nullptr) rather than parked.
    start_switch_fiber(nullptr, asan_return_stack_, asan_return_stack_size_);
    tsan_switch_fiber(tsan_caller_);
    switch_out();
}

void Coroutine::switch_in() {
#if defined(__x86_64__)
    rtsc_ctx_switch(&return_sp_, sp_);
#else
    ::swapcontext(&return_ctx_, &ctx_);
#endif
}

void Coroutine::switch_out() {
#if defined(__x86_64__)
    rtsc_ctx_switch(&sp_, return_sp_);
#else
    ::swapcontext(&ctx_, &return_ctx_);
#endif
}

void Coroutine::resume() {
    if (finished_)
        throw SimulationError("Coroutine::resume() on a finished coroutine");
    Coroutine* prev = g_current;
    g_current = this;
    started_ = true;
    void* caller_fake = nullptr;
    start_switch_fiber(&caller_fake, stack_lo_, stack_size_);
    tsan_caller_ = tsan_this_fiber();
    tsan_switch_fiber(tsan_fiber_);
    switch_in();
    finish_switch_fiber(caller_fake, nullptr, nullptr);
    g_current = prev;
    if (eptr_) {
        auto e = std::exchange(eptr_, nullptr);
        std::rethrow_exception(e);
    }
}

void Coroutine::yield() {
    start_switch_fiber(&asan_fake_stack_, asan_return_stack_,
                       asan_return_stack_size_);
    tsan_switch_fiber(tsan_caller_);
    switch_out();
    // Re-entered: refresh the resumer's stack extents — a different context
    // (e.g. a task performing a kill) may have resumed us this time.
    finish_switch_fiber(asan_fake_stack_, &asan_return_stack_,
                        &asan_return_stack_size_);
}

} // namespace rtsc::kernel
