#pragma once
// MCSE Message-queue relation (§2): "it implements a producer/consumer type
// of relation. Its message capacity is a parameter."
//
// Bounded or unbounded FIFO of typed messages. read() blocks on empty,
// write() blocks on full (bounded queues). Software tasks block in the RTOS
// Waiting state; hardware processes block at kernel level, so queues can
// cross the HW/SW boundary.

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "mcse/relation.hpp"
#include "rtos/engine.hpp"

namespace rtsc::mcse {

template <typename T>
class MessageQueue final : public Relation {
public:
    /// capacity == 0 means unbounded.
    MessageQueue(std::string name, std::size_t capacity)
        : Relation(std::move(name)), capacity_(capacity) {}

    [[nodiscard]] const char* type_name() const noexcept override {
        return "message_queue";
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool unbounded() const noexcept { return capacity_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] bool full() const noexcept {
        return !unbounded() && buf_.size() >= capacity_;
    }

    /// Append a message, blocking while the queue is full. If a task reader
    /// is blocked on the queue, the message is handed to it by *reservation*
    /// at write time (popped into the waiter's slot before it is woken), so
    /// no try_read or later-arriving reader can barge in between its wake-up
    /// and resumption.
    void write(T msg) {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        bool blocked = false;
        if (task != nullptr) {
            while (full()) {
                blocked = true;
                TaskWaiter w{task};
                block_task(w, write_waiters_, rtos::TaskState::waiting);
            }
        } else {
            while (full()) {
                blocked = true;
                kernel::wait(hw_wake());
            }
        }
        // Fault injection: the sender believes the message went out; the
        // queue never sees it.
        if (lose_transfer()) {
            record(task, AccessKind::write_op,
                   blocked ? now() - started : kernel::Time::zero(), blocked);
            return;
        }
        push(std::move(msg));
        deliver_reader();
        hw_wake().notify();
        record(task, AccessKind::write_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
    }

    /// Remove the oldest message, blocking while the queue is empty.
    [[nodiscard]] T read() {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        bool blocked = false;
        if (task != nullptr) {
            if (buf_.empty()) {
                blocked = true;
                ReadWaiter w{{task}, {}};
                MsgGuard msg_guard(*this, w); // unwind-safe: re-queue the msg
                block_task(w, read_waiters_, rtos::TaskState::waiting);
                msg_guard.armed = false;
                record(task, AccessKind::read_op, now() - started, true);
                return std::move(*w.slot);
            }
        } else {
            while (buf_.empty()) {
                blocked = true;
                kernel::wait(hw_wake());
            }
        }
        T msg = pop();
        wake_one(write_waiters_);
        hw_wake().notify();
        record(task, AccessKind::read_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
        return msg;
    }

    /// Bounded-wait read: like read(), but gives up after `timeout`.
    /// Returns whether a message was received. A delivery racing the
    /// deadline at the same instant wins (the message already sits in this
    /// waiter's slot), matching the kernel's wait(Time, Event&) tie rule.
    /// (Extension: timed receives are a standard RTOS message-queue
    /// primitive.)
    [[nodiscard]] bool read_for(T& out, kernel::Time timeout) {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        const kernel::Time deadline = started + timeout;
        bool blocked = false;
        if (task != nullptr) {
            if (buf_.empty()) {
                ReadWaiter w{{task}, {}};
                read_waiters_.push_back(&w);
                WaiterGuard guard(w, read_waiters_); // unwind/timeout-safe dereg
                MsgGuard msg_guard(*this, w);        // unwind-safe: re-queue
                while (!w.delivered) {
                    const kernel::Time remaining =
                        kernel::Time::sat_sub(deadline, now());
                    if (remaining.is_zero()) {
                        record(task, AccessKind::read_op,
                               blocked ? now() - started : kernel::Time::zero(),
                               blocked);
                        return false;
                    }
                    blocked = true;
                    (void)task->processor().engine().block_timed(
                        *task, rtos::TaskState::waiting, remaining, this);
                    // If a write delivered while the timeout wake was in
                    // flight, the loop condition spots it: delivery wins.
                }
                msg_guard.armed = false;
                out = std::move(*w.slot);
                record(task, AccessKind::read_op, now() - started, true);
                return true;
            }
        } else {
            while (buf_.empty()) {
                const kernel::Time remaining =
                    kernel::Time::sat_sub(deadline, now());
                if (remaining.is_zero()) {
                    record(nullptr, AccessKind::read_op,
                           blocked ? now() - started : kernel::Time::zero(),
                           blocked);
                    return false;
                }
                blocked = true;
                (void)kernel::Simulator::current().wait(remaining, hw_wake());
            }
        }
        out = pop();
        wake_one(write_waiters_);
        hw_wake().notify();
        record(task, AccessKind::read_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
        return true;
    }

    /// Non-blocking write; returns false when full.
    [[nodiscard]] bool try_write(T msg) {
        if (full()) return false;
        if (lose_transfer()) {
            record(rtos::current_task(), AccessKind::write_op,
                   kernel::Time::zero(), false);
            return true; // the sender believes it succeeded
        }
        push(std::move(msg));
        deliver_reader();
        hw_wake().notify();
        record(rtos::current_task(), AccessKind::write_op, kernel::Time::zero(),
               false);
        return true;
    }

    /// Non-blocking read; returns false when empty. Messages already
    /// reserved for blocked readers are invisible here (the buffer is
    /// empty), so a waiter can never lose its delivery to a try_read.
    [[nodiscard]] bool try_read(T& out) {
        if (buf_.empty()) return false;
        out = pop();
        wake_one(write_waiters_);
        hw_wake().notify();
        record(rtos::current_task(), AccessKind::read_op, kernel::Time::zero(),
               false);
        return true;
    }

    // ---- occupancy statistics ----
    [[nodiscard]] std::uint64_t messages_written() const noexcept { return written_; }
    [[nodiscard]] std::size_t max_occupancy() const noexcept { return max_occupancy_; }
    /// Time-averaged occupancy (messages).
    [[nodiscard]] double average_occupancy() const {
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : occupancy_integral_sec() / total;
    }
    /// Fraction of elapsed time the queue was non-empty.
    [[nodiscard]] double utilization() const override {
        const auto busy = non_empty_time_ +
                          (buf_.empty() ? kernel::Time::zero() : now() - last_change_);
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : busy.to_sec() / total;
    }

private:
    /// A blocked task reader; delivery fills `slot` before the wake-up.
    struct ReadWaiter : TaskWaiter {
        std::optional<T> slot;
    };

    /// Hand the oldest buffered message to the oldest live task reader, if
    /// both exist: pop it into the waiter's slot, mark it delivered and make
    /// it ready. Freeing the buffer slot may in turn admit a blocked writer.
    /// Only read()/read_for() register waiters in read_waiters_, so the
    /// downcast is safe.
    void deliver_reader() {
        bool popped = false;
        while (!buf_.empty() && !read_waiters_.empty()) {
            TaskWaiter* w = read_waiters_.front();
            read_waiters_.pop_front();
            if (w->task->killed() || w->task->crashed() || w->task->terminated())
                continue;
            static_cast<ReadWaiter*>(w)->slot = pop();
            popped = true;
            w->delivered = true;
            w->task->processor().engine().make_ready(*w->task);
        }
        if (popped) {
            wake_one(write_waiters_);
            hw_wake().notify();
        }
    }

    /// A delivered-but-unconsumed message flows back to the front of the
    /// buffer when the reader's stack unwinds (kill/crash between delivery
    /// and resumption); the next reader inherits it.
    struct MsgGuard {
        MessageQueue& q;
        ReadWaiter& w;
        bool armed = true;
        MsgGuard(MessageQueue& queue, ReadWaiter& waiter) : q(queue), w(waiter) {}
        ~MsgGuard() {
            if (!armed || !w.delivered || !w.slot.has_value()) return;
            q.account_change();
            q.buf_.push_front(std::move(*w.slot));
            q.max_occupancy_ = std::max(q.max_occupancy_, q.buf_.size());
            q.deliver_reader();
            q.hw_wake().notify();
        }
    };

    void account_change() {
        const kernel::Time t = now();
        const kernel::Time d = t - last_change_;
        occupancy_time_weight_ += static_cast<double>(buf_.size()) * d.to_sec();
        if (!buf_.empty()) non_empty_time_ += d;
        last_change_ = t;
    }

    [[nodiscard]] double occupancy_integral_sec() const {
        return occupancy_time_weight_ +
               static_cast<double>(buf_.size()) * (now() - last_change_).to_sec();
    }

    void push(T msg) {
        account_change();
        buf_.push_back(std::move(msg));
        ++written_;
        max_occupancy_ = std::max(max_occupancy_, buf_.size());
    }

    [[nodiscard]] T pop() {
        account_change();
        T msg = std::move(buf_.front());
        buf_.pop_front();
        return msg;
    }

    std::size_t capacity_;
    std::deque<T> buf_;
    std::deque<TaskWaiter*> read_waiters_;
    std::deque<TaskWaiter*> write_waiters_;

    std::uint64_t written_ = 0;
    std::size_t max_occupancy_ = 0;
    kernel::Time last_change_{};
    kernel::Time non_empty_time_{};
    double occupancy_time_weight_ = 0.0;
};

} // namespace rtsc::mcse
